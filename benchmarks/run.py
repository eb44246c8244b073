"""Benchmark runner: one workload, one seed, repeated for a fixed time.

usage: python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Inputs are generated from the seed (cached
per workload and seed under .bench_work/, never timed). Each repetition runs
in a fresh Python process, so peak RSS is per repetition and every start is
cold, as a CLI invocation is. With --trace 1 the runner alternates traced and
untraced repetitions and reports the per-layer metrics of the traced ones.
The last line of standard output is one JSON object; any failed correctness
check makes the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
RUN_LIMIT = 170  # seconds a whole run may take; a run is killed at 180
CACHED_INPUTS = 4  # input sets kept per workload
STAGES = ("build_kb", "train_retriever", "generate", "evaluate")


def fail(message: str) -> int:
    print(f"benchmark error: {message}", file=sys.stderr)
    return 2


def environment() -> dict[str, str]:
    """The child environment: repository sources first, BLAS/OpenMP pinned to
    one thread (at most nproc). With two OpenBLAS threads on two cores, head
    training sometimes ran 8x slower than usual."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def inputs_for(workload, seed: int) -> Path:
    """Generated inputs for (workload, seed), built once into a cache."""
    from benchmarks import synth

    target = WORK / "inputs" / f"{workload.name}-s{seed}"
    if not target.exists():
        tmp = target.with_name(target.name + ".tmp")
        shutil.rmtree(tmp, ignore_errors=True)
        tmp.mkdir(parents=True)
        synth.generate(tmp, seed, workload.n_dbs, workload.rows, workload.n_train,
                       workload.n_test, workload.kb_entries)
        tmp.rename(target)
    cached = sorted((WORK / "inputs").glob(f"{workload.name}-s*[0-9]"),
                    key=lambda p: p.stat().st_mtime)
    for old in cached[:-CACHED_INPUTS]:
        if old != target:
            shutil.rmtree(old, ignore_errors=True)
    os.utime(target)
    return target


def repetition(workload, inputs: Path, workspace: Path, seed: int, trace: bool, env,
               timeout: float) -> dict:
    """One repetition in a fresh process; killed (and waited for) at the timeout."""
    shutil.rmtree(workspace, ignore_errors=True)
    proc = subprocess.run(
        [sys.executable, "-m", "benchmarks.rep", workload.name, str(inputs), str(workspace),
         str(seed), "1" if trace else "0"],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=timeout,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"repetition failed ({proc.returncode}):\n{proc.stderr[-4000:]}")
    return json.loads(lines[-1])


def git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT

    if not (ROOT / "src" / "sqlkb" / "__init__.py").is_file():
        return fail(f"no sqlkb sources under {ROOT / 'src'}")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import numpy

    from benchmarks.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    env = environment()
    inputs = inputs_for(workload, args.seed)

    run_dir = WORK / "runs" / f"{workload.name}-s{args.seed}-t{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    reps: list[tuple[bool, dict]] = []
    start = time.monotonic()
    last = 0.0
    while True:
        now = time.monotonic()
        traced = [t for t, _ in reps]
        enough = now - start >= args.seconds and (
            not args.trace or (any(traced) and not all(traced))
        )
        if reps and (enough or now + last > deadline):
            break
        trace = bool(args.trace) and len(reps) % 2 == 0
        try:
            result = repetition(workload, inputs, run_dir / "workspace", args.seed, trace, env,
                                timeout=max(deadline - now, 1.0))
        except (RuntimeError, subprocess.SubprocessError, ValueError) as exc:
            return fail(str(exc))
        last = time.monotonic() - now
        if trace:
            (run_dir / "workspace" / "trace.jsonl").rename(run_dir / f"trace-rep{len(reps)}.jsonl")
        reps.append((trace, result))

    failures = [f for _, r in reps for f in r["failures"]]
    for name in ("kb.jsonl", "outputs.jsonl"):
        seen = {r["digests"][name] for _, r in reps if name in r["digests"]}
        if len(seen) > 1:
            failures.append(f"{name} differs across repetitions: {sorted(seen)}")
    attempted = sum(r["attempted"] for _, r in reps)
    failed = sum(r["failed"] for _, r in reps)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    plain = [r for t, r in reps if not t]
    if not plain:
        return fail(f"no untraced repetition finished within {RUN_LIMIT} s")
    e2e = {}
    for m in spec["end_to_end"]:
        # "<stage>_s" is a stage wall time; anything else is a top-level field.
        values = [r["times"][m["name"][:-2]] if m["unit"] == "s" else r[m["name"]]
                  for r in plain]
        e2e[m["name"]] = {"value": statistics.median(values), "unit": m["unit"]}
    info = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "repetitions": len(reps), "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "commit": git_commit(), "failures": failures,
        "end_to_end": e2e, "repetition_times": [r["times"] for _, r in reps],
    }
    # Stage times: printed and recorded, not gated (see README.md).
    stages = {f"{k}_s": statistics.median(r["times"][k] for r in plain)
              for k in STAGES if k in plain[0]["times"]}
    info["stages"] = stages
    info["error_rate"] = failed / attempted

    print(f"workload {workload.name}  seed {args.seed}  repetitions {len(reps)}"
          f"  (nproc {info['nproc']}, python {info['python']}, numpy {info['numpy']},"
          f" commit {info['commit'][:12]})")
    for metric, m in e2e.items():
        print(f"  {metric:<16} {m['value']:12.4f} {m['unit']}")
    for name, value in stages.items():
        print(f"  {name:<16} {value:12.4f} s")
    print(f"  {'error_rate':<16} {info['error_rate']:12.4f} ({failed} of {attempted} operations)")

    metrics = e2e
    if args.trace:
        traced = [r["layers"] for t, r in reps if t]
        layers = {k: statistics.median(r[k] for r in traced) for k in traced[0]}
        layers["trace.overhead_s"] = layers["cli.loop.s"] - e2e["loop_s"]["value"]
        info["per_layer"] = layers
        metrics = {m["name"]: {"value": layers.get(m["name"], 0), "unit": m["unit"]}
                   for m in spec["per_layer"]}
        for name, m in metrics.items():
            print(f"  {name:<48} {m['value']:14.4f} {m['unit']}")
    for f in failures:
        print(f"CHECK FAILED: {f}")
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{workload.name}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(info, indent=1, sort_keys=True) + "\n")
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
