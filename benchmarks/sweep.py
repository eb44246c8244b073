"""Run the benchmark on several seeds and report each metric's run-to-run spread.

usage: python3 benchmarks/sweep.py [--workloads kb-build,kb-50k] [--seeds 1-10] [--out FILE]

For each workload and end-to-end metric it prints the median of the per-seed
values, their quartiles and the spread (q3 - q1) / median, next to the bound
in BENCHMARK.json. With --out the same table, plus the environment, is
written as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(spec: str) -> list[int]:
    first, _, last = spec.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    table: dict = {}
    env: dict = {}
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        for seed in seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True,
            )
            result = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.stdout else {}
            if proc.returncode != 0 or not result.get("correct"):
                print(proc.stdout[-3000:], proc.stderr[-3000:], file=sys.stderr)
                return 1
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            info = json.loads((ROOT / ".bench_work" / "results" /
                               f"{workload}-s{seed}-t0.json").read_text())
            for name, value in info["stages"].items():
                values.setdefault(name, []).append(value)
            env = {k: info[k] for k in ("commit", "nproc", "python", "numpy")}
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v[-1]:.4g}" for k, v in values.items()), flush=True)
        table[workload] = {}
        for name, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median if median else 0.0
            table[workload][name] = {
                "median": median, "q1": q1, "q3": q3, "spread": spread,
                "bound": bounds.get(name), "values": vals,
            }
            bound = bounds.get(name)
            flag = "" if bound is None or spread < bound / 3 else "  <-- above bound/3"
            print(f"  {workload:<11} {name:<18} median {median:10.4f}  spread {spread:6.3f}"
                  f"  bound {bound}{flag}", flush=True)
    if args.out:
        args.out.write_text(json.dumps({"environment": env, "seeds": args.seeds,
                                        "run_seconds": spec["run_seconds"],
                                        "workloads": table}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
