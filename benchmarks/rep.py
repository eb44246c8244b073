"""One repetition of a workload, run in a fresh process like a CLI invocation.

usage: python -m benchmarks.rep WORKLOAD INPUT_DIR WORKSPACE SEED TRACE

Each stage calls its `sqlkb.cli` command function, so it makes the same
public calls and writes and reads back the same artifacts as the CLI. Three
CLI helpers are replaced while the stages run: `_train_dataset` and
`_test_dataset` return the datasets loaded in set-up, `_load_kb` returns the
supplied KB where the workload has one, and `_llm_client` gives a mock
client the oracle as its fallback and records every client for the operation
counts. Prints one JSON object: timings, operation counts, artifact digests,
failed checks and, when TRACE is 1, the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import sys
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path
from unittest import mock

from sqlkb import cli, llm, pipeline, retriever
from sqlkb import knowledge_base as kbm
from sqlkb.config import RunConfig, load_config
from sqlkb.llm import LlmClient

from .checks import brute_force_top, digest, expected_ex
from .oracle import GOLD_SHARE, FakeEndpoint, Oracle
from .trace import Tracer
from .workloads import WORKLOADS, Workload

RETRIEVE_SAMPLE = 5
STAGES = [
    ("build_kb", cli.cmd_build_kb),
    ("train_retriever", cli.cmd_train_retriever),
    ("generate", cli.cmd_generate),
    ("evaluate", cli.cmd_evaluate),
]


class Rep:
    """State of one repetition: timings and the LLM clients the stages made."""

    def __init__(self, w: Workload, cfg: RunConfig, oracle: Oracle, tracer: Tracer | None):
        self.w, self.cfg, self.oracle, self.tracer = w, cfg, oracle, tracer
        self.times: dict[str, float] = {}
        self.clients: list[LlmClient] = []
        self._cli_llm_client = cli._llm_client

    @contextmanager
    def stage(self, name: str):
        with self.tracer.span(f"cli.{name}") if self.tracer else nullcontext():
            start = time.perf_counter()
            try:
                yield
            finally:
                self.times[name] = time.perf_counter() - start

    def llm_client(self, cfg: RunConfig) -> LlmClient:
        client = self._cli_llm_client(cfg)
        if cfg["llm"]["backend"] == "mock":
            client.fallback = self.oracle
        self.clients.append(client)
        return client

    def run(self, inputs: Path):
        """Set-up, then the workload's stages; returns the set-up's outputs."""
        w, cfg = self.w, self.cfg
        with self.stage("setup"):
            train, test = cli._train_dataset(cfg), cli._test_dataset(cfg)
            kb = kbm.load_kb(inputs / "supplied_kb.jsonl") if w.kb_entries else None
        patches = {
            "_train_dataset": lambda cfg: train,
            "_test_dataset": lambda cfg: test,
            "_llm_client": self.llm_client,
        }
        if kb is not None:
            patches["_load_kb"] = lambda cfg, force: kb
        run = {"build_kb": w.build_iterations > 0, "train_retriever": w.train_head}
        args = argparse.Namespace(force=False)
        with mock.patch.multiple(cli, **patches), self.stage("loop"):
            for name, command in STAGES:
                if run.get(name, True):
                    with self.stage(name):
                        command(cfg, args)
        return test, kb


def overrides(w: Workload, seed: int, inputs: Path) -> list[str]:
    return [
        f"run.seed={seed}",
        f"dataset.train={inputs / 'train.json'}",
        f"dataset.test={inputs / 'test.json'}",
        f"dataset.db_dir={inputs / 'databases'}",
        f"kb.iterations={w.build_iterations}",
        f"retriever.use_head={w.train_head}",
        f"llm.backend={w.llm}",
        f"eval.deterministic_timing={w.deterministic_timing}",
    ]


def main(argv: list[str]) -> int:
    name, inputs, workspace, seed, trace = argv
    w, seed = WORKLOADS[name], int(seed)
    inputs, workspace = Path(inputs).resolve(), Path(workspace).resolve()
    workspace.mkdir(parents=True, exist_ok=True)
    gold = {r["question"]: r["SQL"] for r in json.loads((inputs / "test.json").read_text())}
    oracle = Oracle(gold, GOLD_SHARE, salt=str(seed))
    tracer = Tracer() if trace == "1" else None
    endpoint = FakeEndpoint(oracle) if w.llm == "http" else None
    if endpoint:
        # As a user points the CLI at a server; the port is not part of the config hash.
        os.environ[llm.ENDPOINT_ENV] = endpoint.start()
    cfg = load_config(None, workspace, overrides(w, seed, inputs))
    rep = Rep(w, cfg, oracle, tracer)
    if tracer:
        tracer.install()
    try:
        test, kb = rep.run(inputs)
    finally:
        if tracer:
            tracer.uninstall()
        if endpoint:
            endpoint.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # Operations: LLM completions, per-question SQL generations, predicted-SQL executions.
    completions = attempted = failed = 0
    for client in rep.clients:
        records = client.ledger.records
        completions += sum(r.ok for r in records)
        attempted += len(records)
        failed += sum(not r.ok for r in records)
    outputs, _ = pipeline.load_outputs(workspace / cli.OUTPUTS_FILE)
    report = json.loads((workspace / cli.REPORT_JSON).read_text())
    executed = [e for e in report["per_query"] if "pred_status" in e]
    attempted += len(outputs) + len(executed)
    failed += sum(1 for o in outputs if o.error)
    failed += sum(1 for e in executed if e["pred_status"] != "ok")

    failures = []
    if failed:
        failures.append(f"{failed} of {attempted} operations failed")
    questions = [r.query.text for r in test.records]
    want_ex = expected_ex(questions, GOLD_SHARE, str(seed))
    if report["aggregates"]["ex"] != want_ex:
        failures.append(f"EX {report['aggregates']['ex']} != oracle's {want_ex}")
    provider, head = cli._provider(cfg), cli._load_head(cfg)
    index = retriever.build_index(
        kb if kb is not None else cli._load_kb(cfg, force=False), provider, head)
    top_j = cfg["pipeline"]["top_j"]
    for q in random.Random(seed).sample(questions, min(RETRIEVE_SAMPLE, len(questions))):
        got = [e.id for e, _ in retriever.retrieve(q, index, top_j, provider, head)]
        want = brute_force_top(index.matrix, index.ids, retriever.embed(provider, q, head), top_j)
        if got != want:
            failures.append(f"retrieve top-{top_j} for {q!r}: {got} != brute force {want}")
    http = {"requests": 0, "retries": 0, "errors": 0, "inflight_max": 0}
    if endpoint:
        http = {
            "requests": endpoint.requests,
            "retries": endpoint.requests - completions,
            "errors": endpoint.errors,
            "inflight_max": endpoint.inflight_max,
        }
        if http["retries"] != endpoint.schedule.faults:
            failures.append(f"{http['retries']} retries != {endpoint.schedule.faults} injected faults")

    digests = {f: digest(workspace / f) for f in (cli.KB_FILE, cli.OUTPUTS_FILE)
               if (workspace / f).exists()}
    result = {
        "times": rep.times,
        "peak_rss_mb": peak_rss_mb,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "digests": digests,
    }
    if tracer:
        layers = tracer.metrics(cfg["retriever"]["epochs"])
        layers.update({
            "llm.http.requests": http["requests"],
            "llm.http.retries": http["retries"],
            "llm.http.status_429_5xx": http["errors"],
            "llm.inflight_max": http["inflight_max"],
        })
        result["layers"] = layers
        tracer.write(workspace / "trace.jsonl")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
