"""The three workloads: input sizes and the settings each stage runs with.

Why each exists, and which metric each layer should move, is in README.md.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    n_dbs: int
    rows: int  # rows per fact table (employee; Patient and Laboratory)
    n_train: int
    n_test: int
    kb_entries: int  # > 0: a supplied KB of this size is loaded in set-up
    build_iterations: int  # 0: no build-kb stage
    train_head: bool
    llm: str  # "mock" (in-process oracle) | "http" (fake endpoint)
    deterministic_timing: bool


WORKLOADS = {
    w.name: w
    for w in [
        Workload("kb-build", n_dbs=20, rows=200, n_train=800, n_test=50, kb_entries=0,
                 build_iterations=3, train_head=True, llm="mock",
                 deterministic_timing=True),
        Workload("kb-50k", n_dbs=8, rows=20000, n_train=300, n_test=40, kb_entries=50000,
                 build_iterations=0, train_head=True, llm="mock",
                 deterministic_timing=False),
        Workload("remote-llm", n_dbs=10, rows=200, n_train=100, n_test=50, kb_entries=0,
                 build_iterations=2, train_head=False, llm="http",
                 deterministic_timing=True),
    ]
}
