"""Execution-level and knowledge-level metrics.

Execution Accuracy compares predicted and gold result sets (multiset
semantics unless the gold SQL orders its output); the efficiency score
weights each match by the square-rooted gold/predicted runtime ratio.
"""

from __future__ import annotations

import json
import math
import re
import sqlite3
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

import numpy as np

from .dataset import Dataset
from .errors import (
    AlignmentError,
    EmptySetError,
    NonPositiveTimeError,
)
from .knowledge_base import normalize_text
from .ranking import cosine_key
from .retriever import _dots, _sq_norms, raw_blocks

if TYPE_CHECKING:
    from .knowledge_base import KnowledgeBase
    from .pipeline import PipelineOutput
    from .retriever import EmbeddingProvider

_ORDER_BY = re.compile(r"\border\s+by\b", re.IGNORECASE)

FLOAT_TOLERANCE = 1e-6


@dataclass(frozen=True)
class ExecutionResult:
    rows: tuple[tuple, ...]
    ordered: bool
    elapsed: float
    status: str  # "ok" | "error" | "timeout"
    error: Optional[str] = None


def sql_is_ordered(sql: str) -> bool:
    return bool(_ORDER_BY.search(sql))


def execute_sql(
    db_file: Path | str,
    sql: str,
    timeout: float = 30.0,
    ordered: Optional[bool] = None,
    max_rows: Optional[int] = None,
) -> ExecutionResult:
    """Run a statement read-only; errors and timeouts land in the status.

    `elapsed` covers executing the statement and fetching its rows, not
    opening the connection. With `max_rows`, at most that many rows are
    fetched, so a runaway result cannot exhaust memory; the status stays
    "ok".
    """
    if ordered is None:
        ordered = sql_is_ordered(sql)
    deadline = time.monotonic() + timeout
    start = time.monotonic()
    try:
        con = sqlite3.connect(f"file:{Path(db_file)}?mode=ro", uri=True)
        try:
            con.set_progress_handler(lambda: 1 if time.monotonic() > deadline else 0, 1000)
            start = time.monotonic()
            cursor = con.execute(sql)
            fetched = cursor.fetchall() if max_rows is None else cursor.fetchmany(max_rows)
            elapsed = time.monotonic() - start
        finally:
            con.close()
    except sqlite3.Error as exc:
        elapsed = time.monotonic() - start
        status = "timeout" if time.monotonic() > deadline else "error"
        return ExecutionResult(
            rows=(), ordered=ordered, elapsed=elapsed, status=status, error=str(exc)
        )
    return ExecutionResult(
        rows=tuple(tuple(r) for r in fetched), ordered=ordered, elapsed=elapsed, status="ok"
    )


def _cells_equal(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    if isinstance(a, bool) or isinstance(b, bool):
        return a == b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return math.isclose(a, b, rel_tol=0.0, abs_tol=FLOAT_TOLERANCE)
    return a == b


def _rows_equal(a: tuple, b: tuple) -> bool:
    return len(a) == len(b) and all(_cells_equal(x, y) for x, y in zip(a, b))


def _sort_key(row: tuple) -> tuple:
    key = []
    for cell in row:
        if cell is None:
            key.append((0, ""))
        elif isinstance(cell, (int, float)) and not isinstance(cell, bool):
            # quantized so values within tolerance share a key
            key.append((1, round(float(cell), 6)))
        else:
            key.append((2, str(cell)))
    return tuple(key)


def execution_match(pred: ExecutionResult, gold: ExecutionResult) -> bool:
    """True when both executions succeeded and produced the same result set.

    Ordered gold queries require exact row order; otherwise rows compare
    as multisets. Numeric cells use an absolute tolerance; NULL only
    equals NULL.
    """
    if pred.status != "ok" or gold.status != "ok":
        return False
    if len(pred.rows) != len(gold.rows):
        return False
    if gold.ordered:
        return all(_rows_equal(p, g) for p, g in zip(pred.rows, gold.rows))
    pred_sorted = sorted(pred.rows, key=_sort_key)
    gold_sorted = sorted(gold.rows, key=_sort_key)
    return all(_rows_equal(p, g) for p, g in zip(pred_sorted, gold_sorted))


def compute_ex(matches: Sequence[bool]) -> float:
    """Execution accuracy in percent."""
    if not matches:
        raise EmptySetError("no queries to score")
    return 100.0 * sum(matches) / len(matches)


def _ves_term(match: bool, t_gold: float, t_pred: float, clip_max: float) -> float:
    """One query's efficiency term: sqrt(t_gold/t_pred) capped at clip_max
    for a match, 0 otherwise."""
    if not match:
        return 0.0
    if t_gold <= 0 or t_pred <= 0:
        raise NonPositiveTimeError(
            f"matched query has non-positive time: gold={t_gold}, pred={t_pred}"
        )
    return min(math.sqrt(t_gold / t_pred), clip_max)


def compute_ves(
    per_query: Sequence[tuple[bool, float, float]],
    clip_max: float = 100.0,
) -> float:
    """Efficiency score: (100/N) * sum over matches of sqrt(t_gold/t_pred).

    The ratio is clipped to [0, clip_max] to bound timer noise. Per-query
    times are expected to be medians over repeated runs of the statement
    alone (see time_query), the EX run being the first. Unmatched queries
    score 0 whatever their times, so `evaluate_run` does not time them; a
    prediction identical to the gold SQL runs once, for EX, and its term is
    exactly 1 without timing.
    """
    if not per_query:
        raise EmptySetError("no queries to score")
    total = sum(_ves_term(*timing, clip_max) for timing in per_query)
    return 100.0 * total / len(per_query)


def time_query(
    db_file: Path | str,
    sql: str,
    runs: int = 3,
    timeout: float = 30.0,
    first: Optional[float] = None,
) -> float:
    """Median wall-clock execution time over `runs` samples; 0.0 if a run
    fails.

    `first` is the elapsed time of a run already made (the EX run); it
    counts as the first sample, so only `runs - 1` more runs are made.
    """
    times = [] if first is None else [max(first, 1e-9)]
    while len(times) < max(1, runs):
        result = execute_sql(db_file, sql, timeout=timeout)
        if result.status != "ok":
            return 0.0
        times.append(max(result.elapsed, 1e-9))
    return statistics.median(times)


def knowledge_exact_match(generated: str, gold: str) -> bool:
    """Equality under the knowledge-base dedup normalization."""
    if not gold:
        raise ValueError("gold knowledge must be non-empty")
    return normalize_text(generated) == normalize_text(gold)


def knowledge_semantic_similarity(
    generated: str, gold: str, provider: "EmbeddingProvider"
) -> float:
    """Cosine similarity of provider embeddings, in [-1, 1]."""
    if not generated or not gold:
        raise ValueError("both texts must be non-empty")
    return float(provider.embed(generated) @ provider.embed(gold))


@dataclass
class CoverageReport:
    exact_match_pct: float
    mean_best_similarity: float
    per_gold: list[dict] = field(default_factory=list)


def score_blocks(blocks: Iterable[tuple[int, np.ndarray]], probes: np.ndarray) -> np.ndarray:
    """Each probe's best cosine similarity over the rows of raw row blocks,
    given as (first row, rows) pairs.

    `probes` holds raw provider rows, one per probe; the rows are taken as
    stored (hash token counts in their narrow type). Each block is scored
    against all probes by `_dots` and `_sq_norms`, which widen count rows to
    float64, and ranked by `cosine_key`; the best key k of a probe p is
    returned as the cosine sign(k)·sqrt(|k|) / ‖p‖, 0 for an all-zero probe.
    With the hash backend the keys are exact, so the result does not depend
    on the blocking. The result is -inf for a probe with tokens when there
    are no rows.
    """
    best = np.full(len(probes), -np.inf)
    for _, rows in blocks:
        keys = cosine_key(_dots(probes, rows), _sq_norms(rows))
        np.maximum(best, keys.max(axis=1), out=best)
    probe_norms = np.sqrt(_sq_norms(probes))
    root = np.sign(best) * np.sqrt(np.abs(best))
    return np.divide(root, probe_norms, out=np.zeros_like(best), where=probe_norms > 0)


def kb_coverage(
    kb: "KnowledgeBase",
    gold_knowledge: Sequence[str],
    provider: "EmbeddingProvider",
    blocks: Optional[Iterable[tuple[int, np.ndarray]]] = None,
) -> CoverageReport:
    """How well the KB covers a gold knowledge list: exact membership under
    normalization, plus each gold item's best cosine similarity over the
    KB's raw rows (see `score_blocks`), 0 for an empty KB.

    `blocks` gives the KB's raw row blocks in id order, as
    `StoredIndex.raw_blocks()` reads them from the index file; without it
    the KB is embedded here one row block at a time (`raw_blocks`).
    """
    if not gold_knowledge:
        raise EmptySetError("gold knowledge list must be non-empty")
    probes = np.array([provider.raw(g) for g in gold_knowledge])
    if blocks is None:
        blocks = raw_blocks([e.text for e in kb.sorted_entries()], provider)
    best_similarity = score_blocks(blocks, probes) if len(kb) else np.zeros(len(probes))
    per_gold = [
        {"gold": gold, "exact": gold in kb, "best_similarity": float(best)}
        for gold, best in zip(gold_knowledge, best_similarity, strict=True)
    ]
    n = len(gold_knowledge)
    return CoverageReport(
        exact_match_pct=100.0 * sum(p["exact"] for p in per_gold) / n,
        mean_best_similarity=float(
            np.mean([p["best_similarity"] for p in per_gold])
        ),
        per_gold=per_gold,
    )


@dataclass
class EvalConfig:
    timeout: float = 30.0
    timing_runs: int = 3
    clip_max: float = 100.0
    deterministic_timing: bool = False  # fixed unit times; VES collapses to EX

    def __post_init__(self) -> None:
        if not self.timeout > 0:  # also rejects NaN
            raise ValueError("timeout must be > 0")
        if self.timing_runs < 1:
            raise ValueError("timing_runs must be >= 1")
        if not self.clip_max > 0:
            raise ValueError("clip_max must be > 0")


@dataclass
class EvalReport:
    per_query: list[dict]
    ex: float
    ves: float
    em_pct: Optional[float]
    mean_ss: Optional[float]
    n_queries: int
    n_errors: int
    retrieval: Optional[dict] = None
    coverage: Optional[dict] = None
    config_hash: Optional[str] = None

    def to_dict(self) -> dict:
        return {
            "config_hash": self.config_hash,
            "n_queries": self.n_queries,
            "n_errors": self.n_errors,
            "aggregates": {
                "ex": self.ex,
                "ves": self.ves,
                "em_pct": self.em_pct,
                "mean_ss": self.mean_ss,
            },
            "retrieval": self.retrieval,
            "coverage": self.coverage,
            "per_query": self.per_query,
        }

    def save(self, path: Path | str) -> None:
        Path(path).write_text(
            json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"
        )

    def render_table(self) -> str:
        """Aligned text table of the aggregate metrics."""
        rows = [("EX", f"{self.ex:.2f}"), ("VES", f"{self.ves:.2f}")]
        if self.em_pct is not None:
            rows.append(("EM", f"{self.em_pct:.2f}"))
        if self.mean_ss is not None:
            rows.append(("SS", f"{self.mean_ss:.4f}"))
        if self.retrieval:
            rows.append(("MRR", f"{self.retrieval['mrr']:.4f}"))
            for k, v in sorted(self.retrieval["top_at"].items(), key=lambda kv: int(kv[0])):
                rows.append((f"Top@{k}", f"{v:.4f}"))
        if self.coverage:
            rows.append(("KB EM%", f"{self.coverage['exact_match_pct']:.2f}"))
            rows.append(("KB SS", f"{self.coverage['mean_best_similarity']:.4f}"))
        width = max(len(name) for name, _ in rows)
        lines = [f"{name:<{width}}  {value}" for name, value in rows]
        header = f"{'Metric':<{width}}  Value"
        rule = "-" * len(header)
        return "\n".join([header, rule, *lines])


def evaluate_run(
    outputs: Sequence["PipelineOutput"],
    dataset: Dataset,
    config: Optional[EvalConfig] = None,
    provider: Optional["EmbeddingProvider"] = None,
) -> EvalReport:
    """Score pipeline outputs against the dataset's gold SQL and knowledge."""
    config = config or EvalConfig()
    if not outputs:
        raise AlignmentError("no outputs to evaluate")
    by_id = {rec.query.id: rec for rec in dataset.records}
    missing = [o.query_id for o in outputs if o.query_id not in by_id]
    if missing:
        raise AlignmentError(f"outputs reference unknown queries: {missing}")

    per_query = []
    timings = []
    em_flags = []
    ss_values = []
    n_errors = 0
    for out in outputs:
        rec = by_id[out.query_id]
        schema = dataset.schema_for(rec.schema_ref)
        db_file = schema.db_file
        entry: dict = {"query_id": out.query_id}
        if rec.gold_sql is None or db_file is None:
            raise AlignmentError(
                f"record {out.query_id} has no gold SQL or database file"
            )
        gold_res = execute_sql(db_file, rec.gold_sql, timeout=config.timeout)
        if out.sql is None:
            match = False
            n_errors += 1
            entry["error"] = out.error
        else:
            # The same statement on the same read-only database: run it once.
            # Otherwise a prediction with more rows than gold cannot match,
            # so no more are fetched.
            pred_res = gold_res if out.sql == rec.gold_sql else execute_sql(
                db_file,
                out.sql,
                timeout=config.timeout,
                ordered=gold_res.ordered,
                max_rows=len(gold_res.rows) + 1,
            )
            match = execution_match(pred_res, gold_res)
            entry["pred_status"] = pred_res.status
        entry["ex"] = int(match)
        if not match:  # the term is 0 whatever the times
            t_gold = t_pred = 0.0
        elif config.deterministic_timing or pred_res is gold_res:
            # every time is 1, or the prediction is the gold statement itself:
            # the term is 1 without a rerun
            t_gold = t_pred = 1.0
        else:
            t_gold = time_query(
                db_file, rec.gold_sql, config.timing_runs, config.timeout, gold_res.elapsed
            )
            t_pred = time_query(
                db_file, out.sql, config.timing_runs, config.timeout, pred_res.elapsed
            )
        # a match whose timing re-run failed (time 0) scores 0
        timing = (match and t_gold > 0 and t_pred > 0, t_gold, t_pred)
        entry["ves_term"] = _ves_term(*timing, config.clip_max)
        timings.append(timing)
        if rec.knowledge is not None and out.knowledge is not None:
            em = knowledge_exact_match(out.knowledge, rec.knowledge)
            entry["em"] = int(em)
            em_flags.append(em)
            if provider is not None:
                ss = knowledge_semantic_similarity(
                    out.knowledge, rec.knowledge, provider
                )
                entry["ss"] = ss
                ss_values.append(ss)
        per_query.append(entry)

    ex = compute_ex([bool(e["ex"]) for e in per_query])
    return EvalReport(
        per_query=per_query,
        ex=ex,
        ves=compute_ves(timings, config.clip_max),
        em_pct=(100.0 * sum(em_flags) / len(em_flags)) if em_flags else None,
        mean_ss=float(np.mean(ss_values)) if ss_values else None,
        n_queries=len(outputs),
        n_errors=n_errors,
    )
