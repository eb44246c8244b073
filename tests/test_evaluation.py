import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqlkb import evaluation, retriever
from sqlkb.errors import AlignmentError, EmptySetError, NonPositiveTimeError
from sqlkb.evaluation import (
    EvalConfig,
    ExecutionResult,
    compute_ex,
    compute_ves,
    evaluate_run,
    execute_sql,
    execution_match,
    kb_coverage,
    knowledge_exact_match,
    knowledge_semantic_similarity,
    sql_is_ordered,
    time_query,
)
from sqlkb.knowledge_base import KnowledgeBase, KnowledgeEntry
from sqlkb.pipeline import PipelineOutput
from sqlkb.retriever import ROW_CHUNK, load_or_build_index


def company_db(toy_dir):
    return toy_dir / "databases" / "company.sqlite"


def clinic_db(toy_dir):
    return toy_dir / "databases" / "clinic.sqlite"


# --- execution ---

def test_execute_sql_basic(toy_dir):
    res = execute_sql(company_db(toy_dir), "SELECT COUNT(*) FROM employee")
    assert res.status == "ok"
    assert res.rows == ((8,),)
    assert not res.ordered


def test_execute_sql_error(toy_dir):
    res = execute_sql(company_db(toy_dir), "SELECT * FROM no_such_table")
    assert res.status == "error"
    assert res.rows == () and res.error


def test_execute_sql_read_only(toy_dir):
    res = execute_sql(company_db(toy_dir), "DELETE FROM employee")
    assert res.status == "error"


def test_execute_sql_timeout(toy_dir):
    # recursive CTE that would run far longer than the timeout
    slow = (
        "WITH RECURSIVE c(x) AS (SELECT 1 UNION ALL SELECT x+1 FROM c "
        "LIMIT 500000000) SELECT COUNT(*) FROM c"
    )
    res = execute_sql(company_db(toy_dir), slow, timeout=0.2)
    assert res.status == "timeout"


@pytest.mark.parametrize(
    "sql, expected",
    [
        ("SELECT a FROM t ORDER BY a", True),
        ("SELECT a FROM t order\n by a", True),
        ("SELECT a FROM t", False),
        ("SELECT border FROM bypass", False),
    ],
)
def test_sql_is_ordered(sql, expected):
    assert sql_is_ordered(sql) == expected


# --- result comparison ---

def ok(rows, ordered=False):
    return ExecutionResult(rows=tuple(map(tuple, rows)), ordered=ordered, elapsed=0.01, status="ok")


def test_match_unordered_multiset():
    assert execution_match(ok([(1,), (2,)]), ok([(2,), (1,)]))
    # multiset, not set: multiplicities must agree
    assert not execution_match(ok([(1,), (1,)]), ok([(1,), (2,)]))


def test_match_ordered_requires_order():
    assert not execution_match(ok([(1,), (2,)]), ok([(2,), (1,)], ordered=True))
    assert execution_match(ok([(2,), (1,)]), ok([(2,), (1,)], ordered=True))


def test_match_float_tolerance():
    assert execution_match(ok([(1.0000005,)]), ok([(1.0,)]))
    assert not execution_match(ok([(1.01,)]), ok([(1.0,)]))


def test_match_null_semantics():
    assert execution_match(ok([(None,)]), ok([(None,)]))
    assert not execution_match(ok([(None,)]), ok([(0,)]))
    assert not execution_match(ok([(None,)]), ok([("",)]))


def test_match_row_width_and_count():
    assert not execution_match(ok([(1, 2)]), ok([(1,)]))
    assert not execution_match(ok([(1,)]), ok([(1,), (1,)]))


def test_match_failed_execution_never_matches():
    err = ExecutionResult(rows=(), ordered=False, elapsed=0.0, status="error", error="x")
    assert not execution_match(err, ok([]))
    assert not execution_match(ok([]), err)


def test_match_mixed_types_unordered():
    rows = [(1, "a"), (None, "b"), (2.5, None)]
    assert execution_match(ok(rows), ok(list(reversed(rows))))


# --- fixture queries against the bundled databases ---

def test_fixture_queries_execution_match(toy_dir, test_ds):
    """The three reference predictions match their gold statements."""
    for rec in test_ds.records[:3]:
        db = toy_dir / "databases" / f"{rec.query.db_id}.sqlite"
        gold = execute_sql(db, rec.gold_sql)
        pred = execute_sql(db, rec.gold_sql, ordered=gold.ordered)
        assert gold.status == "ok"
        assert execution_match(pred, gold), rec.query.id


@pytest.mark.parametrize(
    "idx, original, mutated",
    [
        (0, "ASC", "DESC"),
        (1, "'NY'", "'CA'"),
        (2, "3.5", "4.5"),
    ],
)
def test_fixture_queries_mutations_break_match(toy_dir, test_ds, idx, original, mutated):
    rec = test_ds.records[idx]
    db = toy_dir / "databases" / f"{rec.query.db_id}.sqlite"
    assert original in rec.gold_sql
    gold = execute_sql(db, rec.gold_sql)
    bad = execute_sql(db, rec.gold_sql.replace(original, mutated), ordered=gold.ordered)
    assert bad.status == "ok"  # still executes; just wrong
    assert not execution_match(bad, gold)


# --- aggregate metrics ---

def test_compute_ex_oracle():
    assert compute_ex([True, True, False, True]) == 75.0
    assert compute_ex([False]) == 0.0
    with pytest.raises(EmptySetError):
        compute_ex([])


def test_compute_ves_hand_computed():
    per_query = [
        (True, 4.0, 1.0),   # sqrt(4) = 2
        (True, 1.0, 4.0),   # sqrt(0.25) = 0.5
        (False, 1.0, 1.0),  # no contribution
        (True, 1.0, 1.0),   # 1
    ]
    assert math.isclose(compute_ves(per_query), 100.0 * 3.5 / 4)


def test_compute_ves_clip():
    per_query = [(True, 1e8, 1e-4)]  # raw ratio sqrt = 1e6
    assert math.isclose(compute_ves(per_query, clip_max=100.0), 100.0 * 100.0)


def test_compute_ves_equal_times_equals_ex():
    matches = [True, False, True, True, False]
    per_query = [(m, 1.0, 1.0) for m in matches]
    assert math.isclose(compute_ves(per_query), compute_ex(matches))


def test_compute_ves_nonpositive_time():
    with pytest.raises(NonPositiveTimeError):
        compute_ves([(True, 0.0, 1.0)])


def test_compute_ves_empty():
    with pytest.raises(EmptySetError):
        compute_ves([])


@settings(max_examples=30, deadline=None)
@given(st.lists(st.booleans(), min_size=1, max_size=20))
def test_ves_identity_under_unit_times(matches):
    per_query = [(m, 1.0, 1.0) for m in matches]
    assert math.isclose(compute_ves(per_query), compute_ex(matches), abs_tol=1e-9)


def test_time_query_positive(toy_dir):
    t = time_query(company_db(toy_dir), "SELECT COUNT(*) FROM employee", runs=3)
    assert t > 0


def test_time_query_failed_statement_is_zero(toy_dir):
    assert time_query(company_db(toy_dir), "SELECT broken FROM nothing") == 0.0


# --- knowledge metrics ---

def test_knowledge_exact_match_normalized():
    assert knowledge_exact_match("New  York refers to state = 'NY'.", "new york refers to state = 'ny'")
    assert not knowledge_exact_match("different fact", "new york refers to state = 'ny'")
    with pytest.raises(ValueError):
        knowledge_exact_match("x", "")


def test_semantic_similarity_bounds(provider):
    same = knowledge_semantic_similarity("alpha beta", "beta alpha", provider)
    assert math.isclose(same, 1.0, abs_tol=1e-9)
    other = knowledge_semantic_similarity("alpha beta", "unrelated words here", provider)
    assert -1.0 <= other < 1.0


def test_kb_coverage_planted(provider):
    kb = KnowledgeBase()
    facts = [f"fact number {i} about column{i}" for i in range(10)]
    for f in facts:
        kb.add(KnowledgeEntry.from_text(f, "dataset", "db"))
    # 3 of 10 gold items are present verbatim
    gold = facts[:3] + [f"missing item {i} entirely different" for i in range(7)]
    report = kb_coverage(kb, gold, provider)
    assert math.isclose(report.exact_match_pct, 30.0)
    assert all(math.isclose(p["best_similarity"], 1.0, abs_tol=1e-9) for p in report.per_gold[:3])
    assert 0.0 <= report.mean_best_similarity <= 1.0


@pytest.mark.parametrize("n", [1, ROW_CHUNK - 1, ROW_CHUNK, ROW_CHUNK + 1, 2 * ROW_CHUNK + 3])
def test_kb_coverage_best_similarity_bit_identical(
    tmp_path, provider, tie_heavy_texts, count_best_cosines, n
):
    kb = KnowledgeBase()
    for text in tie_heavy_texts(n):
        kb.add(KnowledgeEntry.from_text(text, "dataset", "db"))
    gold = tie_heavy_texts(12, seed=5)
    want = count_best_cosines(provider, [e.text for e in kb.sorted_entries()], gold)
    walked = kb_coverage(kb, gold, provider)
    index = load_or_build_index(tmp_path / "kb_index.npz", kb, provider)
    supplied = kb_coverage(kb, gold, provider, index.raw_blocks())
    for report in (walked, supplied):
        assert [p["best_similarity"] for p in report.per_gold] == want
        assert report.mean_best_similarity == float(np.mean(want))
    assert walked == supplied


def test_kb_coverage_maxima_do_not_depend_on_row_chunk(
    tmp_path, provider, tie_heavy_texts, monkeypatch
):
    kb = KnowledgeBase()
    for text in tie_heavy_texts(300):
        kb.add(KnowledgeEntry.from_text(text, "dataset", "db"))
    gold = tie_heavy_texts(12, seed=5)
    maxima = []
    for chunk in (1, 7, 256):
        monkeypatch.setattr(retriever, "ROW_CHUNK", chunk)
        index = load_or_build_index(tmp_path / f"index{chunk}.npz", kb, provider)
        for blocks in (None, index.raw_blocks()):
            report = kb_coverage(kb, gold, provider, blocks)
            maxima.append([p["best_similarity"] for p in report.per_gold])
    assert all(m == maxima[0] for m in maxima)


def test_narrow_cached_rows_score_as_float64_rows(tmp_path, count_best_cosines):
    """The per-text cache keeps uint8 or uint16 rows (uint16 for a whole
    `cache_raw` batch when one of its counts needs it); `raw`, coverage,
    semantic similarity and `embed` made from them are those of the float64
    rows."""
    provider = retriever.EmbeddingProvider(dim=64)
    kb = KnowledgeBase()
    for text in ["alpha " * 300 + "beta", "alpha beta gamma", "gamma delta", "beta " * 40]:
        kb.add(KnowledgeEntry.from_text(text, "dataset", "db"))
    gold = ["alpha " * 280 + "gamma", "beta gamma", "delta " * 256 + "alpha", "gamma beta"]
    provider.cache_raw(gold[:2])
    assert [provider._cached(g).dtype for g in gold] == [np.uint16, np.uint16, np.uint16, np.uint8]
    for g in gold:
        assert provider.raw(g).dtype == np.float64
        assert provider.raw(g).tobytes() == provider.raw_many([g])[0].astype(np.float64).tobytes()
    want = count_best_cosines(provider, [e.text for e in kb.sorted_entries()], gold)
    index = load_or_build_index(tmp_path / "kb_index.npz", kb, provider)
    for blocks in (None, index.raw_blocks()):
        report = kb_coverage(kb, gold, provider, blocks)
        assert [p["best_similarity"] for p in report.per_gold] == want

    def wide_embed(text):
        return retriever._index_rows(provider.raw_many([text]))[0]

    for text in gold:
        assert provider.embed(text).tobytes() == wide_embed(text).tobytes()
    for a, b in [(gold[0], gold[1]), (gold[2], gold[0]), (gold[1], gold[1])]:
        assert knowledge_semantic_similarity(a, b, provider) == float(wide_embed(a) @ wide_embed(b))


def test_kb_coverage_empty_kb_reports_zero(provider):
    report = kb_coverage(KnowledgeBase(), ["alpha beta", "gamma"], provider)
    assert report.mean_best_similarity == 0.0
    assert [p["best_similarity"] for p in report.per_gold] == [0.0, 0.0]
    assert report.exact_match_pct == 0.0


def test_kb_coverage_empty_gold(provider):
    with pytest.raises(EmptySetError):
        kb_coverage(KnowledgeBase(), [], provider)


# --- end-to-end scoring ---

def gold_outputs(test_ds):
    return [
        PipelineOutput(
            query_id=rec.query.id, sql=rec.gold_sql, knowledge=rec.knowledge
        )
        for rec in test_ds.records
    ]


def test_evaluate_run_gold_predictions_score_100(test_ds, provider):
    report = evaluate_run(
        gold_outputs(test_ds),
        test_ds,
        EvalConfig(deterministic_timing=True),
        provider,
    )
    assert report.ex == 100.0
    assert math.isclose(report.ves, 100.0)
    assert report.em_pct == 100.0
    assert math.isclose(report.mean_ss, 1.0, abs_tol=1e-9)
    assert report.n_errors == 0


def test_evaluate_run_counts_failures(test_ds, provider):
    outputs = gold_outputs(test_ds)
    outputs[0] = PipelineOutput(
        query_id=outputs[0].query_id, sql=None, knowledge=None, error="llm down"
    )
    report = evaluate_run(outputs, test_ds, EvalConfig(deterministic_timing=True))
    assert report.n_errors == 1
    n = len(outputs)
    assert math.isclose(report.ex, 100.0 * (n - 1) / n)
    assert report.per_query[0]["ex"] == 0


def test_evaluate_run_wrong_sql_scores_zero_for_query(test_ds):
    outputs = gold_outputs(test_ds)
    outputs[1] = PipelineOutput(
        query_id=outputs[1].query_id, sql="SELECT 42", knowledge=None
    )
    report = evaluate_run(outputs, test_ds, EvalConfig(deterministic_timing=True))
    assert report.per_query[1]["ex"] == 0
    assert report.per_query[1]["pred_status"] == "ok"


def test_evaluate_run_alignment_errors(test_ds):
    with pytest.raises(AlignmentError):
        evaluate_run([], test_ds)
    with pytest.raises(AlignmentError):
        evaluate_run(
            [PipelineOutput(query_id="ghost", sql="SELECT 1", knowledge=None)],
            test_ds,
        )


def test_report_serialization(test_ds, provider, tmp_path):
    report = evaluate_run(
        gold_outputs(test_ds), test_ds, EvalConfig(deterministic_timing=True), provider
    )
    report.config_hash = "beefcafe"
    path = tmp_path / "report.json"
    report.save(path)
    import json

    data = json.loads(path.read_text())
    assert data["config_hash"] == "beefcafe"
    assert data["aggregates"]["ex"] == 100.0
    assert len(data["per_query"]) == len(test_ds.records)

    table = report.render_table()
    assert "EX" in table and "100.00" in table


def test_evaluate_run_deterministic_timing_reproducible(test_ds, provider):
    reports = [
        evaluate_run(
            gold_outputs(test_ds), test_ds, EvalConfig(deterministic_timing=True), provider
        )
        for _ in range(2)
    ]
    assert reports[0].to_dict() == reports[1].to_dict()


# --- single-pass evaluation: each statement runs once per needed sample ---

ENDLESS = "WITH RECURSIVE c(x) AS (SELECT 1 UNION ALL SELECT x+1 FROM c) SELECT x FROM c"


def record_executions(monkeypatch):
    """Replace evaluation.execute_sql with a wrapper that logs (sql, kwargs)."""
    calls = []
    execute = evaluation.execute_sql

    def recording(db_file, sql, *args, **kwargs):
        calls.append((sql, kwargs))
        return execute(db_file, sql, *args, **kwargs)

    monkeypatch.setattr(evaluation, "execute_sql", recording)
    return calls


def test_execute_sql_max_rows_bounds_a_runaway_query(toy_dir):
    res = execute_sql(company_db(toy_dir), ENDLESS, timeout=2.0, max_rows=4)
    assert res.status == "ok"
    assert res.rows == ((1,), (2,), (3,), (4,))


def test_evaluate_run_caps_predicted_rows(test_ds):
    outputs = gold_outputs(test_ds)
    outputs[1] = PipelineOutput(query_id=outputs[1].query_id, sql=ENDLESS, knowledge=None)
    report = evaluate_run(outputs, test_ds, EvalConfig(timeout=2.0, deterministic_timing=True))
    assert report.per_query[1]["pred_status"] == "ok"
    assert report.per_query[1]["ex"] == 0


@pytest.mark.parametrize(
    "timing_runs, deterministic, per_query",
    [(3, False, 1), (1, False, 1), (3, True, 1)],
)
def test_evaluate_run_runs_gold_predictions_once_per_sample(
    test_ds, monkeypatch, timing_runs, deterministic, per_query
):
    calls = record_executions(monkeypatch)
    config = EvalConfig(timing_runs=timing_runs, deterministic_timing=deterministic)
    report = evaluate_run(gold_outputs(test_ds), test_ds, config)
    assert len(calls) == per_query * len(test_ds.records)
    assert all(e["ves_term"] == 1.0 for e in report.per_query)
    assert report.ves == 100.0


def test_evaluate_run_does_not_time_unmatched_predictions(test_ds, monkeypatch):
    outputs = [
        PipelineOutput(query_id=rec.query.id, sql="SELECT 'no such answer'", knowledge=None)
        for rec in test_ds.records
    ]
    calls = record_executions(monkeypatch)
    report = evaluate_run(outputs, test_ds, EvalConfig(timing_runs=3))
    assert len(calls) == 2 * len(outputs)  # gold and predicted, each once for EX
    assert report.ex == 0.0 and report.ves == 0.0


def test_evaluate_run_times_a_matched_rewrite_uncapped(test_ds, monkeypatch):
    rec = test_ds.records[0]
    rewrite = rec.gold_sql + " "
    outputs = [PipelineOutput(query_id=rec.query.id, sql=rewrite, knowledge=None)]
    gold_rows = execute_sql(test_ds.schema_for(rec.schema_ref).db_file, rec.gold_sql).rows
    calls = record_executions(monkeypatch)
    report = evaluate_run(outputs, test_ds, EvalConfig(timing_runs=3))
    assert report.ex == 100.0 and report.per_query[0]["ves_term"] > 0
    assert [sql for sql, _ in calls] == [rec.gold_sql, rewrite] + [rec.gold_sql] * 2 + [rewrite] * 2
    # the prediction's EX run is capped at gold rows + 1; its timing reruns are not
    caps = [kwargs.get("max_rows") for _, kwargs in calls]
    assert caps == [None, len(gold_rows) + 1] + [None] * 4


def test_time_query_first_sample_counts_as_a_run(toy_dir, monkeypatch):
    calls = record_executions(monkeypatch)
    sql = "SELECT COUNT(*) FROM employee"
    assert time_query(company_db(toy_dir), sql, runs=3, first=60.0) < 60.0
    assert len(calls) == 2
    assert time_query(company_db(toy_dir), sql, runs=1, first=60.0) == 60.0
    assert len(calls) == 2
