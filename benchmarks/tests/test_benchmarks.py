"""Tests of the benchmark's own parts: generator, ranking oracle, LLM oracle
and fault schedule.

Run with: PYTHONPATH=src python -m pytest benchmarks/tests
"""

from __future__ import annotations

import sqlite3
from pathlib import Path

import numpy as np
import pytest

from benchmarks import synth
from benchmarks.checks import brute_force_top, expected_ex
from benchmarks.oracle import MISS_SQL, FakeEndpoint, FaultSchedule, Oracle, gold_hits
from sqlkb import knowledge_base as kbm
from sqlkb import retriever
from sqlkb.dataset import load_dataset
from sqlkb.evaluation import execute_sql, execution_match
from sqlkb.llm import LlmClient, LlmConfig, RetryPolicy

SMALL = dict(n_dbs=4, rows=30, n_train=40, n_test=12, kb_entries=120)


def _files(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_generator_is_deterministic_per_seed(tmp_path):
    a = _files(synth.generate(tmp_path / "a", seed=7, **SMALL))
    b = _files(synth.generate(tmp_path / "b", seed=7, **SMALL))
    c = _files(synth.generate(tmp_path / "c", seed=8, **SMALL))
    assert a == b
    assert a["train.json"] != c["train.json"]


def test_generated_inputs_are_consistent(tmp_path):
    root = synth.generate(tmp_path, seed=3, **SMALL)
    train = load_dataset(root / "train.json", root / "databases")
    test = load_dataset(root / "test.json", root / "databases", split="test")
    assert len(train.records) == SMALL["n_train"] and len(test.records) == SMALL["n_test"]
    questions = [r.query.text for r in train.records + test.records]
    assert len(set(questions)) == len(questions)
    for rec in train.records + test.records:
        db_file = train.schema_for(rec.schema_ref).db_file
        assert execute_sql(db_file, rec.gold_sql).status == "ok", rec.gold_sql
    for db_file in (root / "databases").glob("*.sqlite"):
        con = sqlite3.connect(db_file)
        try:
            assert con.execute("PRAGMA foreign_key_check").fetchall() == []
        finally:
            con.close()
    kb = kbm.load_kb(root / "supplied_kb.jsonl")
    assert len(kb) == SMALL["kb_entries"]
    assert all(rec.knowledge in kb for rec in test.records)


def _reference_top(matrix, ids, qvec, j):
    scores = matrix @ qvec
    return sorted(ids, key=lambda i: (-scores[ids.index(i)], i))[:j]


def test_brute_force_ranking_breaks_ties_by_id():
    rng = np.random.default_rng(0)
    rows = rng.standard_normal((6, 8))
    matrix = np.vstack([rows, rows, rows[:3]])  # every score appears two or three times
    ids = [f"e{i:02d}" for i in rng.permutation(len(matrix))]
    for q in rng.standard_normal((20, 8)):
        for j in (1, 4, len(ids)):
            assert brute_force_top(matrix, ids, q, j) == _reference_top(matrix, ids, q, j)


def test_brute_force_ranking_matches_retrieve_on_tied_entries():
    kb = kbm.KnowledgeBase()
    for text in ["alpha beta gamma", "gamma beta alpha", "beta alpha gamma",
                 "alpha delta", "delta alpha", "omega"]:
        kb.add(kbm.KnowledgeEntry.from_text(text, "generated", "db"))
    provider = retriever.EmbeddingProvider(dim=64)
    index = retriever.build_index(kb, provider)
    for query in ["alpha", "beta gamma", "delta", "omega alpha"]:
        got = [e.id for e, _ in retriever.retrieve(query, index, 4, provider)]
        assert got == brute_force_top(index.matrix, index.ids, provider.embed(query), 4)


def test_oracle_answers_gold_for_its_share_only():
    gold = {f"How many rows in table {i}?": f"SELECT COUNT(*) FROM t{i}" for i in range(50)}
    oracle = Oracle(gold, share=0.6, salt="1")
    assert len(oracle.hits) == 30
    assert oracle.hits == gold_hits(list(gold), 0.6, "1")
    assert expected_ex(list(gold), 0.6, "1") == 60.0
    for question, sql in gold.items():
        answer = oracle(f"DB Schema: x\n\nQuestion: {question}\nEvidence: e\nSQL: ")
        assert answer == (sql if question in oracle.hits else MISS_SQL)
    line = oracle("DB Schema: x\n\nQuestion: How many rows in table 3?\nEvidence: ")
    assert kbm.parse_knowledge_lines(line) == [line]


def test_miss_sql_never_matches_a_gold_result(tmp_path):
    root = synth.generate(tmp_path, seed=5, **SMALL)
    test = load_dataset(root / "test.json", root / "databases", split="test")
    for rec in test.records:
        db_file = test.schema_for(rec.schema_ref).db_file
        gold = execute_sql(db_file, rec.gold_sql)
        assert not execution_match(execute_sql(db_file, MISS_SQL, ordered=gold.ordered), gold)


def test_fault_schedule_is_exact():
    schedule = FaultSchedule(every=100)
    statuses = []
    for i in range(1000):
        prompt = f"prompt {i}"
        status = schedule.status(prompt)
        statuses.append(status)
        if status != 200:
            assert schedule.status(prompt) == 200  # the retry succeeds
        assert schedule.status(prompt) == 200  # a repeated prompt never faults
    faulted = [i for i, s in enumerate(statuses) if s != 200]
    assert faulted == list(range(49, 1000, 100))
    assert schedule.faults == 10
    assert {statuses[i] for i in faulted} <= {429, 503}


def test_endpoint_counts_retries_of_injected_faults():
    gold = {"q?": "SELECT 1"}
    endpoint = FakeEndpoint(Oracle(gold, share=1.0, salt="0"), latency=0.0, fault_every=4)
    with endpoint as url:
        client = LlmClient(LlmConfig(backend="http", endpoint=url, timeout=10,
                                     retry=RetryPolicy(attempts=3, backoff=0.0)))
        answers = [client.complete(f"DB Schema: x\n\nQuestion: q?\nEvidence: {i}\nSQL: ")
                   for i in range(20)]
    assert answers == ["SELECT 1"] * 20
    assert endpoint.schedule.faults == 5
    assert endpoint.requests - len(client.ledger) == endpoint.errors == 5
    assert endpoint.inflight_max == 1


@pytest.mark.parametrize("share", [0.0, 0.5, 1.0])
def test_expected_ex_counts_hits(share):
    questions = [f"q{i}" for i in range(10)]
    assert expected_ex(questions, share, "s") == 100.0 * round(share * 10) / 10
