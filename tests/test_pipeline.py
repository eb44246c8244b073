import dataclasses
import json
import threading
import time

import pytest

from sqlkb.dataset import Query, load_dataset
from sqlkb.errors import BudgetError, EmptySqlError, InsufficientExamplesError, LlmError
from sqlkb.evaluation import EvalConfig, evaluate_run
from sqlkb.knowledge_base import example_pools, init_kb, select_examples
from sqlkb.llm import CallLedger, LlmClient, LlmConfig, synthetic_completer
from sqlkb.pipeline import (
    PipelineConfig,
    PipelineOutput,
    build_knowledge_prompt,
    build_refinement_prompt,
    build_sql_prompt,
    generate_sql,
    load_outputs,
    postprocess_sql,
    refine_knowledge,
    run_pipeline,
    save_outputs,
)
from sqlkb.retriever import build_index


def company_examples(train_ds, n=10):
    return [r for r in train_ds.records if r.query.db_id == "company"][:n]


def target_query(test_ds):
    return test_ds.records[0].query


def mock_client(ledger=None):
    return LlmClient(
        LlmConfig(backend="mock"), fallback=synthetic_completer, ledger=ledger
    )


# --- prompt construction ---

def test_knowledge_prompt_matches_golden(train_ds, test_ds, goldens):
    prompt = build_knowledge_prompt(
        target_query(test_ds),
        train_ds.schemas["company"],
        company_examples(train_ds),
    )
    assert prompt == (goldens / "knowledge_prompt_10shot.txt").read_text()


def test_sql_prompt_matches_golden(train_ds, test_ds, goldens):
    prompt = build_sql_prompt(
        target_query(test_ds),
        "lower minimum salary refers to MIN(minsalary)",
        train_ds.schemas["company"],
        company_examples(train_ds),
    )
    assert prompt == (goldens / "sql_prompt_10shot.txt").read_text()


def test_prompt_terminals(train_ds, test_ds):
    schema = train_ds.schemas["company"]
    examples = company_examples(train_ds, 3)
    q = target_query(test_ds)
    assert build_knowledge_prompt(q, schema, examples).endswith("\nEvidence: ")
    assert build_sql_prompt(q, "k", schema, examples).endswith("\nSQL: ")
    assert build_refinement_prompt(q, ["k"], schema).endswith("\nEvidence: ")


def test_budget_drops_tail_examples_first(train_ds, test_ds):
    schema = train_ds.schemas["company"]
    examples = company_examples(train_ds)
    q = target_query(test_ds)
    full = build_knowledge_prompt(q, schema, examples)
    trimmed = build_knowledge_prompt(q, schema, examples, budget=len(full) - 1)
    assert len(trimmed) <= len(full) - 1
    assert trimmed.count("Question:") < full.count("Question:")
    # the surviving examples are a prefix: the tail was dropped
    assert full.startswith(trimmed[: trimmed.rfind("\n\nQuestion:")])


def test_budget_shrinks_schema_after_examples(train_ds, test_ds):
    schema = train_ds.schemas["company"]
    q = target_query(test_ds)
    bare = build_knowledge_prompt(q, schema, [], budget=10_000)
    squeezed = build_knowledge_prompt(q, schema, [], budget=len(bare) - 10)
    assert len(squeezed) <= len(bare) - 10
    assert squeezed.count("Question:") == 1


def test_budget_too_small_raises(train_ds, test_ds):
    with pytest.raises(BudgetError):
        build_knowledge_prompt(
            target_query(test_ds), train_ds.schemas["company"], [], budget=20
        )


def test_refinement_prompt_pairs_candidates_with_question(train_ds, test_ds):
    q = target_query(test_ds)
    prompt = build_refinement_prompt(
        q, ["first fact", "second fact"], train_ds.schemas["company"]
    )
    assert prompt.count(f"Question: {q.text}") == 3  # 2 candidates + target
    assert "Evidence: first fact" in prompt
    assert "Evidence: second fact" in prompt


def test_refine_knowledge_returns_the_stripped_completion(train_ds, test_ds):
    """Refinement asks the refinement prompt of the retrieved texts and
    returns the completion without its surrounding space."""
    entries = init_kb(train_ds).sorted_entries()[:3]
    schema, q = train_ds.schemas["company"], target_query(test_ds)
    client = LlmClient(LlmConfig(backend="mock"), fallback=lambda p: "  refined fact\n")
    assert refine_knowledge(q, entries, schema, client) == "refined fact"
    (record,) = client.ledger.records
    assert record.prompt == build_refinement_prompt(q, [e.text for e in entries], schema)


# --- postprocessing ---

@pytest.mark.parametrize(
    "completion, expected",
    [
        ("SELECT 1", "SELECT 1"),
        ("SELECT 1;", "SELECT 1"),
        ("SELECT 1; SELECT 2;", "SELECT 1"),
        ("```sql\nSELECT a\nFROM t\n```", "SELECT a\nFROM t"),
        ("```\nSELECT 1\n```", "SELECT 1"),
        ("SELECT a\nFROM t\n\nExplanation: joins stuff", "SELECT a\nFROM t"),
        ("  SELECT 1  \n", "SELECT 1"),
    ],
)
def test_postprocess_sql(completion, expected):
    assert postprocess_sql(completion) == expected


@pytest.mark.parametrize("completion", ["", "   \n\n", "```sql\n```", ";"])
def test_postprocess_sql_empty(completion):
    with pytest.raises(EmptySqlError):
        postprocess_sql(completion)


# --- generation ---

@pytest.fixture()
def toy_index(train_ds, provider):
    return build_index(init_kb(train_ds), provider)


def test_generate_sql_with_refinement_makes_two_calls(
    train_ds, test_ds, provider, toy_index
):
    ledger = CallLedger()
    rec = test_ds.records[0]
    out = generate_sql(
        rec.query,
        test_ds.schema_for(rec.schema_ref),
        toy_index,
        mock_client(ledger),
        provider,
        train_ds,
        PipelineConfig(top_j=3),
    )
    assert len(ledger) == 2
    refine_prompt, sql_prompt = (r.prompt for r in ledger.records)
    assert refine_prompt.endswith("Evidence: ")
    assert sql_prompt.endswith("SQL: ")
    assert out.knowledge is not None and out.knowledge in sql_prompt
    assert out.sql.startswith("SELECT")
    assert len(out.retrieved_ids) == 3


def test_generate_sql_without_refinement_joins_retrieved(
    train_ds, test_ds, provider, toy_index
):
    ledger = CallLedger()
    rec = test_ds.records[0]
    out = generate_sql(
        rec.query,
        test_ds.schema_for(rec.schema_ref),
        toy_index,
        mock_client(ledger),
        provider,
        train_ds,
        PipelineConfig(top_j=2, use_refinement=False),
    )
    assert len(ledger) == 1  # no refinement call
    evidence_line = [
        l for l in ledger.records[0].prompt.splitlines() if l.startswith("Evidence: ")
    ][-1]
    assert evidence_line == f"Evidence: {out.knowledge}"
    assert "; " in evidence_line  # two retrieved texts concatenated
    assert len(out.retrieved_ids) == 2


def test_generate_sql_no_knowledge_baseline(train_ds, test_ds, provider, toy_index):
    ledger = CallLedger()
    rec = test_ds.records[0]
    out = generate_sql(
        rec.query,
        test_ds.schema_for(rec.schema_ref),
        toy_index,
        mock_client(ledger),
        provider,
        train_ds,
        PipelineConfig(top_j=0),
    )
    assert out.knowledge is None and out.retrieved_ids == ()
    assert len(ledger) == 1
    assert f"Question: {rec.query.text}\nEvidence: \nSQL: " in ledger.records[0].prompt


def test_generate_sql_refinement_toggle_changes_only_evidence(
    train_ds, test_ds, provider, toy_index
):
    rec = test_ds.records[0]
    prompts = {}
    for toggle in (True, False):
        ledger = CallLedger()
        generate_sql(
            rec.query,
            test_ds.schema_for(rec.schema_ref),
            toy_index,
            mock_client(ledger),
            provider,
            train_ds,
            PipelineConfig(top_j=3, use_refinement=toggle),
        )
        prompts[toggle] = ledger.records[-1].prompt
    a, b = prompts[True].splitlines(), prompts[False].splitlines()
    assert len(a) == len(b)
    diff = [i for i, (x, y) in enumerate(zip(a, b)) if x != y]
    assert len(diff) == 1
    assert a[diff[0]].startswith("Evidence: ") and b[diff[0]].startswith("Evidence: ")


def test_run_pipeline_all_records(train_ds, test_ds, provider, toy_index):
    outputs = run_pipeline(
        test_ds, train_ds, toy_index, mock_client(), provider, PipelineConfig(top_j=2)
    )
    assert [o.query_id for o in outputs] == [r.query.id for r in test_ds.records]
    assert all(o.sql and o.error is None for o in outputs)


def test_run_pipeline_records_per_query_failures(
    train_ds, test_ds, provider, toy_index
):
    victim = test_ds.records[1].query.text

    def flaky(prompt):
        if victim in prompt and prompt.endswith("SQL: "):
            raise LlmError("boom")
        return synthetic_completer(prompt)

    client = LlmClient(LlmConfig(backend="mock"), fallback=flaky)
    outputs = run_pipeline(
        test_ds, train_ds, toy_index, client, provider, PipelineConfig(top_j=2)
    )
    assert len(outputs) == len(test_ds.records)
    failed = outputs[1]
    assert failed.sql is None and "boom" in failed.error
    assert all(o.sql for i, o in enumerate(outputs) if i != 1)


def test_blank_refinement_records_no_knowledge_and_evaluates(
    train_ds, test_ds, provider, toy_index
):
    def blank_refinement(prompt):
        return " \n " if prompt.endswith("Evidence: ") else synthetic_completer(prompt)

    client = LlmClient(LlmConfig(backend="mock"), fallback=blank_refinement)
    outputs = run_pipeline(
        test_ds, train_ds, toy_index, client, provider, PipelineConfig(top_j=2)
    )
    assert all(o.sql and o.knowledge is None for o in outputs)
    assert all(len(o.retrieved_ids) == 2 for o in outputs)
    report = evaluate_run(
        outputs, test_ds, EvalConfig(deterministic_timing=True), provider
    )
    assert report.em_pct is None and report.mean_ss is None


def test_run_pipeline_deterministic(train_ds, test_ds, provider, toy_index):
    runs = [
        run_pipeline(
            test_ds, train_ds, toy_index, mock_client(), provider, PipelineConfig(top_j=2)
        )
        for _ in range(2)
    ]
    assert runs[0] == runs[1]


# --- persistence ---

def test_outputs_round_trip(tmp_path):
    outputs = [
        PipelineOutput("q1", "SELECT 1", "some knowledge", ("id1", "id2")),
        PipelineOutput("q2", None, None, (), error="generation failed"),
    ]
    path = tmp_path / "outputs.jsonl"
    save_outputs(outputs, path, config_hash="deadbeef")
    again, header = load_outputs(path)
    assert again == outputs
    assert header == {"format": "sqlkb/outputs/v1", "config_hash": "deadbeef"}


def test_outputs_header_is_first_line(tmp_path):
    path = tmp_path / "outputs.jsonl"
    save_outputs([], path, config_hash="cafe")
    first = json.loads(path.read_text().splitlines()[0])
    assert first["format"] == "sqlkb/outputs/v1"


def test_run_pipeline_concurrent_matches_serial(chat_stub, toy_dir, train_ds, provider, tmp_path):
    # the 20 train questions as the test set: enough records to fill the default window
    queries = load_dataset(toy_dir / "train.json", toy_dir / "databases", split="test")
    chat_stub.latency = 0.01
    refused = queries.records[1].query.text
    chat_stub.status = lambda prompt: (
        400 if prompt.endswith(f"Question: {refused}\nEvidence: ") else 200
    )
    index = build_index(init_kb(train_ds), provider)
    config = PipelineConfig(top_j=3, few_shot_k=5)
    files = {}
    for max_inflight in (1, 4, LlmConfig().max_inflight):
        chat_stub.inflight_max = 0
        client = chat_stub.client(max_inflight)
        with open(tmp_path / f"ledger{max_inflight}.jsonl", "w") as sink:
            client.ledger = CallLedger(sink, stage="generate")
            outputs = chat_stub.bounded(
                run_pipeline, queries, train_ds, index, client, provider, config
            )
        assert 1 <= chat_stub.inflight_max <= max_inflight
        assert (chat_stub.inflight_max > 1) == (max_inflight > 1)  # it did overlap
        assert [o.query_id for o in outputs] == [r.query.id for r in queries.records]
        assert outputs[1].error == "http status 400"
        assert sum(o.error is not None for o in outputs) == 1
        save_outputs(outputs, tmp_path / f"outputs{max_inflight}.jsonl")
        files[max_inflight] = [
            (tmp_path / f"{name}{max_inflight}.jsonl").read_bytes()
            for name in ("outputs", "ledger")
        ]
    assert files[LlmConfig().max_inflight] == files[4] == files[1]


def test_run_pipeline_embeds_train_questions_once(chat_stub, toy_dir, test_ds, provider):
    train = load_dataset(toy_dir / "train.json", toy_dir / "databases")
    questions = [r.query.text for r in train.records]
    raw_many = provider.raw_many
    passes = []

    def counted(texts):
        if list(texts) == questions:
            passes.append(threading.get_ident())
            time.sleep(0.2)  # long enough for every worker to reach it
        return raw_many(texts)

    provider.raw_many = counted
    index = build_index(init_kb(train), provider)
    client = chat_stub.client(4)
    chat_stub.bounded(
        run_pipeline, test_ds, train, index, client, provider,
        PipelineConfig(top_j=3, few_shot_k=5),
    )
    assert len(passes) == 1


# --- few-shot pools: ranked once, before the fan-out ---

def _sql_prompts(ledger):
    return [r.prompt for r in ledger.records if r.prompt.endswith("SQL: ")]


def test_run_pipeline_pools_equal_per_query_select_examples(train_ds, test_ds, provider):
    """Each SQL prompt shows the pool a one-query `select_examples(...,
    require_sql=True)` call ranks (hash rows: exact keys), also for a test
    question whose id is a train record's: that record stays excluded."""
    train = dataclasses.replace(
        train_ds,
        records=tuple(
            dataclasses.replace(rec, gold_sql=None) if i % 3 == 1 else rec
            for i, rec in enumerate(train_ds.records)
        ),
    )
    twin = train.records[0]
    tests = dataclasses.replace(test_ds, records=(*test_ds.records, twin))
    config = PipelineConfig(top_j=0, few_shot_k=4)
    ledger = CallLedger()
    outputs = run_pipeline(tests, train, None, mock_client(ledger), provider, config)
    assert all(o.sql for o in outputs)
    pools = []
    for rec in tests.records:
        try:
            pools.append(select_examples(rec.query, train, 4, provider, require_sql=True))
        except InsufficientExamplesError:
            pools.append([])
    prompts = _sql_prompts(ledger)
    assert prompts == [
        build_sql_prompt(rec.query, "", tests.schema_for(rec.schema_ref), pool)
        for rec, pool in zip(tests.records, pools)
    ]
    assert pools[-1] and twin not in pools[-1]
    assert prompts[-1].count(f"Question: {twin.query.text}\n") == 1  # the target only


def test_run_pipeline_without_sql_examples_shows_no_example_block(train_ds, test_ds, provider):
    train = dataclasses.replace(
        train_ds, records=tuple(dataclasses.replace(r, gold_sql=None) for r in train_ds.records)
    )
    ledger = CallLedger()
    outputs = run_pipeline(
        test_ds, train, None, mock_client(ledger), provider, PipelineConfig(top_j=0)
    )
    assert all(o.sql for o in outputs)
    prompts = _sql_prompts(ledger)
    assert len(prompts) == len(test_ds.records)
    assert all(p.count("Question: ") == 1 for p in prompts)


@pytest.mark.parametrize("top_j", [0, 3])
def test_run_pipeline_embeds_only_on_the_calling_thread(
    chat_stub, train_ds, test_ds, provider, top_j
):
    """Workers only build prompts and call the LLM: every raw row is made on
    the thread that called `run_pipeline`."""
    index = build_index(init_kb(train_ds), provider)
    embedded_on, called_on = set(), set()

    def on_thread(fn):
        def call(texts):
            embedded_on.add(threading.get_ident())
            return fn(texts)

        return call

    provider.raw, provider.raw_many = on_thread(provider.raw), on_thread(provider.raw_many)

    def calling(*args):
        called_on.add(threading.get_ident())
        return run_pipeline(*args)

    chat_stub.latency = 0.05  # long enough for the calls to overlap
    client = chat_stub.client(4)
    outputs = chat_stub.bounded(
        calling, test_ds, train_ds, index, client, provider, PipelineConfig(top_j=top_j)
    )
    assert all(o.sql for o in outputs)
    assert chat_stub.inflight_max > 1
    assert embedded_on == called_on


def test_generate_embeds_the_train_questions_once_per_run(train_ds, test_ds, provider):
    """No embedding is kept on the `Dataset`: a `run_pipeline` after a
    `build-kb`-style pass over the same train set embeds the train
    questions once, in one `raw_many` call."""
    questions = [r.query.text for r in train_ds.records]
    raw_many = provider.raw_many
    passes = []

    def counted(texts):
        passes.append(list(texts) == questions)
        return raw_many(texts)

    provider.raw_many = counted
    example_pools(train_ds, 4, provider)
    assert passes == [True]
    for _ in range(2):
        passes.clear()
        run_pipeline(test_ds, train_ds, None, mock_client(), provider, PipelineConfig(top_j=0))
        assert passes.count(True) == 1
