import dataclasses
import gc
import hashlib
import json
import math
import re

import pytest

from sqlkb import knowledge_base
from sqlkb.dataset import Dataset, ExampleTriplet, Query, load_dataset
from sqlkb.errors import InsufficientExamplesError, LlmError, ParseError
from sqlkb.knowledge_base import (
    KbBuildConfig,
    KnowledgeBase,
    KnowledgeEntry,
    entry_id,
    example_pools,
    expand_kb,
    init_kb,
    kb_digest,
    kb_stats,
    load_kb,
    normalize_text,
    parse_knowledge_lines,
    save_kb,
    select_examples,
)
from sqlkb.llm import CallLedger, LlmClient, LlmConfig
from sqlkb.ranking import ROW_CHUNK


def mock_client(fallback):
    return LlmClient(LlmConfig(backend="mock"), fallback=fallback)


@pytest.mark.parametrize(
    "raw, expected",
    [
        ("New York refers to state = 'NY'", "new york refers to state = 'ny'"),
        ("  Spaced   out\ttext. ", "spaced out text"),
        ("Ends with punctuation!?", "ends with punctuation"),
        ("already normal", "already normal"),
    ],
)
def test_normalize_text(raw, expected):
    assert normalize_text(raw) == expected


def test_entry_id_collides_for_near_duplicates():
    assert entry_id("Albumin refers to ALB.") == entry_id("albumin  refers to ALB")


def test_init_kb_counts_distinct_knowledge(train_ds):
    kb = init_kb(train_ds)
    distinct = {normalize_text(r.knowledge) for r in train_ds.records if r.knowledge}
    assert len(kb) == len(distinct)
    assert all(e.source == "dataset" for e in kb.entries.values())


def _mini_dataset(records, schemas):
    return Dataset(records=tuple(records), schemas=schemas)


def test_init_kb_dedups_identical_evidence(train_ds):
    rec = train_ds.records[0]
    twin = ExampleTriplet(
        query=Query(id="twin", text="different question", db_id=rec.query.db_id),
        schema_ref=rec.schema_ref,
        knowledge=rec.knowledge,
    )
    ds = _mini_dataset([rec, twin], train_ds.schemas)
    assert len(init_kb(ds)) == 1


def test_init_kb_no_evidence(train_ds):
    rec = train_ds.records[0]
    bare = ExampleTriplet(query=rec.query, schema_ref=rec.schema_ref, knowledge=None)
    assert len(init_kb(_mini_dataset([bare], train_ds.schemas))) == 0


def test_select_examples_identical_question_first(train_ds, provider):
    target = train_ds.records[3]
    probe = Query(id="probe", text=target.query.text, db_id=target.query.db_id)
    chosen = select_examples(probe, train_ds, 3, provider)
    assert chosen[0].query.id == target.query.id


def test_select_examples_excludes_self(train_ds, provider):
    target = train_ds.records[3]
    chosen = select_examples(target.query, train_ds, 50, provider)
    assert target.query.id not in {c.query.id for c in chosen}


def test_pools_keep_train_records_that_share_only_an_id_with_a_test_question(
    toy_dir, tmp_path, provider
):
    """Without `question_id` (as in BIRD's train.json) ids are positions, so
    test and train ids collide; the same-index train record is another
    question and stays in the test question's pool."""
    for name in ("train.json", "test.json"):
        records = json.loads((toy_dir / name).read_text())
        for rec in records:
            del rec["question_id"]
        (tmp_path / name).write_text(json.dumps(records))
    train = load_dataset(tmp_path / "train.json", toy_dir / "databases")
    test = load_dataset(tmp_path / "test.json", toy_dir / "databases", split="test")
    assert {r.query.id for r in test.records} <= {r.query.id for r in train.records}
    usable = sorted(r.query.id for r in train.records if r.knowledge and r.gold_sql)
    queries = [r.query for r in test.records]
    pools = example_pools(train, 50, provider, queries, require_sql=True)
    assert [sorted(r.query.id for r in pool) for pool in pools] == [usable] * len(queries)
    # a train question is still left out of its own pool
    (own,) = example_pools(train, 50, provider, [train.records[0].query], require_sql=True)
    assert train.records[0].query.id not in {r.query.id for r in own}


def test_select_examples_k_larger_than_pool(train_ds, provider):
    probe = Query(id="probe", text="anything at all", db_id="company")
    chosen = select_examples(probe, train_ds, 500, provider)
    assert len(chosen) == len([r for r in train_ds.records if r.knowledge])


def test_select_examples_empty_pool(train_ds, provider):
    rec = train_ds.records[0]
    bare = ExampleTriplet(query=rec.query, schema_ref=rec.schema_ref, knowledge=None)
    ds = _mini_dataset([bare], train_ds.schemas)
    with pytest.raises(InsufficientExamplesError):
        select_examples(Query(id="x", text="hello there", db_id="company"), ds, 3, provider)


def test_select_examples_matches_brute_force(train_ds, provider):
    # independent oracle: plain cosine over the same embeddings, full sort
    probe = Query(id="probe", text="good performance in New York offices", db_id="company")
    qv = provider.embed(probe.text)
    scored = []
    for rec in train_ds.records:
        if rec.knowledge is None:
            continue
        rv = provider.embed(rec.query.text)
        sim = sum(a * b for a, b in zip(qv, rv))
        scored.append((-sim, rec.query.id))
    oracle = [qid for _, qid in sorted(scored)][:10]
    chosen = select_examples(probe, train_ds, 10, provider)
    assert [c.query.id for c in chosen] == oracle


def test_parse_knowledge_lines_strips_markers():
    completion = "1) alpha refers to beta\n- gamma maps to delta five\n\nshort one\n2. zeta is the id column\n"
    assert parse_knowledge_lines(completion) == [
        "alpha refers to beta",
        "gamma maps to delta five",
        "zeta is the id column",
    ]


def test_expand_kb_zero_iterations_is_identity(train_ds, provider):
    cfg = KbBuildConfig(few_shot_k=5, iterations=0, seed=1)
    kb = init_kb(train_ds, cfg)
    out = expand_kb(kb, train_ds, mock_client(lambda p: "x y z"), provider, cfg)
    assert out.entries == kb.entries


def test_expand_kb_dedups_known_line(train_ds, provider):
    cfg = KbBuildConfig(few_shot_k=5, iterations=1, seed=1)
    kb = init_kb(train_ds, cfg)
    known = train_ds.records[0].knowledge
    out = expand_kb(kb, train_ds, mock_client(lambda p: known), provider, cfg)
    assert len(out) == len(kb)


def test_expand_kb_growth_matches_call_ledger(train_ds, provider):
    cfg = KbBuildConfig(few_shot_k=5, iterations=2, seed=1)
    ten = Dataset(records=train_ds.records[:10], schemas=train_ds.schemas)
    kb = init_kb(ten, cfg)
    calls = []

    def novel(prompt):
        calls.append(prompt)
        return f"novel fact number {len(calls)} for testing"

    out = expand_kb(kb, ten, mock_client(novel), provider, cfg)
    assert len(calls) == 10 * 2
    assert len(out) == len(kb) + len(calls)
    generated = [e for e in out.entries.values() if e.source == "generated"]
    assert {e.iteration for e in generated} == {1, 2}


def test_expand_kb_provenance_points_into_dataset(train_ds, provider):
    cfg = KbBuildConfig(few_shot_k=5, iterations=1, seed=1)
    kb = init_kb(train_ds, cfg)
    n = iter(range(10_000))

    def novel(prompt):
        return f"generated item {next(n)} for provenance"

    out = expand_kb(kb, train_ds, mock_client(novel), provider, cfg)
    ids = {r.query.id for r in train_ds.records}
    for e in out.entries.values():
        if e.source == "generated":
            assert e.origin_query_id in ids


def test_expand_kb_monotone(train_ds, provider):
    cfg = KbBuildConfig(few_shot_k=5, iterations=1, seed=1)
    kb = init_kb(train_ds, cfg)
    out = expand_kb(kb, train_ds, mock_client(lambda p: "a b c d"), provider, cfg)
    assert set(kb.entries) <= set(out.entries)


def test_expand_kb_skips_llm_failures(train_ds, provider):
    cfg = KbBuildConfig(few_shot_k=5, iterations=1, seed=1)
    kb = init_kb(train_ds, cfg)
    flips = iter(range(10_000))

    def flaky(prompt):
        i = next(flips)
        if i % 2 == 0:
            raise LlmError("transient")
        return f"survivor entry number {i} here"

    client = LlmClient(LlmConfig(backend="mock"), fallback=flaky)
    out = expand_kb(kb, train_ds, client, provider, cfg)
    assert len(out) > len(kb)  # run completed despite failures
    assert out.expansion_failures == 10


def test_dedup_soundness(train_ds, provider):
    cfg = KbBuildConfig(few_shot_k=5, iterations=1, seed=2)
    kb = init_kb(train_ds, cfg)

    def shouty(prompt):
        return train_ds.records[1].knowledge.upper()

    out = expand_kb(kb, train_ds, mock_client(shouty), provider, cfg)
    normals = [normalize_text(e.text) for e in out.entries.values()]
    assert len(normals) == len(set(normals))


def test_save_load_round_trip(train_ds, tmp_path):
    kb = init_kb(train_ds, KbBuildConfig(few_shot_k=3, iterations=1, seed=9))
    path = tmp_path / "kb.jsonl"
    save_kb(kb, path)
    again = load_kb(path)
    assert again.entries == kb.entries
    assert again.build_config == kb.build_config


@pytest.mark.parametrize("n", [0, 1, ROW_CHUNK, 2 * ROW_CHUNK + 3])
def test_kb_digest_hashes_the_one_string_encoding(n):
    """Hashed ROW_CHUNK entries at a time, the digest is that of the whole
    encoding in one string, with non-ASCII text and lone surrogates too."""
    kb = KnowledgeBase()
    for i in range(n):
        text = f"straße {i} 東京 \ud800 ✓" if i % 2 else f"plain {i}"
        kb.add(KnowledgeEntry(id=f"id{i:04d}é", text=text, source="dataset", db_id="db"))
    body = "".join(f"{len(e.id)}:{e.id}{len(e.text)}:{e.text}" for e in kb.sorted_entries())
    assert kb_digest(kb) == hashlib.sha256(body.encode("utf-8", "surrogatepass")).hexdigest()


def test_loaded_entries_are_compact(train_ds, tmp_path):
    """Loaded entries have no per-entry __dict__, stay frozen, and share one
    string object per distinct db_id and source."""
    path = tmp_path / "kb.jsonl"
    save_kb(init_kb(train_ds), path)
    entries = load_kb(path).sorted_entries()
    a = entries[0]
    b = next(e for e in entries[1:] if e.db_id == a.db_id)
    assert not hasattr(a, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        a.text = "changed"
    assert a.db_id is b.db_id and a.source is b.source


def test_loaded_entries_equal_and_hash_like_constructed_ones(tmp_path):
    """Entries built from their slots are KnowledgeEntry(...)s in every way
    that shows: equality, hash, repr, and no field can be set or deleted."""
    kb = KnowledgeBase()
    kb.add(KnowledgeEntry.from_text("alpha refers to state = 'AL'", "dataset", "db"))
    kb.add(KnowledgeEntry.from_text("beta means grade 2 or higher", "generated", "db", "q1", 3))
    path = tmp_path / "kb.jsonl"
    save_kb(kb, path)
    loaded = load_kb(path).sorted_entries()
    assert len(loaded) == 2
    for got in loaded:
        want = KnowledgeEntry(
            got.id, got.text, got.source, got.db_id, got.origin_query_id, got.iteration
        )
        assert type(got) is KnowledgeEntry
        assert got == want and hash(got) == hash(want) and repr(got) == repr(want)
        for f in dataclasses.fields(KnowledgeEntry):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(got, f.name, "changed")
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(got, f.name)
    assert loaded == kb.sorted_entries()


def _gc_as(enabled: bool) -> None:
    (gc.enable if enabled else gc.disable)()


@pytest.mark.parametrize("enabled", [True, False])
def test_load_kb_leaves_gc_as_it_found_it(tmp_path, enabled):
    kb = KnowledgeBase()
    for i in range(3):
        kb.add(KnowledgeEntry.from_text(f"fact number {i} holds", "dataset", "db"))
    good, bad = tmp_path / "good.jsonl", tmp_path / "bad.jsonl"
    save_kb(kb, good)
    lines = good.read_text().splitlines()
    bad.write_text("\n".join([*lines, lines[1]]) + "\n")  # a duplicate id
    was = gc.isenabled()
    try:
        _gc_as(enabled)
        assert len(load_kb(good)) == 3
        assert gc.isenabled() == enabled
        with pytest.raises(ParseError, match="duplicate entry id"):
            load_kb(bad)
        assert gc.isenabled() == enabled
    finally:
        _gc_as(was)


def test_load_kb_pauses_gc_while_entries_are_built(tmp_path, monkeypatch):
    path = tmp_path / "kb.jsonl"
    save_kb(KnowledgeBase({"a": KnowledgeEntry("a", "one fact", "dataset", "db")}), path)
    seen = []
    read_entries = knowledge_base._read_entries
    monkeypatch.setattr(
        knowledge_base,
        "_read_entries",
        lambda *args: seen.append(gc.isenabled()) or read_entries(*args),
    )
    was = gc.isenabled()
    gc.enable()
    try:
        assert len(load_kb(path)) == 1
        assert gc.isenabled()
    finally:
        _gc_as(was)
    assert seen == [False]


def test_expansion_failures_survive_save_and_load(train_ds, provider, tmp_path):
    cfg = KbBuildConfig(few_shot_k=5, iterations=1, seed=1)

    def broken(prompt):
        raise LlmError("down")

    out = expand_kb(init_kb(train_ds, cfg), train_ds, mock_client(broken), provider, cfg)
    assert out.expansion_failures > 0
    path = tmp_path / "kb.jsonl"
    save_kb(out, path)
    again = load_kb(path)
    assert again.expansion_failures == out.expansion_failures
    assert kb_stats(again).expansion_failures == out.expansion_failures


def test_load_kb_without_failure_count_defaults_to_zero(train_ds, tmp_path):
    path = tmp_path / "kb.jsonl"
    save_kb(init_kb(train_ds), path)
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    del header["expansion_failures"]
    path.write_text("\n".join([json.dumps(header), *lines[1:]]) + "\n")
    assert load_kb(path).expansion_failures == 0


def test_load_kb_duplicate_ids(tmp_path):
    kb = KnowledgeBase()
    kb.add(KnowledgeEntry.from_text("one two three", "dataset", "db"))
    path = tmp_path / "kb.jsonl"
    save_kb(kb, path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines + [lines[1]]) + "\n")
    with pytest.raises(ParseError):
        load_kb(path)


def test_load_kb_error_names_file_line_past_blank_lines(tmp_path):
    kb = KnowledgeBase()
    kb.add(KnowledgeEntry.from_text("one two three", "dataset", "db"))
    path = tmp_path / "kb.jsonl"
    save_kb(kb, path)
    header, entry = path.read_text().splitlines()
    path.write_text("\n".join([header, "", entry, "", '{"id": "x"}']) + "\n")
    with pytest.raises(ParseError, match=r"kb.jsonl:5: missing key 'text'"):
        load_kb(path)


def test_load_kb_empty_file(tmp_path):
    path = tmp_path / "kb.jsonl"
    path.write_text("")
    assert len(load_kb(path)) == 0


def test_kb_stats_partition(train_ds, provider):
    cfg = KbBuildConfig(few_shot_k=5, iterations=1, seed=3)
    kb = init_kb(train_ds, cfg)
    assert kb_stats(kb).by_source.get("generated", 0) == 0
    n = iter(range(10_000))
    out = expand_kb(
        kb, train_ds, mock_client(lambda p: f"stat item {next(n)} x"), provider, cfg
    )
    stats = kb_stats(out)
    assert stats.by_source["dataset"] + stats.by_source["generated"] == stats.total
    assert sum(stats.by_db.values()) == stats.total


def test_expand_determinism_byte_identical(train_ds, provider, tmp_path):
    from sqlkb.llm import synthetic_completer

    cfg = KbBuildConfig(few_shot_k=5, iterations=2, seed=4)
    paths = []
    for name in ("a", "b"):
        kb = init_kb(train_ds, cfg)
        out = expand_kb(kb, train_ds, mock_client(synthetic_completer), provider, cfg)
        path = tmp_path / f"{name}.jsonl"
        save_kb(out, path)
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_load_kb_rejects_bad_build_config(tmp_path):
    path = tmp_path / "kb.jsonl"
    for build_config in [{"split": "train"}, {"few_shot_k": 0}, "not an object"]:
        header = {"format": "sqlkb/kb/v1", "build_config": build_config}
        path.write_text(json.dumps(header) + "\n")
        with pytest.raises(ParseError, match="bad build_config"):
            load_kb(path)


@pytest.mark.parametrize("failures", ["x", True, -3])
def test_load_kb_rejects_bad_expansion_failures(tmp_path, failures):
    path = tmp_path / "kb.jsonl"
    header = {"format": "sqlkb/kb/v1", "build_config": {}, "expansion_failures": failures}
    path.write_text(json.dumps(header) + "\n")
    with pytest.raises(ParseError, match=re.escape(f"{path}: bad expansion_failures")):
        load_kb(path)


def test_expand_kb_concurrent_matches_serial(chat_stub, train_ds, provider, tmp_path):
    chat_stub.latency = 0.01
    refused = train_ds.records[3].query.text
    chat_stub.status = lambda prompt: (
        400 if prompt.endswith(f"Question: {refused}\nEvidence: ") else 200
    )
    config = KbBuildConfig(few_shot_k=5, iterations=2, seed=0)
    files = {}
    # 20 records x 2 iterations: 40 completions, enough to fill the default window
    for max_inflight in (1, 4, LlmConfig().max_inflight):
        chat_stub.inflight_max = 0
        client = chat_stub.client(max_inflight)
        with open(tmp_path / f"ledger{max_inflight}.jsonl", "w") as sink:
            client.ledger = CallLedger(sink, stage="build-kb")
            kb = chat_stub.bounded(expand_kb, init_kb(train_ds), train_ds, client, provider, config)
        assert 1 <= chat_stub.inflight_max <= max_inflight
        assert (chat_stub.inflight_max > 1) == (max_inflight > 1)  # it did overlap
        assert kb.expansion_failures == 2
        save_kb(kb, tmp_path / f"kb{max_inflight}.jsonl")
        files[max_inflight] = [
            (tmp_path / f"{name}{max_inflight}.jsonl").read_bytes() for name in ("kb", "ledger")
        ]
    assert files[LlmConfig().max_inflight] == files[4] == files[1]
