import hashlib
import json
import math
import re
import tracemalloc
import zipfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqlkb.errors import (
    ConfigError,
    DimensionMismatchError,
    EmptyKbError,
    ParseError,
    ProviderError,
    UnknownEntryError,
)
from sqlkb import retriever
from sqlkb.evaluation import kb_coverage
from sqlkb.knowledge_base import KnowledgeBase, KnowledgeEntry, entry_id
from sqlkb.ranking import normalize_rows, rank_of, top_j
from sqlkb.retriever import (
    HTTP_BATCH,
    ROW_CHUNK,
    EmbeddingProvider,
    KnowledgeIndex,
    ProjectionHead,
    TrainConfig,
    TrainingPair,
    build_index,
    embed,
    eval_retrieval,
    info_nce_batch,
    info_nce_loss,
    init_head,
    load_or_build_index,
    retrieve,
    retrieve_many,
    train_head,
)


def make_kb(texts):
    kb = KnowledgeBase()
    for t in texts:
        kb.add(KnowledgeEntry.from_text(t, source="dataset", db_id="db"))
    return kb


# --- embedding ---

def test_hash_embed_deterministic(provider):
    a = provider.embed("New York refers to state = 'NY'")
    b = provider.embed("New York refers to state = 'NY'")
    assert np.array_equal(a, b)


def test_embed_unit_norm(provider):
    for text in ("a", "some longer text with words", "numbers 123 456"):
        assert math.isclose(np.linalg.norm(provider.embed(text)), 1.0, abs_tol=1e-6)


def test_hash_embed_matches_documented_recipe():
    # oracle: recompute the recipe by hand for dim 8, text "a"
    prov = EmbeddingProvider(dim=8)
    bucket = int.from_bytes(hashlib.sha256(b"a").digest()[:8], "big") % 8
    expected = np.zeros(8)
    expected[bucket] = 1.0
    assert np.allclose(prov.embed("a"), expected)


def test_hash_embed_token_counts():
    prov = EmbeddingProvider(dim=16)
    one = prov.embed("alpha beta")
    # repeated token shifts weight toward its bucket but stays unit norm
    two = prov.embed("alpha alpha beta")
    assert math.isclose(np.linalg.norm(two), 1.0, abs_tol=1e-9)
    assert not np.allclose(one, two)


def test_hash_raw_rows_are_token_counts():
    prov = EmbeddingProvider(dim=256)
    bucket = {
        t: int.from_bytes(hashlib.sha256(t.encode()).digest()[:8], "big") % 256
        for t in ("alpha", "beta")
    }
    expected = np.zeros(256)
    expected[bucket["alpha"]] += 2.0
    expected[bucket["beta"]] += 1.0
    text = "Alpha alpha, beta!"
    assert prov.raw(text).tolist() == expected.tolist()
    assert prov.raw_many([text, "!!!"]).tolist() == [expected.tolist(), [0.0] * 256]
    assert np.array_equal(prov.embed(text), expected / np.linalg.norm(expected))


def test_disjoint_tokens_orthogonal():
    prov = EmbeddingProvider(dim=256)

    def buckets(text):
        import re

        return {
            int.from_bytes(hashlib.sha256(t.encode()).digest()[:8], "big") % 256
            for t in re.findall(r"[a-z0-9]+", text.lower())
        }

    a, b = "alpha bravo charlie", "delta foxtrot golf"
    assert buckets(a) & buckets(b) == set()  # no bucket collisions for this pair
    assert math.isclose(float(prov.embed(a) @ prov.embed(b)), 0.0, abs_tol=1e-12)


def _documented_rows(texts, dim):
    """The hash rows by the documented rule, written out one token at a time."""
    rows = np.zeros((len(texts), dim))
    for i, text in enumerate(texts):
        for token in re.findall(r"[a-z0-9]+", text.lower()):
            rows[i, int.from_bytes(hashlib.sha256(token.encode()).digest()[:8], "big") % dim] += 1
    return rows


# Any code point, lone surrogates included, and characters whose lowercase is
# ASCII (the Kelvin sign, dotted capital I) or looks like a token (fullwidth).
_TEXT_CHARS = st.one_of(
    st.characters(exclude_categories=()),
    st.characters(categories=["Cs"]),
    st.sampled_from(list("aZ09 _-.\t\x00\xa0\xdf\u0130\u212a\uff23\uff11\U0001f600")),
)


@settings(max_examples=200, deadline=None)
@given(texts=st.lists(st.text(_TEXT_CHARS, min_size=1), min_size=1, max_size=6),
       dim=st.sampled_from([1, 7, 256]))
def test_hash_rows_follow_the_documented_token_rule(texts, dim):
    prov = EmbeddingProvider(dim=dim)
    rows = prov.raw_many(texts)
    assert np.array_equal(rows, _documented_rows(texts, dim))
    assert np.array_equal(rows, [prov.raw(t) for t in texts])


def test_hash_rows_keep_no_token_state():
    """20,000 texts, each with its own numeric token, embedded in ROW_CHUNK
    blocks: the rows are dropped, and nothing else is held after the calls."""
    prov = EmbeddingProvider(dim=256)
    texts = [f"school {i} enrolment" for i in range(20_000)]
    prov.raw_many(["warm up"])
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for start in range(0, len(texts), ROW_CHUNK):
            prov.raw_many(texts[start : start + ROW_CHUNK])
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < 0.25 * 2**20


@pytest.mark.parametrize(
    "text, dtype",
    [
        # 300 tokens are counted as uint16; no count reaches 256
        (" ".join(f"t{i}" for i in range(300)), np.uint8),
        ("word " * 256, np.uint16),
        ("!!!", np.uint8),
        ("word " * 70_000, np.uint32),
    ],
    ids=["300-distinct", "256-repeats", "no-token", "70000-repeats"],
)
def test_hash_counts_come_in_the_narrowest_type_of_their_largest_count(tmp_path, text, dtype):
    """`raw_many`, the per-text cache and the index file's raw member hold a
    text's token counts in the narrowest unsigned type of its largest count."""
    prov = EmbeddingProvider(dim=256)
    want = _documented_rows([text], 256)
    load_or_build_index(tmp_path / "kb_index.npz", make_kb([text]), prov)
    with np.load(tmp_path / "kb_index.npz") as stored:
        rows = [prov.raw_many([text]), prov._cached(text)[None], stored["raw/0"]]
    for row in rows:
        assert row.dtype == dtype
        assert np.array_equal(row, want)


def test_hash_rows_hold_no_float64_count_block():
    """Neither `raw_many` nor `cache_raw` of 5,000 texts peaks at the size of
    their (n, dim) float64 count block: the counts are made narrow."""
    texts = [f"school {i} enrolment" for i in range(5_000)]
    float64_block = len(texts) * 256 * 8
    for call in (EmbeddingProvider(dim=256).raw_many, EmbeddingProvider(dim=256).cache_raw):
        tracemalloc.start()
        try:
            call(texts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < float64_block, call.__name__


def test_embed_empty_text_rejected(provider):
    with pytest.raises(ValueError):
        provider.embed("")


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"backend": "hsah"}, "backend: expected hash or http, got 'hsah'"),
        ({"dim": 0}, "dim must be >= 1, got 0"),
        ({"backend": "http"}, "backend = http needs an endpoint"),
        ({"backend": "http", "endpoint": ""}, "backend = http needs an endpoint"),
    ],
)
def test_provider_refuses_bad_settings_at_construction(fields, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        EmbeddingProvider(**fields)
    # the settings it accepts build a usable provider
    assert EmbeddingProvider(dim=1).raw("a b").tolist() == [2.0]


def test_index_rows_of_raw_many_bit_identical_to_embed():
    texts = [f"alpha {i} beta{i % 7} gamma gamma" for i in range(600)]
    texts += ["!!!", texts[1]]  # a text without tokens, and a repeat
    batch = retriever._index_rows(EmbeddingProvider(dim=64).raw_many(texts))
    single = EmbeddingProvider(dim=64)
    assert batch.shape == (len(texts), 64)
    assert np.array_equal(batch, np.stack([single.embed(t) for t in texts]))
    assert not batch[len(texts) - 2].any()  # no tokens: the zero vector


def test_raw_many_rejects_empty_text(provider):
    with pytest.raises(ValueError):
        provider.raw_many(["fine text", ""])


def length_rows(dim, rows_delta=0, dim_delta=0):
    """Embedding-service rows [len(text), 1, 0, ...] per text, with
    `rows_delta` rows and `dim_delta` columns too many."""

    def rows(path, texts):
        return [
            [float(len(t)), 1.0] + [0.0] * (dim - 2 + dim_delta) for t in texts
        ] + [[1.0] * dim] * rows_delta

    return rows


def test_http_raw_many_sends_one_request_per_batch(embed_stub):
    embed_stub.rows = length_rows(8)
    prov = EmbeddingProvider(dim=8, backend="http", endpoint=embed_stub.url)
    texts = [f"text number {i}" for i in range(2 * HTTP_BATCH + 5)]
    raw = prov.raw_many(texts)
    assert embed_stub.batches == [texts[:HTTP_BATCH], texts[HTTP_BATCH:-5], texts[-5:]]
    assert raw.shape == (len(texts), 8)
    assert raw[10, :2].tolist() == [len(texts[10]), 1.0]
    rows = retriever._index_rows(raw)
    expected = np.array([len(texts[10]), 1.0]) / math.hypot(len(texts[10]), 1.0)
    assert np.allclose(rows[10, :2], expected)
    assert np.array_equal(prov.embed(texts[10]), rows[10])
    prov.embed(texts[10])  # cached: no new request
    assert list(map(len, embed_stub.batches)) == [HTTP_BATCH, HTTP_BATCH, 5, 1]


@pytest.mark.parametrize("rows_delta, dim_delta", [(1, 0), (0, 1), (0, -1)])
def test_http_raw_many_rejects_wrong_shape(embed_stub, rows_delta, dim_delta):
    embed_stub.rows = length_rows(8, rows_delta=rows_delta, dim_delta=dim_delta)
    prov = EmbeddingProvider(dim=8, backend="http", endpoint=embed_stub.url)
    with pytest.raises(ProviderError):
        prov.raw_many(["one text", "another text"])
    with pytest.raises(ProviderError):
        prov.embed("a single text")


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=str)
def test_http_embed_refuses_a_non_finite_value(embed_stub, tmp_path, value):
    """`json.loads` reads NaN, Infinity and -Infinity; one such value in any
    row is refused before it reaches an index row or a score, and leaves no
    index file behind."""

    def rows(path, texts):
        return [[1.0] * 7 + [value if t == "last text" else 2.0] for t in texts]

    embed_stub.rows = rows
    prov = EmbeddingProvider(dim=8, backend="http", endpoint=embed_stub.url)
    message = "^embedding service returned a non-finite value$"
    with pytest.raises(ProviderError, match=message):
        prov.raw_many(["one text", "last text"])
    with pytest.raises(ProviderError, match=message):
        load_or_build_index(tmp_path / "kb_index.npz", make_kb(["one text", "last text"]), prov)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "failure, message",
    [
        ("status", "http status 503"),
        ("body", "embedding service failed"),
        ("refused", "embedding service failed"),
    ],
)
def test_http_embed_failure_is_provider_error(embed_stub, refused_url, sent, failure, message):
    endpoint = refused_url if failure == "refused" else embed_stub.url
    if failure == "status":
        embed_stub.status = 503
    if failure == "body":
        embed_stub.rows = lambda path, texts: {"not": "rows"}
    prov = EmbeddingProvider(dim=8, backend="http", endpoint=endpoint)
    with pytest.raises(ProviderError, match=message):
        prov.raw_many(["one text"])
    assert len(sent.posts) == {"status": 3, "refused": 3, "body": 1}[failure]


@pytest.mark.parametrize("status", [201, 204])
def test_http_embed_only_a_200_is_an_answer(embed_stub, sent, status):
    embed_stub.status = status
    prov = EmbeddingProvider(dim=256, backend="http", endpoint=embed_stub.url)
    with pytest.raises(ProviderError, match=f"embedding service failed: http status {status}$"):
        prov.raw_many(["one text"])
    assert len(sent.posts) == 1


@pytest.mark.parametrize(
    "refusal, slept",
    [
        ((503, {}), 1.0),  # the default backoff
        ((429, {"Retry-After": "2.5"}), 2.5),
    ],
)
def test_http_embed_retries_a_refusal(embed_stub, sent, refusal, slept):
    embed_stub.script = [refusal]
    prov = EmbeddingProvider(dim=256, backend="http", endpoint=embed_stub.url)
    rows = prov.raw_many(["one text"])
    assert np.array_equal(rows, EmbeddingProvider(dim=256).raw_many(["one text"]))
    assert len(sent.posts) == 2 and sent.sleeps == [slept]


# --- index / retrieve ---

def stored_matrix(index):
    """The rows an index file holds, read back whole."""
    return np.concatenate([rows for _, rows in index.blocks()])


def best_similarities(kb, gold, provider, index=None):
    """Per gold text, `kb_coverage`'s best similarity over the raw rows an
    index file holds, or without an index over the KB embedded."""
    blocks = index.raw_blocks() if index is not None else None
    return [p["best_similarity"] for p in kb_coverage(kb, gold, provider, blocks).per_gold]


def test_build_index_empty_kb(provider):
    with pytest.raises(EmptyKbError):
        build_index(KnowledgeBase(), provider)


def test_build_index_row_per_entry(provider):
    kb = make_kb(["one two three", "four five six", "seven eight nine"])
    idx = build_index(kb, provider)
    assert idx.matrix.shape == (3, provider.dim)
    assert len(idx.entries) == 3


def test_build_index_rebuild_identical(provider):
    kb = make_kb(["one two three", "four five six"])
    a = build_index(kb, provider)
    b = build_index(kb, EmbeddingProvider(dim=provider.dim))
    assert np.array_equal(a.matrix, b.matrix)
    assert a.ids == b.ids


def test_build_index_with_head_matches_per_entry_projection(provider):
    kb = make_kb([f"entry {i} token{i} shared words" for i in range(700)])
    head = init_head(provider.dim, 32, seed=3)
    idx = build_index(kb, provider, head)
    rows = np.stack([embed(provider, e.text, head) for e in kb.sorted_entries()])
    assert idx.matrix.shape == (700, 32)
    assert np.allclose(idx.matrix, rows, rtol=0, atol=1e-12)


KB_SIZES = [1, ROW_CHUNK - 1, ROW_CHUNK, ROW_CHUNK + 1, 2 * ROW_CHUNK + 3]


@pytest.mark.parametrize("n", KB_SIZES)
@pytest.mark.parametrize("head_dim", [None, 32])
def test_stored_index_scores_as_built_and_covers_exactly(
    tmp_path, provider, tie_heavy_texts, count_best_cosines, n, head_dim
):
    kb = make_kb(tie_heavy_texts(n))
    head = init_head(provider.dim, head_dim, seed=1) if head_dim else None
    gold = tie_heavy_texts(5, seed=9)
    plain = build_index(kb, provider, head)
    stored = load_or_build_index(tmp_path / "kb_index.npz", kb, provider, head)
    assert np.array_equal(stored_matrix(stored), plain.matrix)
    texts = [e.text for e in kb.sorted_entries()]
    assert best_similarities(kb, gold, provider, stored) == count_best_cosines(
        provider, texts, gold
    )


@pytest.mark.parametrize("n", KB_SIZES)
@pytest.mark.parametrize("head_dim", [None, 32])
def test_loaded_index_equals_built_index(tmp_path, provider, tie_heavy_texts, n, head_dim):
    kb = make_kb(tie_heavy_texts(n))
    head = init_head(provider.dim, head_dim, seed=1) if head_dim else None
    gold = tie_heavy_texts(5, seed=9)
    built = load_or_build_index(tmp_path / "built.npz", kb, provider, head)
    built_best = best_similarities(kb, gold, provider, built)
    assert built_best == best_similarities(kb, gold, provider)
    path = tmp_path / "kb_index.npz"
    load_or_build_index(path, kb, provider, head)
    for _ in range(2):
        loaded = load_or_build_index(path, kb, provider, head)
        assert loaded.ids == built.ids
        assert np.array_equal(stored_matrix(loaded), stored_matrix(built))
        assert (loaded.provider_fingerprint, loaded.head_fingerprint) == (
            built.provider_fingerprint,
            built.head_fingerprint,
        )
        assert best_similarities(kb, gold, provider, loaded) == built_best
    with pytest.raises(ConfigError):
        retrieve("alpha", loaded, 1, provider, init_head(provider.dim, 8, seed=2))


def count_builds(monkeypatch) -> list:
    builds = []
    build = retriever._build_index_file

    def counting(*args, **kwargs):
        builds.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(retriever, "_build_index_file", counting)
    return builds


def rolled_hash_rows(path, texts):
    """Embedding-service rows: hash rows rolled by the url path's length."""
    return np.roll(EmbeddingProvider(dim=32).raw_many(texts), len(path), axis=1).tolist()


INDEX_SETUPS = {
    "hash": lambda url: (EmbeddingProvider(dim=32), None),
    "head": lambda url: (EmbeddingProvider(dim=32), init_head(32, 8, seed=1)),
    "retrained head": lambda url: (EmbeddingProvider(dim=32), init_head(32, 8, seed=2)),
    "other dim": lambda url: (EmbeddingProvider(dim=16), None),
    "http": lambda url: (EmbeddingProvider(dim=32, backend="http", endpoint=f"{url}/a"), None),
    "other endpoint": lambda url: (
        EmbeddingProvider(dim=32, backend="http", endpoint=f"{url}/other"),
        None,
    ),
}


@pytest.mark.parametrize(
    "before, after", [("head", "retrained head"), ("hash", "other dim"), ("http", "other endpoint")]
)
def test_index_key_change_forces_rebuild(
    tmp_path, monkeypatch, caplog, embed_stub, before, after
):
    embed_stub.rows = rolled_hash_rows
    url = embed_stub.url
    kb = make_kb([f"entry {i} token{i % 7} shared words" for i in range(300)])
    path = tmp_path / "kb_index.npz"
    builds = count_builds(monkeypatch)
    for _ in range(2):
        load_or_build_index(path, kb, *INDEX_SETUPS[before](url))
    assert len(builds) == 1 and not caplog.text
    for _ in range(2):
        index = load_or_build_index(path, kb, *INDEX_SETUPS[after](url))
    assert len(builds) == 2 and "built for another KB, provider or head" in caplog.text
    fresh = retriever.build_index(kb, *INDEX_SETUPS[after](url))
    assert np.array_equal(stored_matrix(index), fresh.matrix)
    assert index.head_fingerprint == fresh.head_fingerprint


@pytest.mark.parametrize("head_dim", [None, 8])
def test_index_file_holds_matrix_blocks_only_with_a_head(tmp_path, provider, head_dim):
    """Without a head the index rows are the normalized raw rows, so the file
    keeps the raw blocks alone. Each member is one scoring block: a last
    block of one row is joined to the block before it."""
    kb = make_kb([f"entry {i} token{i % 7} shared words" for i in range(2 * ROW_CHUNK + 1)])
    head = init_head(provider.dim, head_dim, seed=1) if head_dim else None
    path = tmp_path / "kb_index.npz"
    load_or_build_index(path, kb, provider, head)
    with zipfile.ZipFile(path) as zf:
        names = set(zf.namelist())
    blocks = {"raw/0.npy", "raw/1.npy"}
    if head_dim:
        blocks |= {"matrix/0.npy", "matrix/1.npy"}
    assert names == blocks | {"index.json"}
    with np.load(path) as stored:
        lengths = [len(stored[name[:-4]]) for name in sorted(blocks)]
    assert lengths == [ROW_CHUNK, ROW_CHUNK + 1] * (len(blocks) // 2)


def float_rows(path, texts):
    """Embedding-service rows of arbitrary floats, fixed per text."""
    seeds = [int.from_bytes(hashlib.sha256(t.encode()).digest()[:4], "big") for t in texts]
    return [np.random.default_rng(seed).standard_normal(64).tolist() for seed in seeds]


def test_stored_float_rows_without_a_head_score_as_built(tmp_path, embed_stub):
    """Without a head the file keeps float64 raw rows, normalized as they are
    read: their scores are the built index's bit for bit."""
    embed_stub.rows = float_rows
    provider = EmbeddingProvider(dim=64, backend="http", endpoint=embed_stub.url)
    kb = make_kb([f"entry {i} token{i % 7} shared words" for i in range(ROW_CHUNK + 1)])
    stored = load_or_build_index(tmp_path / "kb_index.npz", kb, provider)
    built = build_index(kb, provider)
    assert np.array_equal(stored_matrix(stored), built.matrix)
    queries = ["token3 words", "entry 5", "shared"]
    assert retrieve_many(queries, stored, 7, provider) == retrieve_many(queries, built, 7, provider)


def test_earlier_format_file_is_rebuilt_once(tmp_path, monkeypatch, caplog, provider):
    kb = make_kb(["one two", "three four"])
    path = tmp_path / "kb_index.npz"
    with monkeypatch.context() as m:
        m.setattr(retriever, "INDEX_FORMAT", "sqlkb/index/v1")
        load_or_build_index(path, kb, provider)
    builds = count_builds(monkeypatch)
    for _ in range(2):
        index = load_or_build_index(path, kb, provider)
    assert len(builds) == 1 and caplog.text.count("built for another KB, provider or head") == 1
    assert np.array_equal(stored_matrix(index), build_index(kb, provider).matrix)


def test_index_file_members_carry_a_fixed_date(tmp_path, provider):
    """Every member is dated 1980-01-01, so a rebuild writes the same bytes."""
    path = tmp_path / "kb_index.npz"
    load_or_build_index(path, make_kb(["one two", "three four"]), provider)
    with zipfile.ZipFile(path) as zf:
        assert {m.date_time for m in zf.infolist()} == {(1980, 1, 1, 0, 0, 0)}


@pytest.mark.parametrize(
    "damage",
    [
        pytest.param(lambda data: data[: len(data) // 2], id="truncated"),
        pytest.param(lambda data: data[:3000] + bytes([data[3000] ^ 1]) + data[3001:], id="flipped"),
        pytest.param(lambda data: b"", id="empty"),
    ],
)
def test_damaged_index_file_is_rebuilt_with_a_warning(
    tmp_path, tmp_path_factory, provider, caplog, damage
):
    kb = make_kb([f"entry {i} token{i % 7} shared words" for i in range(2 * ROW_CHUNK)])
    gold = ["token3 words", "entry 5"]
    fresh = tmp_path_factory.mktemp("fresh") / "kb_index.npz"
    built = load_or_build_index(fresh, kb, provider)
    built_best = best_similarities(kb, gold, provider, built)
    assert built_best == best_similarities(kb, gold, provider)
    path = tmp_path / "kb_index.npz"
    load_or_build_index(path, kb, provider)
    path.write_bytes(damage(path.read_bytes()))
    index = load_or_build_index(path, kb, provider)
    assert "is unreadable" in caplog.text
    assert np.array_equal(stored_matrix(index), stored_matrix(built))
    assert best_similarities(kb, gold, provider, index) == built_best
    caplog.clear()
    load_or_build_index(path, kb, provider)
    assert not caplog.text
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


@pytest.mark.parametrize("repeats, dtype", [(255, np.uint8), (256, np.uint16), (70_000, np.uint32)])
def test_index_file_holds_token_counts_exactly(
    tmp_path, provider, count_best_cosines, repeats, dtype
):
    kb = make_kb(["word " * repeats, "word and other words", "no shared tokens"])
    texts = [e.text for e in kb.sorted_entries()]
    gold = ["word", "other words"]
    built = load_or_build_index(tmp_path / "built.npz", kb, provider)
    built_best = best_similarities(kb, gold, provider, built)
    assert built_best == count_best_cosines(provider, texts, gold)
    path = tmp_path / "kb_index.npz"
    load_or_build_index(path, kb, provider)
    with np.load(path) as stored_file:
        stored = stored_file["raw/0"]
    assert stored.dtype == dtype
    assert np.array_equal(stored, provider.raw_many(texts))
    loaded = load_or_build_index(path, kb, provider)
    assert best_similarities(kb, gold, provider, loaded) == built_best


def test_index_requires_entries_in_id_order(provider):
    idx = build_index(make_kb(["one two three", "four five six"]), provider)
    with pytest.raises(ValueError):
        KnowledgeIndex(
            entries=idx.entries[::-1],
            matrix=idx.matrix[::-1],
            provider_fingerprint=idx.provider_fingerprint,
        )


def test_retrieve_exact_text_scores_one(provider):
    kb = make_kb(["alpha bravo charlie", "delta echo foxtrot", "golf hotel india"])
    idx = build_index(kb, provider)
    (entry, score), *_ = retrieve("delta echo foxtrot", idx, 1, provider)
    assert entry.text == "delta echo foxtrot"
    assert math.isclose(score, 1.0, abs_tol=1e-6)


def test_retrieve_j_larger_than_kb(provider):
    kb = make_kb(["alpha bravo charlie", "delta echo foxtrot"])
    idx = build_index(kb, provider)
    assert len(retrieve("alpha question", idx, 10, provider)) == 2


def brute_force_rank(query, kb, provider, j):
    """Independent oracle: full-scan cosine + explicit (score desc, id asc) sort."""
    qv = provider.embed(query)
    scored = []
    for e in kb.sorted_entries():
        ev = provider.embed(e.text)
        scored.append((-float(np.dot(qv, ev)), e.id))
    scored.sort()
    return [eid for _, eid in scored[:j]]


def test_retrieve_matches_brute_force(provider):
    rng = np.random.default_rng(42)
    words = [f"word{i}" for i in range(40)]
    texts = {
        " ".join(rng.choice(words, size=5, replace=False)) for _ in range(120)
    }
    kb = make_kb(sorted(texts)[:100])
    idx = build_index(kb, provider)
    query = "word1 word2 word3 plus extra"
    got = [e.id for e, _ in retrieve(query, idx, 10, provider)]
    assert got == brute_force_rank(query, kb, provider, 10)


def test_retrieve_tie_break_by_id(provider):
    # two entries with identical token multisets embed identically
    kb = make_kb(["tie alpha beta", "beta alpha tie"])
    idx = build_index(kb, provider)
    got = [e.id for e, _ in retrieve("alpha beta tie", idx, 2, provider)]
    assert got == sorted(got)


def test_retrieve_scale_invariance(provider):
    kb = make_kb([f"entry number {i} token{i}" for i in range(20)])
    idx = build_index(kb, provider)
    base = [e.id for e, _ in retrieve("token3 entry", idx, 20, provider)]
    for scale in (0.1, 7.5, 1234.0):
        scaled = KnowledgeIndex(
            entries=idx.entries,
            matrix=idx.matrix * scale,
            provider_fingerprint=idx.provider_fingerprint,
        )
        got = [e.id for e, _ in retrieve("token3 entry", scaled, 20, provider)]
        assert got == base


# --- block-by-block scoring ---

def index_over(matrix):
    """An in-memory index whose rows are `matrix`, over placeholder entries."""
    entries = tuple(
        KnowledgeEntry(id=f"{i:05d}", text=f"entry {i}", source="dataset", db_id="db")
        for i in range(len(matrix))
    )
    return KnowledgeIndex(entries=entries, matrix=matrix, provider_fingerprint="fp")


EDGE_SIZES = [k * ROW_CHUNK + r for k in (1, 2, 3) for r in (0, 1, 2)]


@settings(max_examples=60, deadline=None)
@given(
    n=st.one_of(st.sampled_from(EDGE_SIZES), st.integers(1, 3 * ROW_CHUNK + 1)),
    dim=st.sampled_from([64, 256]),
    seed=st.integers(0, 2**32 - 1),
)
def test_block_scores_equal_matrix_vector_products(n, dim, seed):
    """Scored block by block, a query's scores are `matrix @ q` bit for bit,
    also when the last block would hold a single row."""
    rng = np.random.default_rng(seed)
    matrix = normalize_rows(rng.standard_normal((n, dim)))[0]
    vecs = normalize_rows(rng.standard_normal((3, dim)))[0]
    got = np.concatenate(
        [retriever._scores(vecs, block) for _, block in index_over(matrix).blocks()],
        axis=1,
    )
    assert np.array_equal(got, np.stack([matrix @ q for q in vecs]))


ROW_SPLITS = [1, 31, 32, 33, ROW_CHUNK + 1]


@settings(max_examples=40, deadline=None)
@given(
    n=st.one_of(st.sampled_from([1, 32, 33, ROW_CHUNK + 1]), st.integers(1, 2 * ROW_CHUNK + 3)),
    counts=st.booleans(),
    head_dim=st.sampled_from([None, 16]),
    seed=st.integers(0, 2**32 - 1),
)
def test_index_rows_do_not_depend_on_the_rows_made_with_them(n, counts, head_dim, seed):
    """`_index_rows` gives each row the same bits whether it is made alone,
    in pieces of any size, or with all the others; float64 rows and uint8
    token counts alike, with and without a head. It widens uint8 counts into
    a copy."""
    rng = np.random.default_rng(seed)
    dim = 64
    if counts:
        raw = rng.integers(0, 4, size=(n, dim)).astype(np.uint8)
    else:
        raw = rng.standard_normal((n, dim))
    kept = raw.copy()
    head = init_head(dim, head_dim, seed=1) if head_dim else None
    whole = retriever._index_rows(raw.copy(), head)
    assert whole.dtype == np.float64
    for split in ROW_SPLITS:
        pieces = [
            retriever._index_rows(raw[i : i + split].copy(), head) for i in range(0, n, split)
        ]
        assert np.concatenate(pieces).tobytes() == whole.tobytes()
    if counts:
        retriever._index_rows(raw, head)
        assert np.array_equal(raw, kept)


@pytest.mark.parametrize("backend", ["hash", "http"])
@pytest.mark.parametrize("head_dim", [None, 16])
def test_index_rows_equal_embed_and_build_index(
    tmp_path, embed_stub, tie_heavy_texts, backend, head_dim
):
    """Index and query rows are `_index_rows` of the raw rows, bit for bit;
    the per-text cache and the index file keep the raw rows."""
    embed_stub.rows = float_rows
    provider = EmbeddingProvider(dim=64, backend=backend, endpoint=embed_stub.url)
    kb = make_kb(tie_heavy_texts(ROW_CHUNK + 33))
    texts = [e.text for e in kb.sorted_entries()]
    head = init_head(provider.dim, head_dim, seed=1) if head_dim else None
    raw = provider.raw_many(texts)
    rows = retriever._index_rows(raw.copy(), head)
    assert build_index(kb, provider, head).matrix.tobytes() == rows.tobytes()
    provider.cache_raw(texts)
    assert np.stack([embed(provider, t, head) for t in texts]).tobytes() == rows.tobytes()
    assert np.array_equal(np.stack([provider.raw(t) for t in texts]), raw)
    path = tmp_path / "kb_index.npz"
    load_or_build_index(path, kb, provider, head)
    with np.load(path) as stored:
        assert np.array_equal(np.concatenate([stored["raw/0"], stored["raw/1"]]), raw)


@pytest.mark.parametrize("head_dim", [None, 16])
def test_file_of_one_row_last_member_is_rebuilt_once(
    tmp_path, monkeypatch, caplog, provider, tie_heavy_texts, head_dim
):
    """A file whose members are not its row blocks, as when a last one-row
    block was stored as a member of its own, is rebuilt once with a warning,
    then scores as `build_index` does."""
    n = ROW_CHUNK + 1
    kb = make_kb(tie_heavy_texts(n))
    head = init_head(provider.dim, head_dim, seed=1) if head_dim else None
    path = tmp_path / "kb_index.npz"
    with monkeypatch.context() as m:
        m.setattr(retriever, "_block_bounds", lambda n: [*range(0, n, ROW_CHUNK), n])
        load_or_build_index(path, kb, provider, head)
    with np.load(path) as stored:
        assert [len(stored[f"raw/{k}"]) for k in (0, 1)] == [ROW_CHUNK, 1]
    builds = count_builds(monkeypatch)
    for _ in range(2):
        index = load_or_build_index(path, kb, provider, head)
    assert len(builds) == 1
    assert caplog.text.count("is unreadable") == 1 and "rebuilding it" in caplog.text
    assert len(index.layout) == 1
    built = build_index(kb, provider, head)
    assert stored_matrix(index).tobytes() == built.matrix.tobytes()
    queries = tie_heavy_texts(6, seed=3)
    assert retrieve_many(queries, index, 5, provider, head) == retrieve_many(
        queries, built, 5, provider, head
    )


BLOCK_KB_SIZES = [1, 2, ROW_CHUNK, ROW_CHUNK + 1, 2 * ROW_CHUNK + 2]


@pytest.mark.parametrize("n", BLOCK_KB_SIZES)
@pytest.mark.parametrize("head_dim", [None, 32])
def test_batched_retrieval_equals_per_query_ranking(
    tmp_path, provider, tie_heavy_texts, n, head_dim
):
    """retrieve_many, from memory or from the index file, returns for each
    query what ranking its full score vector returns, scores included."""
    kb = make_kb(tie_heavy_texts(n))
    head = init_head(provider.dim, head_dim, seed=1) if head_dim else None
    built = build_index(kb, provider, head)
    stored = load_or_build_index(tmp_path / "kb_index.npz", kb, provider, head)
    queries = tie_heavy_texts(12, seed=5)
    for j in (1, 5, n + 3):
        want = []
        for query in queries:
            scores = built.matrix @ embed(provider, query, head)
            want.append([(built.entries[i], float(scores[i])) for i in top_j(scores, j)])
        assert retrieve_many(queries, built, j, provider, head) == want
        assert retrieve_many(queries, stored, j, provider, head) == want
        assert [retrieve(q, stored, j, provider, head) for q in queries] == want


@pytest.mark.parametrize("n", BLOCK_KB_SIZES)
def test_block_counted_ranks_equal_rank_of(tmp_path, provider, tie_heavy_texts, n):
    kb = make_kb(tie_heavy_texts(n))
    built = build_index(kb, provider)
    stored = load_or_build_index(tmp_path / "kb_index.npz", kb, provider)
    queries = tie_heavy_texts(6, seed=3)
    vecs = np.stack([embed(provider, q, None) for q in queries])
    rng = np.random.default_rng(n)
    query = rng.integers(0, len(queries), size=20)
    row = rng.integers(0, n, size=20)
    want = [rank_of(built.matrix @ vecs[q], r) for q, r in zip(query, row)]
    for index in (built, stored):
        assert retriever._ranks(index, vecs, query, row).tolist() == want
    labeled = [(queries[q], [built.entries[r].id]) for q, r in zip(query, row)]
    metrics = eval_retrieval(stored, labeled, provider)
    assert metrics.mrr == float(np.mean([1.0 / rank for rank in want]))
    assert metrics.top_at == {k: sum(rank <= k for rank in want) / 20 for k in (1, 3, 10)}


@pytest.mark.parametrize("head_dim", [None, 32])
def test_first_rank_pass_reads_only_the_blocks_holding_a_row(
    tmp_path, provider, tie_heavy_texts, monkeypatch, head_dim
):
    """`_ranks` scores the rows against their queries from the blocks that
    hold them, and counts ranks over every block: two of four blocks, then
    four. The last block holds ROW_CHUNK + 1 rows, in one member."""
    n = 4 * ROW_CHUNK + 1
    kb = make_kb(tie_heavy_texts(n))
    head = init_head(provider.dim, head_dim, seed=1) if head_dim else None
    built = build_index(kb, provider, head)
    stored = load_or_build_index(tmp_path / "kb_index.npz", kb, provider, head)
    queries = tie_heavy_texts(2, seed=3)
    vecs = np.stack([embed(provider, q, head) for q in queries])
    query, row = np.array([0, 1, 1]), np.array([5, 3 * ROW_CHUNK + 2, n - 1])
    want = [rank_of(built.matrix @ vecs[q], r) for q, r in zip(query, row)]
    passes, members = [], []
    for cls in (KnowledgeIndex, retriever.StoredIndex):
        def counted(self, only=None, _blocks=cls.blocks):
            blocks = list(_blocks(self, only))
            passes.append(len(blocks))
            return iter(blocks)

        monkeypatch.setattr(cls, "blocks", counted)
    read = retriever.StoredIndex._read
    monkeypatch.setattr(
        retriever.StoredIndex, "_read", lambda self, f, m: members.append(m) or read(self, f, m)
    )
    for index in (built, stored):
        passes.clear()
        members.clear()
        assert retriever._ranks(index, vecs, query, row).tolist() == want
        assert passes == [2, 4]
    # blocks 0 and 3, then all four, one member each
    assert len(stored.layout) == 4
    assert members == [stored.layout[i] for i in (0, 3, 0, 1, 2, 3)]


@pytest.mark.parametrize("head_dim", [None, 64])
def test_scoring_a_stored_index_holds_no_matrix(tmp_path, head_dim):
    """Writing a file-backed 20k-entry index, loading it and scoring it,
    retrieval and ranks alike, peaks below a quarter of its matrix size."""
    provider = EmbeddingProvider(dim=256)
    head = init_head(provider.dim, head_dim, seed=1) if head_dim else None
    words = [f"w{i}" for i in range(40)]
    texts = [f"{a} {b} {c}" for a in words for b in words for c in words[:13]][:20_000]
    kb = make_kb(texts)
    path = tmp_path / "kb_index.npz"
    queries = [f"w{i} w{7 * i % 40} w{i % 13}" for i in range(30)]
    labeled = [(q, [entry_id(q)]) for q in queries]
    provider.cache_raw(queries)
    matrix_bytes = len(kb) * (head_dim or provider.dim) * 8
    tracemalloc.start()
    try:
        load_or_build_index(path, kb, provider, head)
        index = load_or_build_index(path, kb, provider, head)
        retrieve_many(queries, index, 5, provider, head)
        eval_retrieval(index, labeled, provider, head)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < matrix_bytes / 4


def test_index_file_rebuilt_while_in_use_is_refused(tmp_path, provider):
    kb = make_kb(["one two", "three four", "five six"])
    path = tmp_path / "kb_index.npz"
    index = load_or_build_index(path, kb, provider)
    load_or_build_index(path, kb, provider, init_head(provider.dim, 8, seed=1))
    with pytest.raises(ParseError, match="while in use"):
        retrieve("one", index, 1, provider)


# --- InfoNCE ---

def test_info_nce_closed_form():
    q = np.array([1.0, 0.0, 0.0, 0.0])
    neg = np.array([0.0, 1.0, 0.0, 0.0])
    loss = info_nce_loss(q, q, [neg], tau=1.0)
    assert math.isclose(loss, math.log(1 + math.exp(-1)), abs_tol=1e-9)


def test_info_nce_identical_pos_neg_is_log2():
    q = np.array([0.3, -0.2, 0.9])
    other = np.array([1.0, 1.0, 0.0])
    assert math.isclose(info_nce_loss(q, other, [other], tau=0.7), math.log(2), abs_tol=1e-12)


@settings(max_examples=50, deadline=None)
@given(
    st.integers(min_value=2, max_value=12),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_info_nce_nonnegative_finite(dim, n_neg, seed):
    rng = np.random.default_rng(seed)
    q = rng.normal(size=dim)
    pos = rng.normal(size=dim)
    negs = [rng.normal(size=dim) for _ in range(n_neg)]
    loss = info_nce_loss(q, pos, negs, tau=0.5)
    assert loss >= 0.0 and math.isfinite(loss)


def test_info_nce_monotone_in_weak_negatives():
    rng = np.random.default_rng(0)
    q = rng.normal(size=6)
    pos = q + 0.1 * rng.normal(size=6)
    negs = [rng.normal(size=6) for _ in range(3)]
    base = info_nce_loss(q, pos, negs, tau=0.2)
    weak = -q  # similarity below the positive's
    assert info_nce_loss(q, pos, negs + [weak], tau=0.2) >= base


def test_info_nce_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        info_nce_loss(np.ones(4), np.ones(5), [np.ones(4)], tau=1.0)


def test_info_nce_requires_negative():
    with pytest.raises(ValueError):
        info_nce_loss(np.ones(3), np.ones(3), [], tau=1.0)


def finite_difference_grad(W, Q, K, tau, eps=1e-5):
    grad = np.zeros_like(W)
    for i in range(W.shape[0]):
        for j in range(W.shape[1]):
            up, down = W.copy(), W.copy()
            up[i, j] += eps
            down[i, j] -= eps
            lu, _ = info_nce_batch(up, Q, K, tau)
            ld, _ = info_nce_batch(down, Q, K, tau)
            grad[i, j] = (lu - ld) / (2 * eps)
    return grad


def test_batch_gradient_matches_finite_differences():
    rng = np.random.default_rng(11)
    for _ in range(10):
        din = rng.integers(4, 17)
        dout = rng.integers(4, 17)
        B = int(rng.integers(2, 6))
        W = rng.normal(size=(din, dout))
        Q = rng.normal(size=(B, din))
        K = rng.normal(size=(B, din))
        _, grad = info_nce_batch(W, Q, K, tau=0.5)
        fd = finite_difference_grad(W, Q, K, tau=0.5)
        denom = max(np.abs(fd).max(), 1e-8)
        assert np.abs(grad - fd).max() / denom < 1e-5


# --- projection head / training ---

def test_head_project_normalizes():
    head = init_head(8, 4, seed=0)
    v = np.ones(8)
    assert math.isclose(np.linalg.norm(head.project(v)), 1.0, abs_tol=1e-9)


def test_head_dimension_check():
    head = init_head(8, 4, seed=0)
    with pytest.raises(DimensionMismatchError):
        head.project(np.ones(5))


def test_head_save_load_roundtrip(tmp_path):
    head = init_head(6, 3, seed=5)
    head.holdout_mrr = 0.8125
    path = tmp_path / "head.json"
    head.save(path, provider_fingerprint="hash:6:hash", config_hash="abc")
    again, meta = ProjectionHead.load(path)
    assert np.array_equal(again.weights, head.weights)
    assert again.tau == head.tau
    assert again.holdout_mrr == head.holdout_mrr
    assert meta["provider_fingerprint"] == "hash:6:hash"
    assert meta["config_hash"] == "abc"
    init_head(6, 3, seed=5).save(path, "hash:6:hash")
    assert "holdout_mrr" not in path.read_text()
    assert ProjectionHead.load(path)[0].holdout_mrr is None


@pytest.mark.parametrize(
    "rewrite",
    [
        lambda obj: json.dumps(obj, indent=2),
        lambda obj: json.dumps(dict(reversed(obj.items()))),
        lambda obj: " \n" + json.dumps(obj, separators=(",", ":")) + "\r\n\t",
        lambda obj: json.dumps({**obj, "extra": {"nested": [1, [2]]}}),
    ],
    ids=["indented", "keys-reversed", "spacing", "extra-member"],
)
def test_head_file_rewritten_loads_bit_for_bit(tmp_path, rewrite):
    """A head file re-dumped by another writer (indented, keys reordered,
    other spacing, an unknown member) loads as `json.loads` reads it, -0.0
    and subnormals included."""
    head = init_head(5, 3, seed=2)
    head.weights[0, :3] = [-0.0, 5e-324, -1e308]
    path = tmp_path / "head.json"
    head.save(path, "hash:5:hash", config_hash="abc")
    obj = json.loads(path.read_text())
    path.write_text(rewrite(obj))
    again, meta = ProjectionHead.load(path)
    assert again.weights.tobytes() == head.weights.tobytes()
    assert np.signbit(again.weights[0, 0])
    want = json.loads(path.read_text())
    del want["weights"]
    assert meta == want and list(meta) == list(want)


_EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 2.225073858507201e-308, 1e308, -1e308, 0.1]
_WEIGHT = st.sampled_from(_EDGE_FLOATS) | st.floats(allow_nan=False, allow_infinity=False)


def _weight_rows(dim_out):
    return st.lists(st.lists(_WEIGHT, min_size=dim_out, max_size=dim_out), min_size=1, max_size=5)


@settings(max_examples=200, deadline=None)
@given(
    rows=st.integers(1, 5).flatmap(_weight_rows),
    tau=st.floats(min_value=5e-324, max_value=1e308),
    holdout_mrr=st.none() | st.floats(0, 1),
    fingerprint=st.text(max_size=8),
    config_hash=st.none() | st.text(max_size=8),
)
def test_head_file_is_the_whole_object_dump(
    tmp_path_factory, rows, tau, holdout_mrr, fingerprint, config_hash
):
    """head.json, written a weight row at a time, is `json.dumps(obj) + "\n"`
    of the whole object, and loads back every weight bit for bit: -0.0,
    subnormals and +-1e308 included."""
    weights = np.array(rows, dtype=np.float64)
    head = ProjectionHead(weights=weights, tau=tau, holdout_mrr=holdout_mrr)
    path = tmp_path_factory.mktemp("head") / "head.json"
    head.save(path, fingerprint, config_hash)
    obj = {"dim_in": head.dim_in, "dim_out": head.dim_out, "tau": tau,
           "provider_fingerprint": fingerprint, "weights": weights.tolist()}
    if holdout_mrr is not None:
        obj["holdout_mrr"] = holdout_mrr
    if config_hash is not None:
        obj["config_hash"] = config_hash
    assert path.read_text() == json.dumps(obj) + "\n"
    again, meta = ProjectionHead.load(path)
    assert again.weights.tobytes() == weights.tobytes()
    assert (again.tau, again.holdout_mrr) == (tau, holdout_mrr)
    assert meta == {k: v for k, v in obj.items() if k != "weights"}


def synthetic_pairs():
    """Planted retrieval task: query tokens never match the right knowledge
    lexically, and each query carries a misleading wrong-concept token."""
    pairs = []
    for c in range(8):
        for v in range(4):
            q = f"what is qsig{c} item ksig{(c + 1) % 8} thing{v}"
            k = f"ksig{c} refers to code column{v}"
            pairs.append(TrainingPair(query=q, positive=k))
    return pairs


def test_train_head_lr_zero_returns_init():
    prov = EmbeddingProvider(dim=64)
    pairs = synthetic_pairs()
    cfg = TrainConfig(batch_size=8, epochs=3, lr=0.0, tau=0.05, seed=7, dim_out=64)
    head = train_head(pairs, prov, cfg)
    assert np.array_equal(head.weights, init_head(64, 64, seed=7).weights)


def test_train_head_single_step_descends():
    prov = EmbeddingProvider(dim=32)
    pairs = synthetic_pairs()[:2]
    Q = np.stack([prov.embed(p.query) for p in pairs])
    K = np.stack([prov.embed(p.positive) for p in pairs])
    W = init_head(32, 32, seed=3).weights
    before, grad = info_nce_batch(W, Q, K, tau=0.05)
    after, _ = info_nce_batch(W - 0.01 * grad, Q, K, tau=0.05)
    assert after < before


def test_train_head_batch_size_validation():
    with pytest.raises(ValueError, match="batch_size must be >= 2"):
        TrainConfig(batch_size=1)


def test_train_head_too_few_pairs():
    prov = EmbeddingProvider(dim=16)
    with pytest.raises(ConfigError):
        train_head(synthetic_pairs()[:1], prov, TrainConfig(batch_size=8))


def test_train_head_improves_retrieval():
    prov = EmbeddingProvider(dim=64)
    pairs = synthetic_pairs()
    cfg = TrainConfig(batch_size=8, epochs=30, lr=0.5, tau=0.05, seed=7, dim_out=64)
    head = train_head(pairs, prov, cfg)
    assert head.holdout_mrr is not None and head.holdout_mrr >= 0.9

    kb = make_kb([p.positive for p in pairs])
    labeled = []
    for p in pairs:
        eid = next(e.id for e in kb.entries.values() if e.text == p.positive)
        labeled.append((p.query, [eid]))
    untrained = eval_retrieval(build_index(kb, prov), labeled, prov)
    trained = eval_retrieval(build_index(kb, prov, head), labeled, prov, head)
    assert trained.mrr > untrained.mrr


@pytest.mark.parametrize("fraction", [0.0, 0.1])  # of 12 pairs: none held out, one held out
def test_train_head_without_holdout_has_no_holdout_mrr(tmp_path, fraction):
    cfg = TrainConfig(batch_size=4, epochs=3, lr=0.5, seed=7, holdout_fraction=fraction)
    head = train_head(synthetic_pairs()[:12], EmbeddingProvider(dim=32), cfg)
    assert head.holdout_mrr is None
    path = tmp_path / "head.json"
    head.save(path, "hash:32:hash")
    assert "holdout_mrr" not in path.read_text()


def test_train_head_memory_stays_bounded():
    """Hash rows are held as narrow counts and the holdout is scored in row
    blocks, so the peak stays below the float64 query and positive matrices,
    and below one holdout x holdout score matrix."""
    n, dim = 3000, 256
    pairs = [
        TrainingPair(f"question {i} about w{i % 97} x{i % 89}", f"fact {i} on w{i % 97} y{i % 83}")
        for i in range(n)
    ]
    cfg = TrainConfig(epochs=1, seed=1, dim_out=8, holdout_fraction=0.5)
    n_hold = round(n * cfg.holdout_fraction)
    tracemalloc.start()
    try:
        train_head(pairs, EmbeddingProvider(dim=dim), cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < min(2 * n * dim * 8, n_hold * n_hold * 8)


def reference_training(pairs, provider, config):
    """`train_head`'s algorithm over float64 normalized rows, scoring the
    holdout with the full holdout x holdout product. Asserts that no score is
    near-tied with a query's own, which another blocking could order otherwise."""
    queries = normalize_rows(provider.raw_many([p.query for p in pairs]))[0]
    positives = normalize_rows(provider.raw_many([p.positive for p in pairs]))[0]
    rng = np.random.default_rng(config.seed)
    n_hold = int(round(len(pairs) * config.holdout_fraction))
    perm = rng.permutation(len(pairs))
    hold, train = perm[:n_hold], perm[n_hold:]
    W = init_head(provider.dim, config.dim_out, seed=config.seed).weights.copy()

    def pairwise_mrr(W):
        S = normalize_rows(queries[hold] @ W)[0] @ normalize_rows(positives[hold] @ W)[0].T
        own = np.diag(S)[:, None]
        gaps = np.abs(S - own)
        np.fill_diagonal(gaps, np.inf)
        assert gaps.min() > 1e-9
        return float(np.mean(1.0 / ((S > own).sum(axis=1) + 1)))

    best_w, best_mrr = W.copy(), pairwise_mrr(W)
    for _ in range(config.epochs):
        order = rng.permutation(train)
        for start in range(0, len(order), config.batch_size):
            batch = order[start : start + config.batch_size]
            if len(batch) >= 2:
                W -= config.lr * info_nce_batch(W, queries[batch], positives[batch], config.tau)[1]
        mrr = pairwise_mrr(W)
        if mrr > best_mrr:
            best_w, best_mrr = W.copy(), mrr
    return best_w, best_mrr


@pytest.mark.parametrize("backend", ["hash", "http"])
@pytest.mark.parametrize("n_hold", [ROW_CHUNK - 1, ROW_CHUNK + 1, 2 * ROW_CHUNK + 5])
def test_train_head_equals_full_product_reference(embed_stub, backend, n_hold):
    """Raw rows widened per batch and a holdout scored in row blocks (a
    one-row tail among them) give the reference's head and holdout MRR."""
    embed_stub.rows = float_rows
    provider = EmbeddingProvider(
        dim=64 if backend == "http" else 1024, backend=backend, endpoint=embed_stub.url
    )
    pairs = [
        TrainingPair(f"query {i} w{i % 31} v{i % 17} t{i % 7}", f"fact {i} w{i % 31} u{i % 13}")
        for i in range(2 * n_hold)
    ]
    cfg = TrainConfig(batch_size=64, epochs=3, lr=0.5, seed=5, dim_out=16, holdout_fraction=0.5)
    head = train_head(pairs, provider, cfg)
    weights, mrr = reference_training(pairs, provider, cfg)
    assert np.array_equal(head.weights, weights)
    assert head.holdout_mrr == mrr
    # train_head sent the requests the reference's whole-list raw_many sent
    half = len(embed_stub.batches) // 2
    assert embed_stub.batches[:half] == embed_stub.batches[half:]


# --- eval_retrieval ---

def planted_index(provider, n=12):
    kb = make_kb([f"planted entry number {i} token{i}" for i in range(n)])
    return kb, build_index(kb, provider)


def test_eval_retrieval_all_rank_one(provider):
    kb, idx = planted_index(provider)
    labeled = [(e.text, [e.id]) for e in kb.sorted_entries()]
    metrics = eval_retrieval(idx, labeled, provider)
    assert metrics.mrr == 1.0
    assert metrics.top_at == {1: 1.0, 3: 1.0, 10: 1.0}


def test_eval_retrieval_rank_four(provider):
    kb, idx = planted_index(provider)
    ranking = retrieve("token0 planted entry number", idx, len(idx), provider)
    fourth = ranking[3][0].id
    metrics = eval_retrieval(idx, [("token0 planted entry number", [fourth])], provider)
    assert math.isclose(metrics.mrr, 0.25)
    assert metrics.top_at[3] == 0.0
    assert metrics.top_at[10] == 1.0


def test_eval_retrieval_planted_ranks_match_hand_mrr(provider):
    kb, idx = planted_index(provider, n=25)
    entries = kb.sorted_entries()
    labeled = []
    expected_rr = []
    for i in range(20):
        query = f"token{i} planted entry number"
        ranking = [e.id for e, _ in retrieve(query, idx, len(idx), provider)]
        target = entries[(i * 7) % len(entries)].id
        labeled.append((query, [target]))
        expected_rr.append(1.0 / (ranking.index(target) + 1))
    metrics = eval_retrieval(idx, labeled, provider)
    assert math.isclose(metrics.mrr, sum(expected_rr) / len(expected_rr), abs_tol=1e-12)


def test_eval_retrieval_top_k_monotone(provider):
    kb, idx = planted_index(provider, n=30)
    labeled = [(f"token{i} other words", [kb.sorted_entries()[i].id]) for i in range(10)]
    metrics = eval_retrieval(idx, labeled, provider, ks=(1, 3, 10, 30))
    values = [metrics.top_at[k] for k in (1, 3, 10, 30)]
    assert values == sorted(values)
    assert 0.0 < metrics.mrr <= 1.0


def test_eval_retrieval_unknown_entry(provider):
    _, idx = planted_index(provider)
    with pytest.raises(UnknownEntryError):
        eval_retrieval(idx, [("whatever query", ["no-such-id"])], provider)


@pytest.mark.parametrize("score", ["retrieve", "eval_retrieval"])
@pytest.mark.parametrize("mismatch", ["other head", "no head", "other dim"])
def test_index_fingerprints_must_match_query_embedding(score, mismatch):
    provider = EmbeddingProvider(dim=16)
    head = init_head(provider.dim, 8, seed=1)
    index = build_index(make_kb(["alpha beta gamma", "delta epsilon zeta"]), provider, head)
    if mismatch == "other head":
        other = init_head(provider.dim, 8, seed=2)
        query_provider, query_head = provider, other
        names = (head.fingerprint, other.fingerprint)
    elif mismatch == "no head":
        query_provider, query_head = provider, None
        names = (head.fingerprint, "None")
    else:
        query_provider, query_head = EmbeddingProvider(dim=32), head
        names = ("hash:16:hash", "hash:32:hash")
    with pytest.raises(ConfigError) as info:
        if score == "retrieve":
            retrieve("alpha beta", index, 1, query_provider, query_head)
        else:
            eval_retrieval(index, [("alpha beta", [index.ids[0]])], query_provider, query_head)
    assert all(name in str(info.value) for name in names)
