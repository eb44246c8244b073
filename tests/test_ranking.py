"""The shared ranking core against full-sort oracles, on tie-heavy inputs."""

import hashlib
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqlkb.dataset import Dataset, ExampleTriplet, Query
from sqlkb import knowledge_base, retriever
from sqlkb.errors import InsufficientExamplesError
from sqlkb.knowledge_base import KnowledgeBase, KnowledgeEntry, example_pools, select_examples
from sqlkb.ranking import ROW_CHUNK, cosine_key, normalize_rows, rank_of, top_j
from sqlkb.retriever import EmbeddingProvider, build_index, embed, eval_retrieval


# --- top_j ---

@st.composite
def tie_heavy_scores(draw):
    n = draw(st.integers(min_value=1, max_value=60))
    values = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    keyed = draw(st.booleans())
    perm = draw(st.permutations(range(n))) if keyed else None
    return np.array(values, dtype=np.float64), perm


@settings(max_examples=300, deadline=None)
@given(tie_heavy_scores())
def test_top_j_equals_full_lexsort(case):
    scores, perm = case
    n = len(scores)
    tie_key = None if perm is None else np.array(perm)
    brute = np.lexsort((np.arange(n) if tie_key is None else tie_key, -scores))
    for j in (1, n - 1, n, n + 3):
        got = top_j(scores, j, tie_key)
        assert got.tolist() == brute[:j].tolist()
    if tie_key is None:
        assert [rank_of(scores, pos) for pos in brute] == list(range(1, n + 1))


def test_top_j_keeps_every_tie_at_the_cut():
    scores = np.array([0.5, 0.9, 0.5, 0.5, 0.1])
    tie_key = np.array([4, 0, 3, 1, 2])
    # three rows tie for 2nd place; the cut keeps the one with the lowest key
    assert top_j(scores, 2, tie_key).tolist() == [1, 3]
    assert top_j(scores, 2).tolist() == [1, 0]


# --- row helpers ---

def test_normalize_rows_leaves_zero_rows():
    x = np.array([[3.0, 4.0], [0.0, 0.0]])
    rows, norms = normalize_rows(x)
    assert rows.tolist() == [[0.6, 0.8], [0.0, 0.0]]
    assert norms.tolist() == [[5.0], [1.0]]
    vec, norm = normalize_rows(np.array([0.0, 2.0]))
    assert vec.tolist() == [0.0, 1.0] and norm.tolist() == [2.0]


# --- eval_retrieval ---

def test_eval_retrieval_matches_full_ranking_with_several_relevant_ids():
    provider = EmbeddingProvider(dim=32)
    rng = np.random.default_rng(11)
    vocab = [f"w{i}" for i in range(12)]
    kb = KnowledgeBase()
    # few words from a small vocabulary: many entries share a token multiset,
    # so their rows and scores tie exactly
    for _ in range(400):
        words = rng.choice(vocab, size=int(rng.integers(2, 4)))
        text = " ".join(words) + " " + " ".join(rng.permutation(words))
        kb.add(KnowledgeEntry.from_text(text, "dataset", "db"))
    index = build_index(kb, provider)
    ids = index.ids
    labeled = []
    for _ in range(60):
        query = " ".join(rng.choice(vocab, size=3))
        relevant = list(rng.choice(ids, size=int(rng.integers(1, 5)), replace=False))
        labeled.append((query, relevant))

    ranks = []
    for query, relevant in labeled:
        scores = index.matrix @ embed(provider, query)
        ranking = sorted(range(len(ids)), key=lambda i: (-scores[i], ids[i]))
        ranks.append(next(r for r, i in enumerate(ranking, start=1) if ids[i] in relevant))
    ks = (1, 3, 10, 50)
    metrics = eval_retrieval(index, labeled, provider, ks=ks)
    assert metrics.mrr == pytest.approx(np.mean([1.0 / r for r in ranks]), abs=1e-12)
    assert metrics.top_at == {k: sum(r <= k for r in ranks) / len(ranks) for k in ks}


def test_eval_retrieval_rejects_empty_label():
    provider = EmbeddingProvider(dim=16)
    kb = KnowledgeBase()
    kb.add(KnowledgeEntry.from_text("alpha beta gamma", "dataset", "db"))
    with pytest.raises(ValueError):
        eval_retrieval(build_index(kb, provider), [("alpha", [])], provider)


# --- select_examples ---

def _synthetic_dataset(n: int, seed: int) -> Dataset:
    rng = np.random.default_rng(seed)
    vocab = [f"v{i}" for i in range(15)]
    records = []
    for i in rng.permutation(n):  # record order differs from id order
        text = " ".join(rng.choice(vocab, size=int(rng.integers(2, 5))))
        records.append(
            ExampleTriplet(
                query=Query(id=str(i), text=text, db_id="db"),
                schema_ref="db",
                knowledge=f"fact {i}" if rng.random() < 0.8 else None,
                gold_sql="SELECT 1" if rng.random() < 0.7 else None,
            )
        )
    return Dataset(records=tuple(records))


def test_select_examples_equals_full_sort_over_same_scores():
    provider = EmbeddingProvider(dim=64)
    ds = _synthetic_dataset(3000, seed=3)
    probes = [ds.records[i].query for i in (0, 17, 999)]
    probes.append(Query(id="probe", text="v1 v2 v3", db_id="db"))
    for probe in probes:
        qv = provider.embed(probe.text)
        for require_sql in (False, True):
            pool = [
                rec
                for rec in ds.records
                if rec.query.id != probe.id
                and rec.knowledge is not None
                and (not require_sql or rec.gold_sql is not None)
            ]
            scored = sorted(
                pool, key=lambda r: (-float(qv @ provider.embed(r.query.text)), r.query.id)
            )
            for k in (1, 20, len(pool) + 5):
                got = select_examples(probe, ds, k, provider, require_sql=require_sql)
                assert [r.query.id for r in got] == [r.query.id for r in scored[:k]]


@st.composite
def tie_heavy_records(draw):
    """Question texts over a three-word vocabulary with repeated tokens and
    varied lengths: many share a token bag up to scale, so their cosines to
    any query tie exactly. Some texts have no token at all, some records no
    knowledge, and sometimes two records share an id."""
    words = st.sampled_from(["red", "green", "blue", "!"])
    texts = draw(
        st.lists(st.lists(words, min_size=1, max_size=8).map(" ".join), min_size=2, max_size=40)
    )
    ids = draw(st.permutations([f"q{i:02d}" for i in range(len(texts))]))
    if draw(st.booleans()):
        ids[-1] = ids[0]
    knowledge = draw(st.lists(st.sampled_from(["fact", "fact", None]),
                              min_size=len(texts), max_size=len(texts)))
    records = tuple(
        ExampleTriplet(query=Query(id=qid, text=text, db_id="db"), schema_ref="db", knowledge=kn)
        for qid, text, kn in zip(ids, texts, knowledge)
    )
    return records, draw(st.permutations(range(len(records))))


def _exact_ranking(query: Query, records, provider: EmbeddingProvider) -> list[str]:
    """Ids of the records with knowledge by exact cosine to the query (as the
    signed squared cosine, a Fraction of the integer token counts; 0 for an
    all-zero row), descending, then id ascending."""
    q = [int(c) for c in provider.raw(query.text)]
    qq = sum(c * c for c in q)

    def key(rec):
        row = [int(c) for c in provider.raw(rec.query.text)]
        d, rr = sum(a * b for a, b in zip(row, q)), sum(c * c for c in row)
        return (-Fraction(d * abs(d), rr * qq) if rr and qq else Fraction(0), rec.query.id)

    pool = (r for r in records if r.query.id != query.id and r.knowledge is not None)
    return [r.query.id for r in sorted(pool, key=key)]


@settings(max_examples=200, deadline=None)
@given(tie_heavy_records(), st.integers(min_value=1, max_value=45))
def test_select_examples_equals_exact_ranking(case, k):
    records, perm = case
    provider = EmbeddingProvider(dim=8)
    ds = Dataset(records=records)
    shuffled = Dataset(records=tuple(records[i] for i in perm))
    for query in (records[0].query, Query(id="probe", text="red red blue", db_id="db")):
        want = _exact_ranking(query, records, provider)[:k]
        for dataset in (ds, shuffled):
            if not want:
                with pytest.raises(InsufficientExamplesError):
                    select_examples(query, dataset, k, provider)
                continue
            got = select_examples(query, dataset, k, provider)
            assert [r.query.id for r in got] == want
    # the blocked pass: every record's pool, under any record order and block size
    for block in (1, 3, knowledge_base.EXAMPLE_BLOCK):
        with mock.patch.object(knowledge_base, "EXAMPLE_BLOCK", block):
            for dataset in (ds, shuffled):
                pools = example_pools(dataset, k, provider)
                assert [[r.query.id for r in pool] for pool in pools] == [
                    _exact_ranking(rec.query, records, provider)[:k] for rec in dataset.records
                ]


# --- the pool pass on narrow count rows ---

def _records(texts):
    return tuple(
        ExampleTriplet(query=Query(id=f"r{i}", text=t, db_id="db"), schema_ref="db", knowledge="fact")
        for i, t in enumerate(texts)
    )


def _ids(pools):
    return [[r.query.id for r in pool] for pool in pools]


def _check_pools_exact(records, probes, provider, k):
    """Every pool of the dataset's own pass and of the probes' pass, and each
    probe's one-query `select_examples` call, is the exact ranking."""
    ds = Dataset(records=records)
    assert _ids(example_pools(ds, k, provider)) == [
        _exact_ranking(rec.query, records, provider)[:k] for rec in records
    ]
    want = [_exact_ranking(probe, records, provider)[:k] for probe in probes]
    assert _ids(example_pools(ds, k, provider, probes)) == want
    assert [_ids([select_examples(p, ds, k, provider)])[0] for p in probes] == want
    return want


def test_pools_of_uint16_counts_equal_exact_ranking():
    """Counts above 255 are kept as uint16, and above 65,535 as uint32, in
    the pass and in the cache, and widened to float64 before the product."""
    provider = EmbeddingProvider(dim=32)
    texts = ["alpha " * 300 + "beta", "alpha " * 300 + "beta beta", "alpha " * 299,
             "alpha beta", "beta " * 256, "gamma delta", "alpha"]
    records = _records(texts)
    assert retriever._kept_rows(provider, texts).dtype == np.uint16
    probes = [Query(id="p0", text="alpha " * 300 + "beta", db_id="db"),
              Query(id="p1", text="beta gamma", db_id="db"),
              Query(id="p2", text="alpha " * 65536 + "beta", db_id="db")]
    # a batch's rows share the type of its largest count
    provider.cache_raw([p.text for p in probes[:2]])
    provider.cache_raw([probes[2].text])
    assert [provider._cached(p.text).dtype for p in probes] == [np.uint16, np.uint16, np.uint32]
    assert provider._cached("beta gamma delta").dtype == np.uint8
    want = _check_pools_exact(records, probes, provider, 6)
    assert want[0][:2] == ["r0", "r1"]


def _float_rows(path, texts):
    """Embedding-service rows of arbitrary floats, fixed per text."""
    seeds = [int.from_bytes(hashlib.sha256(t.encode()).digest()[:4], "big") for t in texts]
    return [np.random.default_rng(seed).standard_normal(16).tolist() for seed in seeds]


def test_pools_of_http_float_rows_take_one_float64_product(embed_stub):
    """Non-integer rows score by one float64 product per query block, as
    before the pass kept count rows narrow."""
    embed_stub.rows = _float_rows
    provider = EmbeddingProvider(dim=16, backend="http", endpoint=embed_stub.url)
    records = _records([f"question {i} about topic{i % 5}" for i in range(ROW_CHUNK + 40)])
    probes = [Query(id=f"p{i}", text=f"probe {i} topic{i % 3}", db_id="db") for i in range(9)]
    ds = Dataset(records=records)
    rows = provider.raw_many([r.query.text for r in records])
    queries = np.array(_float_rows("", [p.text for p in probes]))
    keys = cosine_key(queries @ rows.T, np.einsum("ij,ij->i", rows, rows))
    id_rank = np.empty(len(records), dtype=np.intp)
    id_rank[sorted(range(len(records)), key=lambda i: records[i].query.id)] = np.arange(len(records))
    want = [[records[i].query.id for i in top_j(key, 7, id_rank)] for key in keys]
    assert _ids(example_pools(ds, 7, provider, probes)) == want
    assert [_ids([select_examples(p, ds, 7, provider)])[0] for p in probes] == want
