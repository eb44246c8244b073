"""Knowledge base construction: seed from dataset evidence, expand via LLM.

Entries are deduplicated on a normalized-text identity so that the same
fact phrased with different casing or spacing is stored once.
"""

from __future__ import annotations

import gc
import hashlib
import logging
import random
import re
from dataclasses import asdict, dataclass, field, fields
from itertools import chain
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, Optional, Sequence

import numpy as np

from .dataset import Dataset, Query
from .errors import InsufficientExamplesError, LlmError, ParseError
from .jsonl import read_jsonl, write_jsonl
from .ranking import ROW_CHUNK, cosine_key, top_j

if TYPE_CHECKING:
    from .dataset import ExampleTriplet
    from .llm import LlmClient
    from .retriever import EmbeddingProvider

logger = logging.getLogger(__name__)

KB_FORMAT = "sqlkb/kb/v1"

_LIST_MARKER = re.compile(r"^\s*(?:\d+[\.\)\:]?|[-*•])\s*")
_WS = re.compile(r"\s+")


def normalize_text(text: str) -> str:
    """Dedup identity: lowercase, collapse whitespace, strip terminal punctuation."""
    text = _WS.sub(" ", text.strip().lower())
    return text.rstrip(".!?;:,")


def entry_id(text: str) -> str:
    return hashlib.sha256(normalize_text(text).encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True, slots=True)
class KnowledgeEntry:
    """One KB fact. Slotted: a 50k-entry KB keeps no per-entry `__dict__`."""

    id: str
    text: str
    source: str  # "dataset" | "generated"
    db_id: str
    origin_query_id: Optional[str] = None
    iteration: Optional[int] = None

    @classmethod
    def from_text(
        cls,
        text: str,
        source: str,
        db_id: str,
        origin_query_id: Optional[str] = None,
        iteration: Optional[int] = None,
    ) -> "KnowledgeEntry":
        if not text.strip():
            raise ValueError("knowledge text must be non-empty")
        return cls(
            id=entry_id(text),
            text=text,
            source=source,
            db_id=db_id,
            origin_query_id=origin_query_id,
            iteration=iteration,
        )


@dataclass
class KbBuildConfig:
    few_shot_k: int = 10
    iterations: int = 5
    seed: int = 0
    prompt_budget: int = 12_000

    def __post_init__(self) -> None:
        if self.few_shot_k < 1:
            raise ValueError("few_shot_k must be >= 1")
        if self.iterations < 0:
            raise ValueError("iterations must be >= 0")
        if self.prompt_budget < 0:
            raise ValueError("prompt_budget must be >= 0")


@dataclass
class KnowledgeBase:
    entries: dict[str, KnowledgeEntry] = field(default_factory=dict)
    build_config: KbBuildConfig = field(default_factory=KbBuildConfig)
    # LLM generations that failed while expanding this KB
    expansion_failures: int = 0

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, text: str) -> bool:
        return entry_id(text) in self.entries

    def add(self, entry: KnowledgeEntry) -> bool:
        """Insert unless an entry with the same normalized text exists."""
        if entry.id in self.entries:
            return False
        self.entries[entry.id] = entry
        return True

    def sorted_entries(self) -> list[KnowledgeEntry]:
        return [self.entries[i] for i in sorted(self.entries)]


@dataclass
class StatsReport:
    total: int
    by_source: dict[str, int]
    by_db: dict[str, int]
    by_iteration: dict[int, int]
    expansion_failures: int = 0


def init_kb(dataset: Dataset, config: Optional[KbBuildConfig] = None) -> KnowledgeBase:
    """Seed the knowledge base with every distinct evidence text in the dataset."""
    kb = KnowledgeBase(build_config=config or KbBuildConfig())
    for rec in dataset.records:
        if rec.knowledge is None:
            continue
        kb.add(
            KnowledgeEntry.from_text(
                rec.knowledge,
                source="dataset",
                db_id=rec.schema_ref,
                origin_query_id=rec.query.id,
            )
        )
    return kb


# Query rows scored per count product: bounds the (block, records) temporaries.
EXAMPLE_BLOCK = 64


def example_pools(
    dataset: Dataset,
    k: int,
    embedder: "EmbeddingProvider",
    queries: Optional[Sequence[Query]] = None,
    require_sql: bool = False,
) -> list[list["ExampleTriplet"]]:
    """`select_examples(query, dataset, k, embedder, require_sql)` for each
    query (by default each record's own), in order; a query with no
    candidate gets an empty list. Both `build-kb` and `generate` rank this
    way, in one pass over the dataset's question rows.

    Query rows are scored EXAMPLE_BLOCK at a time, by one product with every
    question row and `cosine_key`. Records without knowledge (or SQL, when
    required) and those sharing the query's id score -inf, so they sort
    after every real key and are cut off; ties break by record id. Given
    queries are embedded in one batch. Only with integer (hash) rows is
    each pool the one-query call's bit for bit: a float row block's product
    can differ in the last bits, so near-ties may order differently.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    records = dataset.records
    ids = [rec.query.id for rec in records]
    rows = embedder.raw_many([rec.query.text for rec in records])
    sq_norms = np.einsum("ij,ij->i", rows, rows)
    id_rank = np.empty(len(ids), dtype=np.intp)
    id_rank[sorted(range(len(ids)), key=ids.__getitem__)] = np.arange(len(ids))
    positions: dict[str, list[int]] = {}  # record id -> positions of its records
    for i, qid in enumerate(ids):
        positions.setdefault(qid, []).append(i)
    drop = np.array(
        [rec.knowledge is None or (require_sql and rec.gold_sql is None) for rec in records],
        dtype=bool,
    )
    dropped = np.flatnonzero(drop)
    available = len(drop) - len(dropped)
    if queries is None:
        query_rows, query_ids = rows, ids
    else:
        texts = [q.text for q in queries]
        embedder.cache_raw(texts)
        query_rows = np.array([embedder.raw(t) for t in texts])
        query_ids = [q.id for q in queries]
    pools = []
    for start in range(0, len(query_ids), EXAMPLE_BLOCK):
        keys = cosine_key(query_rows[start : start + EXAMPLE_BLOCK] @ rows.T, sq_norms)
        keys[:, dropped] = -np.inf
        for key, qid in zip(keys, query_ids[start : start + EXAMPLE_BLOCK]):
            own = [i for i in positions.get(qid, ()) if not drop[i]]
            key[own] = -np.inf
            best = top_j(key, min(k, available - len(own)), id_rank)
            pools.append([records[i] for i in best])
    return pools


def select_examples(
    query: Query,
    dataset: Dataset,
    k: int,
    embedder: "EmbeddingProvider",
    require_sql: bool = False,
) -> list["ExampleTriplet"]:
    """Rank dataset records by cosine similarity of their questions to the query.

    The query's own record (same id) is excluded; ties break by record id
    ascending. Returns at most k records, never padded. The dataset's
    question rows are embedded on every call. Candidates are ranked by
    `cosine_key` of the raw rows, which is exact for the hash backend, so the
    id rule decides every exact tie. This is the one-query call of
    `example_pools`.
    """
    (pool,) = example_pools(dataset, k, embedder, [query], require_sql)
    if not pool:
        raise InsufficientExamplesError("no candidate examples available")
    return pool


def parse_knowledge_lines(completion: str) -> list[str]:
    """Split an LLM completion into candidate entries, one per line.

    List markers like "1)" or "-" are stripped; lines under 3 words dropped.
    """
    out = []
    for line in completion.splitlines():
        line = _LIST_MARKER.sub("", line).strip()
        if len(line.split()) >= 3:
            out.append(line)
    return out


def expand_kb(
    kb: KnowledgeBase,
    dataset: Dataset,
    llm: "LlmClient",
    embedder: "EmbeddingProvider",
    config: Optional[KbBuildConfig] = None,
) -> KnowledgeBase:
    """Iteratively grow the knowledge base with LLM-generated entries.

    For every record and each of the configured iterations, a fresh sample
    of few-shot examples is drawn (uniformly without replacement from the
    top-2k most similar candidates, ranked for all records in one blocked
    pass by `example_pools`) and shuffled, both under a seeded RNG
    keyed by (seed, record id, iteration), so results do not depend on
    processing order. Each (record, iteration) task builds its prompt and
    completes it through `llm.fan_out`, so no more prompts are held than
    calls are in flight; the completions are parsed in (record, iteration)
    order, so dedup keeps the same first entry however they interleave.
    LLM failures are skipped and counted, never fatal.
    """
    from .pipeline import build_knowledge_prompt

    config = config or kb.build_config
    result = KnowledgeBase(
        entries=dict(kb.entries),
        build_config=config,
        expansion_failures=kb.expansion_failures,
    )
    tasks = []  # (record, schema, pool, iteration)
    pools = example_pools(dataset, 2 * config.few_shot_k, embedder)
    for rec, pool in zip(dataset.records, pools):
        schema = dataset.schema_for(rec.schema_ref)
        if pool:
            tasks.extend((rec, schema, pool, i) for i in range(1, config.iterations + 1))

    def complete(client: "LlmClient", task: tuple) -> str | LlmError:
        rec, schema, pool, i = task
        rng = random.Random(f"{config.seed}:{rec.query.id}:{i}")
        chosen = rng.sample(pool, min(config.few_shot_k, len(pool)))
        rng.shuffle(chosen)
        prompt = build_knowledge_prompt(rec.query, schema, chosen, budget=config.prompt_budget)
        try:
            return client.complete(prompt)
        except LlmError as exc:
            return exc

    completions = llm.fan_out(complete, tasks)
    failures = 0
    for (rec, _, _, i), completion in zip(tasks, completions):
        if isinstance(completion, LlmError):
            failures += 1
            logger.warning(
                "knowledge generation failed for %s iteration %d: %s",
                rec.query.id,
                i,
                completion,
            )
            continue
        for text in parse_knowledge_lines(completion):
            result.add(
                KnowledgeEntry.from_text(
                    text,
                    source="generated",
                    db_id=rec.schema_ref,
                    origin_query_id=rec.query.id,
                    iteration=i,
                )
            )
    if failures:
        logger.warning("expand_kb completed with %d failed generations", failures)
    result.expansion_failures += failures
    return result


_ENTRY_KEYS = tuple(f.name for f in fields(KnowledgeEntry))


def save_kb(kb: KnowledgeBase, path: Path | str, config_hash: Optional[str] = None) -> None:
    """Write a line-delimited KB file: one header line, then entries sorted by
    id, each without its unset optional fields."""
    header = {
        "format": KB_FORMAT,
        "build_config": asdict(kb.build_config),
        "expansion_failures": kb.expansion_failures,
    }
    if config_hash is not None:
        header["config_hash"] = config_hash
    entries = (
        {k: v for k in _ENTRY_KEYS if (v := getattr(e, k)) is not None} for e in kb.sorted_entries()
    )
    write_jsonl(path, chain([header], entries))


# KnowledgeEntry's slot descriptors, in field order. Setting them on a bare
# instance builds the same frozen entry as the dataclass __init__, without
# its object.__setattr__ call per field (about 40% less time per entry).
_SET_SLOTS = tuple(getattr(KnowledgeEntry, k).__set__ for k in _ENTRY_KEYS)


def load_kb(path: Path | str) -> KnowledgeBase:
    lines = read_jsonl(path, header=True)
    _, header = next(lines, (0, None))
    if header is None:
        return KnowledgeBase()
    if header.get("format") != KB_FORMAT:
        raise ParseError(f"{path}: unrecognized KB format {header.get('format')!r}")
    try:
        build_config = KbBuildConfig(**header["build_config"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{path}: bad build_config: {exc}") from exc
    failures = header.get("expansion_failures", 0)
    if type(failures) is not int or failures < 0:  # a bool is refused too
        raise ParseError(f"{path}: bad expansion_failures: {failures!r} is not an int >= 0")
    kb = KnowledgeBase(build_config=build_config, expansion_failures=failures)
    # Entries hold only str, int and None, so they make no reference cycle:
    # the cyclic GC would find nothing among them, and only traverse them
    # again in each pass that their allocations set off.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        _read_entries(path, lines, kb.entries)
    finally:
        if gc_was_enabled:
            gc.enable()
    return kb


def _read_entries(
    path: Path | str, lines: Iterator[tuple[int, dict]], entries: dict[str, KnowledgeEntry]
) -> None:
    """Check each entry line and add its entry to `entries`."""
    new = object.__new__
    set_id, set_text, set_source, set_db_id, set_origin, set_iteration = _SET_SLOTS
    # One string object per distinct source, db_id and origin_query_id value:
    # a KB repeats few of them across many entries.
    shared: dict[str, str] = {}
    for n, obj in lines:
        try:
            eid, text, source, db_id = obj["id"], obj["text"], obj["source"], obj["db_id"]
        except KeyError as exc:
            raise ParseError(f"{path}:{n}: missing key {exc}") from exc
        origin, iteration = obj.get("origin_query_id"), obj.get("iteration")
        if not (isinstance(eid, str) and isinstance(text, str)
                and isinstance(source, str) and isinstance(db_id, str)):
            key = next(k for k in ("id", "text", "source", "db_id") if not isinstance(obj[k], str))
            raise ParseError(f"{path}:{n}: {key} is not a string")
        if origin is not None and not isinstance(origin, str):
            raise ParseError(f"{path}:{n}: origin_query_id is not a string or null")
        if iteration is not None and type(iteration) is not int:  # a bool is refused too
            raise ParseError(f"{path}:{n}: iteration is not an int or null")
        if eid in entries:
            raise ParseError(f"{path}:{n}: duplicate entry id {eid}")
        source = shared.setdefault(source, source)
        db_id = shared.setdefault(db_id, db_id)
        if origin is not None:
            origin = shared.setdefault(origin, origin)
        entry = new(KnowledgeEntry)
        set_id(entry, eid)
        set_text(entry, text)
        set_source(entry, source)
        set_db_id(entry, db_id)
        set_origin(entry, origin)
        set_iteration(entry, iteration)
        entries[eid] = entry


def kb_digest(kb: KnowledgeBase) -> str:
    """sha256 over the KB's (id, text) pairs in id order, each written as
    `<len(id)>:<id><len(text)>:<text>` so no two lists of pairs share an
    encoding. The other entry fields change no embedding and are left out.
    The encoding is hashed ROW_CHUNK entries at a time, never held whole."""
    entries = kb.sorted_entries()
    digest = hashlib.sha256()
    for start in range(0, len(entries), ROW_CHUNK):
        chunk = entries[start : start + ROW_CHUNK]
        body = "".join(f"{len(e.id)}:{e.id}{len(e.text)}:{e.text}" for e in chunk)
        digest.update(body.encode("utf-8", "surrogatepass"))
    return digest.hexdigest()


def kb_header(path: Path | str) -> dict:
    """Read only the header line of a persisted KB file ({} for an empty file)."""
    return next(read_jsonl(path, header=True), (0, {}))[1]


def kb_stats(kb: KnowledgeBase) -> StatsReport:
    by_source: dict[str, int] = {}
    by_db: dict[str, int] = {}
    by_iteration: dict[int, int] = {}
    for entry in kb.entries.values():
        by_source[entry.source] = by_source.get(entry.source, 0) + 1
        by_db[entry.db_id] = by_db.get(entry.db_id, 0) + 1
        if entry.iteration is not None:
            by_iteration[entry.iteration] = by_iteration.get(entry.iteration, 0) + 1
    return StatsReport(
        total=len(kb),
        by_source=by_source,
        by_db=by_db,
        by_iteration=by_iteration,
        expansion_failures=kb.expansion_failures,
    )
