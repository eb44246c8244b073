"""Prompt construction, knowledge refinement, and SQL generation."""

from __future__ import annotations

import logging
import re
from dataclasses import asdict, dataclass
from itertools import chain
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Sequence

from .dataset import Dataset, DatabaseSchema, ExampleTriplet, Query, render_schema
from .errors import (
    BudgetError,
    EmptySqlError,
    InsufficientExamplesError,
    LlmError,
    ParseError,
)
from .jsonl import read_jsonl, write_jsonl
from .knowledge_base import example_pools, select_examples

if TYPE_CHECKING:
    from .knowledge_base import KnowledgeEntry
    from .llm import LlmClient
    from .retriever import EmbeddingProvider, KnowledgeIndex, ProjectionHead, StoredIndex

logger = logging.getLogger(__name__)

DEFAULT_BUDGET = 24_000
OUTPUTS_FORMAT = "sqlkb/outputs/v1"

_FENCE = re.compile(r"```(?:sql)?\s*(.*?)```", re.DOTALL | re.IGNORECASE)


@dataclass
class PipelineConfig:
    top_j: int = 5  # 0 disables retrieval (no-knowledge baseline)
    budget: int = DEFAULT_BUDGET
    use_refinement: bool = True
    few_shot_k: int = 10

    def __post_init__(self) -> None:
        if self.top_j < 0:
            raise ValueError("top_j must be >= 0")
        if self.budget < 0:
            raise ValueError("budget must be >= 0")
        if self.few_shot_k < 1:
            raise ValueError("few_shot_k must be >= 1")


@dataclass
class PipelineOutput:
    query_id: str
    sql: Optional[str]
    knowledge: Optional[str]  # the Evidence text the SQL prompt showed; None if empty
    retrieved_ids: tuple[str, ...] = ()
    error: Optional[str] = None


def _assemble(schema_text: str, blocks: Sequence[str], target: str) -> str:
    return "\n\n".join(["DB Schema: " + schema_text, *blocks, target])


def _fit(
    schema: DatabaseSchema,
    blocks: list[str],
    target: str,
    budget: int,
) -> str:
    """Assemble within budget: drop tail examples first, then shrink the schema."""
    schema_text = render_schema(schema, budget)
    while True:
        prompt = _assemble(schema_text, blocks, target)
        if len(prompt) <= budget:
            return prompt
        if blocks:
            blocks = blocks[:-1]
            continue
        overhead = len(prompt) - len(schema_text)
        remaining = budget - overhead
        if remaining <= 0:
            raise BudgetError(
                f"prompt needs {overhead} chars without any schema; budget {budget}"
            )
        return _assemble(render_schema(schema, remaining), blocks, target)


def build_knowledge_prompt(
    query: Query,
    schema: DatabaseSchema,
    examples: Sequence[ExampleTriplet],
    budget: int = DEFAULT_BUDGET,
) -> str:
    """Few-shot knowledge-generation prompt ending with an open Evidence line."""
    blocks = [
        f"Question: {ex.query.text}\nEvidence: {ex.knowledge or ''}" for ex in examples
    ]
    target = f"Question: {query.text}\nEvidence: "
    return _fit(schema, blocks, target, budget)


def build_sql_prompt(
    query: Query,
    knowledge: str,
    schema: DatabaseSchema,
    examples: Sequence[ExampleTriplet],
    budget: int = DEFAULT_BUDGET,
) -> str:
    """Few-shot SQL-generation prompt ending with an open SQL line."""
    blocks = [
        f"Question: {ex.query.text}\nEvidence: {ex.knowledge or ''}\n"
        f"SQL: {ex.gold_sql or ''}"
        for ex in examples
    ]
    target = f"Question: {query.text}\nEvidence: {knowledge}\nSQL: "
    return _fit(schema, blocks, target, budget)


def build_refinement_prompt(
    query: Query,
    retrieved_texts: Sequence[str],
    schema: DatabaseSchema,
    budget: int = DEFAULT_BUDGET,
) -> str:
    """Refinement reuses the knowledge-generation layout: each retrieved entry
    appears as an Evidence candidate paired with the target question."""
    blocks = [f"Question: {query.text}\nEvidence: {text}" for text in retrieved_texts]
    target = f"Question: {query.text}\nEvidence: "
    return _fit(schema, blocks, target, budget)


def refine_knowledge(
    query: Query,
    retrieved: Sequence["KnowledgeEntry"],
    schema: DatabaseSchema,
    llm: "LlmClient",
    budget: int = DEFAULT_BUDGET,
) -> str:
    """Rewrite retrieved entries into query-specific knowledge via the LLM."""
    prompt = build_refinement_prompt(
        query, [e.text for e in retrieved], schema, budget
    )
    return llm.complete(prompt).strip()


def postprocess_sql(completion: str) -> str:
    """Reduce a noisy completion to a single SQL statement.

    Strips markdown fences, then cuts at the first statement terminator or
    at the first blank line after content has started.
    """
    text = completion.strip()
    fenced = _FENCE.search(text)
    if fenced:
        text = fenced.group(1).strip()
    if ";" in text:
        text = text.split(";", 1)[0]
    lines = []
    for line in text.splitlines():
        if lines and not line.strip():
            break
        if line.strip():
            lines.append(line.rstrip())
    sql = "\n".join(lines).strip()
    if not sql:
        raise EmptySqlError("completion contained no SQL")
    return sql


def generate_sql(
    query: Query,
    schema: DatabaseSchema,
    index: Optional["KnowledgeIndex | StoredIndex"],
    llm: "LlmClient",
    provider: "EmbeddingProvider",
    train_dataset: Dataset,
    config: Optional[PipelineConfig] = None,
    head: Optional["ProjectionHead"] = None,
    retrieved: Optional[Sequence["KnowledgeEntry"]] = None,
    examples: Optional[Sequence[ExampleTriplet]] = None,
) -> PipelineOutput:
    """Retrieve top-j knowledge, optionally refine it, and generate the SQL.

    With use_refinement=False the retrieved entries are concatenated and
    used directly as the Evidence block; with top_j=0, or without an index
    (an empty KB), the Evidence block is empty (no-knowledge baseline). The
    output records the retrieved entry ids and the Evidence text the SQL
    prompt showed. `retrieved`, when given, holds the entries retrieved for
    the query beforehand, and `index` is not searched; `examples`, when
    given, holds its few-shot pool, and `train_dataset` is not ranked.
    """
    from .retriever import retrieve

    config = config or PipelineConfig()
    if retrieved is None:
        retrieved = []
        if config.top_j > 0 and index is not None:
            retrieved = [
                entry
                for entry, _ in retrieve(query.text, index, config.top_j, provider, head)
            ]
    if retrieved and config.use_refinement:
        evidence = refine_knowledge(query, retrieved, schema, llm, config.budget)
    else:
        evidence = "; ".join(e.text for e in retrieved)

    try:
        if examples is None:
            examples = select_examples(
                query, train_dataset, config.few_shot_k, provider, require_sql=True
            )
    except InsufficientExamplesError:
        examples = []
    prompt = build_sql_prompt(query, evidence, schema, examples, config.budget)
    return PipelineOutput(
        query_id=query.id,
        sql=postprocess_sql(llm.complete(prompt)),
        knowledge=evidence or None,
        retrieved_ids=tuple(e.id for e in retrieved),
    )


def run_pipeline(
    test_dataset: Dataset,
    train_dataset: Dataset,
    index: Optional["KnowledgeIndex | StoredIndex"],
    llm: "LlmClient",
    provider: "EmbeddingProvider",
    config: Optional[PipelineConfig] = None,
    head: Optional["ProjectionHead"] = None,
) -> list[PipelineOutput]:
    """Generate SQL for every test record; per-record failures are recorded.

    The knowledge of every record is retrieved first, in one pass over the
    index, and its few-shot pool ranked, in one `example_pools` pass over
    the train questions. Records then go through `llm.fan_out`, one task per
    record, so outputs and ledger come back in record order; the workers
    embed nothing.
    """
    from .retriever import retrieve_many

    config = config or PipelineConfig()
    records = test_dataset.records
    queries = [rec.query for rec in records]
    pools = example_pools(train_dataset, config.few_shot_k, provider, queries, require_sql=True)
    retrieved: list[list["KnowledgeEntry"]] = [[] for _ in records]
    if config.top_j > 0 and index is not None:
        hits = retrieve_many([q.text for q in queries], index, config.top_j, provider, head)
        retrieved = [[entry for entry, _ in top] for top in hits]

    def one(client: "LlmClient", task: tuple) -> PipelineOutput:
        rec, entries, pool = task
        schema = test_dataset.schema_for(rec.schema_ref)
        try:
            return generate_sql(
                rec.query,
                schema,
                index,
                client,
                provider,
                train_dataset,
                config,
                head,
                retrieved=entries,
                examples=pool,
            )
        except (LlmError, EmptySqlError) as exc:
            logger.warning("generation failed for %s: %s", rec.query.id, exc)
            return PipelineOutput(
                query_id=rec.query.id, sql=None, knowledge=None, error=str(exc)
            )

    return llm.fan_out(one, list(zip(records, retrieved, pools)))


def save_outputs(
    outputs: Sequence[PipelineOutput],
    path: Path | str,
    config_hash: Optional[str] = None,
) -> None:
    """Line-delimited JSON: one header line, then one record per output."""
    header: dict = {"format": OUTPUTS_FORMAT}
    if config_hash is not None:
        header["config_hash"] = config_hash
    write_jsonl(path, chain([header], map(asdict, outputs)))


def load_outputs(path: Path | str) -> tuple[list[PipelineOutput], dict]:
    lines = read_jsonl(path, header=True)
    _, header = next(lines, (0, None))
    if header is None:
        return [], {}
    if header.get("format") != OUTPUTS_FORMAT:
        raise ParseError(f"{path}: unrecognized outputs format {header.get('format')!r}")
    outputs = []
    seen: set[str] = set()
    for n, obj in lines:
        try:
            query_id, sql, knowledge = obj["query_id"], obj["sql"], obj["knowledge"]
        except KeyError as exc:
            raise ParseError(f"{path}:{n}: missing key {exc}") from exc
        ids, error = obj.get("retrieved_ids", []), obj.get("error")
        if not isinstance(query_id, str):
            raise ParseError(f"{path}:{n}: query_id is not a string")
        if query_id in seen:
            raise ParseError(f"{path}:{n}: duplicate query_id {query_id}")
        seen.add(query_id)
        for key, value in (("sql", sql), ("knowledge", knowledge)):
            if not isinstance(value, (str, type(None))):
                raise ParseError(f"{path}:{n}: {key} is not a string or null")
            if value == "":
                raise ParseError(f"{path}:{n}: {key} is an empty string")
        if not isinstance(ids, list) or not all(isinstance(i, str) for i in ids):
            raise ParseError(f"{path}:{n}: retrieved_ids is not a list of strings")
        if not isinstance(error, (str, type(None))):
            raise ParseError(f"{path}:{n}: error is not a string or null")
        outputs.append(PipelineOutput(query_id, sql, knowledge, tuple(ids), error))
    return outputs, header
