"""Spans and counters recorded around sqlkb's public functions, from outside.

`Tracer.install()` replaces module attributes with timing wrappers and
`uninstall()` puts the originals back. A wrapper is installed on every
attribute a caller actually looks up: `pipeline` imports `select_examples`
and `render_schema` by name and `cli` imports `load_dataset` by name, so those
are wrapped in the importing module as well as in their home modules;
`EmbeddingProvider.embed` and `LlmClient.complete`
are wrapped on the class. `embed` is called millions of times per run, so it
keeps counters only. Spans stay in memory until `write()`.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Optional

from sqlkb import cli, dataset, evaluation, knowledge_base, llm, pipeline, retriever

_clock = time.perf_counter


class Span:
    __slots__ = ("name", "start", "end", "parent", "item")

    def __init__(self, name: str, start: float, parent: Optional[int], item: Optional[str]):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.item = item


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self.embedded: set[str] = set()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._full_schema: dict[str, int] = {}

    # -- recording -------------------------------------------------------

    def open(self, name: str, item: Optional[str] = None) -> int:
        parent = self._stack[-1] if self._stack else None
        if item is None and parent is not None:
            item = self.spans[parent].item
        self.spans.append(Span(name, _clock(), parent, item))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index].end = _clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, item: Optional[str] = None):
        index = self.open(name, item)
        try:
            yield
        finally:
            self.close(index)

    def _wrap(self, fn: Callable, name: str, item_arg: Optional[int], after=None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            item = None
            if item_arg is not None and len(args) > item_arg:
                item = getattr(args[item_arg], "id", None)
            index = tracer.open(name, item)
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                tracer.close(index)
                if not ok:
                    tracer.counters[f"{name}.failed"] += 1
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _patch(self, owner: object, attr: str, replacement: object) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    # -- per-layer observers ------------------------------------------------

    def _after_prompt(self, kind: str):
        """Counts what a built prompt actually shows the model."""

        signature = inspect.signature(getattr(pipeline, f"build_{kind}_prompt"))

        def after(args, kwargs, prompt: str) -> None:
            bound = signature.bind(*args, **kwargs).arguments
            if "examples" in bound:
                shown = prompt.count("\n\nQuestion: ") - 1
                self.counters["pipeline.fewshot_blocks_dropped"] += len(bound["examples"]) - shown
            schema = bound["schema"]
            if schema.db_id not in self._full_schema:
                self._full_schema[schema.db_id] = len(self._render_schema(schema))
            schema_text = prompt.split("\n\nQuestion: ", 1)[0][len("DB Schema: "):]
            if len(schema_text) < self._full_schema[schema.db_id]:
                self.counters["pipeline.schema_trimmed"] += 1

        return after

    def _after_expand(self, args, kwargs, result) -> None:
        self.counters["knowledge_base.entries_added"] += len(result) - len(args[0])

    def _after_execute(self, args, kwargs, result) -> None:
        if result.status != "ok":
            self.counters["evaluation.execute_sql.status_error_timeout"] += 1

    def _after_complete(self, args, kwargs, result) -> None:
        self.counters["llm.prompt_chars.total"] += len(args[1])

    def install(self) -> None:
        self._render_schema = dataset.render_schema
        plain = [
            (knowledge_base, "init_kb", "knowledge_base.init_kb", None, None),
            (knowledge_base, "expand_kb", "knowledge_base.expand_kb", None, self._after_expand),
            (knowledge_base, "save_kb", "knowledge_base.save_kb", None, None),
            (knowledge_base, "load_kb", "knowledge_base.load_kb", None, None),
            (retriever, "build_index", "retriever.build_index", None, None),
            (retriever, "retrieve", "retriever.retrieve", None, None),
            (retriever, "eval_retrieval", "retriever.eval_retrieval", None, None),
            (retriever, "train_head", "retriever.train_head", None, None),
            (retriever, "info_nce_batch", "retriever.info_nce_batch", None, None),
            (pipeline, "run_pipeline", "pipeline.run_pipeline", None, None),
            (pipeline, "generate_sql", "pipeline.generate_sql", 0, None),
            (pipeline, "refine_knowledge", "pipeline.refine_knowledge", 0, None),
            (pipeline, "save_outputs", "pipeline.save_outputs", None, None),
            (pipeline, "build_knowledge_prompt", "pipeline.build_prompt", 0,
             self._after_prompt("knowledge")),
            (pipeline, "build_sql_prompt", "pipeline.build_prompt", 0, self._after_prompt("sql")),
            (pipeline, "build_refinement_prompt", "pipeline.build_prompt", 0,
             self._after_prompt("refinement")),
            (evaluation, "execute_sql", "evaluation.execute_sql", None, self._after_execute),
            (evaluation, "time_query", "evaluation.time_query", None, None),
            (evaluation, "kb_coverage", "evaluation.kb_coverage", None, None),
            (evaluation, "evaluate_run", "evaluation.evaluate_run", None, None),
        ]
        for owner, attr, name, item_arg, after in plain:
            self._patch(owner, attr, self._wrap(getattr(owner, attr), name, item_arg, after))
        # Names that pipeline and cli imported from their home modules.
        select = self._wrap(knowledge_base.select_examples, "knowledge_base.select_examples", 0)
        render = self._wrap(dataset.render_schema, "dataset.render_schema", None)
        load = self._wrap(dataset.load_dataset, "dataset.load_dataset", None)
        for owner, attr, fn in [
            (dataset, "load_dataset", load),
            (cli, "load_dataset", load),
            (knowledge_base, "select_examples", select),
            (pipeline, "select_examples", select),
            (dataset, "render_schema", render),
            (pipeline, "render_schema", render),
        ]:
            self._patch(owner, attr, fn)
        parse = knowledge_base.parse_knowledge_lines

        def parse_counted(completion: str):
            lines = parse(completion)
            self.counters["knowledge_base.lines_parsed"] += len(lines)
            return lines

        self._patch(knowledge_base, "parse_knowledge_lines", parse_counted)
        self._patch(llm.LlmClient, "complete",
                    self._wrap(llm.LlmClient.complete, "llm.complete", None, self._after_complete))
        embed = retriever.EmbeddingProvider.embed
        counters, embedded = self.counters, self.embedded

        def embed_counted(provider, text):
            start = _clock()
            try:
                return embed(provider, text)
            finally:
                counters["retriever.embed.calls"] += 1
                counters["retriever.embed.ns"] += int((_clock() - start) * 1e9)
                embedded.add(text)

        self._patch(retriever.EmbeddingProvider, "embed", embed_counted)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "parent": s.parent, "item": s.item,
                    "start": s.start, "end": s.end,
                }) + "\n")

    # -- summary -----------------------------------------------------------

    def metrics(self, epochs: int) -> dict[str, float]:
        """Per-layer metrics of one repetition (names as in BENCHMARK.json)."""
        spans = self.spans
        by_name: dict[str, list[int]] = {}
        children_s = [0.0] * len(spans)
        for i, s in enumerate(spans):
            by_name.setdefault(s.name, []).append(i)
            if s.parent is not None:
                children_s[s.parent] += s.end - s.start

        def durations(name: str, keep=lambda s: True) -> list[float]:
            return [spans[i].end - spans[i].start for i in by_name.get(name, []) if keep(spans[i])]

        def self_s(name: str) -> float:
            return sum(
                spans[i].end - spans[i].start - children_s[i] for i in by_name.get(name, [])
            )

        m: dict[str, float] = {}

        def timing(name: str, values: list[float], pct: bool) -> None:
            m[f"{name}.calls"] = len(values)
            m[f"{name}.s"] = sum(values)
            if pct:
                m[f"{name}.ms_p50"] = _percentile(values, 50) * 1e3
                m[f"{name}.ms_p95"] = _percentile(values, 95) * 1e3

        for name in ["dataset.load_dataset", "dataset.render_schema",
                     "knowledge_base.save_kb", "knowledge_base.load_kb",
                     "retriever.build_index", "retriever.eval_retrieval",
                     "retriever.train_head", "retriever.info_nce_batch",
                     "pipeline.refine_knowledge", "pipeline.build_prompt",
                     "evaluation.time_query", "evaluation.kb_coverage"]:
            timing(name, durations(name), pct=False)
        for name in ["knowledge_base.select_examples", "llm.complete",
                     "pipeline.generate_sql", "evaluation.execute_sql"]:
            timing(name, durations(name), pct=True)
        # retrieve as generate calls it; eval_retrieval's full rankings count there.
        timing("retriever.retrieve", durations(
            "retriever.retrieve",
            lambda s: s.parent is None or spans[s.parent].name != "retriever.eval_retrieval",
        ), pct=True)
        for name in ["knowledge_base.expand_kb", "evaluation.evaluate_run"]:
            m[f"{name}.self_s"] = self_s(name)
        for name in sorted(n for n in by_name if n.startswith("cli.")):
            m[f"{name}.s"] = sum(durations(name))
            m[f"{name}.uncovered_s"] = self_s(name)
        # Epoch time: from the first gradient step to the end of train_head.
        epoch_s = []
        for i in by_name.get("retriever.train_head", []):
            steps = [spans[j].start for j in by_name.get("retriever.info_nce_batch", [])
                     if spans[j].parent == i]
            if steps:
                epoch_s.append((spans[i].end - min(steps)) / epochs)
        m["retriever.epoch_ms"] = statistics.mean(epoch_s) * 1e3 if epoch_s else 0.0

        c = self.counters
        for name in ["knowledge_base.lines_parsed", "knowledge_base.entries_added",
                     "llm.complete.failed", "llm.prompt_chars.total",
                     "pipeline.fewshot_blocks_dropped", "pipeline.schema_trimmed",
                     "evaluation.execute_sql.status_error_timeout"]:
            m[name] = c[name]
        parsed = c["knowledge_base.lines_parsed"]
        m["knowledge_base.dedup_ratio"] = c["knowledge_base.entries_added"] / parsed if parsed else 0.0
        calls = c["retriever.embed.calls"]
        m["retriever.embed.calls"] = calls
        m["retriever.embed.distinct"] = len(self.embedded)
        m["retriever.embed.hit_ratio"] = 1 - len(self.embedded) / calls if calls else 0.0
        m["retriever.embed.s"] = c["retriever.embed.ns"] / 1e9
        return m


def _percentile(values: list[float], q: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]
