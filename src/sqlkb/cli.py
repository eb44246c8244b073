"""Command-line driver: build-kb, train-retriever, retrieve, generate, evaluate, stats."""

from __future__ import annotations

import argparse
import logging
import os
import shutil
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, Optional

import numpy as np

from . import evaluation, knowledge_base, llm, pipeline, retriever
from .config import RunConfig, load_config
from .dataset import Dataset, load_dataset
from .errors import ConfigError, LineageError, SqlkbError
from .knowledge_base import KbBuildConfig, KnowledgeBase
from .llm import LlmConfig, LlmClient
from .retriever import EmbeddingProvider, ProjectionHead, TrainConfig, TrainingPair

logger = logging.getLogger(__name__)

KB_FILE = "kb.jsonl"
HEAD_FILE = "head.json"
INDEX_FILE = "kb_index.npz"
OUTPUTS_FILE = "outputs.jsonl"
REPORT_JSON = "report.json"
REPORT_TXT = "report.txt"
LEDGER_FILE = "llm_ledger.jsonl"


def _provider(cfg: RunConfig) -> EmbeddingProvider:
    rc = cfg["retriever"]
    return cfg.stage(
        EmbeddingProvider, "retriever", name=rc["backend"], endpoint=rc["endpoint"] or None
    )


def _llm_config(cfg: RunConfig) -> LlmConfig:
    lc = cfg["llm"]
    config = cfg.stage(
        LlmConfig,
        "llm",
        endpoint=lc["endpoint"] or os.environ.get(llm.ENDPOINT_ENV, ""),
        api_key=os.environ.get(llm.API_KEY_ENV, ""),
    )
    if lc["fixture"] and config.backend != "mock":
        raise ConfigError(
            "[llm] fixture: replay needs backend = mock; a fixture is looked up "
            "by prompt hash alone, so it could answer for another model"
        )
    if config.backend == "http" and not config.endpoint:
        raise ConfigError(
            f"[llm] backend = http needs an endpoint: set [llm] endpoint "
            f"or the {llm.ENDPOINT_ENV} environment variable"
        )
    return config


def _llm_client(cfg: RunConfig) -> LlmClient:
    config = _llm_config(cfg)
    if cfg["llm"]["fixture"]:
        return llm.replay_client(config, cfg.path(cfg["llm"]["fixture"]))
    if config.backend == "mock":
        return LlmClient(config, fallback=llm.synthetic_completer)
    return LlmClient(config)


def _train_config(cfg: RunConfig) -> TrainConfig:
    return cfg.stage(TrainConfig, "retriever", dim_out=cfg["retriever"]["head_dim"] or None)


def _check_config(cfg: RunConfig) -> None:
    """Refuse a bad value in any section, whichever command runs."""
    _provider(cfg)
    _llm_config(cfg)
    _train_config(cfg)
    cfg.stage(KbBuildConfig, "kb")
    cfg.stage(pipeline.PipelineConfig, "pipeline")
    cfg.stage(evaluation.EvalConfig, "eval")


def _train_dataset(cfg: RunConfig) -> Dataset:
    return load_dataset(
        cfg.path(cfg["dataset"]["train"]),
        db_dir=cfg.path(cfg["dataset"]["db_dir"]),
        split="train",
    )


def _test_dataset(cfg: RunConfig) -> Dataset:
    return load_dataset(
        cfg.path(cfg["dataset"]["test"]),
        db_dir=cfg.path(cfg["dataset"]["db_dir"]),
        split="test",
    )


def _load_head(cfg: RunConfig, force: bool = False) -> Optional[ProjectionHead]:
    path = cfg.workdir / HEAD_FILE
    if not cfg["retriever"]["use_head"] or not path.exists():
        return None
    head, meta = ProjectionHead.load(path)
    _check_lineage(cfg, meta.get("config_hash"), "projection head", force)
    trained_for = meta.get("provider_fingerprint", "")
    current = _provider(cfg).fingerprint
    if trained_for and trained_for != current:
        raise ConfigError(
            f"{path} was trained for embedding provider {trained_for}, "
            f"current provider is {current}"
        )
    return head


def _check_lineage(cfg: RunConfig, artifact_hash: Optional[str], what: str, force: bool) -> None:
    if artifact_hash is None:
        return
    if artifact_hash != cfg.config_hash:
        msg = (
            f"{what} was built under config hash {artifact_hash}, "
            f"current is {cfg.config_hash}"
        )
        if force:
            logger.warning("%s (continuing due to --force)", msg)
        else:
            raise LineageError(msg + " (use --force to override)")


@contextmanager
def _ledger_stream(cfg: RunConfig, stage: str, append: bool) -> Iterator[llm.CallLedger]:
    """A ledger whose lines go, as calls complete, to a temporary file in the
    workdir. When the block succeeds the file replaces the ledger file, or
    with `append` is added to its end; when it fails the file is removed,
    so a failed command leaves the ledger file as it was."""
    path = cfg.workdir / LEDGER_FILE
    tmp = path.with_name(LEDGER_FILE + ".tmp")
    try:
        with open(tmp, "w") as sink:
            yield llm.CallLedger(sink, stage)
        if append:
            with open(tmp) as src, open(path, "a") as dst:
                shutil.copyfileobj(src, dst)
        else:
            os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def cmd_build_kb(cfg: RunConfig, args: argparse.Namespace) -> int:
    dataset = _train_dataset(cfg)
    kb_cfg = cfg.stage(KbBuildConfig, "kb")
    kb = knowledge_base.init_kb(dataset, kb_cfg)
    print(f"seeded {len(kb)} entries from dataset evidence")
    # build-kb starts the ledger; generate appends to it
    with _ledger_stream(cfg, "build-kb", append=False) as ledger:
        if kb_cfg.iterations > 0:
            client = _llm_client(cfg)
            client.ledger = ledger
            kb = knowledge_base.expand_kb(kb, dataset, client, _provider(cfg), kb_cfg)
    out = cfg.workdir / KB_FILE
    knowledge_base.save_kb(kb, out, config_hash=cfg.config_hash)
    stats = knowledge_base.kb_stats(kb)
    print(f"knowledge base written to {out}: {stats.total} entries "
          f"({stats.by_source.get('dataset', 0)} dataset, "
          f"{stats.by_source.get('generated', 0)} generated)")
    return 0


def cmd_train_retriever(cfg: RunConfig, args: argparse.Namespace) -> int:
    dataset = _train_dataset(cfg)
    pairs = [
        TrainingPair(query=rec.query.text, positive=rec.knowledge)
        for rec in dataset.records
        if rec.knowledge is not None
    ]
    provider = _provider(cfg)
    head = retriever.train_head(pairs, provider, _train_config(cfg))
    out = cfg.workdir / HEAD_FILE
    head.save(out, provider.fingerprint, config_hash=cfg.config_hash)
    print(f"projection head ({head.dim_in}x{head.dim_out}, tau={head.tau}) "
          f"trained on {len(pairs)} pairs; written to {out}")
    return 0


def _load_kb(cfg: RunConfig, force: bool) -> KnowledgeBase:
    path = cfg.workdir / KB_FILE
    if not path.exists():
        raise SqlkbError(f"missing artifact: {path} (run build-kb first)")
    header = knowledge_base.kb_header(path)
    _check_lineage(cfg, header.get("config_hash"), "knowledge base", force)
    return knowledge_base.load_kb(path)


def cmd_retrieve(cfg: RunConfig, args: argparse.Namespace) -> int:
    kb = _load_kb(cfg, args.force)
    provider = _provider(cfg)
    head = _load_head(cfg, args.force)
    index = retriever.load_or_build_index(cfg.workdir / INDEX_FILE, kb, provider, head)
    results = retriever.retrieve(
        args.query, index, cfg["pipeline"]["top_j"], provider, head
    )
    for entry, score in results:
        print(f"{score:.4f}  {entry.id}  {entry.text}")
    return 0


def cmd_generate(cfg: RunConfig, args: argparse.Namespace) -> int:
    kb = _load_kb(cfg, args.force)
    provider = _provider(cfg)
    head = _load_head(cfg, args.force)
    pipe_cfg = cfg.stage(pipeline.PipelineConfig, "pipeline")
    # Nothing to retrieve with top_j = 0 or from an empty KB: build no index.
    index = None
    if pipe_cfg.top_j > 0:
        if len(kb):
            index = retriever.load_or_build_index(cfg.workdir / INDEX_FILE, kb, provider, head)
        else:
            logger.warning("the knowledge base has no entries; no knowledge is retrieved")
    client = _llm_client(cfg)
    with _ledger_stream(cfg, "generate", append=True) as ledger:
        client.ledger = ledger
        outputs = pipeline.run_pipeline(
            _test_dataset(cfg), _train_dataset(cfg), index, client, provider, pipe_cfg, head
        )
        out = cfg.workdir / OUTPUTS_FILE
        pipeline.save_outputs(outputs, out, config_hash=cfg.config_hash)
    failed = sum(1 for o in outputs if o.error)
    print(f"{len(outputs)} outputs written to {out} ({failed} failed)")
    return 0


def cmd_evaluate(cfg: RunConfig, args: argparse.Namespace) -> int:
    out_path = cfg.workdir / OUTPUTS_FILE
    if not out_path.exists():
        raise SqlkbError(f"missing artifact: {out_path} (run generate first)")
    outputs, header = pipeline.load_outputs(out_path)
    _check_lineage(cfg, header.get("config_hash"), "outputs file", args.force)
    kb = _load_kb(cfg, args.force)
    provider = _provider(cfg)
    head = _load_head(cfg, args.force)
    test = _test_dataset(cfg)
    eval_cfg = cfg.stage(evaluation.EvalConfig, "eval")
    gold = [r for r in test.records if r.knowledge is not None]
    gold_knowledge = [r.knowledge for r in gold]
    labeled = [
        (r.query.text, [eid])
        for r in gold
        if (eid := knowledge_base.entry_id(r.knowledge)) in kb.entries
    ]
    # Each text embedded one at a time below (an output's knowledge for SS,
    # a gold text, a labeled question) is embedded in one batch first.
    answered = {o.query_id: o.knowledge for o in outputs}
    provider.cache_raw(
        [answered[r.query.id] for r in gold if answered.get(r.query.id)]
        + gold_knowledge
        + [q for q, _ in labeled]
    )
    report = evaluation.evaluate_run(outputs, test, eval_cfg, provider)
    report.config_hash = cfg.config_hash

    # The gold texts ride along as probes: they are scored against the raw
    # rows stored in the index file, whether it was loaded or just written.
    # An empty KB gets no index: EX, VES, EM and SS need none.
    probes = np.array([provider.raw(g) for g in gold_knowledge]) if gold_knowledge else None
    index = None
    if len(kb):
        index = retriever.load_or_build_index(
            cfg.workdir / INDEX_FILE, kb, provider, head, probes
        )
    if gold_knowledge:
        best = index.probe_best if index is not None else None
        coverage = evaluation.kb_coverage(kb, gold_knowledge, provider, best)
        report.coverage = {
            "exact_match_pct": coverage.exact_match_pct,
            "mean_best_similarity": coverage.mean_best_similarity,
        }

    if labeled:
        metrics = retriever.eval_retrieval(index, labeled, provider, head)
        report.retrieval = {"mrr": metrics.mrr, "top_at": metrics.top_at}

    report.save(cfg.workdir / REPORT_JSON)
    table = report.render_table()
    (cfg.workdir / REPORT_TXT).write_text(table + "\n")
    print(table)
    return 0


def cmd_stats(cfg: RunConfig, args: argparse.Namespace) -> int:
    kb = _load_kb(cfg, args.force)
    stats = knowledge_base.kb_stats(kb)
    print(f"total entries:  {stats.total}")
    for source in sorted(stats.by_source):
        print(f"  source={source}: {stats.by_source[source]}")
    for db in sorted(stats.by_db):
        print(f"  db={db}: {stats.by_db[db]}")
    for it in sorted(stats.by_iteration):
        print(f"  iteration={it}: {stats.by_iteration[it]}")
    if stats.expansion_failures:
        print(f"  expansion failures: {stats.expansion_failures}")
    return 0


COMMANDS = {
    "build-kb": cmd_build_kb,
    "train-retriever": cmd_train_retriever,
    "retrieve": cmd_retrieve,
    "generate": cmd_generate,
    "evaluate": cmd_evaluate,
    "stats": cmd_stats,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sqlkb",
        description="Knowledge-base construction, retrieval, and evaluation "
        "for LLM text-to-SQL.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("build-kb", "seed the knowledge base from dataset evidence and expand it"),
        ("train-retriever", "train the contrastive projection head"),
        ("retrieve", "inspect top-j knowledge entries for an ad-hoc query"),
        ("generate", "run retrieval + refinement + SQL generation on the test split"),
        ("evaluate", "score generated outputs and write the report"),
        ("stats", "print knowledge base statistics"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", type=Path, help="INI config file")
        p.add_argument("--workdir", type=Path, help="root for artifacts and relative paths")
        p.add_argument(
            "--set",
            dest="overrides",
            action="append",
            default=[],
            metavar="SECTION.KEY=VALUE",
            help="override a config value (repeatable)",
        )
        p.add_argument("--force", action="store_true", help="ignore artifact lineage mismatches")
        p.add_argument("-v", "--verbose", action="store_true")
        if name == "retrieve":
            p.add_argument("query", help="query text to retrieve knowledge for")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        cfg = load_config(args.config, args.workdir, args.overrides)
        _check_config(cfg)
        cfg.workdir.mkdir(parents=True, exist_ok=True)
        return COMMANDS[args.command](cfg, args)
    except SqlkbError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
