import argparse
import dataclasses
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

from sqlkb import cli
from sqlkb.cli import (
    KB_FILE,
    HEAD_FILE,
    INDEX_FILE,
    LEDGER_FILE,
    OUTPUTS_FILE,
    REPORT_JSON,
    REPORT_TXT,
    _provider,
    main,
)
from sqlkb.config import DEFAULTS, RunConfig, load_config
from sqlkb import llm
from sqlkb.errors import ConfigError, LlmError
from sqlkb.knowledge_base import entry_id
from sqlkb.retriever import HTTP_BATCH, ROW_CHUNK, EmbeddingProvider
from sqlkb.toy import generate_toy


# --- config loading ---

def test_defaults_without_file(tmp_path):
    cfg = load_config(workdir=tmp_path)
    assert cfg["run"]["seed"] == 0
    assert cfg["retriever"]["dim"] == 256
    assert cfg["llm"]["backend"] == "mock"
    assert cfg.workdir == tmp_path


def test_config_file_overrides_defaults(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("[run]\nseed = 5\n\n[pipeline]\ntop_j = 2\n")
    cfg = load_config(path)
    assert cfg.seed == 5
    assert cfg["pipeline"]["top_j"] == 2
    assert cfg["pipeline"]["budget"] == 24000  # untouched default
    assert cfg.workdir == tmp_path  # defaults to the config file's directory


def test_set_overrides_beat_file(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("[run]\nseed = 5\n")
    cfg = load_config(path, overrides=["run.seed=9", "retriever.use_head=false"])
    assert cfg.seed == 9
    assert cfg["retriever"]["use_head"] is False


@pytest.mark.parametrize(
    "override",
    ["noequals", "nosection=1", "bogus.key=1", "run.nokey=1", "run.seed=notanint"],
)
def test_bad_overrides(tmp_path, override):
    with pytest.raises((ConfigError, ValueError)):
        load_config(workdir=tmp_path, overrides=[override])


def test_unknown_section_in_file(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("[mystery]\nx = 1\n")
    with pytest.raises(ConfigError):
        load_config(path)


def test_missing_config_file(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "absent.ini")


def test_invalid_scenario(tmp_path):
    with pytest.raises(ConfigError):
        load_config(workdir=tmp_path, overrides=["run.scenario=sideways"])


def test_config_hash_stable_and_sensitive(tmp_path):
    a = load_config(workdir=tmp_path)
    b = load_config(workdir=tmp_path)
    c = load_config(workdir=tmp_path, overrides=["run.seed=1"])
    neutral = load_config(workdir=tmp_path, overrides=["llm.max_inflight=2"])
    assert a.config_hash == b.config_hash == neutral.config_hash
    assert a.config_hash != c.config_hash
    assert len(a.config_hash) == 16


def test_config_path_resolution(tmp_path):
    cfg = RunConfig(load_config(workdir=tmp_path).data, tmp_path)
    assert cfg.path("kb.jsonl") == tmp_path / "kb.jsonl"
    assert cfg.path("/abs/file") == __import__("pathlib").Path("/abs/file")


@dataclasses.dataclass
class _SeededStage:
    top_j: int = 0
    seed: int = 0
    note: str = ""

    def __post_init__(self):
        if self.top_j > 10:
            raise ValueError("top_j must be <= 10")


@dataclasses.dataclass
class _UnseededStage:
    budget: int = 0


def test_stage_builds_config_from_section(tmp_path):
    cfg = load_config(workdir=tmp_path, overrides=["run.seed=7", "pipeline.top_j=2"])
    # budget, use_refinement and few_shot_k are not fields of _SeededStage
    assert cfg.stage(_SeededStage, "pipeline", note="x") == _SeededStage(2, 7, "x")
    assert cfg.stage(_SeededStage, "pipeline", top_j=4).top_j == 4  # extra wins
    assert cfg.stage(_UnseededStage, "pipeline") == _UnseededStage(budget=24000)
    with pytest.raises(ConfigError, match=r"^\[pipeline\] top_j must be <= 10$"):
        cfg.stage(_SeededStage, "pipeline", top_j=11)


# --- CLI workflow on the bundled toy dataset ---

@pytest.fixture()
def workdir(tmp_path):
    return generate_toy(tmp_path / "run")


def run_cli(workdir, *argv):
    return main([argv[0], "--config", str(workdir / "run.ini"), *argv[1:]])


def test_build_kb_writes_artifacts(workdir, capsys):
    assert run_cli(workdir, "build-kb") == 0
    assert (workdir / KB_FILE).exists()
    assert (workdir / LEDGER_FILE).exists()
    out = capsys.readouterr().out
    assert "knowledge base written" in out


def test_stats_after_build(workdir, capsys):
    run_cli(workdir, "build-kb")
    assert run_cli(workdir, "stats") == 0
    out = capsys.readouterr().out
    assert "total entries:" in out and "source=dataset" in out


def test_retrieve_prints_ranked_entries(workdir, capsys):
    run_cli(workdir, "build-kb")
    capsys.readouterr()
    assert run_cli(workdir, "retrieve", "New York employees performance") == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
    assert len(lines) == 3  # pipeline.top_j from the toy config
    scores = [float(l.split()[0]) for l in lines]
    assert scores == sorted(scores, reverse=True)


@pytest.mark.parametrize(
    "argv, where",
    [
        (("",), "the query is empty or whitespace only"),
        (("--force", "--set", "pipeline.top_j=0", "employees"),
         "[pipeline] top_j must be >= 1 to retrieve, got 0"),
    ],
    ids=["empty query", "top_j=0"],
)
def test_retrieve_refuses_bad_input_with_a_config_error(workdir, capsys, argv, where):
    run_cli(workdir, "build-kb")
    capsys.readouterr()
    assert run_cli(workdir, "retrieve", *argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ConfigError: ") and where in err


def test_full_workflow(workdir, capsys):
    for cmd in ("build-kb", "train-retriever", "generate", "evaluate"):
        assert run_cli(workdir, cmd) == 0, cmd
    for name in (KB_FILE, HEAD_FILE, OUTPUTS_FILE, REPORT_JSON, REPORT_TXT):
        assert (workdir / name).exists(), name
    report = json.loads((workdir / REPORT_JSON).read_text())
    assert report["n_queries"] == 6
    assert set(report["aggregates"]) == {"ex", "ves", "em_pct", "mean_ss"}
    assert "retrieval" in report and "coverage" in report
    out = capsys.readouterr().out
    assert "EX" in out


def test_unknown_embedding_backend_rejected(workdir, capsys):
    cfg = load_config(workdir=workdir, overrides=["retriever.backend=hsah"])
    with pytest.raises(ConfigError, match="hsah"):
        _provider(cfg)
    run_cli(workdir, "build-kb")
    capsys.readouterr()
    argv = ("retrieve", "--set", "retriever.backend=hsah", "--force", "employees")
    assert run_cli(workdir, *argv) == 2
    assert "ConfigError" in capsys.readouterr().err


def test_missing_artifact_is_clean_error(workdir, capsys):
    assert run_cli(workdir, "stats") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "build-kb" in err


def test_lineage_mismatch_refused_then_forced(workdir, capsys):
    run_cli(workdir, "build-kb")
    capsys.readouterr()
    # changing the seed changes the config hash; the KB is now foreign
    assert run_cli(workdir, "stats", "--set", "run.seed=99") == 2
    assert "LineageError" in capsys.readouterr().err
    assert run_cli(workdir, "stats", "--set", "run.seed=99", "--force") == 0


def test_head_lineage_refused_then_forced(workdir, capsys, caplog):
    """A head trained under another config hash is refused by every command
    that loads it, even when the KB matches, and used under --force."""
    for cmd in ("build-kb", "train-retriever"):
        assert run_cli(workdir, cmd) == 0, cmd
    rebuilt = ("--set", "kb.iterations=2")
    assert run_cli(workdir, "build-kb", *rebuilt) == 0
    capsys.readouterr()
    foreign_head = "error: LineageError: projection head was built under config hash"
    for argv in (("retrieve", "employees"), ("generate",)):
        assert run_cli(workdir, *argv, *rebuilt) == 2, argv
        assert capsys.readouterr().err.startswith(foreign_head)
    assert run_cli(workdir, "generate", *rebuilt, "--force") == 0
    assert "projection head was built under config hash" in caplog.text
    assert run_cli(workdir, "evaluate", *rebuilt) == 2
    assert capsys.readouterr().err.startswith(foreign_head)
    assert run_cli(workdir, "evaluate", *rebuilt, "--force") == 0


def test_output_neutral_override_passes_lineage(workdir, capsys):
    run_cli(workdir, "build-kb")
    assert run_cli(workdir, "generate") == 0
    default = (workdir / OUTPUTS_FILE).read_text().splitlines()
    assert run_cli(workdir, "generate", "--set", "llm.max_inflight=2") == 0
    assert (workdir / OUTPUTS_FILE).read_text().splitlines()[1:] == default[1:]
    assert "LineageError" not in capsys.readouterr().err


class _RecordingSection(dict):
    """A config section that notes every key read from it."""

    def __init__(self, data, section, seen):
        super().__init__(data)
        self.section, self.seen = section, seen

    def __getitem__(self, key):
        self.seen.add((self.section, key))
        return super().__getitem__(key)

    def __iter__(self):
        # overriding iteration makes ** unpacking read through __getitem__
        return super().__iter__()


def test_workflow_reads_every_config_key(workdir, monkeypatch):
    seen = set()

    def recording_load_config(*args):
        cfg = load_config(*args)
        cfg.data = {s: _RecordingSection(v, s, seen) for s, v in cfg.data.items()}
        return cfg

    monkeypatch.setattr(cli, "load_config", recording_load_config)
    for cmd in ("build-kb", "train-retriever", "generate", "evaluate"):
        assert run_cli(workdir, cmd) == 0, cmd
    declared = {(s, k) for s, section in DEFAULTS.items() for k in section}
    assert declared - seen == set()


def test_commands_read_every_config_key(workdir):
    # main checks every section before dispatch; called directly, the
    # commands show that each key is read where it takes effect
    seen = set()
    cfg = load_config(workdir / "run.ini")
    cfg.data = {s: _RecordingSection(v, s, seen) for s, v in cfg.data.items()}
    args = argparse.Namespace(force=False)
    for cmd in ("build-kb", "train-retriever", "generate", "evaluate"):
        assert cli.COMMANDS[cmd](cfg, args) == 0, cmd
    declared = {(s, k) for s, section in DEFAULTS.items() for k in section}
    assert declared - seen == set()


def test_head_for_other_provider_rejected(workdir, capsys):
    run_cli(workdir, "build-kb")
    assert run_cli(workdir, "train-retriever") == 0
    capsys.readouterr()
    argv = ("retrieve", "--set", "retriever.dim=128", "--force", "employees")
    assert run_cli(workdir, *argv) == 2
    err = capsys.readouterr().err
    assert "error: ConfigError" in err
    assert "hash:256:hash" in err and "hash:128:hash" in err


def with_field(lines: list[str], key: str, value) -> list[str]:
    """The lines with `key` of the first record set to `value`."""
    record = json.loads(lines[1])
    record[key] = value
    return [lines[0], json.dumps(record), *lines[2:]]


@pytest.mark.parametrize(
    "corrupt, where",
    [
        (lambda lines: lines[:2] + [lines[2][:-5]] + lines[3:], "outputs.jsonl:3:"),
        (lambda lines: ['{"format": "sqlkb/kb/v1"}'] + lines[1:], "outputs format"),
        (lambda lines: lines + ["{}"], "outputs.jsonl:8: missing key 'query_id'"),
        (lambda lines: lines[:2] + lines[1:], "outputs.jsonl:3: duplicate query_id"),
        (
            lambda lines: with_field(lines, "retrieved_ids", "abc"),
            "outputs.jsonl:2: retrieved_ids is not a list of strings",
        ),
        (
            lambda lines: with_field(lines, "retrieved_ids", ["a", 1]),
            "outputs.jsonl:2: retrieved_ids is not a list of strings",
        ),
        (
            lambda lines: with_field(lines, "error", {"message": "x"}),
            "outputs.jsonl:2: error is not a string or null",
        ),
    ],
)
def test_corrupt_outputs_is_clean_error(workdir, capsys, corrupt, where):
    for cmd in ("build-kb", "generate"):
        assert run_cli(workdir, cmd) == 0, cmd
    path = workdir / OUTPUTS_FILE
    path.write_text("\n".join(corrupt(path.read_text().splitlines())) + "\n")
    capsys.readouterr()
    assert run_cli(workdir, "evaluate") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ParseError") and where in err


def test_corrupt_fixture_is_clean_error(workdir, tmp_path, capsys):
    run_cli(workdir, "build-kb")
    fixture = tmp_path / "fixture.jsonl"
    lines = (workdir / LEDGER_FILE).read_text().splitlines()
    for corrupt, where in [
        ([lines[0][:-5], *lines[1:]], "fixture.jsonl:1:"),
        ([*lines, "{}"], f"fixture.jsonl:{len(lines) + 1}: missing key"),
    ]:
        fixture.write_text("\n".join(corrupt) + "\n")
        capsys.readouterr()
        argv = ("generate", "--set", f"llm.fixture={fixture}", "--force")
        assert run_cli(workdir, *argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ParseError") and where in err


def test_evaluate_requires_outputs(workdir, capsys):
    run_cli(workdir, "build-kb")
    capsys.readouterr()
    assert run_cli(workdir, "evaluate") == 2
    assert "generate" in capsys.readouterr().err


def test_generate_with_replay_fixture(workdir, tmp_path, capsys):
    run_cli(workdir, "build-kb")
    run_cli(workdir, "generate")
    first = (workdir / OUTPUTS_FILE).read_text().splitlines()
    fixture = tmp_path / "fixture.jsonl"
    shutil.copy(workdir / LEDGER_FILE, fixture)
    (workdir / OUTPUTS_FILE).unlink()
    # pointing at a fixture changes the config hash, hence --force
    assert (
        run_cli(workdir, "generate", "--set", f"llm.fixture={fixture}", "--force") == 0
    )
    replayed = (workdir / OUTPUTS_FILE).read_text().splitlines()
    # identical records; only the header's config hash differs
    assert replayed[1:] == first[1:]


def test_workflow_outputs_reproducible(tmp_path):
    payloads = []
    for name in ("a", "b"):
        wd = generate_toy(tmp_path / name)
        for cmd in ("build-kb", "generate"):
            assert run_cli(wd, cmd) == 0
        payloads.append(
            ((wd / KB_FILE).read_bytes(), (wd / OUTPUTS_FILE).read_bytes())
        )
    assert payloads[0] == payloads[1]


@pytest.mark.parametrize("bad", [{"split": "train"}, {"few_shot_k": 0}])
def test_bad_kb_build_config_is_clean_error(workdir, capsys, bad):
    run_cli(workdir, "build-kb")
    lines = (workdir / KB_FILE).read_text().splitlines()
    header = json.loads(lines[0])
    header["build_config"].update(bad)
    (workdir / KB_FILE).write_text("\n".join([json.dumps(header), *lines[1:]]) + "\n")
    capsys.readouterr()
    assert run_cli(workdir, "stats") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ParseError") and "bad build_config" in err


def test_max_inflight_below_one_is_config_error(workdir, capsys):
    assert run_cli(workdir, "build-kb", "--set", "llm.max_inflight=0") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ConfigError") and "[llm] max_inflight" in err


@pytest.mark.parametrize(
    "corrupt, where",
    [
        (lambda lines: [lines[0][:-5], *lines[1:]], "kb.jsonl:1: bad header"),
        (lambda lines: [lines[0], lines[1].replace('"source"', '"origin"'), *lines[2:]],
         "kb.jsonl:2: missing key 'source'"),
        (lambda lines: [*lines[:2], "[1, 2]", *lines[3:]], "kb.jsonl:3: entry is not a JSON object"),
    ],
)
def test_corrupt_kb_is_clean_error(workdir, capsys, corrupt, where):
    run_cli(workdir, "build-kb")
    path = workdir / KB_FILE
    path.write_text("\n".join(corrupt(path.read_text().splitlines())) + "\n")
    capsys.readouterr()
    assert run_cli(workdir, "stats") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ParseError") and where in err


@pytest.mark.parametrize("cold", [True, False], ids=["cold", "warm"])
def test_evaluate_embeds_kb_once(workdir, monkeypatch, cold):
    """Cold (no index file): evaluate embeds each KB text once. Warm: it
    reads the index generate wrote and embeds no KB text."""
    for cmd in ("build-kb", "train-retriever", "generate"):
        assert run_cli(workdir, cmd) == 0, cmd
    if cold:
        (workdir / INDEX_FILE).unlink()
    kb_lines = (workdir / KB_FILE).read_text().splitlines()[1:]
    kb_texts = sorted(json.loads(line)["text"] for line in kb_lines)
    # Batches embedded directly; single texts (queries, gold knowledge) go
    # through the per-text cache of `raw` and `cache_raw`, which `embed`
    # reads, and are left out.
    batches, in_raw = [], []
    raw_many = EmbeddingProvider.raw_many

    def filling_cache(method):
        def recording(self, texts):
            in_raw.append(texts)
            try:
                return method(self, texts)
            finally:
                in_raw.pop()

        return recording

    def recording_raw_many(self, texts):
        if not in_raw:
            batches.append(list(texts))
        return raw_many(self, texts)

    for name in ("raw", "cache_raw"):
        monkeypatch.setattr(EmbeddingProvider, name, filling_cache(getattr(EmbeddingProvider, name)))
    monkeypatch.setattr(EmbeddingProvider, "raw_many", recording_raw_many)
    assert run_cli(workdir, "evaluate") == 0
    assert sorted(t for batch in batches for t in batch) == (kb_texts if cold else [])
    # one row block at most: ROW_CHUNK texts, or ROW_CHUNK + 1 for a last one joined
    assert max(map(len, batches), default=0) <= ROW_CHUNK + 1


def test_edited_kb_line_rebuilds_the_index(workdir, capsys, caplog):
    for cmd in ("build-kb", "train-retriever", "generate"):
        assert run_cli(workdir, cmd) == 0, cmd
    query = "which employees rank highest in New York"
    path = workdir / KB_FILE
    lines = path.read_text().splitlines()
    entry = json.loads(lines[1])
    entry["text"] = query
    path.write_text("\n".join([lines[0], json.dumps(entry), *lines[2:]]) + "\n")
    capsys.readouterr()
    assert run_cli(workdir, "retrieve", query) == 0
    kept = capsys.readouterr().out
    assert "built for another KB" in caplog.text
    assert kept.splitlines()[0].endswith(f"{entry['id']}  {query}")
    (workdir / INDEX_FILE).unlink()
    assert run_cli(workdir, "retrieve", query) == 0
    assert capsys.readouterr().out == kept


def test_generate_http_embedding_requests(workdir, embed_stub):
    """With the http embedding backend, generate sends one request per
    HTTP_BATCH texts of each KB block, of the train questions and of the
    test questions (their raw rows and unit vectors share a cache)."""
    requests_sent = embed_stub.batches
    http = ("--set", "retriever.backend=http", "--set", f"retriever.endpoint={embed_stub.url}")
    assert run_cli(workdir, "build-kb", *http) == 0
    requests_sent.clear()
    assert run_cli(workdir, "generate", *http) == 0
    n_kb = len((workdir / KB_FILE).read_text().splitlines()) - 1
    n_train = len(json.loads((workdir / "train.json").read_text()))
    test_questions = {r["question"] for r in json.loads((workdir / "test.json").read_text())}
    kb_blocks = [min(ROW_CHUNK, n_kb - start) for start in range(0, n_kb, ROW_CHUNK)]
    batches = lambda n: -(-n // HTTP_BATCH)
    want = sum(map(batches, kb_blocks)) + batches(n_train) + batches(len(test_questions))
    assert len(requests_sent) == want


def test_build_kb_embeds_the_train_questions_in_batches(workdir, embed_stub):
    """With the http embedding backend, build-kb embeds each train question
    once, HTTP_BATCH texts per request, for its one example-selection pass."""
    http = ("--set", "retriever.backend=http", "--set", f"retriever.endpoint={embed_stub.url}")
    assert run_cli(workdir, "build-kb", *http) == 0
    questions = [r["question"] for r in json.loads((workdir / "train.json").read_text())]
    assert len(embed_stub.batches) == -(-len(questions) // HTTP_BATCH)
    assert [text for texts in embed_stub.batches for text in texts] == questions


def test_evaluate_after_generate_sends_no_kb_embedding_request(workdir, embed_stub):
    """With the http embedding backend, evaluate reads the KB rows from the
    index file generate wrote: its requests carry only the texts it embeds
    one by one (gold and output knowledge, labeled questions), each once,
    HTTP_BATCH texts per request."""
    requests_sent = embed_stub.batches
    http = ("--set", "retriever.backend=http", "--set", f"retriever.endpoint={embed_stub.url}")
    for cmd in ("build-kb", "train-retriever", "generate"):
        assert run_cli(workdir, cmd, *http) == 0, cmd
    requests_sent.clear()
    assert run_cli(workdir, "evaluate", *http) == 0
    records = json.loads((workdir / "test.json").read_text())
    assert all(r["evidence"] for r in records)
    kb_ids = {json.loads(line)["id"] for line in (workdir / KB_FILE).read_text().splitlines()[1:]}
    outputs = (workdir / OUTPUTS_FILE).read_text().splitlines()[1:]
    texts = (
        {r["evidence"] for r in records}
        | {r["question"] for r in records if entry_id(r["evidence"]) in kb_ids}
        | {json.loads(line)["knowledge"] for line in outputs} - {None}
    )
    assert sorted(t for batch in requests_sent for t in batch) == sorted(texts)
    assert len(requests_sent) == -(-len(texts) // HTTP_BATCH)


def test_head_for_other_embedding_service_rejected(workdir, embed_stub, capsys):
    """The http provider fingerprint names the endpoint: a head trained
    against one embedding service is refused for another, under --force too."""
    service = lambda name: ("--set", "retriever.backend=http",
                            "--set", f"retriever.endpoint={embed_stub.url}/{name}")
    for cmd in ("build-kb", "train-retriever"):
        assert run_cli(workdir, cmd, *service("a")) == 0, cmd
    capsys.readouterr()
    assert run_cli(workdir, "generate", "--force", *service("b")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ConfigError")
    assert f"http:256:http:{embed_stub.url}/a" in err and f"http:256:http:{embed_stub.url}/b" in err


@pytest.mark.parametrize(
    "unrecorded",
    [lambda head: {k: v for k, v in head.items() if k != "provider_fingerprint"},
     lambda head: {**head, "provider_fingerprint": ""}],
    ids=["missing", "empty"],
)
def test_head_without_provider_fingerprint_rejected(workdir, capsys, unrecorded):
    """A head that does not say which embedding space it was trained for is
    refused, under --force too, naming the current provider."""
    for cmd in ("build-kb", "train-retriever"):
        assert run_cli(workdir, cmd) == 0, cmd
    path = workdir / HEAD_FILE
    path.write_text(json.dumps(unrecorded(json.loads(path.read_text()))))
    capsys.readouterr()
    assert run_cli(workdir, "generate", "--force") == 2
    err = capsys.readouterr().err
    current = _provider(load_config(workdir / "run.ini")).fingerprint
    assert err.startswith("error: ConfigError")
    assert "(none recorded)" in err and f"current provider is {current}" in err


def test_outputs_line_not_object_is_clean_error(workdir, capsys):
    for cmd in ("build-kb", "generate"):
        assert run_cli(workdir, cmd) == 0, cmd
    path = workdir / OUTPUTS_FILE
    lines = path.read_text().splitlines()
    path.write_text("\n".join([*lines[:2], "[1]", *lines[3:]]) + "\n")
    capsys.readouterr()
    assert run_cli(workdir, "evaluate") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ParseError") and "outputs.jsonl:3: entry is not a JSON object" in err


def test_kb_with_leading_blank_line_is_lineage_checked(workdir, capsys):
    run_cli(workdir, "build-kb")
    path = workdir / KB_FILE
    path.write_text("\n" + path.read_text())
    assert run_cli(workdir, "stats") == 0
    capsys.readouterr()
    assert run_cli(workdir, "stats", "--set", "run.seed=9") == 2
    assert capsys.readouterr().err.startswith("error: LineageError")


def test_evaluate_on_empty_kb_reports_zero_coverage(workdir, capsys):
    for cmd in ("build-kb", "train-retriever", "generate"):
        assert run_cli(workdir, cmd) == 0, cmd
    path = workdir / KB_FILE
    path.write_text(path.read_text().splitlines()[0] + "\n")
    assert run_cli(workdir, "evaluate") == 0
    report = json.loads((workdir / REPORT_JSON).read_text())
    assert report["coverage"] == {"exact_match_pct": 0.0, "mean_best_similarity": 0.0}
    assert report["retrieval"] is None
    assert report["n_queries"] == 6


@pytest.mark.parametrize(
    "corrupt, where",
    [
        (lambda text: text[: len(text) // 2], "head.json: "),
        (lambda text: json.dumps({k: v for k, v in json.loads(text).items() if k != "weights"}),
         "head.json: missing key 'weights'"),
        (lambda text: json.dumps({**json.loads(text), "holdout_mrr": "high"}), "head.json: "),
        (lambda text: json.dumps({**json.loads(text), "holdout_mrr": True}),
         "head.json: holdout_mrr must be a number in [0, 1], not True"),
        *[
            (lambda text, tau=tau: json.dumps({**json.loads(text), "tau": tau}),
             f"head.json: tau must be a number > 0 and finite, not {tau!r}")
            for tau in (float("nan"), float("inf"), float("-inf"), True)
        ],
        (lambda text: json.dumps({**json.loads(text), "weights": json.loads(text)["weights"][0]}),
         "head.json: head weights must be a non-empty 2-D matrix"),
        (lambda text: json.dumps({**json.loads(text), "weights": []}),
         "head.json: head weights must be a non-empty 2-D matrix"),
        (lambda text: json.dumps({**json.loads(text), "weights": [[10**400]]}),
         "head.json: int too large to convert to float"),
    ],
)
def test_corrupt_head_is_clean_error(workdir, capsys, corrupt, where):
    for cmd in ("build-kb", "train-retriever"):
        assert run_cli(workdir, cmd) == 0, cmd
    path = workdir / HEAD_FILE
    path.write_text(corrupt(path.read_text()))
    capsys.readouterr()
    assert run_cli(workdir, "generate") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ParseError") and where in err


def test_generate_on_empty_kb_retrieves_nothing(workdir, caplog):
    for cmd in ("build-kb", "train-retriever"):
        assert run_cli(workdir, cmd) == 0, cmd
    path = workdir / KB_FILE
    path.write_text(path.read_text().splitlines()[0] + "\n")
    # the no-knowledge baseline (a config change, hence --force) and the default top_j
    for argv in (("--set", "pipeline.top_j=0", "--force"), ()):
        assert run_cli(workdir, "generate", *argv) == 0, argv
        records = [json.loads(l) for l in (workdir / OUTPUTS_FILE).read_text().splitlines()[1:]]
        assert len(records) == 6
        assert all(r["retrieved_ids"] == [] and r["knowledge"] is None for r in records)
    assert "no knowledge is retrieved" in caplog.text
    assert run_cli(workdir, "evaluate") == 0


@pytest.mark.parametrize(
    "artifact, command, key, where, value",
    [
        (OUTPUTS_FILE, "evaluate", "sql", "outputs.jsonl:2: sql is not a string or null", 5),
        (OUTPUTS_FILE, "evaluate", "knowledge", "outputs.jsonl:2: knowledge is not a string or null", 5),
        (OUTPUTS_FILE, "evaluate", "sql", "outputs.jsonl:2: sql is an empty string", ""),
        (OUTPUTS_FILE, "evaluate", "knowledge", "outputs.jsonl:2: knowledge is an empty string", ""),
        (OUTPUTS_FILE, "evaluate", "query_id", "outputs.jsonl:2: query_id is not a string", ["test000"]),
        (KB_FILE, "stats", "text", "kb.jsonl:2: text is not a string", 5),
        (KB_FILE, "stats", "text", "kb.jsonl:2: text is empty or whitespace only", ""),
        (KB_FILE, "evaluate", "text", "kb.jsonl:2: text is empty or whitespace only", " \t"),
        (KB_FILE, "generate", "id", "kb.jsonl:2: id is not a string", 7),
        (KB_FILE, "stats", "source", "kb.jsonl:2: source is not a string", ["dataset"]),
        (KB_FILE, "stats", "db_id", "kb.jsonl:2: db_id is not a string", ["company"]),
        (KB_FILE, "stats", "origin_query_id", "kb.jsonl:2: origin_query_id is not a string or null", 5),
        (KB_FILE, "stats", "iteration", "kb.jsonl:2: iteration is not an int or null", "x"),
        (KB_FILE, "stats", "iteration", "kb.jsonl:2: iteration is not an int or null", True),
    ],
)
def test_mistyped_field_is_clean_error(workdir, capsys, artifact, command, key, where, value):
    for cmd in ("build-kb", "generate"):
        assert run_cli(workdir, cmd) == 0, cmd
    path = workdir / artifact
    lines = path.read_text().splitlines()
    record = json.loads(lines[1])
    record[key] = value
    path.write_text("\n".join([lines[0], json.dumps(record), *lines[2:]]) + "\n")
    capsys.readouterr()
    assert run_cli(workdir, command) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ParseError") and where in err


def ledger_stages(workdir):
    lines = (workdir / LEDGER_FILE).read_text().splitlines()
    return [json.loads(line)["stage"] for line in lines]


def test_backend_typo_is_config_error(workdir, capsys):
    assert run_cli(workdir, "build-kb", "--set", "llm.backend=htpp") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ConfigError") and "'htpp'" in err
    assert not (workdir / LEDGER_FILE).exists()
    assert run_cli(workdir, "build-kb") == 0
    (workdir / LEDGER_FILE).unlink()
    capsys.readouterr()
    assert run_cli(workdir, "generate", "--set", "llm.backend=htpp", "--force") == 2
    assert "'htpp'" in capsys.readouterr().err
    assert not (workdir / OUTPUTS_FILE).exists() and not (workdir / LEDGER_FILE).exists()


@pytest.mark.parametrize(
    "setting, where",
    [
        ("kb.iterations=abc", "[kb] iterations: expected int, got 'abc'"),
        ("eval.timeout=fast", "[eval] timeout: expected float, got 'fast'"),
    ],
)
def test_unparsable_value_is_config_error(workdir, capsys, setting, where):
    assert run_cli(workdir, "build-kb", "--set", setting) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ConfigError") and where in err


ARTIFACTS_BEFORE = {
    "build-kb": (),
    "train-retriever": (),
    "generate": ("build-kb",),
    "evaluate": ("build-kb", "generate"),
    "stats": ("build-kb",),
}


@pytest.mark.parametrize(
    "command, setting, where",
    [
        ("build-kb", "kb.few_shot_k=0", "[kb] few_shot_k must be >= 1"),
        ("build-kb", "kb.prompt_budget=-1", "[kb] prompt_budget must be >= 0"),
        ("train-retriever", "retriever.batch_size=1", "[retriever] batch_size must be >= 2"),
        ("stats", "retriever.batch_size=1", "[retriever] batch_size must be >= 2"),
        ("train-retriever", "retriever.tau=0", "[retriever] tau must be > 0"),
        ("train-retriever", "retriever.tau=inf", "[retriever] tau must be > 0 and finite"),
        ("train-retriever", "retriever.lr=nan", "[retriever] lr must be >= 0 and finite"),
        ("train-retriever", "retriever.epochs=-1", "[retriever] epochs must be >= 0"),
        ("train-retriever", "retriever.holdout_fraction=-0.5",
         "[retriever] holdout_fraction must be >= 0 and < 1"),
        ("train-retriever", "retriever.head_dim=-5", "[retriever] dim_out must be >= 1, got -5"),
        ("train-retriever", "retriever.dim=0", "[retriever] dim must be >= 1, got 0"),
        ("train-retriever", "retriever.backend=http",
         "[retriever] backend = http needs an endpoint"),
        ("train-retriever", "run.seed=-1", "[run] seed must be >= 0"),
        ("build-kb", "llm.timeout=0", "[llm] timeout must be > 0 and finite"),
        ("generate", "llm.timeout=nan", "[llm] timeout must be > 0 and finite"),
        ("generate", "llm.temperature=nan", "[llm] temperature must be >= 0"),
        ("generate", "llm.temperature=inf", "[llm] temperature must be finite"),
        ("build-kb", "llm.timeout=1e10", "[llm] timeout must be <= "),
        ("build-kb", "llm.max_tokens=0", "[llm] max_tokens must be >= 1, got 0"),
        ("generate", "pipeline.few_shot_k=0", "[pipeline] few_shot_k must be >= 1"),
        ("generate", "pipeline.top_j=-2", "[pipeline] top_j must be >= 0"),
        ("generate", "pipeline.budget=-1", "[pipeline] budget must be >= 0"),
        ("evaluate", "eval.timing_runs=0", "[eval] timing_runs must be >= 1"),
        ("evaluate", "eval.timeout=0", "[eval] timeout must be > 0"),
        ("evaluate", "eval.timeout=nan", "[eval] timeout must be > 0"),
        ("evaluate", "eval.clip_max=-1", "[eval] clip_max must be > 0"),
    ],
)
def test_out_of_range_value_is_config_error(workdir, capsys, command, setting, where):
    for cmd in ARTIFACTS_BEFORE[command]:
        assert run_cli(workdir, cmd) == 0, cmd
    capsys.readouterr()
    assert run_cli(workdir, command, "--set", setting, "--force") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ConfigError: ") and where in err


def test_ledger_keeps_both_stages_and_replays_build_kb(workdir, capsys):
    for cmd in ("build-kb", "train-retriever", "generate", "evaluate"):
        assert run_cli(workdir, cmd) == 0, cmd
    assert ledger_stages(workdir) == ["build-kb"] * 20 + ["generate"] * 12
    kb_body = (workdir / KB_FILE).read_text().splitlines()[1:]
    # every expansion prompt is answered from the ledger; the fixture is read
    # before build-kb starts the ledger afresh
    argv = ("build-kb", "--set", f"llm.fixture={LEDGER_FILE}", "--force")
    assert run_cli(workdir, *argv) == 0
    assert "20 generated" in capsys.readouterr().out
    assert (workdir / KB_FILE).read_text().splitlines()[1:] == kb_body
    assert ledger_stages(workdir) == ["build-kb"] * 20


def test_build_kb_without_calls_starts_an_empty_ledger(workdir):
    for cmd in ("build-kb", "generate"):
        assert run_cli(workdir, cmd) == 0, cmd
    assert run_cli(workdir, "build-kb", "--set", "kb.iterations=0", "--force") == 0
    assert (workdir / LEDGER_FILE).read_text() == ""


@pytest.mark.parametrize(
    "command, setting, where",
    [
        ("train-retriever", "llm.backend=htpp", "[llm] backend: expected http or mock, got 'htpp'"),
        ("stats", "eval.timeout=0", "[eval] timeout must be > 0"),
    ],
)
def test_every_command_checks_every_section(workdir, capsys, command, setting, where):
    assert run_cli(workdir, "build-kb") == 0
    capsys.readouterr()
    assert run_cli(workdir, command, "--set", setting, "--force") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ConfigError: ") and where in err
    assert not (workdir / HEAD_FILE).exists()


def test_replay_fixture_needs_the_mock_backend(workdir, capsys):
    assert run_cli(workdir, "build-kb") == 0
    capsys.readouterr()
    argv = ("--set", "llm.backend=http", "--set", f"llm.fixture={LEDGER_FILE}", "--force")
    assert run_cli(workdir, "generate", *argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ConfigError: ") and "[llm] fixture" in err
    assert not (workdir / OUTPUTS_FILE).exists()


def test_http_llm_backend_needs_an_endpoint(workdir, monkeypatch, capsys):
    monkeypatch.delenv(llm.ENDPOINT_ENV, raising=False)
    assert run_cli(workdir, "build-kb", "--set", "llm.backend=http") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ConfigError: ")
    assert "[llm] endpoint" in err and llm.ENDPOINT_ENV in err
    assert not (workdir / KB_FILE).exists()


@pytest.mark.parametrize(
    "command, fixture_records",
    [("build-kb", 0), ("build-kb", 10), ("generate", 20), ("generate", 30)],
)
def test_replay_miss_ends_the_command(workdir, capsys, command, fixture_records):
    """A fixture holding the ledger's first lines answers the command's first
    prompts (build-kb's 20 lines answer no SQL prompt); the next prompt ends
    the command. Every file is left as it was: the ledger keeps only its
    build-kb lines, and no temporary ledger file or outputs file remains."""
    for cmd in ("build-kb", "generate"):
        assert run_cli(workdir, cmd) == 0, cmd
    lines = (workdir / LEDGER_FILE).read_text().splitlines(keepends=True)
    (workdir / "fixture.jsonl").write_text("".join(lines[:fixture_records]))
    (workdir / LEDGER_FILE).write_text("".join(lines[:20]))
    (workdir / OUTPUTS_FILE).unlink()
    before = {path.name: path.read_bytes() for path in workdir.iterdir() if path.is_file()}
    capsys.readouterr()
    assert run_cli(workdir, command, "--set", "llm.fixture=fixture.jsonl", "--force") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: MockMissError: ")
    assert re.search(r"prompt hash [0-9a-f]{12}$", err.strip())
    assert {path.name: path.read_bytes() for path in workdir.iterdir() if path.is_file()} == before
    assert ledger_stages(workdir) == ["build-kb"] * 20


def test_replay_fails_a_recorded_failure_again(workdir, monkeypatch, capsys):
    failed, synthetic = [], llm.synthetic_completer

    def flaky(prompt):
        # the first SQL call fails, as an http 429 would
        if prompt.endswith("SQL: ") and not failed:
            failed.append(prompt)
            raise LlmError("http status 429")
        return synthetic(prompt)

    assert run_cli(workdir, "build-kb") == 0
    with monkeypatch.context() as patch:
        patch.setattr(cli.llm, "synthetic_completer", flaky)
        assert run_cli(workdir, "generate") == 0
    recorded = [json.loads(line) for line in (workdir / LEDGER_FILE).read_text().splitlines()]
    assert [r["ok"] for r in recorded].count(False) == 1
    first = (workdir / OUTPUTS_FILE).read_text().splitlines()
    (workdir / "fixture.jsonl").write_text((workdir / LEDGER_FILE).read_text())
    capsys.readouterr()
    argv = ("generate", "--set", "llm.fixture=fixture.jsonl", "--force")
    assert run_cli(workdir, *argv) == 0
    assert "6 outputs written" in capsys.readouterr().out

    def records(lines):
        # the error text names the replay, not the recorded cause
        return [{**o, "error": o["error"] is not None} for o in map(json.loads, lines[1:])]

    replayed = (workdir / OUTPUTS_FILE).read_text().splitlines()
    assert records(replayed) == records(first)
    assert sum(o["error"] for o in records(replayed)) == 1


@pytest.mark.parametrize(
    "artifact, byte, made_by, command",
    [
        ("train.json", b"\xff", (), "build-kb"),
        (KB_FILE, b"\xe9", ("build-kb",), "stats"),
        (HEAD_FILE, b"\xe9", ("build-kb", "train-retriever"), "generate"),
        ("run.ini", b"\xe9", (), "stats"),
    ],
)
def test_input_file_not_utf8_is_clean_error(workdir, capsys, artifact, byte, made_by, command):
    """Input files are read as UTF-8: a byte that is not UTF-8 is a
    ParseError naming the file, not a traceback."""
    for cmd in made_by:
        assert run_cli(workdir, cmd) == 0, cmd
    path = workdir / artifact
    path.write_bytes(path.read_bytes().replace(b"e", byte, 1))
    capsys.readouterr()
    assert run_cli(workdir, command) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ParseError") and f"{artifact}: 'utf-8' codec can't decode" in err


def test_non_ascii_question_runs_under_an_ascii_locale(workdir):
    """A UTF-8 question outside ASCII is read as UTF-8 whatever the locale's
    encoding is: under the C locale, with UTF-8 mode off, as on a host
    without a UTF-8 locale."""
    path = workdir / "train.json"
    records = json.loads(path.read_text(encoding="utf-8"))
    records[0]["question"] = "Straße São Paulo " + records[0]["question"]
    path.write_bytes(json.dumps(records, ensure_ascii=False).encode("utf-8"))
    env = {**os.environ, "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0"}
    env.pop("PYTHONUTF8", None)
    for command in ("build-kb", "stats"):
        done = subprocess.run(
            [sys.executable, "-X", "utf8=0", "-m", "sqlkb.cli", command,
             "--config", str(workdir / "run.ini")],
            env=env, capture_output=True, text=True,
        )
        assert done.returncode == 0, done.stderr
