"""The JSON-lines artifacts: corrupt lines fail loudly, and a round trip
keeps every byte."""

import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqlkb.errors import ParseError
from sqlkb.jsonl import read_jsonl, write_jsonl
from sqlkb.knowledge_base import KnowledgeBase, KnowledgeEntry, kb_header, load_kb, save_kb
from sqlkb.llm import CallLedger, LedgerRecord, load_fixture, prompt_sha256
from sqlkb.pipeline import PipelineOutput, load_outputs, save_outputs


def sample_kb() -> KnowledgeBase:
    kb = KnowledgeBase()
    kb.add(KnowledgeEntry.from_text("alpha refers to state = 'AL'", "dataset", "company", "tr1"))
    kb.add(KnowledgeEntry.from_text("beta means grade 2 or higher", "generated", "clinic", "tr2", 3))
    return kb


def sample_outputs() -> list[PipelineOutput]:
    return [
        PipelineOutput("te1", "SELECT 1", "alpha refers to state", ("a1", "b2")),
        PipelineOutput("te2", None, None, error="http status 400"),
    ]


def write_ledger(path, n: int) -> list[LedgerRecord]:
    """Stream n records, the second one failed, to a ledger file at `path`."""
    records = []
    with open(path, "w") as sink:
        ledger = CallLedger(sink)
        for i in range(n):
            prompt = f"Question: q{i}\nSQL: "
            records.append(
                LedgerRecord(prompt_sha256(prompt), prompt, f"SELECT {i}", "mock", ok=i != 1)
            )
            ledger.append(records[-1])
    return records


# name: (writer of a three-line file, loader, first key the loader reads,
# whether line 1 is a header); the fixture has no header, only records.
ARTIFACTS = {
    "kb": (lambda p: save_kb(sample_kb(), p, "h"), load_kb, "id", True),
    "outputs": (lambda p: save_outputs(sample_outputs(), p, "h"), load_outputs, "query_id", True),
    "fixture": (lambda p: write_ledger(p, 3), load_fixture, "prompt_sha256", False),
}


@pytest.mark.parametrize("artifact", ARTIFACTS)
@pytest.mark.parametrize(
    "line, text, problem",
    [
        (3, '{"id": "x",', "Expecting"),
        (3, "null", "entry is not a JSON object"),
        (3, "[1]", "entry is not a JSON object"),
        (3, '"x"', "entry is not a JSON object"),
        (1, "[1]", "header"),
        (3, "{}", "missing key"),
    ],
)
def test_corrupt_line_is_parse_error_naming_path_line(tmp_path, artifact, line, text, problem):
    write, load, first_key, has_header = ARTIFACTS[artifact]
    path = tmp_path / f"{artifact}.jsonl"
    write(path)
    lines = path.read_text().splitlines()
    assert len(lines) == 3
    lines[line - 1] = text
    path.write_text("\n".join(lines) + "\n")
    if problem == "header":
        problem = "bad header: not a JSON object" if has_header else "entry is not a JSON object"
    elif problem == "missing key":
        problem = f"missing key '{first_key}'"
    with pytest.raises(ParseError, match=re.escape(f"{path}:{line}: {problem}")):
        load(path)


@pytest.mark.parametrize(
    "artifact, record",
    [
        ("kb", {"id": [1], "text": "t", "source": "dataset", "db_id": "db"}),
        ("outputs", {"query_id": "q", "sql": None, "knowledge": None, "retrieved_ids": 5}),
    ],
)
def test_unusable_field_is_parse_error_naming_path_line(tmp_path, artifact, record):
    write, load, _, _ = ARTIFACTS[artifact]
    path = tmp_path / f"{artifact}.jsonl"
    write(path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join([*lines[:2], json.dumps(record)]) + "\n")
    with pytest.raises(ParseError, match=re.escape(f"{path}:3: ")):
        load(path)


def test_read_jsonl_skips_blank_lines_and_counts_them(tmp_path):
    path = tmp_path / "a.jsonl"
    path.write_text('\n{"a": 1}\n  \n\t\r\n{"b": 2}\n\n')
    assert list(read_jsonl(path, header=True)) == [(2, {"a": 1}), (5, {"b": 2})]


@pytest.mark.parametrize("space", ["\x0c", "\u00a0", " \x0c "])
def test_line_of_other_space_is_parse_error(tmp_path, space):
    """Only JSON whitespace makes a line blank: str.isspace also passes a
    form feed or a no-break space, which json.loads refuses."""
    path = tmp_path / "a.jsonl"
    path.write_text(f'{{"a": 1}}\n{space}\n{{"b": 2}}\n')
    with pytest.raises(ParseError) as raised:
        list(read_jsonl(path))
    with pytest.raises(json.JSONDecodeError) as loads:
        json.loads(space + "\n")
    assert str(raised.value) == f"{path}:2: {loads.value}"


def test_kb_header_skips_leading_blank_line(tmp_path):
    path = tmp_path / "kb.jsonl"
    save_kb(sample_kb(), path, "h")
    path.write_text("\n" + path.read_text())
    assert kb_header(path)["config_hash"] == "h"
    assert len(load_kb(path)) == 2


def test_kb_round_trip_is_byte_identical(tmp_path):
    first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    save_kb(sample_kb(), first, "h")
    save_kb(load_kb(first), second, kb_header(first)["config_hash"])
    assert first.read_bytes() == second.read_bytes()


def test_outputs_round_trip_is_byte_identical(tmp_path):
    first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    save_outputs(sample_outputs(), first, "h")
    outputs, header = load_outputs(first)
    assert outputs == sample_outputs()
    save_outputs(outputs, second, header["config_hash"])
    assert first.read_bytes() == second.read_bytes()


@pytest.mark.parametrize("n", [0, 3])
def test_ledger_round_trip_is_byte_identical(tmp_path, n):
    first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    records = write_ledger(first, n)
    write_jsonl(second, (obj for _, obj in read_jsonl(first)))
    assert first.read_bytes() == second.read_bytes()
    assert first.read_bytes().count(b"\n") == n
    assert load_fixture(first) == {
        r.prompt_sha256: r.completion if r.ok else None for r in records
    }


# --- the one-scan fast path: each line reads as json.loads reads it ---

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=6,
)
JSON_OBJECTS = st.dictionaries(st.text(max_size=4), JSON_VALUES, max_size=4)

# Each turns one dumped object into a line; `other` is a second dumped value.
MUTATIONS = {
    "as written": lambda text, other, cut: text,
    "leading spaces": lambda text, other, cut: "  " + text,
    "trailing JSON whitespace": lambda text, other, cut: text + " \t ",
    # whitespace to str.isspace, but "Extra data" to json.loads
    "trailing form feed": lambda text, other, cut: text + "\x0c",
    "trailing unit separator": lambda text, other, cut: text + "\x1f",
    "trailing no-break space": lambda text, other, cut: text + "\u00a0",
    # blank: JSON whitespace alone
    "JSON whitespace alone": lambda text, other, cut: " \t ",
    # space to str.isspace, but "Expecting value" to json.loads
    "form feed alone": lambda text, other, cut: "\x0c",
    "no-break space alone": lambda text, other, cut: "\u00a0",
    "second value": lambda text, other, cut: text + other,
    "second value after a space": lambda text, other, cut: text + " " + other,
    "truncated": lambda text, other, cut: text[: cut % (len(text) + 1)],
    "BOM": lambda text, other, cut: "\ufeff" + text,
    "not an object": lambda text, other, cut: other,
}


@settings(max_examples=300, deadline=None)
@given(
    obj=JSON_OBJECTS,
    other=JSON_VALUES,
    mutation=st.sampled_from(sorted(MUTATIONS)),
    cut=st.integers(0, 10**6),
    ascii_only=st.booleans(),
    header=st.booleans(),
)
def test_read_jsonl_reads_each_line_as_json_loads(
    tmp_path_factory, obj, other, mutation, cut, ascii_only, header
):
    """One-line files: read_jsonl yields json.loads's value, or raises a
    ParseError with json.loads's error text."""
    dump = lambda value: json.dumps(value, ensure_ascii=ascii_only)  # noqa: E731
    line = MUTATIONS[mutation](dump(obj), dump(other), cut) + "\n"
    path = tmp_path_factory.mktemp("one_line") / "a.jsonl"
    path.write_text(line)
    if not line.strip(" \t\r\n"):
        assert list(read_jsonl(path, header)) == []
        return
    try:
        want = json.loads(line)
    except json.JSONDecodeError as exc:
        problem = f"{'bad header: ' if header else ''}{exc}"
    else:
        if isinstance(want, dict):
            ((n, got),) = read_jsonl(path, header)
            assert n == 1 and repr(got) == repr(want)
            return
        problem = "bad header: not a JSON object" if header else "entry is not a JSON object"
    with pytest.raises(ParseError) as raised:
        list(read_jsonl(path, header))
    assert str(raised.value) == f"{path}:1: {problem}"
