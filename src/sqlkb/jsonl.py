"""The line format shared by kb.jsonl, outputs.jsonl and the LLM ledger:
one JSON object per line. Blank lines, of JSON whitespace alone, are
skipped but counted, so line numbers are the file's own."""

import json
from pathlib import Path
from typing import Iterable, Iterator

from .errors import ParseError

# The C scanner json.loads runs, and the whitespace it allows after a value.
_scan_once = json.JSONDecoder().scan_once
_json_space = json.decoder.WHITESPACE.match
_JSON_SPACE = " \t\r\n"


def jsonl_line(obj: dict) -> str:
    """One line of the format: the object's sorted-key JSON and a newline."""
    return json.dumps(obj, sort_keys=True) + "\n"


def write_jsonl(path: Path | str, objs: Iterable[dict]) -> None:
    """Write one `jsonl_line` per object."""
    with open(path, "w") as fh:
        fh.writelines(map(jsonl_line, objs))


def read_jsonl(path: Path | str, header: bool = False) -> Iterator[tuple[int, dict]]:
    """Yield (line number, object) per non-blank line, streaming the file.

    A blank line holds JSON whitespace alone (space, tab, CR, LF); a line of
    other space, such as a form feed or a no-break space, is parsed. A line
    that is not JSON, or not a JSON object, raises ParseError naming
    `path:line`; with `header`, the first non-blank line's error says
    "bad header". The file is read as UTF-8; bytes that are not UTF-8 raise
    ParseError naming `path`. Each line is parsed as `json.loads(line)`
    parses it (see `_loads`).
    """
    prefix = "bad header: " if header else ""
    with open(path, encoding="utf-8") as fh:
        try:
            for n, line in enumerate(fh, 1):
                # str.isspace first, as the fast test; it also passes "\x0c" and "\xa0"
                if line.isspace() and not line.strip(_JSON_SPACE):
                    continue
                try:
                    obj = _loads(line)
                except json.JSONDecodeError as exc:
                    raise ParseError(f"{path}:{n}: {prefix}{exc}") from exc
                if not isinstance(obj, dict):
                    problem = (
                        f"{prefix}not a JSON object" if prefix else "entry is not a JSON object"
                    )
                    raise ParseError(f"{path}:{n}: {problem}")
                yield n, obj
                prefix = ""
        # the file is decoded a chunk at a time, so the error names no line
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: {exc}") from exc


def _loads(line: str) -> object:
    """`json.loads(line)`. A line that starts with "{" is scanned once by the
    scanner json.loads runs, and its object taken when only JSON whitespace
    follows it; any other line, and every line that scan fails on, goes
    through json.loads, so every value and every error text are its own."""
    if line[0] == "{":
        try:
            obj, end = _scan_once(line, 0)
        # StopIteration: a value cut short inside the object
        except (StopIteration, ValueError, RecursionError):
            pass  # json.loads raises it again, with its own text
        else:
            # not str.isspace: it also passes "\x0c", which json.loads refuses
            if _json_space(line, end).end() == len(line):
                return obj
    return json.loads(line)
