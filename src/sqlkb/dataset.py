"""Dataset loading and schema rendering.

A dataset is a JSON array of question records plus a directory of
single-file SQLite databases; see docs/formats.md for the exact layout.
"""

from __future__ import annotations

import functools
import json
import sqlite3
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from .errors import (
    DatabaseFileError,
    ParseError,
    SchemaRefError,
    UnsupportedEngineError,
)

SQLITE_MAGIC = b"SQLite format 3\x00"


@dataclass(frozen=True)
class Query:
    id: str
    text: str
    db_id: str


@dataclass(frozen=True)
class Column:
    name: str
    type: str


@dataclass(frozen=True)
class Table:
    name: str
    columns: tuple[Column, ...]


@dataclass(frozen=True)
class ForeignKey:
    table: str
    column: str
    ref_table: str
    ref_column: str


@dataclass(frozen=True)
class DatabaseSchema:
    db_id: str
    tables: tuple[Table, ...]
    foreign_keys: tuple[ForeignKey, ...] = ()
    db_file: Optional[Path] = None


@dataclass(frozen=True)
class ExampleTriplet:
    query: Query
    schema_ref: str
    knowledge: Optional[str] = None
    gold_sql: Optional[str] = None


@dataclass(frozen=True)
class Dataset:
    records: tuple[ExampleTriplet, ...]
    schemas: dict[str, DatabaseSchema] = field(default_factory=dict)
    split: str = "train"

    def schema_for(self, db_id: str) -> DatabaseSchema:
        try:
            return self.schemas[db_id]
        except KeyError:
            raise SchemaRefError(f"unknown db_id: {db_id!r}") from None


def _quoted(name: str) -> str:
    """A name as an SQL identifier: in double quotes, each `"` doubled.
    (Binding it, as in `pragma_table_info(?)`, made `load_schema` ~50% slower.)"""
    return '"' + name.replace('"', '""') + '"'


@functools.lru_cache(maxsize=4096)
def _shown(name: str) -> str:
    """A name as the rendered schema writes it: as is when it is a plain
    [A-Za-z_][A-Za-z0-9_]* name that SQLite reads bare, else quoted so that
    it can be pasted into SQL. Cached: every prompt renders its schema."""
    plain = name.isascii() and name.isidentifier() and _reads_bare(name)
    return name if plain else _quoted(name)


def _reads_bare(name: str) -> bool:
    """Whether the bare name, as a table and as a column, reads that column in
    `SELECT <name> FROM <name>`. SQLite decides: a keyword such as `order`
    fails to parse, and `current_date` parses as something else."""
    con = sqlite3.connect(":memory:")
    try:
        cte = f"WITH {_quoted(name)}({_quoted(name)}) AS (SELECT 'column')"
        return con.execute(f"{cte} SELECT {name} FROM {name}").fetchall() == [("column",)]
    except sqlite3.Error:
        return False
    finally:
        con.close()


def _primary_key_column(con: sqlite3.Connection, table: str, seq: int) -> str:
    """Column `seq` of a table's primary key; "" if it has none or no such table."""
    # PRAGMA table_info rows: (cid, name, type, notnull, default, pk position or 0)
    rows = con.execute(f"PRAGMA table_info({_quoted(table)})")
    keys = sorted((r[5], r[1]) for r in rows if r[5])
    return keys[seq][1] if seq < len(keys) else ""


def load_schema(db_file: Path | str) -> DatabaseSchema:
    """Read tables, columns, and foreign keys from a SQLite file."""
    db_file = Path(db_file)
    if not db_file.exists():
        raise DatabaseFileError(f"no such database file: {db_file}")
    with open(db_file, "rb") as fh:
        header = fh.read(len(SQLITE_MAGIC))
    if header and header != SQLITE_MAGIC:  # an empty file is an empty database
        raise UnsupportedEngineError(f"not a SQLite database: {db_file}")
    try:
        con = sqlite3.connect(f"file:{db_file}?mode=ro", uri=True)
        try:
            names = [
                r[0]
                for r in con.execute(
                    "SELECT name FROM sqlite_master WHERE type='table' "
                    "AND name NOT LIKE 'sqlite_%' ORDER BY name"
                )
            ]
            tables = []
            fks = []
            for name in names:
                cols = tuple(
                    Column(name=r[1], type=r[2] or "")
                    for r in con.execute(f"PRAGMA table_info({_quoted(name)})")
                )
                tables.append(Table(name=name, columns=cols))
                for r in con.execute(f"PRAGMA foreign_key_list({_quoted(name)})"):
                    # r: (id, seq, ref_table, from_col, to_col, ...)
                    # REFERENCES parent without a column means the parent's key
                    to_col = r[4] if r[4] is not None else _primary_key_column(con, r[2], r[1])
                    fks.append(
                        ForeignKey(table=name, column=r[3], ref_table=r[2], ref_column=to_col)
                    )
        finally:
            con.close()
    except sqlite3.Error as exc:
        raise DatabaseFileError(f"cannot read {db_file}: {exc}") from exc
    return DatabaseSchema(
        db_id=db_file.stem,
        tables=tuple(tables),
        foreign_keys=tuple(sorted(fks, key=lambda f: (f.table, f.column))),
        db_file=db_file,
    )


def discover_schemas(db_dir: Path | str) -> dict[str, DatabaseSchema]:
    """Load every *.sqlite file in a directory, keyed by file stem."""
    db_dir = Path(db_dir)
    schemas = {}
    for path in sorted(db_dir.glob("*.sqlite")):
        schema = load_schema(path)
        schemas[schema.db_id] = schema
    return schemas


def load_dataset(
    path: Path | str,
    db_dir: Optional[Path | str] = None,
    split: str = "train",
) -> Dataset:
    """Load a JSON record file plus its sibling database directory.

    Records keep the source knowledge text verbatim; a missing or null
    evidence field, or one of whitespace alone, becomes None, never an empty
    or blank string.
    """
    path = Path(path)
    if db_dir is None:
        db_dir = path.parent / "databases"
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    # UnicodeDecodeError: bytes that are not UTF-8
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    if not isinstance(raw, list):
        raise ParseError(f"{path}: expected a JSON array of records")

    schemas = discover_schemas(db_dir) if Path(db_dir).is_dir() else {}
    records = []
    seen_ids = set()
    for i, rec in enumerate(raw):
        if not isinstance(rec, dict) or "question" not in rec or "db_id" not in rec:
            raise ParseError(f"{path}: record {i} missing 'question' or 'db_id'")
        qid = str(rec.get("question_id", i))
        if qid in seen_ids:
            raise ParseError(f"{path}: duplicate record id {qid!r}")
        seen_ids.add(qid)
        text = rec["question"]
        if not isinstance(text, str) or not text.strip():
            raise ParseError(f"{path}: record {qid} has an empty question")
        db_id = str(rec["db_id"])
        if db_id not in schemas:
            raise SchemaRefError(f"{path}: record {qid} references unknown db_id {db_id!r}")
        evidence = rec.get("evidence")
        if evidence is not None and not isinstance(evidence, str):
            raise ParseError(f"{path}: record {qid} evidence must be a string")
        if evidence is not None and not evidence.strip():
            evidence = None
        gold_sql = rec.get("SQL")
        if gold_sql is not None and not isinstance(gold_sql, str):
            raise ParseError(f"{path}: record {qid} SQL must be a string or null")
        if gold_sql is not None and not gold_sql.strip():  # it would run as a match for no rows
            raise ParseError(f"{path}: record {qid} SQL is empty or whitespace only")
        records.append(
            ExampleTriplet(
                query=Query(id=qid, text=text, db_id=db_id),
                schema_ref=db_id,
                knowledge=evidence,
                gold_sql=gold_sql,
            )
        )
    return Dataset(records=tuple(records), schemas=schemas, split=split)


def _render_lines(schema: DatabaseSchema, with_fks: bool) -> list[str]:
    lines = []
    for table in schema.tables:
        cols = [f"{_shown(col.name)} {col.type}".rstrip() for col in table.columns]
        lines.append(f"Table {_shown(table.name)} ({', '.join(cols)})")
    if with_fks and schema.foreign_keys:
        lines.append("Foreign keys:")
        for fk in schema.foreign_keys:
            source, target = _shown(fk.table), _shown(fk.ref_table)
            lines.append(f"  {source}.{_shown(fk.column)} -> {target}.{_shown(fk.ref_column)}")
    return lines


def render_schema(schema: DatabaseSchema, budget: int = 1_000_000) -> str:
    """Render a schema as deterministic prompt text within a character budget.

    A table or column name that is not a plain [A-Za-z_][A-Za-z0-9_]* name,
    or that SQLite does not read bare (a keyword such as `order`), is
    written in double quotes, each `"` doubled. When over budget, drops
    the foreign-key lines; as a last resort the text is hard-truncated to
    the budget.
    """
    if budget < 0:
        raise ValueError("budget must be >= 0")
    if budget == 0:
        return ""
    text = ""
    for with_fks in (True, False):
        text = "\n".join(_render_lines(schema, with_fks))
        if len(text) <= budget:
            return text
    return text[:budget]
