import json
import re
import sqlite3
from pathlib import Path

import pytest

from sqlkb.dataset import (
    Column,
    DatabaseSchema,
    Table,
    ForeignKey,
    load_dataset,
    load_schema,
    render_schema,
    save_dataset,
)
from sqlkb.errors import (
    DatabaseFileError,
    ParseError,
    SchemaRefError,
    UnsupportedEngineError,
)


def test_load_toy_dataset(train_ds):
    assert len(train_ds.records) == 20
    assert set(train_ds.schemas) == {"company", "clinic"}
    assert all(r.query.text for r in train_ds.records)


def test_empty_records_file(tmp_path, toy_dir):
    path = tmp_path / "empty.json"
    path.write_text("[]")
    ds = load_dataset(path, toy_dir / "databases")
    assert ds.records == ()
    assert set(ds.schemas) == {"company", "clinic"}


def test_bird_style_record_maps_evidence_to_knowledge(tmp_path, toy_dir):
    path = tmp_path / "one.json"
    path.write_text(
        json.dumps(
            [
                {
                    "question": "How many offices?",
                    "evidence": "  offices are rows of  location ",
                    "db_id": "company",
                    "SQL": "SELECT COUNT(*) FROM location",
                }
            ]
        )
    )
    ds = load_dataset(path, toy_dir / "databases")
    rec = ds.records[0]
    # knowledge preserved verbatim, no normalization at ingest
    assert rec.knowledge == "  offices are rows of  location "
    assert rec.gold_sql == "SELECT COUNT(*) FROM location"


def test_missing_evidence_becomes_none(tmp_path, toy_dir):
    path = tmp_path / "noev.json"
    path.write_text(
        json.dumps(
            [
                {"question": "a question here", "db_id": "company"},
                {"question": "another one", "db_id": "company", "evidence": ""},
            ]
        )
    )
    ds = load_dataset(path, toy_dir / "databases")
    assert ds.records[0].knowledge is None
    assert ds.records[1].knowledge is None


def test_unknown_db_id_raises(tmp_path, toy_dir):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps([{"question": "q", "db_id": "nonexistent"}]))
    with pytest.raises(SchemaRefError):
        load_dataset(path, toy_dir / "databases")


def test_duplicate_ids_raise(tmp_path, toy_dir):
    path = tmp_path / "dup.json"
    rec = {"question_id": "x", "question": "q", "db_id": "company"}
    path.write_text(json.dumps([rec, rec]))
    with pytest.raises(ParseError):
        load_dataset(path, toy_dir / "databases")


def test_malformed_json_raises(tmp_path, toy_dir):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ParseError):
        load_dataset(path, toy_dir / "databases")


def test_round_trip(train_ds, tmp_path, toy_dir):
    out = tmp_path / "roundtrip.json"
    save_dataset(train_ds, out)
    again = load_dataset(out, toy_dir / "databases")
    assert again.records == train_ds.records


def test_load_schema_foreign_keys(toy_dir):
    schema = load_schema(toy_dir / "databases" / "company.sqlite")
    fks = {(f.table, f.column, f.ref_table, f.ref_column) for f in schema.foreign_keys}
    assert ("employee", "locationID", "location", "locationID") in fks
    assert ("employee", "positionID", "position", "positionID") in fks
    names = [t.name for t in schema.tables]
    assert names == sorted(names)


def _schema_of(tmp_path, *statements):
    path = tmp_path / "fk.sqlite"
    con = sqlite3.connect(path)
    for statement in statements:
        con.execute(statement)
    con.commit()
    con.close()
    return load_schema(path)


def _fk_targets(schema):
    return {(f.table, f.column): (f.ref_table, f.ref_column) for f in schema.foreign_keys}


def test_load_schema_implicit_fk_to_later_table(tmp_path):
    # "account" is read before "zone", which it references without a column
    schema = _schema_of(
        tmp_path,
        "CREATE TABLE zone (code TEXT PRIMARY KEY, label TEXT)",
        "CREATE TABLE account (id INTEGER PRIMARY KEY, zone REFERENCES zone)",
    )
    assert _fk_targets(schema) == {("account", "zone"): ("zone", "code")}


def test_load_schema_implicit_fk_uses_primary_key(tmp_path):
    schema = _schema_of(
        tmp_path,
        "CREATE TABLE account (name TEXT, id INTEGER PRIMARY KEY)",
        "CREATE TABLE pair (b TEXT, a TEXT, PRIMARY KEY (a, b))",
        "CREATE TABLE plain (x TEXT)",
        "CREATE TABLE txn (acct REFERENCES account, pa TEXT, pb TEXT, loose REFERENCES plain,"
        " gone REFERENCES missing, FOREIGN KEY (pa, pb) REFERENCES pair)",
    )
    assert _fk_targets(schema) == {
        ("txn", "acct"): ("account", "id"),
        ("txn", "pa"): ("pair", "a"),  # by position in the composite key
        ("txn", "pb"): ("pair", "b"),
        ("txn", "loose"): ("plain", ""),  # no primary key
        ("txn", "gone"): ("missing", ""),  # no such table
    }


def test_load_schema_reads_a_table_name_with_a_quote(tmp_path):
    """A `"` in a table name is doubled in the catalog queries, also for the
    parent of a foreign key that names no column."""
    schema = _schema_of(
        tmp_path,
        'CREATE TABLE "odd""name" (code TEXT PRIMARY KEY, label TEXT)',
        'CREATE TABLE child (id INTEGER, ref REFERENCES "odd""name")',
    )
    assert [(t.name, [c.name for c in t.columns]) for t in schema.tables] == [
        ("child", ["id", "ref"]),
        ('odd"name', ["code", "label"]),
    ]
    assert _fk_targets(schema) == {("child", "ref"): ('odd"name', "code")}


def test_non_string_sql_is_parse_error(tmp_path, toy_dir):
    path = tmp_path / "sql.json"
    records = [
        {"question_id": "a", "question": "no gold", "db_id": "company", "SQL": None},
        {"question_id": "b", "question": "numeric gold", "db_id": "company", "SQL": 5},
    ]
    path.write_text(json.dumps(records[:1]))
    assert load_dataset(path, toy_dir / "databases").records[0].gold_sql is None
    path.write_text(json.dumps(records))
    with pytest.raises(ParseError, match="record b SQL"):
        load_dataset(path, toy_dir / "databases")


def test_load_schema_empty_database(tmp_path):
    path = tmp_path / "empty.sqlite"
    sqlite3.connect(path).close()
    schema = load_schema(path)
    assert schema.tables == ()


def test_load_schema_non_sqlite(tmp_path):
    path = tmp_path / "bogus.sqlite"
    path.write_bytes(b"definitely not a database file" * 10)
    with pytest.raises(UnsupportedEngineError):
        load_schema(path)


def test_load_schema_reads_only_the_magic(tmp_path, toy_dir, monkeypatch):
    """The engine check reads the file's first 16 bytes, never the whole file."""

    def whole_file(self):
        raise AssertionError(f"{self} was read whole")

    monkeypatch.setattr(Path, "read_bytes", whole_file)
    assert load_schema(toy_dir / "databases" / "company.sqlite").tables
    path = tmp_path / "bogus.sqlite"
    with open(path, "wb") as fh:
        fh.write(b"SQLite format 2\x00" + bytes(4096))
    with pytest.raises(UnsupportedEngineError):
        load_schema(path)


def test_load_schema_missing_file(tmp_path):
    with pytest.raises(DatabaseFileError):
        load_schema(tmp_path / "nope.sqlite")


def test_load_schema_corrupt_sqlite(tmp_path):
    path = tmp_path / "corrupt.sqlite"
    con = sqlite3.connect(path)
    con.execute("CREATE TABLE t (a)")
    con.commit()
    con.close()
    data = bytearray(path.read_bytes())
    data[100:] = b"\xff" * (len(data) - 100)  # keep the magic, wreck the rest
    path.write_bytes(bytes(data))
    with pytest.raises(DatabaseFileError):
        load_schema(path)


def test_render_schema_golden(toy_dir, goldens):
    schema = load_schema(toy_dir / "databases" / "company.sqlite")
    expected = (goldens / "schema_company.txt").read_text().rstrip("\n")
    assert render_schema(schema) == expected


def test_render_schema_budget_zero(train_ds):
    assert render_schema(train_ds.schemas["company"], 0) == ""


def test_render_schema_deterministic(train_ds):
    schema = train_ds.schemas["clinic"]
    assert render_schema(schema) == render_schema(schema)


# A name as render_schema writes it: plain, or double-quoted with `"` doubled.
_NAME = r'(?:"(?:[^"]|"")*"|[A-Za-z_][A-Za-z0-9_]*)'


def test_render_schema_quotes_names_that_need_it(tmp_path):
    """BIRD-style names (spaces, parentheses, `%`, a `"`, a comma) and SQLite
    keywords (`order`, `group`, `select`) are written quoted; each rendered
    name, pasted into SELECT <col> FROM <table>, reads that column. Plain
    names stay bare."""
    path = tmp_path / "schools.sqlite"
    con = sqlite3.connect(path)
    con.executescript(
        'CREATE TABLE frpm (CDSCode TEXT PRIMARY KEY, "Free Meal Count (K-12)" REAL,'
        ' "Percent (%) Eligible" REAL, "order" INTEGER);'
        'CREATE TABLE "sat scores" (cds TEXT REFERENCES frpm (CDSCode), "odd""name" INTEGER);'
        'CREATE TABLE "odd""name" ("a, b" TEXT, "sat id" TEXT REFERENCES "sat scores" (cds));'
        'CREATE TABLE "group" ("select" TEXT REFERENCES frpm ("order"));'
        # one row whose every value names its table and column
        "INSERT INTO frpm VALUES ('frpm|CDSCode', 'frpm|Free Meal Count (K-12)',"
        " 'frpm|Percent (%) Eligible', 'frpm|order');"
        """INSERT INTO "sat scores" VALUES ('sat scores|cds', 'sat scores|odd"name');"""
        """INSERT INTO "odd""name" VALUES ('odd"name|a, b', 'odd"name|sat id');"""
        """INSERT INTO "group" VALUES ('group|select');"""
    )
    schema = load_schema(path)
    text = render_schema(schema)
    assert text == "\n".join([
        'Table frpm (CDSCode TEXT, "Free Meal Count (K-12)" REAL, "Percent (%) Eligible" REAL,'
        ' "order" INTEGER)',
        'Table "group" ("select" TEXT)',
        'Table "odd""name" ("a, b" TEXT, "sat id" TEXT)',
        'Table "sat scores" (cds TEXT, "odd""name" INTEGER)',
        "Foreign keys:",
        '  "group"."select" -> frpm."order"',
        '  "odd""name"."sat id" -> "sat scores".cds',
        '  "sat scores".cds -> frpm.CDSCode',
    ])

    def read(table, column):
        # A double-quoted name that is no column would read as a string
        # literal; the value shows that the column itself was read.
        return con.execute(f"SELECT {column} FROM {table}").fetchall()

    lines = text.splitlines()
    column = rf"({_NAME}) [A-Z]+"
    for table, line in zip(schema.tables, lines):
        name, body = re.fullmatch(rf"Table ({_NAME}) \((.*)\)", line).groups()
        assert re.fullmatch(rf"{column}(?:, {column})*", body)
        shown = re.findall(column, body)
        assert [read(name, c) for c in shown] == [
            [(f"{table.name}|{c.name}",)] for c in table.columns
        ]
    for fk, line in zip(schema.foreign_keys, lines[len(schema.tables) + 1 :]):
        names = re.fullmatch(rf"  ({_NAME})\.({_NAME}) -> ({_NAME})\.({_NAME})", line).groups()
        assert read(*names[:2]) == [(f"{fk.table}|{fk.column}",)]
        assert read(*names[2:]) == [(f"{fk.ref_table}|{fk.ref_column}",)]
    con.close()


def test_truncation_drops_fks_second():
    schema = DatabaseSchema(
        db_id="d",
        tables=(
            Table("t", (Column("a", "INTEGER"), Column("b", "TEXT"))),
            Table("u", (Column("c", "REAL"),)),
        ),
        foreign_keys=(ForeignKey("t", "a", "u", "c"),),
    )
    full = render_schema(schema)
    assert "Foreign keys:" in full
    smaller = render_schema(schema, len(full) - 1)
    assert smaller == "Table t (a INTEGER, b TEXT)\nTable u (c REAL)"
