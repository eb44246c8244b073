"""Seeded, BIRD-shaped synthetic inputs for the benchmark workloads.

The generator scales the two `sqlkb.toy` schemas (company, clinic) to N
SQLite databases with foreign-key closure and a configurable number of rows
per fact table, writes train/test question records with evidence and gold
SQL, and optionally a supplied knowledge base written through `save_kb`.
The same seed always yields byte-identical files.
"""

from __future__ import annotations

import json
import random
import sqlite3
from dataclasses import dataclass
from pathlib import Path

from sqlkb import knowledge_base as kbm
from sqlkb import toy

STATES = [
    ("Alabama", "AL"), ("Alaska", "AK"), ("Arizona", "AZ"), ("Arkansas", "AR"),
    ("California", "CA"), ("Colorado", "CO"), ("Connecticut", "CT"),
    ("Delaware", "DE"), ("Florida", "FL"), ("Georgia", "GA"), ("Hawaii", "HI"),
    ("Idaho", "ID"), ("Illinois", "IL"), ("Indiana", "IN"), ("Iowa", "IA"),
    ("Kansas", "KS"), ("Kentucky", "KY"), ("Louisiana", "LA"), ("Maine", "ME"),
    ("Maryland", "MD"), ("Massachusetts", "MA"), ("Michigan", "MI"),
    ("Minnesota", "MN"), ("Mississippi", "MS"), ("Missouri", "MO"),
    ("Montana", "MT"), ("Nebraska", "NE"), ("Nevada", "NV"),
    ("New Hampshire", "NH"), ("New Jersey", "NJ"), ("New Mexico", "NM"),
    ("New York", "NY"), ("North Carolina", "NC"), ("North Dakota", "ND"),
    ("Ohio", "OH"), ("Oklahoma", "OK"), ("Oregon", "OR"), ("Pennsylvania", "PA"),
    ("Rhode Island", "RI"), ("South Carolina", "SC"), ("South Dakota", "SD"),
    ("Tennessee", "TN"), ("Texas", "TX"), ("Utah", "UT"), ("Vermont", "VT"),
    ("Virginia", "VA"), ("Washington", "WA"), ("West Virginia", "WV"),
    ("Wisconsin", "WI"), ("Wyoming", "WY"),
]
TITLES = [
    "Account Representative", "Trainee", "Manager", "Analyst", "Engineer",
    "Director", "Clerk", "Consultant", "Technician", "Supervisor",
    "Accountant", "Designer",
]
PERFORMANCE = ["Good", "Average", "Poor"]
NAMES = [
    "Alice", "Bob", "Cara", "Dan", "Eve", "Frank", "Gina", "Hank", "Ivy",
    "Jon", "Kim", "Liam", "Mia", "Ned", "Olga", "Pete", "Quinn", "Rosa",
    "Sam", "Tara", "Uma", "Vic", "Wes", "Xena", "Yuri", "Zoe",
]
SEXES = [("female", "F"), ("male", "M")]
STATES_PER_DB = 20

# Vocabulary for the filler entries of a supplied KB: evidence-shaped
# sentences ("<phrase> refers to <column> <op> <value>") whose tokens overlap
# the question vocabulary, so retrieval scores are not trivially separable.
_FILLER_WORDS = sorted({
    w.lower()
    for phrase in [n for n, _ in STATES] + TITLES + PERFORMANCE + NAMES
    for w in phrase.split()
} | {
    "employees", "salary", "minimum", "highest", "average", "patients",
    "born", "albumin", "glucose", "white", "blood", "cell", "count", "level",
    "office", "position", "performance", "job", "lab", "tests", "normal",
    "abnormal", "between", "above", "below", "after", "before", "title",
    "state", "year", "range", "total", "number", "people", "record", "value",
})
_FILLER_COLUMNS = [
    "salary", "minsalary", "state", "positiontitle", "performance", "name",
    "ALB", "GLU", "WBC", "SEX", "Birthday", "ID",
]
_FILLER_OPS = ["=", ">", "<", ">=", "<=", "<>"]


@dataclass(frozen=True)
class Record:
    question: str
    evidence: str
    sql: str
    db_id: str


def _insert(con: sqlite3.Connection, table: str, rows: list[tuple]) -> None:
    marks = ", ".join("?" * len(rows[0]))
    con.executemany(f"INSERT INTO {table} VALUES ({marks})", rows)


def _create(path: Path, ddl: list[str], tables: dict[str, list[tuple]]) -> None:
    con = sqlite3.connect(path)
    try:
        con.execute("PRAGMA journal_mode=OFF")
        for stmt in ddl:
            con.execute(stmt)
        for table, rows in tables.items():
            _insert(con, table, rows)
        con.commit()
    finally:
        con.close()


def build_company(path: Path, rng: random.Random, rows: int) -> dict:
    """A scaled `toy` company database; every employee row references an
    existing location and position (FK closure)."""
    states = rng.sample(STATES, STATES_PER_DB)
    positions = [
        (i + 1, title, 15000 + 2500 * i + rng.randrange(0, 2000, 10))
        for i, title in enumerate(TITLES)
    ]
    employees = [
        (
            i + 1,
            f"{rng.choice(NAMES)} {i + 1}",
            rng.randint(1, len(states)),
            rng.randint(1, len(TITLES)),
            rng.choice(PERFORMANCE),
            rng.randrange(20000, 120000, 10),
        )
        for i in range(rows)
    ]
    _create(path, toy.COMPANY_DDL, {
        "position": positions,
        "location": [(i + 1, code) for i, (_, code) in enumerate(states)],
        "employee": employees,
    })
    return {"states": states}


def build_clinic(path: Path, rng: random.Random, rows: int) -> dict:
    """A scaled `toy` clinic database; every lab row references an existing
    patient (FK closure)."""
    patients = [
        (
            i + 1,
            f"{rng.randint(1940, 2005)}-{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}",
            rng.choice("FM"),
        )
        for i in range(rows)
    ]
    labs = [
        (
            rng.randint(1, rows),
            round(rng.uniform(2.0, 6.5), 1),
            round(rng.uniform(60.0, 200.0), 1),
            round(rng.uniform(2.0, 12.0), 1),
        )
        for _ in range(rows)
    ]
    _create(path, toy.CLINIC_DDL, {"Patient": patients, "Laboratory": labs})
    return {}


_JOIN_LOC = (
    "FROM employee AS T1 INNER JOIN location AS T2 ON T1.locationID = T2.locationID"
)
_JOIN_POS = (
    "FROM employee AS T1 INNER JOIN position AS T2 ON T1.positionID = T2.positionID"
)
_JOIN_LAB = "FROM Patient AS T1 INNER JOIN Laboratory AS T2 ON T1.ID = T2.ID"


def _company_question(rng: random.Random, params: dict) -> tuple[list[str], str, str]:
    name, code = rng.choice(params["states"])
    loc = f"{name} refers to state = '{code}'"
    title = rng.choice(TITLES)
    perf = rng.choice(PERFORMANCE)
    perf_ev = f"{perf.lower()} job performance refers to performance = '{perf}'"
    kind = rng.randrange(6)
    if kind == 0:
        return ([f"How many employees work in {name}?",
                 f"Count the employees based in {name}.",
                 f"What is the number of staff at the {name} office?"], loc,
                f"SELECT COUNT(*) {_JOIN_LOC} WHERE T2.state = '{code}'")
    if kind == 1:
        return ([f"How many employees in {name} have a {perf.lower()} job performance?",
                 f"Among the staff in {name}, how many perform at a {perf.lower()} level?"],
                f"{perf_ev}; {loc}",
                f"SELECT COUNT(*) {_JOIN_LOC} WHERE T2.state = '{code}' "
                f"AND T1.performance = '{perf}'")
    if kind == 2:
        n = rng.randrange(80000, 119000, 500)
        return ([f"List the names of employees in {name} earning more than {n}.",
                 f"Which employees of the {name} office are paid above {n}?"],
                f"earning more than {n} refers to salary > {n}; {loc}",
                f"SELECT T1.name {_JOIN_LOC} WHERE T2.state = '{code}' AND T1.salary > {n}")
    if kind == 3:
        return ([f"How many employees work as {title}?",
                 f"Count the staff whose position is {title}.",
                 f"How many people hold the {title} title?"],
                f"{title} is a position title",
                f"SELECT COUNT(*) {_JOIN_POS} WHERE T2.positiontitle = '{title}'")
    if kind == 4:
        n = rng.randrange(30000, 110000, 1000)
        return ([f"How many {title} employees earn less than {n}?",
                 f"Among {title} staff, how many are paid below {n}?"],
                f"earning less than {n} refers to salary < {n}; "
                f"{title} is a position title",
                f"SELECT COUNT(*) {_JOIN_POS} WHERE T2.positiontitle = '{title}' "
                f"AND T1.salary < {n}")
    return ([f"What is the highest salary of employees in {name}?",
             f"How much does the best-paid employee in {name} earn?"],
            f"highest salary refers to MAX(salary); {loc}",
            f"SELECT MAX(T1.salary) {_JOIN_LOC} WHERE T2.state = '{code}'")


def _clinic_question(rng: random.Random, params: dict) -> tuple[list[str], str, str]:
    year = rng.randint(1940, 2004)
    word, sex = rng.choice(SEXES)
    kind = rng.randrange(6)
    if kind == 0:
        return ([f"How many patients were born in {year}?",
                 f"Count the patients whose birth year is {year}.",
                 f"What is the number of patients born during {year}?"],
                f"born in {year} refers to STRFTIME('%Y', Birthday) = '{year}'",
                f"SELECT COUNT(*) FROM Patient WHERE STRFTIME('%Y', Birthday) = '{year}'")
    if kind == 1:
        return ([f"How many {word} patients were born after {year}?",
                 f"Count the {word} patients younger than the {year} cohort."],
                f"{word} refers to SEX = '{sex}'; born after {year} refers to "
                f"STRFTIME('%Y', Birthday) > '{year}'",
                f"SELECT COUNT(*) FROM Patient WHERE SEX = '{sex}' "
                f"AND STRFTIME('%Y', Birthday) > '{year}'")
    if kind == 2:
        x = rng.randrange(200, 400, 5) / 100
        return ([f"How many lab tests show an albumin level below {x}?",
                 f"Count the laboratory results with albumin under {x}."],
                f"albumin level below {x} refers to ALB < {x}",
                f"SELECT COUNT(*) FROM Laboratory WHERE ALB < {x}")
    if kind == 3:
        a = rng.randrange(600, 1990) / 10
        b = round(a + 1.0, 1)
        return ([f"List the IDs of patients whose glucose is between {a} and {b}.",
                 f"Which patients have a glucose reading from {a} to {b}?"],
                f"glucose between {a} and {b} refers to GLU BETWEEN {a} AND {b}",
                f"SELECT ID FROM Laboratory WHERE GLU BETWEEN {a} AND {b}")
    if kind == 4:
        return ([f"What is the average glucose level of {word} patients born in {year}?",
                 f"On average, how high is glucose for {word} patients of {year}?"],
                f"{word} refers to SEX = '{sex}'; born in {year} refers to "
                f"STRFTIME('%Y', Birthday) = '{year}'",
                f"SELECT AVG(T2.GLU) {_JOIN_LAB} WHERE T1.SEX = '{sex}' "
                f"AND STRFTIME('%Y', T1.Birthday) = '{year}'")
    w = rng.randrange(30, 115) / 10
    return ([f"How many lab tests show a white blood cell count above {w}?",
             f"Count the lab results whose WBC exceeds {w}."],
            f"white blood cell count above {w} refers to WBC > {w}",
            f"SELECT COUNT(*) FROM Laboratory WHERE WBC > {w}")


_TEMPLATES = {
    "company": (build_company, _company_question),
    "clinic": (build_clinic, _clinic_question),
}


def _records(
    rng: random.Random, dbs: list[tuple[str, str, dict]], n: int, seen: set[str]
) -> list[Record]:
    """n records spread round-robin over the databases; question texts are
    unique across every split that shares `seen`."""
    out = []
    for i in range(n):
        db_id, template, params = dbs[i % len(dbs)]
        make = _TEMPLATES[template][1]
        while True:
            phrasings, evidence, sql = make(rng, params)
            question = rng.choice(phrasings)
            if question not in seen:
                break
        seen.add(question)
        out.append(Record(question, evidence, sql, db_id))
    rng.shuffle(out)
    return out


def _write_records(path: Path, records: list[Record], prefix: str) -> None:
    rows = [
        {
            "question_id": f"{prefix}{i:05d}",
            "question": r.question,
            "evidence": r.evidence,
            "SQL": r.sql,
            "db_id": r.db_id,
        }
        for i, r in enumerate(records)
    ]
    path.write_text(json.dumps(rows, indent=1) + "\n")


def _filler(rng: random.Random) -> str:
    words = " ".join(rng.choice(_FILLER_WORDS) for _ in range(rng.randint(2, 5)))
    column = rng.choice(_FILLER_COLUMNS)
    value = rng.randrange(0, 100000)
    return f"{words} refers to {column} {rng.choice(_FILLER_OPS)} {value}"


def write_supplied_kb(
    path: Path, rng: random.Random, train: list[Record], test: list[Record], size: int
) -> None:
    """A KB of exactly `size` entries: the train evidence (as `init_kb` seeds
    it), every test evidence (so each test question has a labeled relevant
    entry), then evidence-shaped filler entries from earlier builds."""
    kb = kbm.KnowledgeBase(build_config=kbm.KbBuildConfig())
    for i, r in enumerate(train):
        kb.add(kbm.KnowledgeEntry.from_text(r.evidence, "dataset", r.db_id, f"tr{i:05d}"))
    for r in test:
        kb.add(kbm.KnowledgeEntry.from_text(r.evidence, "generated", r.db_id, iteration=1))
    db_ids = sorted({r.db_id for r in train})
    while len(kb) < size:
        kb.add(kbm.KnowledgeEntry.from_text(
            _filler(rng), "generated", rng.choice(db_ids), iteration=rng.randint(1, 5)
        ))
    kbm.save_kb(kb, path)


def generate(
    target: Path,
    seed: int,
    n_dbs: int,
    rows: int,
    n_train: int,
    n_test: int,
    kb_entries: int = 0,
) -> Path:
    """Write databases/, train.json, test.json and, when kb_entries > 0,
    supplied_kb.jsonl under target."""
    rng = random.Random(f"sqlkb-bench:{seed}")
    db_dir = target / "databases"
    db_dir.mkdir(parents=True, exist_ok=True)
    dbs = []
    for i in range(n_dbs):
        template = "company" if i % 2 == 0 else "clinic"
        db_id = f"{template}_{i:02d}"
        params = _TEMPLATES[template][0](db_dir / f"{db_id}.sqlite", rng, rows)
        dbs.append((db_id, template, params))
    seen: set[str] = set()
    train = _records(rng, dbs, n_train, seen)
    test = _records(rng, dbs, n_test, seen)
    _write_records(target / "train.json", train, "tr")
    _write_records(target / "test.json", test, "te")
    if kb_entries:
        write_supplied_kb(target / "supplied_kb.jsonl", rng, train, test, kb_entries)
    return target
