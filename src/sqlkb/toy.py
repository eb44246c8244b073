"""Bundled toy benchmark: two small SQLite databases plus train/test records.

Used by the test suite and handy for smoke-testing the CLI end to end
with the mock LLM backend: `python -m sqlkb.toy <dir>` writes the files.
"""

from __future__ import annotations

import json
import sqlite3
import sys
from pathlib import Path

COMPANY_DDL = [
    "CREATE TABLE position (positionID INTEGER PRIMARY KEY, positiontitle TEXT, minsalary INTEGER)",
    "CREATE TABLE location (locationID INTEGER PRIMARY KEY, state TEXT)",
    """CREATE TABLE employee (
        employeeID INTEGER PRIMARY KEY,
        name TEXT,
        locationID INTEGER,
        positionID INTEGER,
        performance TEXT,
        salary INTEGER,
        FOREIGN KEY (locationID) REFERENCES location(locationID),
        FOREIGN KEY (positionID) REFERENCES position(positionID)
    )""",
]

COMPANY_ROWS = {
    "position": [
        (1, "Account Representative", 25000),
        (2, "Trainee", 18000),
        (3, "Manager", 50000),
    ],
    "location": [(1, "NY"), (2, "CA"), (3, "TX")],
    "employee": [
        (1, "Alice", 1, 1, "Good", 52000),
        (2, "Bob", 1, 2, "Good", 28000),
        (3, "Cara", 1, 3, "Poor", 90000),
        (4, "Dan", 2, 1, "Good", 61000),
        (5, "Eve", 2, 2, "Average", 30000),
        (6, "Frank", 3, 3, "Good", 88000),
        (7, "Gina", 3, 1, "Poor", 45000),
        (8, "Hank", 1, 2, "Average", 27000),
    ],
}

CLINIC_DDL = [
    "CREATE TABLE Patient (ID INTEGER PRIMARY KEY, Birthday TEXT, SEX TEXT)",
    """CREATE TABLE Laboratory (
        ID INTEGER,
        ALB REAL,
        GLU REAL,
        WBC REAL,
        FOREIGN KEY (ID) REFERENCES Patient(ID)
    )""",
]

CLINIC_ROWS = {
    "Patient": [
        (1, "1982-05-09", "F"),
        (2, "1982-11-20", "M"),
        (3, "1975-03-14", "F"),
        (4, "1990-07-01", "M"),
    ],
    "Laboratory": [
        (1, 3.9, 85.0, 5.2),
        (2, 5.8, 120.0, 10.1),
        (3, 4.4, 95.0, 4.0),
        (4, 2.9, 70.0, 3.2),
    ],
}

TRAIN_RECORDS = [
    # company
    {
        "question": "How many employees work in California?",
        "evidence": "California refers to state = 'CA'",
        "SQL": "SELECT COUNT(*) FROM employee AS T1 INNER JOIN location AS T2 ON T1.locationID = T2.locationID WHERE T2.state = 'CA'",
        "db_id": "company",
    },
    {
        "question": "How many employees have a poor job performance?",
        "evidence": "poor job performance refers to performance = 'Poor'",
        "SQL": "SELECT COUNT(*) FROM employee WHERE performance = 'Poor'",
        "db_id": "company",
    },
    {
        "question": "List the names of employees working in Texas.",
        "evidence": "Texas refers to state = 'TX'",
        "SQL": "SELECT T1.name FROM employee AS T1 INNER JOIN location AS T2 ON T1.locationID = T2.locationID WHERE T2.state = 'TX'",
        "db_id": "company",
    },
    {
        "question": "What is the highest minimum salary among all positions?",
        "evidence": "highest minimum salary refers to MAX(minsalary)",
        "SQL": "SELECT MAX(minsalary) FROM position",
        "db_id": "company",
    },
    {
        "question": "Which position has the highest minimum salary?",
        "evidence": "highest minimum salary refers to MAX(minsalary)",
        "SQL": "SELECT positiontitle FROM position ORDER BY minsalary DESC LIMIT 1",
        "db_id": "company",
    },
    {
        "question": "How many employees are Trainees?",
        "evidence": "Trainee is a position title",
        "SQL": "SELECT COUNT(*) FROM employee AS T1 INNER JOIN position AS T2 ON T1.positionID = T2.positionID WHERE T2.positiontitle = 'Trainee'",
        "db_id": "company",
    },
    {
        "question": "What is the average salary of employees with good job performance?",
        "evidence": "good job performance refers to performance = 'Good'",
        "SQL": "SELECT AVG(salary) FROM employee WHERE performance = 'Good'",
        "db_id": "company",
    },
    {
        "question": "How many offices are there in each state?",
        "evidence": "each state refers to GROUP BY state",
        "SQL": "SELECT state, COUNT(*) FROM location GROUP BY state",
        "db_id": "company",
    },
    {
        "question": "List employee names earning more than 50000.",
        "evidence": "earning more than 50000 refers to salary > 50000",
        "SQL": "SELECT name FROM employee WHERE salary > 50000",
        "db_id": "company",
    },
    {
        "question": "How many employees work at the New York office?",
        "evidence": "New York refers to state = 'NY'",
        "SQL": "SELECT COUNT(*) FROM employee AS T1 INNER JOIN location AS T2 ON T1.locationID = T2.locationID WHERE T2.state = 'NY'",
        "db_id": "company",
    },
    {
        "question": "What is the minimum salary of the Manager position?",
        "evidence": "Manager is a position title",
        "SQL": "SELECT minsalary FROM position WHERE positiontitle = 'Manager'",
        "db_id": "company",
    },
    {
        "question": "List the states that have an office.",
        "evidence": "states with an office refers to DISTINCT state",
        "SQL": "SELECT DISTINCT state FROM location",
        "db_id": "company",
    },
    # clinic
    {
        "question": "How many patients were born in 1982?",
        "evidence": "born in 1982 refers to STRFTIME('%Y', Birthday) = '1982'",
        "SQL": "SELECT COUNT(*) FROM Patient WHERE STRFTIME('%Y', Birthday) = '1982'",
        "db_id": "clinic",
    },
    {
        "question": "How many patients have abnormal albumin levels?",
        "evidence": "abnormal albumin refers to ALB < 3.5 or ALB > 5.5",
        "SQL": "SELECT COUNT(*) FROM Laboratory WHERE ALB < 3.5 OR ALB > 5.5",
        "db_id": "clinic",
    },
    {
        "question": "List the IDs of patients whose glucose is within the normal range.",
        "evidence": "glucose is within normal range refers to GLU between 70 and 100 mg/dL",
        "SQL": "SELECT ID FROM Laboratory WHERE GLU BETWEEN 70 AND 100",
        "db_id": "clinic",
    },
    {
        "question": "How many female patients are there?",
        "evidence": "female refers to SEX = 'F'",
        "SQL": "SELECT COUNT(*) FROM Patient WHERE SEX = 'F'",
        "db_id": "clinic",
    },
    {
        "question": "How many patients have an abnormal white blood cell count?",
        "evidence": "abnormal white blood cell count refers to WBC <= 3.5 or WBC >= 9.0",
        "SQL": "SELECT COUNT(*) FROM Laboratory WHERE WBC <= 3.5 OR WBC >= 9.0",
        "db_id": "clinic",
    },
    {
        "question": "What is the albumin level of the oldest patient?",
        "evidence": "oldest patient refers to MIN(Birthday)",
        "SQL": "SELECT T2.ALB FROM Patient AS T1 INNER JOIN Laboratory AS T2 ON T1.ID = T2.ID ORDER BY T1.Birthday ASC LIMIT 1",
        "db_id": "clinic",
    },
    {
        "question": "List the birthdays of patients with normal albumin.",
        "evidence": "normal albumin refers to ALB between 3.5 and 5.5",
        "SQL": "SELECT T1.Birthday FROM Patient AS T1 INNER JOIN Laboratory AS T2 ON T1.ID = T2.ID WHERE T2.ALB BETWEEN 3.5 AND 5.5",
        "db_id": "clinic",
    },
    {
        "question": "How many male patients were born after 1980?",
        "evidence": "male refers to SEX = 'M'; born after 1980 refers to STRFTIME('%Y', Birthday) > '1980'",
        "SQL": "SELECT COUNT(*) FROM Patient WHERE SEX = 'M' AND STRFTIME('%Y', Birthday) > '1980'",
        "db_id": "clinic",
    },
]

TEST_RECORDS = [
    {
        "question": "Which position has a lower minimum salary, Account Representative or Trainee?",
        "evidence": "lower minimum salary refers to MIN(minsalary)",
        "SQL": "SELECT positiontitle FROM position WHERE positiontitle = 'Account Representative' OR positiontitle = 'Trainee' ORDER BY minsalary ASC LIMIT 1",
        "db_id": "company",
    },
    {
        "question": "Among the employees working at the office in New York, how many of them have a good job performance?",
        "evidence": "New York refers to state = 'NY'; good job performance refers to performance = 'Good'",
        "SQL": "SELECT COUNT(*) FROM employee AS T1 INNER JOIN location AS T2 ON T1.locationID = T2.locationID WHERE T2.state = 'NY' AND T1.performance = 'Good'",
        "db_id": "company",
    },
    {
        "question": "For all patients born in 1982, state if their albumin is within normal range.",
        "evidence": "albumin is within normal range refers to ALB between 3.5 and 5.5",
        "SQL": "SELECT CASE WHEN T2.ALB >= 3.5 AND T2.ALB <= 5.5 THEN 'normal' ELSE 'abnormal' END FROM Patient AS T1 INNER JOIN Laboratory AS T2 ON T1.ID = T2.ID WHERE STRFTIME('%Y', T1.Birthday) = '1982'",
        "db_id": "clinic",
    },
    {
        "question": "How many employees with good job performance work in California?",
        "evidence": "California refers to state = 'CA'; good job performance refers to performance = 'Good'",
        "SQL": "SELECT COUNT(*) FROM employee AS T1 INNER JOIN location AS T2 ON T1.locationID = T2.locationID WHERE T2.state = 'CA' AND T1.performance = 'Good'",
        "db_id": "company",
    },
    {
        "question": "How many patients born in 1982 have normal albumin?",
        "evidence": "normal albumin refers to ALB between 3.5 and 5.5; born in 1982 refers to STRFTIME('%Y', Birthday) = '1982'",
        "SQL": "SELECT COUNT(*) FROM Patient AS T1 INNER JOIN Laboratory AS T2 ON T1.ID = T2.ID WHERE STRFTIME('%Y', T1.Birthday) = '1982' AND T2.ALB BETWEEN 3.5 AND 5.5",
        "db_id": "clinic",
    },
    {
        "question": "What is the average glucose level of female patients?",
        "evidence": "female refers to SEX = 'F'",
        "SQL": "SELECT AVG(T2.GLU) FROM Patient AS T1 INNER JOIN Laboratory AS T2 ON T1.ID = T2.ID WHERE T1.SEX = 'F'",
        "db_id": "clinic",
    },
]

CONFIG_INI = """[run]
seed = 0

[kb]
iterations = 1
few_shot_k = 5

[retriever]
dim = 256
head_dim = 64
batch_size = 8
epochs = 10
holdout_fraction = 0.25

[pipeline]
top_j = 3
few_shot_k = 5

[llm]
backend = mock

[eval]
deterministic_timing = true
"""


def _build_db(path: Path, ddl: list[str], rows: dict[str, list[tuple]]) -> None:
    if path.exists():
        path.unlink()
    con = sqlite3.connect(path)
    try:
        for stmt in ddl:
            con.execute(stmt)
        for table, values in rows.items():
            marks = ", ".join("?" * len(values[0]))
            con.executemany(f"INSERT INTO {table} VALUES ({marks})", values)
        con.commit()
    finally:
        con.close()


def _with_ids(records: list[dict], prefix: str) -> list[dict]:
    return [
        {"question_id": f"{prefix}{i:03d}", **rec} for i, rec in enumerate(records)
    ]


def generate_toy(target: Path | str, write_config: bool = True) -> Path:
    """Write the toy dataset, databases, and a ready-to-run config file."""
    target = Path(target)
    db_dir = target / "databases"
    db_dir.mkdir(parents=True, exist_ok=True)
    _build_db(db_dir / "company.sqlite", COMPANY_DDL, COMPANY_ROWS)
    _build_db(db_dir / "clinic.sqlite", CLINIC_DDL, CLINIC_ROWS)
    (target / "train.json").write_text(
        json.dumps(_with_ids(TRAIN_RECORDS, "train"), indent=2) + "\n"
    )
    (target / "test.json").write_text(
        json.dumps(_with_ids(TEST_RECORDS, "test"), indent=2) + "\n"
    )
    if write_config:
        (target / "run.ini").write_text(CONFIG_INI)
    return target


def main(argv: list[str] | None = None) -> int:
    args = argv if argv is not None else sys.argv[1:]
    if len(args) != 1:
        print("usage: python -m sqlkb.toy <target-dir>", file=sys.stderr)
        return 2
    out = generate_toy(args[0])
    print(f"toy dataset written to {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
