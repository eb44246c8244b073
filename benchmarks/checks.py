"""Reference results the benchmark compares the program's outputs against."""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

from .oracle import gold_hits


def brute_force_top(matrix: np.ndarray, ids: list[str], qvec: np.ndarray, j: int) -> list[str]:
    """Top-j ids by cosine score over the index matrix, ties by id ascending."""
    scores = matrix @ qvec
    order = np.lexsort((np.array(ids), -scores))
    return [ids[i] for i in order[:j]]


def expected_ex(test_questions: list[str], share: float, salt: str) -> float:
    """EX (percent) the oracle yields: its gold answers always match, its
    misses never do."""
    hits = gold_hits(test_questions, share, salt)
    return 100.0 * sum(q in hits for q in test_questions) / len(test_questions)


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()
