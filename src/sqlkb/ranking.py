"""Ranking primitives shared by retrieval, evaluation and example selection.

Every ranking in the package orders candidates by score descending, then by
a tie key ascending (entry id or record id), and keeps the first j.
"""

from __future__ import annotations

from typing import Optional

import numpy as np


def normalize_rows(
    x: np.ndarray, out: Optional[np.ndarray] = None
) -> tuple[np.ndarray, np.ndarray]:
    """L2-normalize along the last axis; returns (normalized, norms).

    `norms` keeps the reduced axis (shape (..., 1)). A zero row is returned
    unchanged and its norm reported as 1.0, so callers can divide by the
    norms again, e.g. when back-propagating through the normalization.
    `out` (which may be `x` itself) receives the normalized rows.
    """
    norms = np.linalg.norm(x, axis=-1, keepdims=True)
    norms[norms == 0] = 1.0
    return np.divide(x, norms, out=out), norms


def row_dots(matrix: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """`matrix @ vec` computed as one BLAS dot product per row.

    Equal bit for bit to `[row @ vec for row in matrix]`. A plain
    `matrix @ vec` (one matrix-vector call) accumulates in another order and
    can differ in the last bit, which reorders mathematically tied rows.
    """
    return np.matmul(matrix[:, None, :], vec[:, None])[:, 0, 0]


def top_j(scores: np.ndarray, j: int, tie_key: Optional[np.ndarray] = None) -> np.ndarray:
    """Indices of the j best scores, best first.

    Order: score descending, then `tie_key` ascending (the index itself when
    None). `np.partition` finds the j-th best score; every candidate tied
    with it is kept and the candidates are fully ordered before the cut, so
    the result equals the first j of a full lexsort.
    """
    n = len(scores)
    if j <= 0:
        return np.empty(0, dtype=np.intp)
    if j < n:
        kth = np.partition(scores, n - j)[n - j]
        candidates = np.flatnonzero(scores >= kth)
    else:
        candidates = np.arange(n)
    keys = candidates if tie_key is None else tie_key[candidates]
    order = np.lexsort((keys, -scores[candidates]))
    return candidates[order[:j]]
