"""Ranking primitives shared by retrieval, evaluation and example selection.

Every ranking in the package orders candidates by score descending, then by
a tie key ascending (entry id or record id), and keeps the first j.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

# Rows embedded, scored and projected together: bounds the
# temporaries of large batches. No bit of a result depends on the chunking.
ROW_CHUNK = 256


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


def cosine_key(dots: np.ndarray, sq_norms: np.ndarray) -> np.ndarray:
    """Order key of cosine similarities from raw dot products.

    `dots[..., i]` is one query's dot product with row i and `sq_norms[i]`
    is that row's squared norm. The key `dot·|dot| / ‖row‖²` is the signed
    squared cosine times the query's squared norm, so it rises with the
    cosine; an all-zero row (whose dots are 0) gets 0. With integer rows
    (hash token counts) every input is exact, so two rows whose cosines are
    exactly equal get bit-equal keys under any blocking, dtype or row order.
    """
    key = np.abs(dots)
    key *= dots
    return np.divide(key, sq_norms, out=key, where=sq_norms > 0)


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


def rank_of(scores: np.ndarray, pos: int) -> int:
    """1-based rank of row `pos` under top_j's order with no tie key
    (score descending, then position ascending)."""
    s = scores[pos]
    return 1 + int(np.count_nonzero(scores > s)) + int(np.count_nonzero(scores[:pos] == s))
