"""Embeddings, knowledge index, top-j retrieval, and contrastive head training."""

from __future__ import annotations

import hashlib
import json
import logging
import os
import struct
import tempfile
import zipfile
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import TYPE_CHECKING, BinaryIO, Iterable, Iterator, Optional, Sequence

import numpy as np
from numpy.lib import format as npformat

from .errors import (
    ConfigError,
    DimensionMismatchError,
    EmptyKbError,
    ParseError,
    ProviderError,
    UnknownEntryError,
)
from .knowledge_base import kb_digest
from .ranking import ROW_CHUNK, cosine_key, normalize_rows, top_j
from .transport import RetryPolicy, request_json

if TYPE_CHECKING:
    from .knowledge_base import KnowledgeBase, KnowledgeEntry

logger = logging.getLogger(__name__)

# Byte table for `bytes.translate`: ASCII a-z0-9 stay, every other byte is a space.
_TOKEN_BYTES = bytes(b if b in b"abcdefghijklmnopqrstuvwxyz0123456789" else 32 for b in range(256))

# Texts per request of the http backend.
HTTP_BATCH = 64

# The index file: a zip of .npy members (an .npz) plus this JSON member.
INDEX_FORMAT = "sqlkb/index/v2"
INDEX_META = "index.json"


@dataclass
class EmbeddingProvider:
    """Sentence embedding source.

    The "hash" backend is fully deterministic and offline. Its raw row,
    fixed for reproducibility: lowercase the text, take the runs of ASCII
    [a-z0-9] in it as tokens, and for each token occurrence add 1.0 at bucket
    int(sha256(token)[:8]) % dim. Tokens are read from the UTF-8 bytes (lone
    surrogates kept by "surrogatepass"), so every non-ASCII character and
    lone surrogate separates tokens as a space does. Texts with disjoint,
    non-colliding token sets are orthogonal. No token state outlives a call.

    The "http" backend POSTs {"texts": [...]} to the endpoint, up to
    HTTP_BATCH texts per request, and expects a 200 with
    {"embeddings": [[...], ...]}, one raw row per text. It retries as
    `transport.request_json` does under the default `RetryPolicy`; the last
    failure, or a malformed answer, is a ProviderError.

    `raw_many` returns the raw rows of a batch: hash token counts in the
    narrowest unsigned type that holds the batch's largest count (uint8,
    uint16 or uint32), http rows as float64. The per-text cache that `raw`
    and `cache_raw` fill keeps them so; `raw` returns a float64 copy of one.
    `embed` returns one text's row L2-normalized (an all-zero row is returned
    as-is), as `_index_rows` makes the index and query rows of many.
    """

    name: str = "hash"
    dim: int = 256
    backend: str = "hash"  # "hash" | "http"
    endpoint: Optional[str] = None
    timeout: float = 30.0
    _cache: dict = field(default_factory=dict, repr=False)  # text -> `raw_many` row

    def __post_init__(self) -> None:
        if self.backend not in ("hash", "http"):
            raise ValueError(f"backend: expected hash or http, got {self.backend!r}")
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        if self.backend == "http" and not self.endpoint:
            raise ValueError("backend = http needs an endpoint")

    @property
    def fingerprint(self) -> str:
        """`name:dim:backend`, and for the http backend `:endpoint` after it:
        another service embeds into another space."""
        base = f"{self.name}:{self.dim}:{self.backend}"
        return f"{base}:{self.endpoint}" if self.backend == "http" else base

    def embed(self, text: str) -> np.ndarray:
        """Return an L2-normalized vector of length dim, from the cached raw row."""
        return _index_rows(self._cached(text)[None])[0]

    def raw(self, text: str) -> np.ndarray:
        """Return the raw (unnormalized) row of one text as a float64 copy of
        its cached row."""
        return self._cached(text).astype(np.float64)

    def _cached(self, text: str) -> np.ndarray:
        """One text's raw row as the per-text cache keeps it (`raw_many`'s)."""
        cached = self._cache.get(text)
        if cached is None:
            cached = self._cache[text] = self.raw_many([text])[0]
        return cached

    def cache_raw(self, texts: Iterable[str]) -> None:
        """Put the raw rows of the texts the per-text cache lacks into it,
        from one `raw_many` call (HTTP_BATCH texts per http request)."""
        missing = [t for t in dict.fromkeys(texts) if t not in self._cache]
        if missing:
            self._cache.update(zip(missing, self.raw_many(missing)))

    def raw_many(self, texts: Sequence[str]) -> np.ndarray:
        """Raw rows of a batch of texts as an (n, dim) array, bypassing the cache.

        Hash backend: each text's token counts, counted in the narrowest
        unsigned type that holds the longest text's token count (no count
        exceeds it) and returned in the one that holds the largest count.
        """
        if not all(texts):
            raise ValueError("cannot embed empty text")
        if not texts:
            return np.empty((0, self.dim))
        if self.backend == "hash":
            return self._hash_rows(texts)
        return self._http_rows(texts)

    def _hash_rows(self, texts: Sequence[str]) -> np.ndarray:
        tokens = [
            t.lower().encode("utf-8", "surrogatepass").translate(_TOKEN_BYTES).split()
            for t in texts
        ]
        flat = list(chain.from_iterable(tokens))
        bucket = dict.fromkeys(flat)  # each distinct token of the call is hashed once
        for token in bucket:
            bucket[token] = int.from_bytes(hashlib.sha256(token).digest()[:8], "big") % self.dim
        lengths = [len(t) for t in tokens]
        cols = np.fromiter(map(bucket.__getitem__, flat), np.intp, len(flat))
        one = np.min_scalar_type(max(lengths)).type(1)  # a Python 1 is many times slower
        counts = np.zeros(len(texts) * self.dim, one.dtype)
        np.add.at(counts, np.repeat(np.arange(len(texts)) * self.dim, lengths) + cols, one)
        counts = counts.reshape(len(texts), self.dim)
        return counts.astype(np.min_scalar_type(int(counts.max())), copy=False)

    def _http_rows(self, texts: Sequence[str]) -> np.ndarray:
        chunks = []
        for start in range(0, len(texts), HTTP_BATCH):
            chunk = texts[start : start + HTTP_BATCH]
            try:
                body = request_json(self.endpoint, {"texts": chunk}, self.timeout, RetryPolicy())
                rows = np.asarray(json.loads(body)["embeddings"], dtype=np.float64)
            except (OSError, KeyError, TypeError, ValueError) as exc:
                raise ProviderError(f"embedding service failed: {exc}") from exc
            if rows.shape != (len(chunk), self.dim):
                raise ProviderError(
                    f"service returned shape {rows.shape}, expected ({len(chunk)}, {self.dim})"
                )
            if not np.isfinite(rows).all():
                raise ProviderError("embedding service returned a non-finite value")
            chunks.append(rows)
        return np.concatenate(chunks)


@dataclass
class ProjectionHead:
    """Trainable linear projection over frozen provider embeddings."""

    weights: np.ndarray  # (dim_in, dim_out)
    tau: float = 0.05
    # best held-out pairwise MRR observed during training, when known
    holdout_mrr: Optional[float] = None

    def __post_init__(self) -> None:
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.weights.ndim != 2 or not self.weights.size:
            raise ValueError(
                f"head weights must be a non-empty 2-D matrix, not shape {self.weights.shape}"
            )
        if not np.all(np.isfinite(self.weights)):
            raise ValueError("head weights must be finite")
        if isinstance(self.tau, bool) or not 0 < self.tau < np.inf:  # also refuses NaN
            raise ValueError(f"tau must be a number > 0 and finite, not {self.tau!r}")
        mrr = self.holdout_mrr
        if mrr is not None and (isinstance(mrr, bool) or not 0 <= mrr <= 1):
            raise ValueError(f"holdout_mrr must be a number in [0, 1], not {mrr!r}")

    @property
    def dim_in(self) -> int:
        return self.weights.shape[0]

    @property
    def dim_out(self) -> int:
        return self.weights.shape[1]

    @property
    def fingerprint(self) -> str:
        h = hashlib.sha256(self.weights.tobytes())
        h.update(repr(self.tau).encode())
        return h.hexdigest()[:16]

    def project(self, vec: np.ndarray) -> np.ndarray:
        """Project and L2-normalize one vector or each row of a matrix.

        Each row is multiplied as a vector of its own (a stacked matmul), so
        a row's result does not depend on the rows projected with it.
        """
        if vec.shape[-1] != self.dim_in:
            raise DimensionMismatchError(
                f"vector dim {vec.shape[-1]} != head dim_in {self.dim_in}"
            )
        projected = np.matmul(vec[..., None, :], self.weights)[..., 0, :]
        return normalize_rows(projected, out=projected)[0]

    def save(
        self,
        path: Path | str,
        provider_fingerprint: str,
        config_hash: Optional[str] = None,
    ) -> None:
        """Write the bytes of `json.dumps(obj) + "\\n"` for the object of the
        head's fields, one weight row at a time, so that neither the nested
        list of weights nor the whole text is built."""
        lead = {
            "dim_in": self.dim_in,
            "dim_out": self.dim_out,
            "tau": self.tau,
            "provider_fingerprint": provider_fingerprint,
        }
        tail = {}
        if self.holdout_mrr is not None:
            tail["holdout_mrr"] = self.holdout_mrr
        if config_hash is not None:
            tail["config_hash"] = config_hash
        with open(path, "w") as fh:
            fh.write(json.dumps(lead)[:-1] + ', "weights": [')
            for i, row in enumerate(self.weights):
                fh.write((", " if i else "") + json.dumps(row.tolist()))
            fh.write("]" + (", " + json.dumps(tail)[1:] if tail else "}") + "\n")

    @classmethod
    def load(cls, path: Path | str) -> tuple["ProjectionHead", dict]:
        try:
            obj = json.loads(Path(path).read_text(encoding="utf-8"))
            head = cls(
                weights=np.asarray(obj["weights"], dtype=np.float64),
                tau=obj["tau"],
                holdout_mrr=obj.get("holdout_mrr"),
            )
        except KeyError as exc:
            raise ParseError(f"{path}: missing key {exc}") from exc
        # ValueError includes UnicodeDecodeError, for bytes that are not UTF-8;
        # OverflowError: an integer weight too large for a float
        except (TypeError, ValueError, OverflowError) as exc:
            raise ParseError(f"{path}: {exc}") from exc
        meta = {k: v for k, v in obj.items() if k != "weights"}
        return head, meta


def init_head(dim_in: int, dim_out: int, seed: int = 0) -> ProjectionHead:
    rng = np.random.default_rng(seed)
    weights = rng.standard_normal((dim_in, dim_out)) / np.sqrt(dim_in)
    return ProjectionHead(weights=weights)


def embed(
    provider: EmbeddingProvider, text: str, head: Optional[ProjectionHead] = None
) -> np.ndarray:
    """Provider embedding, optionally passed through the projection head."""
    vec = provider.embed(text)
    return head.project(vec) if head is not None else vec


@dataclass
class KnowledgeIndex:
    """Flat full-scan index held in memory: one L2-normalized row per KB entry.

    Entries are in ascending id order, so a row's position is its tie key.
    """

    entries: tuple["KnowledgeEntry", ...]
    matrix: np.ndarray
    provider_fingerprint: str
    head_fingerprint: Optional[str] = None

    def __post_init__(self) -> None:
        if len(self.matrix) != len(self.entries):
            raise ValueError(
                f"index has {len(self.matrix)} rows for {len(self.entries)} entries"
            )
        ids = self.ids
        if any(a >= b for a, b in zip(ids, ids[1:])):
            raise ValueError("index entries must be in strictly ascending id order")

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def ids(self) -> list[str]:
        return [e.id for e in self.entries]

    def blocks(self, only: Optional[Sequence[int]] = None) -> Iterator[tuple[int, np.ndarray]]:
        """(first row, rows) per row block of the matrix; with `only`, per
        block of those numbers (ascending)."""
        return _row_blocks(self.matrix, only)


@dataclass
class StoredIndex:
    """The index kept in an index file, read one row block at a time.

    The matrix is never held whole: each scoring pass (`blocks()`) reads the
    file again, as does each pass over the raw rows (`raw_blocks()`).
    `load_or_build_index` returns it once every member has been read through
    the zip layer to its end, its CRC and shape checked, so a damaged file is
    rebuilt before any score is made. The passes then read the members'
    arrays straight from the file, after checking that its `index.json` is
    still `meta`: the scoring members at the places `layout` holds, the raw
    members at the places each `raw_blocks()` pass finds.
    """

    entries: tuple["KnowledgeEntry", ...]
    path: Path
    meta: dict  # the file's index.json
    layout: list["_Member"]  # per row block, its matrix member, else its raw member

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def ids(self) -> list[str]:
        return [e.id for e in self.entries]

    @property
    def provider_fingerprint(self) -> str:
        return self.meta["key"]["provider"]

    @property
    def head_fingerprint(self) -> Optional[str]:
        return self.meta["key"]["head"]

    def blocks(self, only: Optional[Sequence[int]] = None) -> Iterator[tuple[int, np.ndarray]]:
        """(first row, rows) per row block, read from the block's member: the
        matrix rows or, without a head, the raw rows made into index rows as
        `build_index` makes them. With `only`, per block of those numbers
        (ascending); no other member is read."""
        for first, rows in self._read_blocks(self.layout, only):
            yield first, rows if self.meta["matrix"] else _index_rows(rows)

    def raw_blocks(self) -> Iterator[tuple[int, np.ndarray]]:
        """(first row, raw rows as stored) per row block, read from the raw
        members: the rows `raw_blocks(texts, provider)` makes of the entries."""
        return self._read_blocks(None)

    def _read_blocks(
        self, layout: Optional[list["_Member"]], only: Optional[Sequence[int]] = None
    ) -> Iterator[tuple[int, np.ndarray]]:
        """Row blocks read at the places `layout` holds; with None, at the
        raw members' places, found in the file on this pass."""
        with open(self.path, "rb") as f:
            with zipfile.ZipFile(f) as zf:
                if json.loads(zf.read(INDEX_META)) != self.meta:
                    raise ParseError(
                        f"{self.path} was rebuilt for another KB, provider or head while in use"
                    )
                if layout is None:
                    layout = _layout(f, zf, self.meta["raw"])
            bounds = _block_bounds(len(self))
            for k in range(len(layout)) if only is None else only:
                yield bounds[k], self._read(f, layout[k])

    def _read(self, f: BinaryIO, member: "_Member") -> np.ndarray:
        f.seek(member.offset)
        rows = np.empty(member.shape, member.dtype)
        if f.readinto(rows) != rows.nbytes:
            raise ParseError(f"{self.path} was cut short while in use")
        return rows


@dataclass(frozen=True)
class _Member:
    """Where an .npy member's array starts in an index file, and its form."""

    offset: int
    dtype: np.dtype
    shape: tuple[int, int]


def _block_bounds(n: int) -> list[int]:
    """Where the row blocks of n rows start, and n after them: every
    ROW_CHUNK rows, but a last block of one row is joined to the block
    before it. numpy multiplies a vector by a one-row block as a dot
    product, which sums in another order than a matrix-vector product."""
    bounds = [*range(0, n, ROW_CHUNK), n]
    if n > ROW_CHUNK and n % ROW_CHUNK == 1:
        del bounds[-2]
    return bounds


def _row_blocks(rows: Sequence, only: Optional[Sequence[int]] = None) -> Iterator[tuple]:
    """(first row, rows[first:end]) per row block of `rows`; with `only`, per
    block of those numbers (ascending)."""
    bounds = _block_bounds(len(rows))
    numbers = range(len(bounds) - 1) if only is None else only
    return ((bounds[k], rows[bounds[k] : bounds[k + 1]]) for k in numbers)


def _scores(vecs: np.ndarray, block: np.ndarray) -> np.ndarray:
    """scores[i, r]: the score of query vector vecs[i] against row r of a block.

    Each query multiplies the block as a vector of its own (a stacked
    matmul), so its scores do not depend on the other queries and equal
    `matrix @ vecs[i]` bit for bit; the matrix product `vecs @ block.T`
    does not.
    """
    return np.matmul(vecs[:, None, :], block.T)[:, 0, :]


def _top_rows(
    index: "KnowledgeIndex | StoredIndex", vecs: np.ndarray, j: int
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per query vector, (rows, scores) of its top j rows by score descending,
    then row ascending, merged block by block.

    Rows only grow from block to block, so once a query holds j rows, a later
    row enters only by beating the j-th best score: a tie loses on its row.
    """
    rows = [np.empty(0, dtype=np.intp)] * len(vecs)
    scores = [np.empty(0)] * len(vecs)
    floor = np.full(len(vecs), -np.inf)
    for start, block in index.blocks():
        block_scores = _scores(vecs, block)
        beats = block_scores > floor[:, None]
        for i in np.flatnonzero(beats.any(axis=1)):
            new = np.flatnonzero(beats[i])
            scores[i] = np.concatenate((scores[i], block_scores[i, new]))
            rows[i] = np.concatenate((rows[i], new + start))
            if len(rows[i]) >= j:
                keep = top_j(scores[i], j, tie_key=rows[i])
                scores[i], rows[i] = scores[i][keep], rows[i][keep]
                floor[i] = scores[i][-1]
    tops = [top_j(s, j, tie_key=r) for s, r in zip(scores, rows)]
    return [(r[top], s[top]) for s, r, top in zip(scores, rows, tops)]


def _ranks(
    index: "KnowledgeIndex | StoredIndex", vecs: np.ndarray, query: np.ndarray, row: np.ndarray
) -> np.ndarray:
    """1-based rank of `row[k]` in the scores of `vecs[query[k]]`, as `rank_of`
    counts it over the full scores, in two passes over the blocks: the first
    scores each row against its query, reading only the blocks that hold one
    of the rows; the second counts, over every block, the rows ranked before
    it."""
    own = np.empty(len(row))
    bounds = _block_bounds(len(index))
    # not np.unique: its first call imports numpy.ma (~0.7 MB of peak RSS)
    holding = sorted(set((np.searchsorted(bounds, row, side="right") - 1).tolist()))
    for start, block in index.blocks(holding):
        inside = np.flatnonzero((start <= row) & (row < start + len(block)))
        if len(inside):
            own[inside] = _scores(vecs[query[inside]], block)[
                np.arange(len(inside)), row[inside] - start
            ]
    ranks = np.ones(len(row), dtype=np.intp)
    for start, block in index.blocks():
        mine = _scores(vecs, block)[query]
        earlier = start + np.arange(len(block)) < row[:, None]
        ahead = (mine > own[:, None]) | ((mine == own[:, None]) & earlier)
        ranks += np.count_nonzero(ahead, axis=1)
    return ranks


def raw_blocks(
    texts: Sequence[str], provider: EmbeddingProvider
) -> Iterator[tuple[int, np.ndarray]]:
    """(first row, raw rows) per row block of texts, embedded one block at a time."""
    for first, part in _row_blocks(texts):
        yield first, provider.raw_many(part)


def _index_rows(raw: np.ndarray, head: Optional[ProjectionHead] = None) -> np.ndarray:
    """Index or query rows of raw provider rows: widened into a float64 array
    of their own, L2-normalized 32 rows at a time, since `normalize_rows`
    holds a temporary the size of its input, then projected by the head when
    there is one. No row's bits depend on the rows it is made with."""
    rows = raw.astype(np.float64)
    for start in range(0, len(rows), 32):
        part = rows[start : start + 32]
        normalize_rows(part, out=part)
    return head.project(rows) if head is not None else rows


def _kept_rows(provider: EmbeddingProvider, texts: Sequence[str]) -> np.ndarray:
    """The raw rows of texts, in the widest type any block's `raw_many` rows
    have, embedded one row block at a time."""
    rows = np.empty((len(texts), provider.dim), np.uint8)
    for first, raw in raw_blocks(texts, provider):
        rows = rows.astype(np.promote_types(rows.dtype, raw.dtype), copy=False)
        rows[first : first + len(raw)] = raw
    return rows


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """Each kept row's `normalize_rows` norm (shape (n, 1)), widened one row
    block at a time. A norm is a per-row reduction, so the widened rows
    divided by their norms are `_index_rows` of them bit for bit."""
    norms = np.empty((len(rows), 1))
    for first, part in _row_blocks(rows):
        norms[first : first + len(part)] = normalize_rows(part.astype(np.float64))[1]
    return norms


def _raw_keys(queries: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """keys[i, r]: `cosine_key` of raw query row i's dot product with raw row
    r, in float64.

    Float rows (the http backend's) take one matrix product, whose last
    bits, and so near-tie order, do not depend on a row blocking. Count rows
    are widened one row block at a time, and each widened block gives both
    its dot products and its squared norms; every sum of their products is
    an integer far below 2**53, so the keys are the one product's bit for bit.
    """
    if rows.dtype.kind == "f":
        return cosine_key(queries @ rows.T, np.einsum("ij,ij->i", rows, rows))
    keys = np.empty((len(queries), len(rows)))
    wide_queries = queries.astype(np.float64, copy=False)
    for first, part in _row_blocks(rows):
        part = part.astype(np.float64)
        keys[:, first : first + len(part)] = cosine_key(
            wide_queries @ part.T, np.einsum("ij,ij->i", part, part)
        )
    return keys


def _sorted_entries(kb: "KnowledgeBase") -> tuple["KnowledgeEntry", ...]:
    entries = tuple(kb.sorted_entries())
    if not entries:
        raise EmptyKbError("cannot index an empty knowledge base")
    return entries


def build_index(
    kb: "KnowledgeBase",
    provider: EmbeddingProvider,
    head: Optional[ProjectionHead] = None,
) -> KnowledgeIndex:
    """Embed and index every KB entry in memory, one row block at a time."""
    entries = _sorted_entries(kb)
    matrix = np.empty((len(entries), head.dim_out if head is not None else provider.dim))
    for first, raw in raw_blocks([e.text for e in entries], provider):
        matrix[first : first + len(raw)] = _index_rows(raw, head)
    return KnowledgeIndex(
        entries=entries,
        matrix=matrix,
        provider_fingerprint=provider.fingerprint,
        head_fingerprint=head.fingerprint if head is not None else None,
    )


def load_or_build_index(
    path: Path | str,
    kb: "KnowledgeBase",
    provider: EmbeddingProvider,
    head: Optional[ProjectionHead] = None,
) -> StoredIndex:
    """The KB's index, kept in the index file at `path` for later calls.

    The file is used when it was built for the same key: the KB's (id,
    text) pairs, the provider (its endpoint included) and the head.
    Otherwise, or when it is missing, truncated or corrupt, the index is
    built into a new file that replaces it; a stale or unreadable file is
    reported with a warning. Its rows score bit for bit as `build_index`'s,
    and its raw rows (`StoredIndex.raw_blocks`) are `raw_blocks`' of the
    entries.
    """
    path = Path(path)
    key = {
        "kb": kb_digest(kb),
        "provider": provider.fingerprint,
        "head": head.fingerprint if head is not None else None,
    }
    if path.exists():
        try:
            index = _load_index(path, key, kb, provider, head)
        # Only a cache: whatever a damaged file raises (zipfile, numpy's header
        # parser and json each have their own errors), it is rebuilt.
        except Exception as exc:
            logger.warning(
                "index file %s is unreadable (%s: %s); rebuilding it", path, type(exc).__name__, exc
            )
        else:
            if index is not None:
                return index
            logger.warning(
                "index file %s was built for another KB, provider or head; rebuilding it", path
            )
    return _build_index_file(path, key, kb, provider, head)


def _build_index_file(
    path: Path,
    key: dict,
    kb: "KnowledgeBase",
    provider: EmbeddingProvider,
    head: Optional[ProjectionHead],
) -> StoredIndex:
    """Embed the KB one row block at a time into a temporary file, which
    then replaces the file at `path` at once, so no reader pairs the key with
    another build's arrays.

    Each block's raw rows are written, and with a head its index rows, as
    they are made: no matrix is held. Without a head the index rows are the
    normalized raw rows, which `StoredIndex.blocks` makes again as it reads them.
    """
    entries = _sorted_entries(kb)
    meta = {"format": INDEX_FORMAT, "key": key, "raw": [], "matrix": []}
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as file, zipfile.ZipFile(file, "w") as zf:
            for block, (_, raw) in enumerate(raw_blocks([e.text for e in entries], provider)):
                if head is not None:
                    meta["matrix"].append(f"matrix/{block}.npy")
                    _write_array(zf, meta["matrix"][-1], _index_rows(raw, head))
                meta["raw"].append(f"raw/{block}.npy")
                _write_array(zf, meta["raw"][-1], raw)
            # a ZipInfo dates the member 1980-01-01, as zf.open dates the
            # arrays: a name alone would stamp the current time
            zf.writestr(zipfile.ZipInfo(INDEX_META), json.dumps(meta))
        with open(tmp, "rb") as f, zipfile.ZipFile(f) as zf:
            layout = _layout(f, zf, meta["matrix"] or meta["raw"])
        os.replace(tmp, path)
    except BaseException:
        Path(tmp).unlink(missing_ok=True)
        raise
    return StoredIndex(entries, path, meta, layout)


def _load_index(
    path: Path,
    key: dict,
    kb: "KnowledgeBase",
    provider: EmbeddingProvider,
    head: Optional[ProjectionHead],
) -> Optional[StoredIndex]:
    """The index stored at `path`, or None when it was built for another key.

    Every member is read to its end (so its CRC is checked) and checked for
    shape here, before any score is made from it.
    """
    with open(path, "rb") as f, zipfile.ZipFile(f) as zf:
        meta = json.loads(zf.read(INDEX_META))
        if meta["format"] != INDEX_FORMAT or meta["key"] != key:
            return None
        if bool(meta["matrix"]) != (head is not None):
            raise ValueError(f"matrix members {meta['matrix']} do not fit head {key['head']}")
        _check_members(zf, meta["raw"], (len(kb), provider.dim))
        if head is not None:
            _check_members(zf, meta["matrix"], (len(kb), head.dim_out), matrix=True)
        layout = _layout(f, zf, meta["matrix"] or meta["raw"])
    return StoredIndex(tuple(kb.sorted_entries()), path, meta, layout)


def _check_members(
    zf: zipfile.ZipFile, names: list[str], shape: tuple[int, int], matrix: bool = False
) -> None:
    """Read each member to its end, so a damaged one raises here, and check
    that the members are the row blocks of `shape`, member k holding exactly
    the rows of block k (and, for `matrix` members, stored as float64)."""
    bounds = _block_bounds(shape[0])
    if len(names) != len(bounds) - 1:
        raise ValueError(f"{len(names)} members stored for {len(bounds) - 1} row blocks")
    for name, first, end in zip(names, bounds, bounds[1:]):
        rows = _read_array(zf, name)
        if rows.shape != (end - first, shape[1]):
            raise ValueError(f"{name} has shape {rows.shape}, not {(end - first, shape[1])}")
        if matrix and rows.dtype != np.float64:
            raise ValueError(f"{name} is {rows.dtype}, not float64")


def _layout(f: BinaryIO, zf: zipfile.ZipFile, names: list[str]) -> list[_Member]:
    """Where each named .npy member's array starts in the open file `f`, with
    its dtype and shape, to read it again without the zip layer."""
    layout = []
    for name in names:
        info = zf.getinfo(name)
        if info.compress_type != zipfile.ZIP_STORED:
            raise ValueError(f"{name} is compressed")
        # the local header: 30 bytes, whose last four give the lengths of the
        # name and the extra field that follow it
        f.seek(info.header_offset + 26)
        name_len, extra_len = struct.unpack("<HH", f.read(4))
        f.seek(info.header_offset + 30 + name_len + extra_len)
        if npformat.read_magic(f) != (1, 0):
            raise ValueError(f"{name} is not an .npy 1.0 array")
        shape, fortran_order, dtype = npformat.read_array_header_1_0(f)
        if fortran_order:
            raise ValueError(f"{name} is stored in Fortran order")
        layout.append(_Member(f.tell(), dtype, shape))
    return layout


def _write_array(zf: zipfile.ZipFile, name: str, array: np.ndarray) -> None:
    with zf.open(name, "w", force_zip64=True) as f:
        npformat.write_array(f, array, allow_pickle=False)


def _read_array(zf: zipfile.ZipFile, name: str) -> np.ndarray:
    """Read an .npy member to its end, so its CRC is checked."""
    with zf.open(name) as f:
        array = npformat.read_array(f)
        if f.read(1):
            raise ValueError(f"{name} has bytes past its array")
    return array


def _check_fingerprints(
    index: "KnowledgeIndex | StoredIndex",
    provider: EmbeddingProvider,
    head: Optional[ProjectionHead],
) -> None:
    """Refuse to score queries embedded otherwise than the index rows."""
    built = (index.provider_fingerprint, index.head_fingerprint)
    used = (provider.fingerprint, head.fingerprint if head is not None else None)
    if used != built:
        raise ConfigError(f"index was built for (provider, head) {built}, query uses {used}")


def retrieve(
    query: str,
    index: "KnowledgeIndex | StoredIndex",
    j: int,
    provider: EmbeddingProvider,
    head: Optional[ProjectionHead] = None,
) -> list[tuple["KnowledgeEntry", float]]:
    """Top-j entries by cosine similarity, ties broken by entry id ascending."""
    return retrieve_many([query], index, j, provider, head)[0]


def retrieve_many(
    queries: Sequence[str],
    index: "KnowledgeIndex | StoredIndex",
    j: int,
    provider: EmbeddingProvider,
    head: Optional[ProjectionHead] = None,
) -> list[list[tuple["KnowledgeEntry", float]]]:
    """`retrieve` for each query, in one pass over the index."""
    if j < 1:
        raise ValueError("j must be >= 1")
    if len(index) == 0:
        raise EmptyKbError("index is empty")
    _check_fingerprints(index, provider, head)
    if not queries:
        return []
    vecs = np.stack([embed(provider, query, head) for query in queries])
    return [
        [(index.entries[r], float(s)) for r, s in zip(rows, scores)]
        for rows, scores in _top_rows(index, vecs, j)
    ]


def info_nce_loss(
    q_vec: np.ndarray,
    pos_vec: np.ndarray,
    neg_vecs: Sequence[np.ndarray],
    tau: float,
) -> float:
    """Contrastive loss over cosine similarities, log-sum-exp stabilized."""
    if tau <= 0:
        raise ValueError("tau must be positive")
    if len(neg_vecs) < 1:
        raise ValueError("at least one negative required")
    q = np.asarray(q_vec, dtype=np.float64)
    vecs = [np.asarray(pos_vec, dtype=np.float64)] + [
        np.asarray(v, dtype=np.float64) for v in neg_vecs
    ]
    for v in vecs:
        if v.shape != q.shape:
            raise DimensionMismatchError(f"vector shape {v.shape} != query {q.shape}")
    qn = normalize_rows(q)[0]
    logits = (normalize_rows(np.stack(vecs))[0] @ qn) / tau
    m = logits.max()
    lse = m + np.log(np.exp(logits - m).sum())
    return float(lse - logits[0])


def info_nce_batch(
    weights: np.ndarray,
    queries: np.ndarray,
    positives: np.ndarray,
    tau: float,
) -> tuple[float, np.ndarray]:
    """Mean in-batch InfoNCE loss and its analytic gradient w.r.t. the head.

    Rows of `queries`/`positives` are raw provider embeddings; both sides
    are projected by `weights` and L2-normalized before similarity. Each
    other positive in the batch serves as a negative.
    """
    B = queries.shape[0]
    Uh, un = normalize_rows(queries @ weights)
    Vh, vn = normalize_rows(positives @ weights)

    S = (Uh @ Vh.T) / tau  # (B, B)
    m = S.max(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(np.exp(S - m).sum(axis=1))
    diag = S[np.arange(B), np.arange(B)]
    loss = float(np.mean(lse - diag))

    P = np.exp(S - m)
    P /= P.sum(axis=1, keepdims=True)
    G = P.copy()
    G[np.arange(B), np.arange(B)] -= 1.0
    G /= B * tau

    gUh = G @ Vh
    gVh = G.T @ Uh
    gU = (gUh - (gUh * Uh).sum(axis=1, keepdims=True) * Uh) / un
    gV = (gVh - (gVh * Vh).sum(axis=1, keepdims=True) * Vh) / vn
    grad = queries.T @ gU + positives.T @ gV
    return loss, grad


@dataclass(frozen=True)
class TrainingPair:
    query: str
    positive: str

    def __post_init__(self) -> None:
        if not self.positive:
            raise ValueError("positive knowledge must be non-empty")


@dataclass
class TrainConfig:
    batch_size: int = 128
    epochs: int = 30
    lr: float = 1e-3
    tau: float = 0.05
    seed: int = 0
    dim_out: Optional[int] = None  # defaults to provider dim
    holdout_fraction: float = 0.25

    def __post_init__(self) -> None:
        if self.batch_size < 2:
            raise ValueError(
                f"batch_size must be >= 2 for in-batch negatives, got {self.batch_size}"
            )
        if not 0 < self.tau < np.inf:  # also rejects NaN
            raise ValueError("tau must be > 0 and finite")
        if not 0 <= self.lr < np.inf:
            raise ValueError("lr must be >= 0 and finite")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if not 0 <= self.holdout_fraction < 1:
            raise ValueError("holdout_fraction must be >= 0 and < 1")
        if self.dim_out is not None and self.dim_out < 1:
            raise ValueError(f"dim_out must be >= 1, got {self.dim_out}")


@dataclass
class RetrievalMetrics:
    mrr: float
    top_at: dict[int, int | float]


def _pairwise_mrr(head_w: np.ndarray, q: tuple, k: tuple) -> float:
    """MRR of each query's own positive ranked against all positives, from
    (`_kept_rows` rows, `_row_norms`) pairs, one row block of queries at a time."""

    def projected(kept: tuple, first: int, part: np.ndarray) -> np.ndarray:
        return normalize_rows((part / kept[1][first : first + len(part)]) @ head_w)[0]

    keys = np.concatenate([projected(k, *b) for b in _row_blocks(k[0])])

    def ranks(first: int, part: np.ndarray) -> np.ndarray:
        S = projected(q, first, part) @ keys.T
        mine = np.arange(len(part))
        return (S > S[mine, first + mine][:, None]).sum(axis=1) + 1

    return float(np.mean(1.0 / np.concatenate([ranks(*b) for b in _row_blocks(q[0])])))


def train_head(
    pairs: Sequence[TrainingPair],
    provider: EmbeddingProvider,
    config: Optional[TrainConfig] = None,
) -> ProjectionHead:
    """Minimize mean in-batch InfoNCE with plain gradient descent.

    Raw rows are computed once up front (the provider is frozen) and kept
    as `raw_many` makes them, with their norms; each batch is made into index
    rows (the widened rows divided by their norms) just before its step. A
    seeded holdout split is scored by pairwise MRR after every epoch and the
    best-scoring weights are returned. With fewer than 2 pairs
    held out the epoch is chosen on the training pairs, and the head has no
    `holdout_mrr`.
    """
    config = config or TrainConfig()
    if len(pairs) < 2:
        raise ConfigError("need at least 2 training pairs")

    q_raw = _kept_rows(provider, [p.query for p in pairs])
    k_raw = _kept_rows(provider, [p.positive for p in pairs])
    q_norms, k_norms = _row_norms(q_raw), _row_norms(k_raw)

    rng = np.random.default_rng(config.seed)
    n = len(pairs)
    n_hold = int(round(n * config.holdout_fraction))
    perm = rng.permutation(n)
    hold_idx, train_idx = perm[:n_hold], perm[n_hold:]
    if len(train_idx) < 2:
        raise ConfigError("not enough pairs left after holdout split")

    dim_out = config.dim_out or provider.dim
    head = init_head(provider.dim, dim_out, seed=config.seed)
    W = head.weights.copy()

    eval_idx = hold_idx if len(hold_idx) >= 2 else train_idx
    held_q, held_k = (q_raw[eval_idx], q_norms[eval_idx]), (k_raw[eval_idx], k_norms[eval_idx])
    best_w = W.copy()
    best_mrr = _pairwise_mrr(W, held_q, held_k)

    for _ in range(config.epochs):
        order = rng.permutation(train_idx)
        for start in range(0, len(order), config.batch_size):
            batch = order[start : start + config.batch_size]
            if len(batch) < 2:
                continue
            q, k = q_raw[batch] / q_norms[batch], k_raw[batch] / k_norms[batch]
            _, grad = info_nce_batch(W, q, k, config.tau)
            W -= config.lr * grad
        mrr = _pairwise_mrr(W, held_q, held_k)
        if mrr > best_mrr:
            best_mrr = mrr
            best_w = W.copy()
    held_out = best_mrr if len(hold_idx) >= 2 else None
    return ProjectionHead(weights=best_w, tau=config.tau, holdout_mrr=held_out)


def eval_retrieval(
    index: "KnowledgeIndex | StoredIndex",
    labeled: Sequence[tuple[str, Sequence[str]]],
    provider: EmbeddingProvider,
    head: Optional[ProjectionHead] = None,
    ks: Sequence[int] = (1, 3, 10),
) -> RetrievalMetrics:
    """MRR and Top@K over (query text, relevant entry ids) pairs.

    A query's rank is its best relevant entry's `rank_of` rank, counted
    block by block for all queries at once.
    """
    if not labeled:
        raise ValueError("labeled set must be non-empty")
    _check_fingerprints(index, provider, head)
    # Rows of the labeled ids only, in one scan of the index.
    wanted = {entry_id for _, relevant in labeled for entry_id in relevant}
    position = {e.id: i for i, e in enumerate(index.entries) if e.id in wanted}
    pairs = []  # (labeled query number, row of one of its relevant entries)
    for i, (query, relevant) in enumerate(labeled):
        rel = set(relevant)
        missing = rel - position.keys()
        if missing:
            raise UnknownEntryError(f"labels reference unknown entries: {sorted(missing)}")
        if not rel:
            raise ValueError(f"label for {query!r} has no relevant entries")
        pairs += [(i, position[entry_id]) for entry_id in rel]
    query_of, row = np.array(pairs, dtype=np.intp).T
    vecs = np.stack([embed(provider, query, head) for query, _ in labeled])
    rank = np.full(len(labeled), np.iinfo(np.intp).max)
    np.minimum.at(rank, query_of, _ranks(index, vecs, query_of, row))
    n = len(labeled)
    return RetrievalMetrics(
        mrr=float(np.mean(1.0 / rank)),
        top_at={k: int(np.count_nonzero(rank <= k)) / n for k in ks},
    )
