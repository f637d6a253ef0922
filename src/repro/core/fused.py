"""Fused classification: the one classify plane.

Every ``classify``, ``classify_result`` and ``classify_corpus`` call
packs its tables into one shard (a single table is a one-table shard),
following TabVec's framing of tables as points in one shared embedding
space:

1. **intern** — a pass over the shard's distinct cells resolves each
   against the process-global token-id vocabulary (:class:`_TokenVocab`).
   A cell string tokenizes once per process (not once per table, not
   once per shard), and its token-id array comes back from a memo as a
   ready-made index block;
2. **pack** — the shard becomes flat COO blocks: ``(cell, token-id)``
   occurrence pairs over the unique cells, plus per-table grids of
   global ``(row, col, cell)`` indices with table-offset bookkeeping
   (:class:`CorpusPack`).  Both blocks come out *segment-sorted* — by
   cell on the occurrence side, by global row on the grid side, with a
   precomputed column-major permutation for the column axis — so the
   aggregation below is pure gather + segment-reduce;
3. **aggregate** — every row aggregate and every column aggregate of
   every table comes out of float32 segment-scatter reductions across
   table boundaries (Def. 8 for the whole shard in two gather/reduce
   chains);
4. **walk** — :meth:`~repro.core.classifier.MetadataClassifier._classify`
   runs one batched angle pass
   (:func:`repro.core.angles.segmented_walk_angles`) over the
   (projected) level blocks, then the shared decision walk per table.

Labels match the level-by-level reference
(:func:`repro.core.classifier.reference_classify`) because decisions
sit far from range boundaries in float32; the equivalence suite pins
this on every embedding backend.

Token vectors come from a per-embedder float32 row matrix indexed by
global token id (:class:`_TokenRowCache` — a warm shard's token matrix
is one fancy-index gather, and each token vector is held there once).
It is the program's one token-vector store: the fit side's
:func:`repro.core.embedding_plane.level_vectors` reads it too.  Shards
whose token ids lie past :data:`_TOKEN_ROWS_LIMIT`, or that fell back to
shard-local interning, resolve a compact per-shard :func:`token_matrix`
instead.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from repro import obs
from repro.embeddings.lookup import TermEmbedder
from repro.tables.model import Table
from repro.text import tokenize


#: Hard cap on the process-global token vocabulary.  Token vocabularies
#: plateau (shared headers, shared value spaces), so reaching this means
#: a pathological stream; packs then fall back to shard-local interning
#: rather than growing without bound.
_VOCAB_LIMIT = 1 << 20

#: Largest global token id the per-embedder row cache will back.  At
#: dim 64 / float32 a full cache is ~32 MiB per embedder.
_TOKEN_ROWS_LIMIT = 131_072


class _TokenVocab:
    """Process-global token-text -> token-id intern table.

    Ids are dense, stable for the process lifetime, and shared across
    every pack and every embedder — which is what lets the fused path
    trade string hashing for integer gathers.  ``intern`` returns
    ``None`` once the vocabulary is full (see :data:`_VOCAB_LIMIT`).
    """

    def __init__(self) -> None:
        self.ids: dict[str, int] = {}
        self.texts: list[str] = []
        self._lock = threading.Lock()

    def intern(self, texts: Sequence[str]) -> np.ndarray | None:
        ids = self.ids
        out = np.empty(len(texts), dtype=np.intp)
        for i, text in enumerate(texts):
            known = ids.get(text, -1)
            if known < 0:
                break
            out[i] = known
        else:
            out.setflags(write=False)
            return out
        with self._lock:
            for i, text in enumerate(texts):
                known = ids.get(text)
                if known is None:
                    if len(ids) >= _VOCAB_LIMIT:
                        return None
                    known = len(ids)
                    # Text first: a lock-free reader that sees the id
                    # must find its text.
                    self.texts.append(text)
                    ids[text] = known
                out[i] = known
        out.setflags(write=False)
        return out


_VOCAB = _TokenVocab()


@lru_cache(maxsize=131_072)
def _cell_token_ids(cell: str) -> np.ndarray | None:
    """Memoized cell -> read-only array of global token ids.

    The process's one per-cell memo: cell contents repeat heavily both
    within a table (blanks, repeated categories) and across a served
    corpus (shared headers), and regex tokenization is the most
    expensive per-cell step.  Tokenization is a pure function of the
    cell text (the plane has one tokenizer setting: lowercased words),
    so the text alone is the key.  Returns ``None`` when the global
    vocabulary is full; callers fall back to :func:`cell_token_texts`.
    """
    return _VOCAB.intern([token.text for token in tokenize(cell)])


def cell_token_texts(cell: str) -> list[str]:
    """The token texts of one cell, read through :func:`_cell_token_ids`.

    Tokenizes directly (uncached) only when the global vocabulary is
    full.
    """
    ids = _cell_token_ids(cell)
    if ids is None:
        return [token.text for token in tokenize(cell)]
    texts = _VOCAB.texts
    return [texts[i] for i in ids]


class _TokenRowCache:
    """Per-embedder float32 rows indexed by *global token id*.

    The matrix row index IS the global token id, so a warm shard's
    token matrix is one fancy-index gather with no per-token Python at
    all; only unseen ids are resolved, through
    :meth:`TermEmbedder.resolve`, which caches nothing — each token
    vector is held once, here.  Safe because an embedder's token->vector
    map is immutable (backend and OOV back-off are deterministic,
    centering is fixed at construction).
    """

    def __init__(self, dim: int) -> None:
        self._matrix = np.zeros((1024, dim), dtype=np.float32)
        self._known = np.zeros(1024, dtype=bool)
        self._lock = threading.Lock()

    def ensure(
        self, embedder: TermEmbedder, used_ids: np.ndarray
    ) -> np.ndarray | None:
        """Back every id in sorted ``used_ids``; returns the id-indexed
        matrix, or ``None`` when an id exceeds :data:`_TOKEN_ROWS_LIMIT`
        (callers fall back to a compact per-shard matrix).

        Misses resolve outside the lock, so concurrent shards do not
        queue behind each other's OOV back-off; two shards missing the
        same id both resolve it, to the same vector.  The matrix only
        grows (growth copies it under the lock), so rows written into
        whichever matrix is current land where every later reader
        looks.
        """
        if used_ids.size == 0:
            return self._matrix
        top = int(used_ids[-1]) + 1
        if top > _TOKEN_ROWS_LIMIT:
            return None
        with self._lock:
            self._grow(top)
            missing = used_ids[~self._known[used_ids]]
            if not missing.size:
                return self._matrix
        vectors = embedder.resolve([_VOCAB.texts[i] for i in missing])
        with self._lock:
            self._matrix[missing] = vectors
            self._known[missing] = True
            return self._matrix

    def _grow(self, top: int) -> None:
        capacity = self._matrix.shape[0]
        if top <= capacity:
            return
        grown = np.zeros(
            (max(top, 2 * capacity), self._matrix.shape[1]), dtype=np.float32
        )
        grown[:capacity] = self._matrix
        self._matrix = grown
        known = np.zeros(grown.shape[0], dtype=bool)
        known[:capacity] = self._known
        self._known = known


_ROW_CACHES: "weakref.WeakKeyDictionary[TermEmbedder, _TokenRowCache]" = (
    weakref.WeakKeyDictionary()
)
_ROW_CACHES_LOCK = threading.Lock()


def _row_cache(embedder: TermEmbedder) -> _TokenRowCache:
    with _ROW_CACHES_LOCK:
        cache = _ROW_CACHES.get(embedder)
        if cache is None:
            cache = _ROW_CACHES[embedder] = _TokenRowCache(embedder.dim)
        return cache


@dataclass(frozen=True)
class _TableFragment:
    """One table's pack contribution, in the global token-id space.

    Cells are deduplicated within the table; ``occ_toks`` concatenates
    the token-id block of each distinct cell in first-seen order,
    ``counts[c]`` is the block length of cell ``c``, and ``grid`` maps
    every row-major grid position to its table-local cell id.  The
    arrays are read-only — fragments are memoized per :class:`Table`
    (tables are immutable) and shared across packs, so a warm shard
    packs by array concatenation alone.
    """

    shape: tuple[int, int]
    n_cells: int
    occ_toks: np.ndarray
    counts: np.ndarray
    grid: np.ndarray


_FRAGMENTS: "weakref.WeakKeyDictionary[Table, _TableFragment]" = (
    weakref.WeakKeyDictionary()
)
_FRAGMENTS_LOCK = threading.Lock()


def _build_fragment(table: Table) -> _TableFragment | None:
    """Tokenize one table into a fragment; None on vocabulary overflow."""
    ids: dict[str, int] = {}
    parts: list[np.ndarray] = []
    grid: list[int] = []
    for row in table.rows:
        for cell in row:
            idx = ids.get(cell)
            if idx is None:
                idx = len(ids)
                ids[cell] = idx
                part = _cell_token_ids(cell)
                if part is None:
                    return None
                parts.append(part)
            grid.append(idx)
    counts = np.fromiter(
        (p.size for p in parts), dtype=np.intp, count=len(parts)
    )
    occ = (
        np.concatenate(parts) if parts else np.empty(0, dtype=np.intp)
    )
    grid_arr = np.asarray(grid, dtype=np.intp)
    for arr in (counts, occ, grid_arr):
        arr.setflags(write=False)
    return _TableFragment(table.shape, len(ids), occ, counts, grid_arr)


def _table_fragment(table: Table) -> _TableFragment | None:
    frag = _FRAGMENTS.get(table)
    if frag is not None:
        return frag
    frag = _build_fragment(table)
    if frag is None:
        return None
    with _FRAGMENTS_LOCK:
        _FRAGMENTS[table] = frag
    return frag


@dataclass(frozen=True)
class CorpusPack:
    """A shard of tables interned and packed into flat COO blocks.

    ``occ_cells``/``occ_toks`` pair cell ids with token ids (one entry
    per token occurrence inside a distinct cell, sorted by cell; cells
    are deduplicated per table by the fragment memo); ``grid_cells``
    holds every grid position of every table in row-major table order,
    as cell ids; ``col_perm`` permutes that flat grid into per-table
    column-major order.
    ``row_offsets``/``col_offsets`` are the ``(n_tables + 1,)`` prefix
    arrays over global row/column indices that slice any corpus-level
    result back into per-table blocks.

    ``occ_toks`` lives in the process-global id space when
    ``token_space == "global"`` (``used_token_ids`` lists the distinct
    ids, sorted); on vocabulary overflow it falls back to a dense
    shard-``"local"`` space enumerated by ``local_tokens``.
    """

    shapes: tuple[tuple[int, int], ...]
    row_offsets: np.ndarray
    col_offsets: np.ndarray
    n_cells: int
    occ_cells: np.ndarray
    occ_toks: np.ndarray
    grid_cells: np.ndarray
    col_perm: np.ndarray
    token_space: str
    used_token_ids: np.ndarray
    local_tokens: tuple[str, ...]

    @property
    def n_tables(self) -> int:
        return len(self.shapes)

    @property
    def total_rows(self) -> int:
        return int(self.row_offsets[-1])

    @property
    def total_cols(self) -> int:
        return int(self.col_offsets[-1])

    @property
    def n_tokens(self) -> int:
        if self.token_space == "local":
            return len(self.local_tokens)
        return int(self.used_token_ids.size)

    def token_texts(self) -> tuple[str, ...]:
        """The distinct token texts of the shard, in id order."""
        if self.token_space == "local":
            return self.local_tokens
        texts = _VOCAB.texts
        return tuple(texts[i] for i in self.used_token_ids)

    def compact_occ_toks(self) -> np.ndarray:
        """``occ_toks`` re-based onto ``range(n_tokens)`` in the order
        of :meth:`token_texts` (what a per-shard matrix is indexed by).
        """
        if self.token_space == "local":
            return self.occ_toks
        return np.searchsorted(self.used_token_ids, self.occ_toks)

    def level_widths(self) -> tuple[np.ndarray, np.ndarray]:
        """Grid entries per global row / per global column.

        ``row_widths[r]`` is the number of grid cells global row ``r``
        owns (its table's column count); likewise for columns.  These
        are the segment lengths of ``grid_cells`` (row-major) and
        ``grid_cells[col_perm]`` (column-major).
        """
        shapes = np.asarray(self.shapes, dtype=np.intp).reshape(-1, 2)
        n_rows, n_cols = shapes[:, 0], shapes[:, 1]
        return np.repeat(n_cols, n_rows), np.repeat(n_rows, n_cols)


def pack_corpus(tables: Sequence[Table]) -> CorpusPack:
    """Intern and pack a shard of tables (stages 1 and 2).

    Degenerate tables (zero rows, zero columns, all-blank grids) pack as
    empty blocks and classify to the same empty/zero-vector annotations
    the per-table path produces.
    """
    with obs.span("fused.intern", n_tables=len(tables)):
        # Per-table fragments come from a memo keyed by the (immutable)
        # table, so a warm shard does no per-cell Python work at all:
        # the merge below is pure array concatenation plus offset
        # arithmetic.  A cold table tokenizes once, ever.
        empty = np.empty(0, dtype=np.intp)
        token_space = "global"
        local_tokens: tuple[str, ...] = ()
        fragments: list[_TableFragment] = []
        for table in tables:
            frag = _table_fragment(table)
            if frag is None:
                token_space = "local"
                break
            fragments.append(frag)
        if token_space == "global":
            shapes = [f.shape for f in fragments]
            n = len(fragments)
            per_table_cells = np.fromiter(
                (f.n_cells for f in fragments), dtype=np.intp, count=n
            )
            cell_starts = np.zeros(n, dtype=np.intp)
            if n > 1:
                np.cumsum(per_table_cells[:-1], out=cell_starts[1:])
            n_cells = int(per_table_cells.sum())
            occ_toks = (
                np.concatenate([f.occ_toks for f in fragments])
                if n
                else empty
            )
            all_counts = (
                np.concatenate([f.counts for f in fragments]) if n else empty
            )
            # Fragment occurrences are ordered by table-local cell, so
            # the concatenation is ordered by global cell id — the
            # segment-sorted layout aggregation relies on.
            occ_cells = np.repeat(np.arange(n_cells, dtype=np.intp), all_counts)
            grid_cells = (
                np.concatenate([f.grid for f in fragments]) if n else empty
            )
            frag_sizes = np.fromiter(
                (f.grid.size for f in fragments), dtype=np.intp, count=n
            )
            grid_cells = grid_cells + np.repeat(cell_starts, frag_sizes)
            used_token_ids = np.unique(occ_toks)
        else:
            # Global vocabulary overflow: intern shard-locally instead
            # (corpus-wide cell dedup, uncached — correctness fallback,
            # not a fast path).
            shapes = []
            flat_cells: list[str] = []
            for table in tables:
                shapes.append(table.shape)
                for row in table.rows:
                    flat_cells.extend(row)
            cell_ids: dict[str, int] = {}
            flat_grid = [
                cell_ids.setdefault(cell, len(cell_ids))
                for cell in flat_cells
            ]
            grid_cells = np.asarray(flat_grid, dtype=np.intp)
            n_cells = len(cell_ids)
            token_ids: dict[str, int] = {}
            occ_cells_list: list[int] = []
            occ_toks_list: list[int] = []
            for cell_id, cell in enumerate(cell_ids):
                texts = cell_token_texts(cell)
                if texts:
                    occ_cells_list.extend([cell_id] * len(texts))
                    occ_toks_list.extend(
                        token_ids.setdefault(t, len(token_ids))
                        for t in texts
                    )
            occ_cells = np.asarray(occ_cells_list, dtype=np.intp)
            occ_toks = np.asarray(occ_toks_list, dtype=np.intp)
            used_token_ids = empty
            local_tokens = tuple(token_ids)

    with obs.span("fused.pack", cells=n_cells, tokens=occ_toks.size):
        n = len(shapes)
        shapes_arr = np.asarray(shapes, dtype=np.intp).reshape(n, 2)
        n_rows, n_cols = shapes_arr[:, 0], shapes_arr[:, 1]
        row_offsets = np.zeros(n + 1, dtype=np.intp)
        col_offsets = np.zeros(n + 1, dtype=np.intp)
        np.cumsum(n_rows, out=row_offsets[1:])
        np.cumsum(n_cols, out=col_offsets[1:])

        # Column-major permutation of the flat row-major grid: element
        # ``j`` of table ``t``'s column-major enumeration lives at
        # row-major position ``start_t + (j % n_rows_t) * n_cols_t +
        # j // n_rows_t``.  All closed-form array arithmetic — no
        # per-table Python loop.
        grid_sizes = n_rows * n_cols
        total_grid = int(grid_sizes.sum())
        grid_starts = np.zeros(n, dtype=np.intp)
        if n > 1:
            np.cumsum(grid_sizes[:-1], out=grid_starts[1:])
        pos = np.arange(total_grid, dtype=np.intp) - np.repeat(
            grid_starts, grid_sizes
        )
        rows_rep = np.repeat(n_rows, grid_sizes)
        cols_rep = np.repeat(n_cols, grid_sizes)
        col_perm = (
            np.repeat(grid_starts, grid_sizes)
            + (pos % rows_rep) * cols_rep
            + pos // rows_rep
        )
        return CorpusPack(
            shapes=tuple(shapes),
            row_offsets=row_offsets,
            col_offsets=col_offsets,
            n_cells=n_cells,
            occ_cells=occ_cells,
            occ_toks=occ_toks,
            grid_cells=grid_cells,
            col_perm=col_perm,
            token_space=token_space,
            used_token_ids=used_token_ids,
            local_tokens=local_tokens,
        )


def _indexed_segment_sum(
    values: np.ndarray,
    indices: np.ndarray,
    lengths: np.ndarray,
    n_segments: int,
) -> np.ndarray:
    """Gather-and-segment-sum fused: ``out[s] = Σ values[indices[j]]``
    over block ``s``'s slice of ``indices`` -> ``(n_segments, dim)``.

    Block ``s`` spans ``lengths[s]`` consecutive entries of ``indices``;
    empty blocks yield zero rows.  This is the scatter-aggregation core
    of the fused plane: every Def. 8 summation goes through it.

    A *rank loop*: segments are ranked longest first, so at position
    ``p`` the segments still running are a prefix of the ranking, and
    one gather plus one in-place add advances all of them by one term.
    Each output row is therefore ``((0 + v0) + v1) + ...`` in index
    order — the exact float sequence of a CSR-matrix product with unit
    weights, which ``tests/core/test_fused.py`` keeps as the bitwise
    oracle.  The loop runs ``max(lengths)`` times, and only one
    position's gather is materialized at a time, never the whole
    ``values[indices]``.  Accumulation dtype follows ``values.dtype``.
    """
    out = np.zeros((n_segments, values.shape[1]), dtype=values.dtype)
    if indices.shape[0] == 0:
        return out
    lengths = np.asarray(lengths, dtype=np.intp)
    starts = np.zeros(n_segments, dtype=np.intp)
    np.cumsum(lengths[:-1], out=starts[1:])
    ranked = np.argsort(-lengths)
    ranked_lengths = lengths[ranked]
    n_active = int(np.count_nonzero(ranked_lengths))
    ranked = ranked[:n_active]
    # active[p]: how many segments are longer than p — the prefix of
    # the ranking that position p advances.
    active = n_active - np.cumsum(np.bincount(ranked_lengths[:n_active]))[:-1]
    # Every occurrence's slot in position-major, rank-minor order, so
    # position p's gather indices are one contiguous slice.
    rank_of = np.empty(n_segments, dtype=np.intp)
    rank_of[ranked] = np.arange(n_active)
    segment = np.repeat(np.arange(n_segments), lengths)
    position = np.arange(indices.shape[0]) - starts[segment]
    slot_base = np.zeros(active.size, dtype=np.intp)
    np.cumsum(active[:-1], out=slot_base[1:])
    gather = np.empty(indices.shape[0], dtype=np.intp)
    gather[slot_base[position] + rank_of[segment]] = indices
    acc = np.zeros((n_active, values.shape[1]), dtype=values.dtype)
    offset = 0
    for k in active.tolist():
        acc[:k] += values.take(gather[offset:offset + k], axis=0)
        offset += k
    out[ranked] = acc
    return out


def token_matrix(
    embedder: TermEmbedder, tokens: Sequence[str]
) -> np.ndarray:
    """Resolve distinct tokens by text -> float32 ``(n_tokens, dim)``.

    The compact fallback of :func:`_token_rows`: one batched embedder
    call for a shard the row cache cannot back.
    """
    return embedder.resolve(list(tokens)).astype(np.float32)


def _id_rows(
    embedder: TermEmbedder, used_ids: np.ndarray, occ_toks: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Token vectors for global token-id occurrences: ``(rows, occ_idx)``.

    ``used_ids`` is the sorted set of ids in ``occ_toks``.
    ``rows[occ_idx[j]]`` is the vector of occurrence ``j`` — the caller
    feeds both straight into :func:`_indexed_segment_sum` so the
    per-occurrence matrix never exists.  Fast path: the id-indexed
    per-embedder row cache with ``occ_idx = occ_toks``; ids past the
    row cache's limit resolve a compact :func:`token_matrix`.
    """
    full = _row_cache(embedder).ensure(embedder, used_ids)
    if full is not None:
        return full, occ_toks
    texts = _VOCAB.texts
    return (
        token_matrix(embedder, [texts[i] for i in used_ids]),
        np.searchsorted(used_ids, occ_toks),
    )


def _token_rows(
    embedder: TermEmbedder, pack: CorpusPack
) -> tuple[np.ndarray, np.ndarray]:
    """The shard's token vectors, unmaterialized (see :func:`_id_rows`);
    a shard-``"local"`` pack resolves its own compact matrix."""
    if pack.token_space == "global":
        return _id_rows(embedder, pack.used_token_ids, pack.occ_toks)
    return token_matrix(embedder, pack.token_texts()), pack.compact_occ_toks()


def fused_level_matrices(
    embedder: TermEmbedder, pack: CorpusPack
) -> tuple[np.ndarray, np.ndarray]:
    """Every row and column aggregate of the shard (stage 3), float32.

    Returns ``(row_matrix, col_matrix)`` of shapes
    ``(pack.total_rows, dim)`` / ``(pack.total_cols, dim)``; slice with
    ``pack.row_offsets`` / ``pack.col_offsets`` to recover one table's
    blocks.  Two-stage scatter: token vectors sum into unique-cell
    vectors, cell vectors scatter over the grids — with *global*
    row/column segments, so one gather/reduce chain crosses every table
    boundary in the shard.
    """
    dim = embedder.dim
    if pack.occ_toks.size == 0:
        return (
            np.zeros((pack.total_rows, dim), dtype=np.float32),
            np.zeros((pack.total_cols, dim), dtype=np.float32),
        )
    token_rows, occ_idx = _token_rows(embedder, pack)

    cell_counts = np.bincount(pack.occ_cells, minlength=pack.n_cells)
    cell_vecs = _indexed_segment_sum(
        token_rows, occ_idx, cell_counts, pack.n_cells
    )

    # Rows and columns are one segment sum over the stacked row-major
    # and column-major grids: every row segment, then every column one.
    level_cells = np.concatenate(
        (pack.grid_cells, pack.grid_cells[pack.col_perm])
    )
    level_widths = np.concatenate(pack.level_widths())
    n_levels = pack.total_rows + pack.total_cols
    level_vecs = _indexed_segment_sum(
        cell_vecs, level_cells, level_widths, n_levels
    )
    return level_vecs[: pack.total_rows], level_vecs[pack.total_rows :]
