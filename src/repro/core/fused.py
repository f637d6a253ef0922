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
   (:func:`repro.core.angles.segmented_walk_angles`) over the blocks
   :func:`level_blocks` returns, then the shared decision walk per
   table.

Aggregation modes the packed plane cannot express (``concat``,
contextual encoders) build their level blocks with
:mod:`repro.core.aggregate` in :func:`level_blocks` and join the same
walk.  Labels match the level-by-level reference
(:func:`repro.core.classifier.reference_classify`) because decisions
sit far from range boundaries in float32; the equivalence suite pins
this on every embedding backend.

Token vectors resolve two ways: a per-embedder float32 row matrix
indexed by global token id (:class:`_TokenRowCache` — a warm shard's
token matrix is one fancy-index gather, and each token vector is held
there once), or, for stores saved with a packed vocabulary, the
memory-mapped :class:`repro.embeddings.lookup.PackedVocabulary` rows
(f32 or int8 with per-row scales), which fleet and parallel workers
page-share.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro import obs
from repro.core.aggregate import AggregationConfig, aggregate_cols, aggregate_rows
from repro.embeddings.lookup import TermEmbedder
from repro.tables.model import Table
from repro.text import tokenize

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.classifier import MetadataClassifier


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


def supports_fast_path(embedder: TermEmbedder, config: AggregationConfig) -> bool:
    """True when the packed plane can reproduce ``config`` exactly.

    ``concat`` aggregation needs the first-k term vectors in order, and
    contextual aggregation needs per-sentence encoder state; both build
    their level blocks with :mod:`repro.core.aggregate` instead.
    """
    if config.mode == "concat":
        return False
    if config.contextual and hasattr(embedder.model, "encode_sentence"):
        return False
    return True


@lru_cache(maxsize=131_072)
def _cell_token_ids(cell: str, lowercase: bool) -> np.ndarray | None:
    """Memoized cell -> read-only array of global token ids.

    The process's one per-cell memo: cell contents repeat heavily both
    within a table (blanks, repeated categories) and across a served
    corpus (shared headers), and regex tokenization is the most
    expensive per-cell step.  The key is the (cell text, tokenizer
    fingerprint) pair — tokenization is a pure function of the cell
    *and* the tokenizer configuration, so two pipelines with different
    ``lowercase`` settings in one process must not share entries.
    ``lowercase`` is currently the tokenizer's whole configuration
    surface; a new tokenizer knob must join this key.  The ids
    themselves are tokenizer-agnostic (same text, same id).  Returns
    ``None`` when the global vocabulary is full; callers fall back to
    :func:`cell_token_texts`.
    """
    return _VOCAB.intern(
        [token.text for token in tokenize(cell, lowercase=lowercase)]
    )


def cell_token_texts(cell: str, lowercase: bool) -> list[str]:
    """The token texts of one cell, read through :func:`_cell_token_ids`.

    Tokenizes directly (uncached) only when the global vocabulary is
    full.
    """
    ids = _cell_token_ids(cell, lowercase)
    if ids is None:
        return [token.text for token in tokenize(cell, lowercase=lowercase)]
    texts = _VOCAB.texts
    return [texts[i] for i in ids]


class _TokenRowCache:
    """Per-embedder float32 rows indexed by *global token id*.

    The matrix row index IS the global token id, so a warm shard's
    token matrix is one fancy-index gather with no per-token Python at
    all; only unseen ids are resolved, through
    :meth:`TermEmbedder.resolve`, which leaves the embedder's own token
    LRU alone — each token vector is held once, here.  Safe because an
    embedder's token->vector map is immutable (backend and OOV back-off
    are deterministic, centering is fixed at construction).
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


_FRAGMENTS: "weakref.WeakKeyDictionary[Table, dict[bool, _TableFragment]]" = (
    weakref.WeakKeyDictionary()
)
_FRAGMENTS_LOCK = threading.Lock()


def _build_fragment(table: Table, lowercase: bool) -> _TableFragment | None:
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
                part = _cell_token_ids(cell, lowercase)
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


def _table_fragment(table: Table, lowercase: bool) -> _TableFragment | None:
    entry = _FRAGMENTS.get(table)
    if entry is not None:
        frag = entry.get(lowercase)
        if frag is not None:
            return frag
    frag = _build_fragment(table, lowercase)
    if frag is None:
        return None
    with _FRAGMENTS_LOCK:
        _FRAGMENTS.setdefault(table, {})[lowercase] = frag
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


def pack_corpus(
    tables: Sequence[Table],
    config: AggregationConfig = AggregationConfig(),
) -> CorpusPack:
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
        lowercase = config.lowercase
        empty = np.empty(0, dtype=np.intp)
        token_space = "global"
        local_tokens: tuple[str, ...] = ()
        fragments: list[_TableFragment] = []
        for table in tables:
            frag = _table_fragment(table, lowercase)
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
                texts = cell_token_texts(cell, lowercase)
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
    of the fused plane: the segment-sum operator IS a CSR matrix whose
    indptr is the length prefix array and whose column indices are the
    gather indices, so every Def. 8 summation is one direct-CSR matmul
    — no COO sort, and crucially no materialized ``values[indices]``
    intermediate (the corpus-sized gathers dominate memory traffic
    otherwise).  Without scipy it degrades to gather +
    ``np.add.reduceat``.  Accumulation dtype follows ``values.dtype``.
    """
    n = indices.shape[0]
    if n == 0:
        return np.zeros((n_segments, values.shape[1]), dtype=values.dtype)
    try:
        from scipy import sparse
    except ImportError:  # pragma: no cover - scipy ships with the env
        out = np.zeros((n_segments, values.shape[1]), dtype=values.dtype)
        occupied = lengths > 0
        if not np.any(occupied):
            return out
        starts = np.zeros(lengths.size, dtype=np.intp)
        np.cumsum(lengths[:-1], out=starts[1:])
        out[occupied] = np.add.reduceat(
            values[indices], starts[occupied], axis=0
        )
        return out
    indptr = np.zeros(n_segments + 1, dtype=np.intp)
    np.cumsum(lengths, out=indptr[1:])
    summer = sparse.csr_matrix(
        (
            np.ones(n, dtype=values.dtype),
            np.asarray(indices, dtype=np.intp),
            indptr,
        ),
        shape=(n_segments, values.shape[0]),
    )
    return np.asarray(summer @ values)


def token_matrix(
    embedder: TermEmbedder, tokens: Sequence[str]
) -> np.ndarray:
    """Resolve a token vocabulary by text -> float32 ``(n_tokens, dim)``.

    Prefers the embedder's packed vocabulary matrix when one is attached
    (known tokens gather from the memory-mapped rows, dequantized when
    the store was packed ``q8``; OOV tokens fall back to one batched
    embedder call).
    """
    packed = embedder.packed
    if packed is None:
        return embedder.vectors(list(tokens)).astype(np.float32)
    out = np.zeros((len(tokens), embedder.dim), dtype=np.float32)
    known_pos: list[int] = []
    known_ids: list[int] = []
    oov_pos: list[int] = []
    for pos, token in enumerate(tokens):
        token_id = packed.id_of(token)
        if token_id is None:
            oov_pos.append(pos)
        else:
            known_pos.append(pos)
            known_ids.append(token_id)
    if known_pos:
        out[np.asarray(known_pos, dtype=np.intp)] = packed.rows(
            np.asarray(known_ids, dtype=np.intp)
        )
    if oov_pos:
        oov_tokens = [tokens[i] for i in oov_pos]
        out[np.asarray(oov_pos, dtype=np.intp)] = embedder.vectors(oov_tokens)
    return out


def _token_rows(
    embedder: TermEmbedder, pack: CorpusPack
) -> tuple[np.ndarray, np.ndarray]:
    """The shard's token vectors, unmaterialized: ``(rows, occ_idx)``.

    ``rows[occ_idx[j]]`` is the vector of token occurrence ``j`` — the
    caller feeds both straight into :func:`_indexed_segment_sum` so the
    per-occurrence matrix never exists.  Fast path: the id-indexed
    per-embedder row cache with ``occ_idx = pack.occ_toks``; packed
    stores and shards past the row cache's limits resolve a compact
    per-shard :func:`token_matrix`.
    """
    if pack.token_space == "global" and embedder.packed is None:
        full = _row_cache(embedder).ensure(embedder, pack.used_token_ids)
        if full is not None:
            return full, pack.occ_toks
    return token_matrix(embedder, pack.token_texts()), pack.compact_occ_toks()


def fused_level_matrices(
    embedder: TermEmbedder,
    pack: CorpusPack,
    config: AggregationConfig = AggregationConfig(),
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

    row_widths, col_widths = pack.level_widths()
    col_cells = pack.grid_cells[pack.col_perm]
    row_vecs = _indexed_segment_sum(
        cell_vecs, pack.grid_cells, row_widths, pack.total_rows
    )
    col_vecs = _indexed_segment_sum(
        cell_vecs, col_cells, col_widths, pack.total_cols
    )
    if config.mode == "mean":
        per_cell = cell_counts.astype(np.float32)[:, None]
        row_totals = _indexed_segment_sum(
            per_cell, pack.grid_cells, row_widths, pack.total_rows
        )[:, 0]
        col_totals = _indexed_segment_sum(
            per_cell, col_cells, col_widths, pack.total_cols
        )[:, 0]
        _mean_in_place(row_vecs, row_totals)
        _mean_in_place(col_vecs, col_totals)
    return row_vecs, col_vecs


def _mean_in_place(summed: np.ndarray, totals: np.ndarray) -> None:
    occupied = totals > 0
    summed[occupied] /= totals[occupied, None]


def _stack_blocks(blocks: list[np.ndarray], dim: int) -> np.ndarray:
    """Concatenate per-table level blocks, skipping empty ones (a
    zero-level block is ``(0, dim)`` even where ``concat`` widens the
    others)."""
    filled = [block for block in blocks if block.shape[0]]
    return np.concatenate(filled) if filled else np.zeros((0, dim))


def _offsets(blocks: list[np.ndarray]) -> np.ndarray:
    offsets = np.zeros(len(blocks) + 1, dtype=np.intp)
    np.cumsum([block.shape[0] for block in blocks], out=offsets[1:])
    return offsets


def level_blocks(
    classifier: "MetadataClassifier", tables: Sequence[Table]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every (projected) row and column vector of a shard of tables.

    Returns ``(row_matrix, col_matrix, row_offsets, col_offsets)``; the
    ``(n_tables + 1,)`` offset prefixes slice the matrices back into
    per-table blocks.  Degenerate tables (zero rows, zero columns,
    all-blank grids) yield empty or all-zero blocks, never an
    exception.
    """
    embedder = classifier.embedder
    config = classifier.config.aggregation
    if supports_fast_path(embedder, config):
        pack = pack_corpus(tables, config)
        with obs.span("fused.aggregate", tokens=pack.n_tokens):
            row_matrix, col_matrix = fused_level_matrices(
                embedder, pack, config
            )
            row_matrix, col_matrix = _project(classifier, row_matrix, col_matrix)
        return row_matrix, col_matrix, pack.row_offsets, pack.col_offsets
    with obs.span("aggregate", n_tables=len(tables)):
        row_blocks = [aggregate_rows(embedder, t, config) for t in tables]
        col_blocks = [aggregate_cols(embedder, t, config) for t in tables]
        row_matrix, col_matrix = _project(
            classifier,
            _stack_blocks(row_blocks, embedder.dim),
            _stack_blocks(col_blocks, embedder.dim),
        )
    return row_matrix, col_matrix, _offsets(row_blocks), _offsets(col_blocks)


def _project(
    classifier: "MetadataClassifier", rows: np.ndarray, cols: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    if classifier.projection is None:
        return rows, cols
    return (
        classifier.projection.transform(rows),
        classifier.projection.transform(cols),
    )
