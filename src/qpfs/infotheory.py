"""Plug-in entropy and mutual-information estimates over integer codes.

Everything is in bits (log base 2) and uses the maximum-likelihood
frequency estimator with no smoothing; 0*log(0) terms contribute zero.
One batched kernel is the only estimator: it gives ``information_matrix``
(H on the diagonal, pairwise MI off it), hence the redundancy matrix Q and
CFS's symmetric uncertainty, and the relevance vector F (also the
Information Gain scores) as the pairs (feature, class).  ``information``
keeps the matrix of a ``DiscretizedDataset``'s [features | target] while
the dataset lives, and Q and F are copied out of it.

The kernel counts every pair's table exactly, with a matrix product of
one-hot tiles where that costs few multiply-adds per table and with
``np.bincount`` of n-long keys elsewhere (many codes per column; F alone),
then runs the numpy operations of the per-pair reference estimator in
``tests/oracles.py`` (``mutual_information(contingency(a, b))``) on stacks
of tables of one shape, so each value equals the per-pair estimate bit for
bit (``information_matrix`` says why and bounds its memory).
"""

from __future__ import annotations

import weakref

import numpy as np

from .errors import DataError
from .ingest import DiscretizedDataset, dense_codes


# Cells per float64 array of the pair kernel's float part and per block of
# bincount keys: a stack of tables is cut into blocks of at most this many
# cells, and buffered terms are summed once they reach it.
PAIR_BLOCK_CELLS = 1 << 15
# One-hot columns per tile (a column with more codes is a tile of its own)
# and rows per one-hot block.  A block's float32 product adds at most 1,024
# ones per count, exact in any order; blocks are added in float64.  On the
# m = 300, n = 600 `wide` build (one 2-core host, BLAS on one thread) 384
# columns and 2**15 cells ran faster than tiles of 128, 256 or 512 columns
# and blocks of 2**14, 2**16 or 2**17 cells; 2**15 and 2**16 cells ran
# within 5% of each other on the recorded builds and on inputs of 16 or 32
# codes per column at n = 600 and 4,000.
HOT_TILE_COLUMNS = 384
HOT_BLOCK_ROWS = 1024
# Two tiles' tables come from their one-hot product when it has at most this
# many cells per table it yields, and from np.bincount otherwise: a product
# spends about r*c*n multiply-adds per (r, c) table (twice that within one
# tile, whose product is symmetric), bincount about n steps.  Limits 0, 64
# to 256 and none were timed (two sweeps, one 2-core host, BLAS on one
# thread) on the recorded builds of the three benchmark workloads and on
# synthetic columns of 4 to 32 codes at n = 600 and 4,000.  Products
# everywhere ran 1.2-1.5x (32 codes, n = 600) to 6-7x (binary columns and
# one with a code per row, n = 4,000) slower than this limit, bincount
# everywhere 1.1-1.2x (the `tables` builds) to 4x (4 codes, n = 4,000).
# 224 was the fastest limit on `wide`'s builds, where a 10-code tile with
# itself (205 cells per table) takes a product, and stays below the 256
# cells per table of two 16-code tiles, where bincount ran 1.3x faster at
# n = 4,000.  As it is below HOT_TILE_COLUMNS, a tile of one column with
# more codes than that never takes a product, so a one-hot block has at
# most HOT_TILE_COLUMNS x HOT_BLOCK_ROWS cells.
PRODUCT_CELLS_PER_TABLE = 224


def _sum_terms(out: np.ndarray, pending: list) -> None:
    """Sum each buffered pair's MI terms into out, grouped by term count; empty the buffer."""
    if not pending:
        return
    sel, lengths, terms = (np.concatenate(parts) for parts in zip(*pending))
    starts = np.cumsum(lengths) - lengths
    for length in np.flatnonzero(np.bincount(lengths)):     # distinct, ascending
        same = lengths == length
        out[sel[same]] = terms[starts[same][:, None] + np.arange(length)].sum(axis=1)
    pending.clear()


def _stack_information(out: np.ndarray, at: np.ndarray, counts: np.ndarray,
                       n: int, pending: list) -> None:
    """MI of each table of the (B, r, c) count stack, written to out[at]: a
    full table's as the sum of its row of terms, the nonzero-cell terms of
    one with an empty cell through the term buffer ``pending``.  When r*c > n
    every table has an empty cell, and only nonzero cells' terms are taken."""
    counts = np.ascontiguousarray(counts)       # the reference's order of additions
    tables, r, c = counts.shape
    step = max(1, PAIR_BLOCK_CELLS // (r * c))
    for lo in range(0, tables, step):
        sel = at[lo:lo + step]
        p = np.divide(counts[lo:lo + step], float(n), dtype=np.float64)   # each table sums to n
        marginals = p.sum(axis=2, keepdims=True) * p.sum(axis=1, keepdims=True)
        if r * c > n:
            mask = p > 0
            nonzero = p[mask]
            pending.append((sel, mask.reshape(len(p), r * c).sum(axis=1),
                            nonzero * np.log2(nonzero / marginals[mask])))
        else:
            with np.errstate(divide="ignore", invalid="ignore"):
                np.divide(p, marginals, out=marginals)
                np.log2(marginals, out=marginals)
                marginals *= p              # nan in an empty cell
            terms = marginals.reshape(len(p), r * c)
            sums = terms.sum(axis=1)
            out[sel] = sums
            empty = np.flatnonzero(np.isnan(sums))
            if empty.size:
                nonzero = p[empty].reshape(empty.size, r * c) > 0
                pending.append((sel[empty], nonzero.sum(axis=1), terms[empty][nonzero]))
        if sum(part[2].size for part in pending) >= PAIR_BLOCK_CELLS:
            _sum_terms(out, pending)


def _tiles(columns: np.ndarray, sizes: np.ndarray) -> list:
    """Cut ``columns`` into consecutive tiles of at most HOT_TILE_COLUMNS
    codes, or of one column.  A tile is (columns, one-hot offset of each,
    runs, one-hot width), a run (first, end, codes) being a slice of columns
    of equal code count."""
    cuts, width = [], 0
    for k, size in enumerate(sizes[columns].tolist()):
        if width and width + size > HOT_TILE_COLUMNS:
            cuts.append(k)
            width = 0
        width += size
    tiles = []
    for cols in np.split(columns, cuts):
        codes = sizes[cols]
        bounds = [0, *(np.flatnonzero(np.diff(codes)) + 1).tolist(), cols.size]
        runs = [(a, b, int(codes[a])) for a, b in zip(bounds[:-1], bounds[1:])]
        tiles.append((cols, np.cumsum(codes) - codes, runs, int(codes.sum())))
    return tiles


def _one_hot(dense: np.ndarray, tile, lo: int) -> np.ndarray:
    """(codes, rows) float32 one-hot of a tile's columns over rows lo:lo + HOT_BLOCK_ROWS."""
    cols, offsets, _, width = tile
    cells = dense[cols, lo:lo + HOT_BLOCK_ROWS] + offsets[:, None]   # one-hot row
    rows = cells.shape[1]
    cells *= rows
    cells += np.arange(rows)            # flat index of each row's one
    hot = np.zeros(width * rows, dtype=np.float32)
    hot[cells.ravel()] = 1.0
    return hot.reshape(-1, rows)


def _tile_pairs(x, y) -> tuple[np.ndarray, np.ndarray]:
    """(i, j), i < j, of every pair of a column of tile x and one of tile y."""
    if y is x:
        i, j = np.triu_indices(x[0].size, k=1)
        i, j = x[0][i], x[0][j]
    else:
        i, j = (part.ravel() for part in np.meshgrid(x[0], y[0], indexing="ij"))
    return np.minimum(i, j), np.maximum(i, j)


def _tile_counts(dense: np.ndarray, x, y, hot_x: np.ndarray) -> np.ndarray:
    """(x codes, y codes) counts of every pair of a column of tile x and one
    of tile y: one-hot products summed over blocks of rows.  ``hot_x`` is
    x's one-hot over the first block."""
    counts = None
    for lo in range(0, dense.shape[1], HOT_BLOCK_ROWS):
        hot = hot_x if lo == 0 else _one_hot(dense, x, lo)
        product = hot @ (hot if y is x else _one_hot(dense, y, lo)).T
        counts = product if counts is None else np.add(counts, product, dtype=np.float64)
    return counts


def _tile_tables(counts: np.ndarray, x, y):
    """Yield (i, j, (B, r, c) tables) for the pairs i < j of a column of tile
    x and one of tile y, column i as the rows.

    Each run of one tile meets each run of the other in both roles, x's
    columns as rows in ``counts`` and y's as rows in ``counts.T`` (once for
    x is y, whose ``counts`` is symmetric), and keeps the pairs whose row
    column comes first: every pair once, and no table is transposed.
    """
    roles = [(x, y, counts)] if y is x else [(x, y, counts), (y, x, counts.T)]
    for (cols_a, offsets_a, runs_a, _), (cols_b, offsets_b, runs_b, _), table in roles:
        for a0, a1, r in runs_a:
            for b0, b1, c in runs_b:
                rows, cols = cols_a[a0:a1], cols_b[b0:b1]
                i, j = (rows[:, None] < cols).nonzero()
                if i.size:
                    lo_a, lo_b = offsets_a[a0], offsets_b[b0]
                    block = table[lo_a:lo_a + rows.size * r, lo_b:lo_b + cols.size * c]
                    block = block.reshape(rows.size, r, cols.size, c).transpose(0, 2, 1, 3)
                    yield rows[i], cols[j], block[i, j]


def _keyed_tables(dense: np.ndarray, sizes: np.ndarray, rows: np.ndarray, cols: np.ndarray):
    """Yield (positions k, (B, r, c) tables) for the pairs (rows[k], cols[k]),
    the first as the rows: one ``np.bincount`` of n-long keys per block of
    pairs of one shape, a block holding at most PAIR_BLOCK_CELLS keys and
    cells (or one pair)."""
    n = dense.shape[1]
    base = int(sizes.max()) + 1
    shapes, group = np.unique(sizes[rows] * base + sizes[cols], return_inverse=True)
    order = np.argsort(group, kind="stable")
    ends = np.cumsum(np.bincount(group))
    for shape, end, size in zip(shapes.tolist(), ends, np.diff(ends, prepend=0)):
        r, c = divmod(shape, base)
        members = order[end - size:end]
        step = max(1, PAIR_BLOCK_CELLS // max(n, r * c))
        for lo in range(0, members.size, step):
            sel = members[lo:lo + step]
            keys = dense[rows[sel]]
            keys *= c
            keys += dense[cols[sel]]
            keys += (np.arange(sel.size) * (r * c))[:, None]
            counts = np.bincount(keys.ravel(), minlength=sel.size * r * c)
            yield sel, counts.reshape(sel.size, r, c)


def _pair_information(dense: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """(p, p) array whose [i, j] is the MI of rows i and j of ``dense``, row i
    as the table rows, for every i < j; zero elsewhere.

    ``dense`` holds ``dense_codes`` rows, row i with codes 0..sizes[i]-1.
    The batched kernel of ``information_matrix``; its docstring says why each
    value equals the per-pair reference of ``tests/oracles.py`` bit for bit.
    """
    p, n = dense.shape
    out = np.zeros(p * p)
    pending: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []   # (pairs, L, terms)
    tiles = _tiles(np.argsort(sizes, kind="stable"), sizes)   # by code count, then index
    keyed = []                      # (i, j) of the tile pairs left to bincount
    for a, x in enumerate(tiles):
        hot_x, size = None, x[0].size
        for y in tiles[a:]:
            pairs = size * (size - 1) // 2 if y is x else size * y[0].size
            if not pairs:
                continue
            if x[3] * y[3] > PRODUCT_CELLS_PER_TABLE * pairs:
                keyed.append(_tile_pairs(x, y))
                continue
            if hot_x is None:
                hot_x = _one_hot(dense, x, 0)
            for rows, cols, tables in _tile_tables(_tile_counts(dense, x, y, hot_x), x, y):
                _stack_information(out, rows * p + cols, tables, n, pending)
    if keyed:
        i, j = (np.concatenate(part) for part in zip(*keyed))
        for k, tables in _keyed_tables(dense, sizes, i, j):
            _stack_information(out, i[k] * p + j[k], tables, n, pending)
    return _clamped_sums(out, pending).reshape(p, p)


def _clamped_sums(out: np.ndarray, pending: list) -> np.ndarray:
    """``out`` with the buffered terms summed in and the reference's clamp at 0.0."""
    _sum_terms(out, pending)
    out[out < 0.0] = 0.0
    return out


def information_matrix(codes) -> np.ndarray:
    """p x p matrix over the columns of ``codes``: H on the diagonal, MI off it.

    Pairs i < j are tabulated with column i as the rows, so every entry equals
    the per-pair reference ``mutual_information(contingency(codes[:, i],
    codes[:, j]))`` of ``tests/oracles.py`` exactly, and the diagonal holds
    its ``entropy(codes[:, i])``.

    All pairs go through one batched kernel in two parts.

    - **Counts.** Columns are ordered by code count and cut into tiles of
      at most ``HOT_TILE_COLUMNS`` one-hot columns.  For tiles x and y
      whose product ``hot_x @ hot_y.T`` has at most
      ``PRODUCT_CELLS_PER_TABLE`` cells per table it yields, that product
      holds every count table of a column of x and one of y; the tables of
      a run of x's columns with r codes and a run of y's with c codes
      reshape into a (B, r, c) stack, the lower column index as the rows.
      The float32 products of blocks of ``HOT_BLOCK_ROWS`` rows add 0s
      and 1s, so every partial sum is an integer of at most 1,024, exact
      whatever order BLAS adds in; the blocks are added in float64.  The
      pairs of every other tile pair (columns of many codes) are grouped
      by shape and counted by ``np.bincount`` of n-long keys, exact too.
    - **Float part.** It stays bit-identical to the per-pair estimate
      because each stack is copied to a C-contiguous float64 (B, r, c)
      array of one shape, so ``p.sum(axis=2)`` and ``p.sum(axis=1)`` give
      each table the marginals its own 2-D sums would; and because the
      ``p * log2(p / (prow * pcol))`` terms are summed by rows of one
      length, each row's sum being the pairwise summation of the table's
      1-D ``np.sum``.  A table with no empty cell is one row of a
      (B, r*c) ``sum(axis=1)``.  The nonzero-cell terms of a table with an
      empty cell are buffered and summed grouped by their count L, one
      row of a (B, L) sum each.

    Memory, beyond the p x p result: a one-hot block holds at most
    ``HOT_TILE_COLUMNS`` x ``HOT_BLOCK_ROWS`` cells (the rows are added
    block by block), a product at most ``HOT_TILE_COLUMNS``**2; a block of
    keys and the float arrays hold at most ``PAIR_BLOCK_CELLS`` cells, and
    the term buffer is summed and dropped once it reaches that many terms.
    A block holds at least one pair, so a pair whose n or r*c alone
    exceeds the bound (a column with a code per row) is held whole, as a
    per-pair contingency table would hold it.  The pairs left to
    ``np.bincount`` are listed first, two indices each.  F alone holds m
    values, two indices per pair and the same bounded blocks: O(m).
    """
    codes = np.asarray(codes)
    n, p = codes.shape
    if n == 0 or p == 0:
        raise DataError(f"need at least one row and one column, got {codes.shape}")
    return _dense_information(*dense_codes(codes.T))


def _stacked_codes(data: DiscretizedDataset) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``dense_codes`` of the rows [features | target] of ``data``.  No name
    holds the stacked copy, so it is freed once ``dense_codes`` returns and
    the pair kernel runs at the memory a features-only build would use."""
    return dense_codes(np.vstack([data.feature_codes.T, data.target]))


def _dense_information(dense: np.ndarray, sizes: np.ndarray, counts: np.ndarray
                       ) -> np.ndarray:
    """``information_matrix`` of the columns that ``dense_codes`` turned into
    the rows of ``dense``, with ``sizes`` and ``counts`` as it returns them."""
    p = counts / dense.shape[1]
    values = _pair_information(dense, sizes)
    i, j = np.triu_indices(sizes.size, k=1)
    values[j, i] = values[i, j]
    entropy = np.empty(sizes.size)
    # a column's terms are summed like the pair terms, as np.sum of each alone
    _sum_terms(entropy, [(np.arange(sizes.size), sizes, p * np.log2(p))])
    values[np.diag_indices(sizes.size)] = 0.0 - entropy      # +0.0 for a single code
    return values


_INFORMATION: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def information(data: DiscretizedDataset) -> np.ndarray:
    """Read-only ``information_matrix`` of ``data``'s [features | target],
    built on the first call and kept in ``_INFORMATION`` while ``data`` lives."""
    values = _INFORMATION.get(data)
    if values is None:
        values = _INFORMATION[data] = _dense_information(*_stacked_codes(data))
        values.flags.writeable = False
    return values


def build_redundancy_matrix(data: DiscretizedDataset) -> np.ndarray:
    """Q, the (m, m) matrix: off-diagonal MI between feature pairs, diagonal H(x_i).

    A fresh copy of ``information(data)[:m, :m]``, so the caller may write
    to it; the information matrix is built on the first call for ``data``.
    """
    m = data.n_features
    return information(data)[:m, :m].copy()


def build_relevance_vector(data: DiscretizedDataset) -> np.ndarray:
    """F, the (m,) vector of MI between each feature and the target.

    A copy of ``information(data)[:m, m]`` once that matrix is built;
    otherwise only the m pairs (feature i, target) are counted, by
    ``np.bincount`` keys, and go through the matrix's float part and clamp,
    which gives each the same value as that matrix's (i, m) entry.
    """
    if data.target.min() == data.target.max():
        raise DataError("single-label target")
    m = data.n_features
    if data in _INFORMATION:
        return _INFORMATION[data][:m, m].copy()
    dense, sizes, _ = _stacked_codes(data)
    out, pending = np.zeros(m), []
    for k, tables in _keyed_tables(dense, sizes, np.arange(m), np.full(m, m)):
        _stack_information(out, k, tables, dense.shape[1], pending)
    return _clamped_sums(out, pending)
