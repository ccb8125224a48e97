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
then runs the operations of the per-pair reference estimator in
``tests/oracles.py`` (``mutual_information(contingency(a, b))``), each sum
in its order, on stacks of tables of one shape, so each value equals the
per-pair estimate bit for bit (``information_matrix`` says why and bounds
its memory).
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
# A block of at least this many tables, or of tables under 8 cells, is laid
# out tables last, (r, c, B), so its marginals and sums run over rows of B;
# a smaller one keeps (B, r, c), where numpy's own reductions take the
# reference's order in one call each.  Timed per block (one 2-core host):
# tables last ran 2x faster at 64 or more tables of 2 x 2 or 3 x 2 cells and
# at least as fast from 64 tables of 5 x 10 or 10 x 10 cells, but 1.2-1.4x
# slower below 32 tables of 10 x 10.
TABLES_LAST_MIN = 64
# One-hot columns per tile (a column with more codes is a tile of its own)
# and rows per one-hot block.  On the m = 300, n = 600 `wide` build (one
# 2-core host, BLAS on one thread) 384 columns and 2**15 cells ran faster
# than tiles of 128, 256 or 512 columns and blocks of 2**14, 2**16 or 2**17
# cells; 2**15 and 2**16 cells ran within 5% of each other on the recorded
# builds and on inputs of 16 or 32 codes per column at n = 600 and 4,000.
# The product of two tiles packs y's one-hot rows two per float32 row, as
# hot[2k] + PACK * hot[2k + 1]: a block adds at most HOT_BLOCK_ROWS < PACK
# ones per count, so every packed value and partial sum is an integer below
# PACK * (HOT_BLOCK_ROWS + 1) < 2**24, exact whatever order BLAS adds in, and
# PACK, a power of two, divides it exactly for the unpacking floor.  Blocks
# are added in float64.
HOT_TILE_COLUMNS = 384
HOT_BLOCK_ROWS = 1024
PACK = 2 * HOT_BLOCK_ROWS
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


def _pairwise_sum(a: np.ndarray) -> np.ndarray:
    """Sum over axis 0 in the order numpy's 1-D ``np.sum`` adds a contiguous
    array: in sequence below 8 terms; up to 128, 8 running sums over blocks
    of 8, joined as ((s0 + s1) + (s2 + s3)) + ((s4 + s5) + (s6 + s7)), then
    the rest in sequence; above 128, the two halves split at a multiple of 8.
    Where axis 0 is the contiguous one, numpy's own reduction runs it so."""
    n = len(a)
    if n < 8 or a.strides[0] == a.itemsize:
        return np.add.reduce(a, axis=0)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _pairwise_sum(a[:half]) + _pairwise_sum(a[half:])
    full = n - n % 8
    sums = np.add.reduce(a[:full].reshape(full // 8, 8, *a.shape[1:]), axis=0)
    sums = sums[0::2] + sums[1::2]
    sums = sums[0::2] + sums[1::2]
    total = sums[0] + sums[1]
    for k in range(full, n):
        total += a[k]
    return total


def _stack_information(out: np.ndarray, at: np.ndarray, counts: np.ndarray,
                       n: int, pending: list) -> None:
    """MI of each table of the (B, r, c) count stack, written to out[at]: a
    full table's as the sum of its terms, the nonzero-cell terms of one with
    an empty cell through the term buffer ``pending``.  When r*c > n every
    table has an empty cell, and only nonzero cells' terms are taken.  A
    block is laid out tables last or first by TABLES_LAST_MIN."""
    counts = np.ascontiguousarray(counts)       # so each block's p is C-contiguous
    tables, r, c = counts.shape
    step = max(1, PAIR_BLOCK_CELLS // (r * c))
    for lo in range(0, tables, step):
        sel = at[lo:lo + step]
        block = counts[lo:lo + step]
        # the reference's p.sum(axis=1) and p.sum(axis=0): rows pairwise, columns
        # row by row, or pairwise down a contiguous (r, 1) table
        if sel.size >= TABLES_LAST_MIN or r * c < 8:
            p = np.empty((r, c, sel.size))
            np.divide(block.transpose(1, 2, 0), float(n), out=p, dtype=np.float64)
            prow = _pairwise_sum(p.transpose(1, 0, 2))
            pcol = _pairwise_sum(p) if c == 1 else np.add.reduce(p, axis=0)
            marginals = prow[:, None] * pcol
            cells, ratios = p.reshape(r * c, -1).T, marginals.reshape(r * c, -1).T
        else:
            p = np.divide(block, float(n), dtype=np.float64)
            marginals = p.sum(axis=2, keepdims=True) * p.sum(axis=1, keepdims=True)
            cells, ratios = p.reshape(sel.size, -1), marginals.reshape(sel.size, -1)
        # cells and ratios: (B, r*c) views of p and marginals, a table's cells in row-major order
        if r * c > n:
            mask = cells > 0
            nonzero = cells[mask]
            pending.append((sel, mask.sum(axis=1), nonzero * np.log2(nonzero / ratios[mask])))
        else:
            with np.errstate(divide="ignore", invalid="ignore"):
                np.divide(p, marginals, out=marginals)
                np.log2(marginals, out=marginals)
                marginals *= p              # nan in an empty cell
            sums = _pairwise_sum(ratios.T)  # ratios now holds the terms
            out[sel] = sums
            empty = np.flatnonzero(np.isnan(sums))
            if empty.size:
                nonzero = cells[empty] > 0
                pending.append((sel[empty], nonzero.sum(axis=1), ratios[empty][nonzero]))
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


def _packed(hot: np.ndarray) -> np.ndarray:
    """A one-hot block's rows 2k and 2k + 1 as row k: hot[2k] + PACK * hot[2k + 1]."""
    packed = hot[0::2].copy()
    packed[:len(hot) // 2] += PACK * hot[1::2]
    return packed


def _unpacked(product: np.ndarray, width: int) -> np.ndarray:
    """(rows, width) counts from a product with a packed one-hot of that many rows."""
    high = np.floor(product / PACK)
    product -= PACK * high
    counts = np.empty((len(product), width), dtype=np.float32)
    counts[:, 0::2] = product
    counts[:, 1::2] = high[:, :width // 2]
    return counts


def _tile_counts(dense: np.ndarray, x, y, hot_x: np.ndarray) -> np.ndarray:
    """(x codes, y codes) counts of every pair of a column of tile x and one
    of tile y, summed over blocks of rows: the symmetric product of x's
    one-hot with itself (numpy computes half of it), or the product with y's
    one-hot packed two rows per row, unpacked.  ``hot_x`` is x's one-hot
    over the first block."""
    counts = None
    for lo in range(0, dense.shape[1], HOT_BLOCK_ROWS):
        hot = hot_x if lo == 0 else _one_hot(dense, x, lo)
        if y is x:
            block = hot @ hot.T
        else:
            block = _unpacked(hot @ _packed(_one_hot(dense, y, lo)).T, y[3])
        counts = block if counts is None else np.add(counts, block, dtype=np.float64)
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
      whose product has at most ``PRODUCT_CELLS_PER_TABLE`` cells per
      table it yields, that product holds every count table of a column
      of x and one of y; the tables of a run of x's columns with r codes
      and a run of y's with c codes reshape into a (B, r, c) stack, the
      lower column index as the rows.  Rows are taken in blocks of
      ``HOT_BLOCK_ROWS``.  A tile's product with itself is numpy's
      symmetric ``hot_x @ hot_x.T``, which computes half of it; the
      product of two tiles packs y's one-hot rows two per float32 row,
      ``hot[2k] + PACK * hot[2k + 1]`` (``PACK = 2 * HOT_BLOCK_ROWS``),
      which halves its multiply-adds, and unpacks each cell v as
      ``v - PACK * floor(v / PACK)`` and ``floor(v / PACK)``.  A block's
      count is at most ``HOT_BLOCK_ROWS``, so every packed value and
      partial sum is an integer below 2**24, exact in float32 whatever
      order BLAS adds in; the blocks are added in float64.  The pairs of
      every other tile pair (columns of many codes) are grouped by shape
      and counted by ``np.bincount`` of n-long keys, exact too.
    - **Float part.** It stays bit-identical to the per-pair estimate
      because every sum adds the same numbers in the same order as the
      reference's sums of one (r, c) float64 table ``p``.  Each block of
      a stack is divided by n into C-contiguous float64 (tables last when
      it holds ``TABLES_LAST_MIN`` tables or tables of under 8 cells).
      ``p.sum(axis=1)``, the row marginals, is numpy's 1-D pairwise sum
      of each row: in sequence below 8 terms, else 8 running sums over
      blocks of 8 joined as a tree, then the rest in sequence, and above
      128 terms two halves split at a multiple of 8 (``_pairwise_sum``).
      ``p.sum(axis=0)`` adds the rows in sequence, except where c == 1:
      an (r, 1) table is contiguous, so numpy sums its column pairwise,
      and so does the kernel.  The ``p * log2(p / (prow * pcol))`` terms
      of a table with no empty cell are summed like its 1-D ``np.sum``;
      the nonzero-cell terms of a table with an empty cell are buffered
      and summed grouped by their count L, one row of a (B, L) sum each.
      Tables last, numpy's reductions would add the rows in sequence, so
      ``_pairwise_sum`` runs the pairwise order with strided adds over
      rows of B.

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
