"""Plug-in entropy and mutual-information estimates over integer codes.

Everything is in bits (log base 2) and uses the maximum-likelihood
frequency estimator with no smoothing; 0*log(0) terms contribute zero.
One batched kernel is the only estimator: it gives ``information_matrix``
(H on the diagonal, pairwise MI off it), hence the redundancy matrix Q and
CFS's symmetric uncertainty, and the relevance vector F (also the
Information Gain scores) as the pairs (feature, class).  A
``DiscretizedDataset`` keeps the matrix of its [features | target] once
built (``DiscretizedDataset.information``), and Q and F are copied out of it.

The kernel counts the pairs' tables with blocked ``np.bincount`` calls and
runs the numpy operations of the per-pair reference estimator in
``tests/oracles.py`` (``mutual_information(contingency(a, b))``) on stacks
of tables, so each value equals the per-pair estimate bit for bit.  Two
groupings make that hold: pairs are stacked by table shape (r, c), so a
stack's marginal sums add each table's cells in the order its own 2-D sums
would; and the nonzero-cell terms are summed in groups of equal count L, so
each row of a (B, L) sum is the pairwise summation ``np.sum`` gives one
pair's 1-D terms.
Its transient memory is bounded by ``PAIR_BLOCK_CELLS`` cells per array.
"""

from __future__ import annotations

import numpy as np

from .errors import DataError
from .ingest import DiscretizedDataset, dense_codes


def _entropy(counts: np.ndarray, n: int) -> float:
    """H in bits from the counts of a column's observed codes, which sum to n."""
    p = counts / n
    return float(0.0 - np.sum(p * np.log2(p)))     # +0.0, not -0.0, for a single code


# Cells per transient array of the pair kernel (see ``information_matrix``).
# Held across all 44,850 pairs of an n = 600, m = 300 build, the MI terms
# alone would take about 36 MB; blocks of 2**16 cells (512 KB) were the
# fastest of 2**14 to 2**18 on that build.
PAIR_BLOCK_CELLS = 1 << 16


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


def _pair_information(dense: np.ndarray, sizes: np.ndarray,
                      rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """MI of each pair (dense[rows[k]], dense[cols[k]]), the first as table rows.

    ``dense`` holds ``dense_codes`` rows, row i with codes 0..sizes[i]-1.
    The batched kernel of ``information_matrix``; its docstring says why each
    value equals the per-pair reference of ``tests/oracles.py`` bit for bit.
    """
    n = dense.shape[1]
    out = np.empty(rows.size)
    pending: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []   # (pairs, L, terms)
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
            p = counts.reshape(sel.size, r, c) / float(n)   # each table sums to n
            prow = p.sum(axis=2, keepdims=True)
            pcol = p.sum(axis=1, keepdims=True)
            mask = p > 0
            nonzero = p[mask]
            terms = nonzero * np.log2(nonzero / (prow * pcol)[mask])
            pending.append((sel, mask.reshape(sel.size, -1).sum(axis=1), terms))
            if sum(part[2].size for part in pending) >= PAIR_BLOCK_CELLS:
                _sum_terms(out, pending)
    _sum_terms(out, pending)
    out[out < 0.0] = 0.0            # the per-pair reference's clamp
    return out


def information_matrix(codes) -> np.ndarray:
    """p x p matrix over the columns of ``codes``: H on the diagonal, MI off it.

    Pairs i < j are tabulated with column i as the rows, so every entry equals
    the per-pair reference ``mutual_information(contingency(codes[:, i],
    codes[:, j]))`` of ``tests/oracles.py`` exactly, and the diagonal holds
    its ``entropy(codes[:, i])``.

    All pairs go through one batched kernel that applies the reference's
    numpy operations to stacks of tables.  It stays bit-identical to the
    per-pair estimate by two groupings:

    - pairs are stacked by table shape (r, c), so ``p.sum(axis=2)`` and
      ``p.sum(axis=1)`` of a (B, r, c) stack give each pair the marginals
      its own 2-D sums would;
    - the ``p * log2(p / (prow * pcol))`` terms of the nonzero cells are
      buffered and summed grouped by their count L, so each row of a (B, L)
      ``sum(axis=1)`` is the pairwise summation of one pair's 1-D ``np.sum``.

    Memory: a block of B = PAIR_BLOCK_CELLS // max(n, r*c) pairs (at least
    one) holds a (B, n) key array and (B, r, c) tensors, and the term buffer
    is summed and dropped once it reaches PAIR_BLOCK_CELLS terms.  A block
    holds at least one pair, so a pair whose n or r*c alone exceeds the
    bound (a column with a code per row) is held whole, as a per-pair
    contingency table would hold it.
    """
    codes = np.asarray(codes)
    n, p = codes.shape
    if n == 0 or p == 0:
        raise DataError(f"need at least one row and one column, got {codes.shape}")
    return _dense_information(*dense_codes(codes.T))


def _dense_information(dense: np.ndarray, counts: list) -> np.ndarray:
    """``information_matrix`` of the columns that ``dense_codes`` turned into
    the rows of ``dense``, with ``counts`` their code counts."""
    n = dense.shape[1]
    values = np.diag([_entropy(column, n) for column in counts])
    sizes = np.array([column.size for column in counts])
    i, j = np.triu_indices(len(counts), k=1)
    values[i, j] = values[j, i] = _pair_information(dense, sizes, i, j)
    return values


def build_redundancy_matrix(data: DiscretizedDataset) -> np.ndarray:
    """Q, the (m, m) matrix: off-diagonal MI between feature pairs, diagonal H(x_i).

    A fresh copy of ``data.information[:m, :m]``, so the caller may write to
    it; the information matrix is built on the first call for ``data``.
    """
    m = data.n_features
    return data.information[:m, :m].copy()


def build_relevance_vector(data: DiscretizedDataset) -> np.ndarray:
    """F, the (m,) vector of MI between each feature and the target.

    A copy of ``data.information[:m, m]`` once that matrix is built;
    otherwise only the m pairs (feature i, target) go through the kernel,
    which gives each the same value as that matrix's (i, m) entry.
    """
    target = data.target
    if target.min() == target.max():
        raise DataError("single-label target")
    m = data.n_features
    if data._information is not None:
        return data._information[:m, m].copy()
    dense, counts = dense_codes(np.vstack([data.feature_codes.T, target]))
    sizes = np.array([column.size for column in counts])
    return _pair_information(dense, sizes, np.arange(m), np.full(m, m))
