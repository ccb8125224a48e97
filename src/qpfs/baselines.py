"""Comparison selectors: greedy mRMR, MaxRel, Information Gain, ReliefF, CFS.

All selectors are deterministic given their full parameter set (including
the seed where one applies) and break score ties by ascending feature
index.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .infotheory import information
from .ingest import DiscretizedDataset, dense_codes
from .qp import _check_k, ranking_of


@dataclass
class SelectionResult:
    """An ordered feature subset plus the score trace that produced it.

    ``scores`` is method-specific: the full per-feature score vector for
    ranking selectors (quadratic, MaxRel, Information Gain, ReliefF), the
    per-step criterion values for greedy mRMR, and the winning merit for CFS.
    """

    method: str
    selected: list[int]
    scores: np.ndarray
    truncated: bool = False

    def __post_init__(self):
        if len(set(self.selected)) != len(self.selected):
            raise DataError("selection contains duplicate features")


def mrmr_greedy(Q, F, k: int) -> SelectionResult:
    """Greedy minimal-redundancy / maximal-relevance selection.

    The first pick is the most relevant feature; each later step adds the
    candidate j maximizing F[j] - mean(Q[j, s] for already-selected s),
    the additive (difference) form of the criterion.
    """
    Qv = np.asarray(Q, dtype=float)
    Fv = np.asarray(F, dtype=float)
    m = Fv.shape[0]
    _check_k(k, m)

    selected = [int(np.argmax(Fv))]
    trace = [float(Fv[selected[0]])]
    remaining = [j for j in range(m) if j != selected[0]]
    while len(selected) < k:
        crit = Fv[remaining] - Qv[np.ix_(remaining, selected)].mean(axis=1)
        best = int(np.argmax(crit))          # first max: lowest index wins ties
        trace.append(float(crit[best]))
        selected.append(remaining.pop(best))
    return SelectionResult(method="mrmr", selected=selected, scores=np.array(trace))


def _top_k_relevance(method: str, F, k: int) -> SelectionResult:
    Fv = np.asarray(F, dtype=float)
    _check_k(k, Fv.shape[0])
    return SelectionResult(method=method, selected=ranking_of(Fv)[:k].tolist(),
                           scores=Fv.copy())


def max_rel(F, k: int) -> SelectionResult:
    """Top-k by relevance alone."""
    return _top_k_relevance("maxrel", F, k)


def information_gain(F, k: int) -> SelectionResult:
    """Top-k by I(y; x_i), which is the relevance vector F: MaxRel's ranking."""
    return _top_k_relevance("infogain", F, k)


# Visited rows per block in relieff.  Its transient memory is Z plus a few
# (block, n) arrays: at n = 1000 and m = 20 columns of 10 codes, the traced
# peak is 1.3 MB at 32, 1.7 MB at 64 and 2.3 MB at 128, of which Z is 0.8 MB.
# Blocks of 128 were faster still, but raised the peak RSS of the
# `tables-strict` benchmark by 1.8 MB, against 0.5 MB at 64.
RELIEFF_BLOCK = 64


def relieff(data: DiscretizedDataset, k: int, n_neighbors: int,
            n_iterations: int | None = None, seed: int = 0) -> SelectionResult:
    """ReliefF weights with Hamming distance on the discretized codes.

    Near hits pull a feature's weight down when they disagree with the
    reference sample; near misses (weighted by their class prior) push it
    up.  ``n_iterations=None`` visits every sample once in row order, which
    is the default; smaller values sample without replacement under the
    seed.

    Neighbours are found for ``RELIEFF_BLOCK`` visited rows at a time: with
    Z the one-hot matrix of the codes (one column per observed code of each
    feature, stored transposed), the Hamming distances from those rows to
    all n rows are ``m - Z[rows] @ Z.T`` (exact small integers), a row's
    distance to itself is set past every other, and a stable sort within
    each class orders its members by distance, ties by ascending index.
    The nearest ``n_neighbors`` of every other class are the misses and of
    the row's own class, self excluded, the hits.  The block's per-visit
    updates are added to the weights in visit order, by one ``cumsum``.
    Transient memory is a few (block, n) arrays; Z itself is n by the total
    number of codes.
    """
    codes = data.feature_codes
    y = data.target
    n, m = codes.shape
    _check_k(k, m)
    if n_neighbors < 1:
        raise ConfigError(f"n_neighbors must be positive, got {n_neighbors}")
    if n_iterations is not None and n_iterations < 1:
        raise ConfigError(f"n_iterations must be positive, got {n_iterations}")
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")

    class_sizes = np.bincount(y, minlength=2)
    if class_sizes.min() < n_neighbors:
        raise DataError(
            f"smallest class has {class_sizes.min()} members; need >= {n_neighbors}"
        )
    priors = class_sizes / n

    if n_iterations is None or n_iterations >= n:
        visit = np.arange(n)
    else:
        rng = np.random.default_rng(seed)
        visit = np.sort(rng.choice(n, size=n_iterations, replace=False))

    # One-hot over each column's observed codes, columns offset one after
    # another, so negative and sparse codes cost no extra columns.
    dense, sizes, _ = dense_codes(codes.T)
    ZT = np.zeros((int(sizes.sum()), n), dtype=np.float32)      # Z transposed
    ZT[dense + (np.cumsum(sizes) - sizes)[:, None], np.arange(n)] = 1.0
    dist_type = np.min_scalar_type(m + 1)
    members = {cls: np.flatnonzero(y == cls) for cls in range(class_sizes.size)}

    weights = np.zeros(m)
    for lo in range(0, visit.size, RELIEFF_BLOCK):
        rows = visit[lo:lo + RELIEFF_BLOCK]
        ref = codes[rows]
        own = y[rows]
        dist = ZT[:, rows].T @ ZT
        np.subtract(m, dist, out=dist)
        dist = dist.astype(dist_type)
        dist[np.arange(rows.size), rows] = m + 1        # self sorts last
        hit = np.zeros((rows.size, m))
        miss = np.zeros((rows.size, m))
        for cls, idx in members.items():
            order = np.argsort(dist[:, idx], axis=1, kind="stable")[:, :n_neighbors]
            # Sums of 0/1 mismatches are exact.  Self is among the first
            # n_neighbors only when its class has exactly that many members;
            # it adds no mismatch, and n_hits leaves it out of the mean.
            mismatches = (codes[idx[order]] != ref[:, None, :]).sum(axis=1)
            is_own = own == cls
            n_hits = max(min(n_neighbors, idx.size - 1), 1)
            hit[is_own] = mismatches[is_own] / n_hits
            factor = priors[cls] / (1.0 - priors[own[~is_own]])
            miss[~is_own] += factor[:, None] * (mismatches[~is_own] / n_neighbors)
        # cumsum adds one visit at a time, in order: the rounding is a loop's
        weights = np.cumsum(np.vstack([weights, (miss - hit) / visit.size]), axis=0)[-1]

    return SelectionResult(method="relieff", selected=ranking_of(weights)[:k].tolist(),
                           scores=weights)


# ---------------------------------------------------------------------------
# CFS
# ---------------------------------------------------------------------------

def _subset_merits(subsets: np.ndarray, su_target: np.ndarray,
                   su_pairs: np.ndarray) -> np.ndarray:
    """CFS merit of each row of a (B, k) array of subsets, k >= 1:
    k * mean(feature-class SU) / sqrt(k + k(k-1) * mean(feature-feature SU)).

    ``su_pairs`` must have a zero diagonal, so a block's sum is the sum of
    its k(k-1) feature-feature entries."""
    k = subsets.shape[1]
    r_cf = su_target[subsets].mean(axis=1)
    if k == 1:
        r_ff = 0.0
    else:
        block = su_pairs[subsets[:, :, None], subsets[:, None, :]]
        r_ff = block.sum(axis=(1, 2)) / (k * (k - 1))
    return k * r_cf / np.sqrt(k + k * (k - 1) * r_ff)


# Consecutive non-improving expansions after which cfs's best-first search stops.
CFS_STALL_LIMIT = 5


def cfs(data: DiscretizedDataset) -> SelectionResult:
    """Correlation-based feature selection by best-first forward search.

    Maximizes the merit of symmetric-uncertainty correlations; the search
    stops after ``CFS_STALL_LIMIT`` consecutive non-improving expansions.  The
    subset size is emergent, and ``selected`` keeps the order in which
    features entered the winning subset.
    """
    m = data.n_features
    if m < 1:
        raise DataError("need at least one feature")

    info = information(data)
    h = np.diag(info)
    denom = h[:, None] + h[None, :]
    su = np.divide(2.0 * info, denom, out=np.zeros_like(info), where=denom != 0.0)
    np.fill_diagonal(su, 0.0)        # _subset_merits sums whole blocks
    su_target, su_pairs = su[:m, m], su[:m, :m]

    # Best-first over subsets; heap keys are (-merit, insertion counter).
    # An expansion scores all its unvisited children in one array operation,
    # then pushes them in ascending order of the added feature.
    counter = 0
    heap: list[tuple[float, int, tuple[int, ...]]] = []
    visited = {frozenset()}

    def expand(subset: tuple[int, ...]) -> None:
        nonlocal counter
        children = [subset + (j,) for j in range(m)
                    if j not in subset and frozenset(subset + (j,)) not in visited]
        if not children:
            return
        visited.update(map(frozenset, children))
        merits = _subset_merits(np.array(children), su_target, su_pairs)
        for child, merit in zip(children, merits.tolist()):
            counter += 1
            heapq.heappush(heap, (-merit, counter, child))

    expand(())                       # the frontier starts at all singletons
    best_merit = float("-inf")
    best_subset: tuple[int, ...] = ()
    stalled = 0

    while heap:
        neg_merit, _, subset = heapq.heappop(heap)
        merit = -neg_merit
        if merit > best_merit + 1e-12:
            best_merit = merit
            best_subset = subset
            stalled = 0
        else:
            stalled += 1
            if stalled >= CFS_STALL_LIMIT:
                break
        expand(subset)

    selected = [int(j) for j in best_subset]
    return SelectionResult(method="cfs", selected=selected, scores=np.array([best_merit]))


def truncate_selection(result: SelectionResult, k: int) -> SelectionResult:
    """Cut an emergent-size selection down to k, recording that it happened.

    Features are dropped from the end, i.e. in reverse order of entry into
    the winning subset.  Selections already at or under k pass through.
    """
    if len(result.selected) <= k:
        return result
    return SelectionResult(method=result.method, selected=result.selected[:k],
                           scores=result.scores, truncated=True)
