"""Plug-in entropy and mutual-information estimates over integer codes.

Everything is in bits (log base 2) and uses the maximum-likelihood
frequency estimator with no smoothing; 0*log(0) terms contribute zero.
One layer, ``information_matrix`` (H on the diagonal, pairwise MI off it),
gives the redundancy matrix Q and CFS's symmetric uncertainty; the
relevance vector F (also the Information Gain scores) applies the same
per-pair estimator to each feature and the class.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .ingest import DiscretizedDataset


@dataclass(frozen=True)
class ContingencyTable:
    """Joint counts over the observed code sets of two vectors."""

    counts: np.ndarray
    total: int


def contingency(codes_a, codes_b) -> ContingencyTable:
    """Cross-tabulate two equal-length code vectors.

    counts[u][v] is the number of indices i with codes_a[i] = u-th observed
    code of a and codes_b[i] = v-th observed code of b.
    """
    a = np.asarray(codes_a)
    b = np.asarray(codes_b)
    if a.ndim != 1 or b.ndim != 1 or a.shape != b.shape:
        raise DataError(f"length mismatch: {a.shape} vs {b.shape}")
    if a.size == 0:
        raise DataError("empty code vectors")
    _, ia = np.unique(a, return_inverse=True)
    _, ib = np.unique(b, return_inverse=True)
    r = int(ia.max()) + 1
    c = int(ib.max()) + 1
    counts = np.bincount(ia * c + ib, minlength=r * c).reshape(r, c)
    return ContingencyTable(counts=counts, total=int(a.size))


def mutual_information(table: ContingencyTable) -> float:
    """I(A;B) in bits from a contingency table, clamped below at 0."""
    counts = np.asarray(table.counts, dtype=float)
    total = counts.sum()
    if total <= 0:
        raise DataError("empty contingency table")
    p = counts / total
    prow = p.sum(axis=1, keepdims=True)
    pcol = p.sum(axis=0, keepdims=True)
    mask = p > 0
    mi = float(np.sum(p[mask] * np.log2(p[mask] / (prow @ pcol)[mask])))
    return max(mi, 0.0)


def entropy(codes) -> float:
    """H(A) in bits over the observed codes."""
    a = np.asarray(codes)
    if a.size == 0:
        raise DataError("empty code vector")
    _, counts = np.unique(a, return_counts=True)
    p = counts / a.size
    return float(-np.sum(p * np.log2(p)))


@dataclass
class RedundancyMatrix:
    """Pairwise feature similarity: MI off the diagonal, entropy on it.

    Symmetric by construction (see ``information_matrix``).
    ``with_zero_diagonal`` supports the alternative objective reading where
    self-similarity is excluded.
    """

    values: np.ndarray
    feature_names: list[str]

    @property
    def m(self) -> int:
        return self.values.shape[0]

    def with_zero_diagonal(self) -> "RedundancyMatrix":
        values = self.values.copy()
        np.fill_diagonal(values, 0.0)
        return RedundancyMatrix(values=values, feature_names=list(self.feature_names))

    def to_text(self) -> str:
        return matrix_to_text(self.values, self.feature_names)


@dataclass
class RelevanceVector:
    """Mutual information between each feature and the class label."""

    values: np.ndarray
    feature_names: list[str]

    @property
    def m(self) -> int:
        return self.values.shape[0]

    def to_text(self) -> str:
        return vector_to_text(self.values, self.feature_names)


def information_matrix(codes) -> np.ndarray:
    """p x p matrix over the columns of ``codes``: H on the diagonal, MI off it.

    Pairs i < j are tabulated with column i as the rows, so every entry equals
    ``mutual_information(contingency(codes[:, i], codes[:, j]))`` exactly.
    """
    codes = np.asarray(codes)
    n, p = codes.shape
    if n == 0 or p == 0:
        raise DataError(f"need at least one row and one column, got {codes.shape}")
    dense = [np.unique(codes[:, i], return_inverse=True)[1] for i in range(p)]
    sizes = [int(d.max()) + 1 for d in dense]
    values = np.zeros((p, p), dtype=float)
    for i in range(p):
        values[i, i] = entropy(dense[i])
        for j in range(i + 1, p):
            counts = np.bincount(dense[i] * sizes[j] + dense[j],
                                 minlength=sizes[i] * sizes[j])
            table = ContingencyTable(counts.reshape(sizes[i], sizes[j]), n)
            values[i, j] = values[j, i] = mutual_information(table)
    return values


def build_redundancy_matrix(data: DiscretizedDataset) -> RedundancyMatrix:
    """m x m matrix: off-diagonal MI between feature pairs, diagonal H(x_i)."""
    return RedundancyMatrix(values=information_matrix(data.feature_codes),
                            feature_names=list(data.feature_names))


def build_relevance_vector(data: DiscretizedDataset) -> RelevanceVector:
    """Length-m vector of MI between each feature and the target."""
    target = data.target
    if target.min() == target.max():
        raise DataError("single-label target")
    values = np.array([
        mutual_information(contingency(data.feature_codes[:, i], target))
        for i in range(data.n_features)
    ])
    return RelevanceVector(values=values, feature_names=list(data.feature_names))


# ---------------------------------------------------------------------------
# Plain-text serialization (CLI `inspect`, artifact dumps)
# ---------------------------------------------------------------------------

def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def matrix_to_text(values: np.ndarray, names: list[str]) -> str:
    lines = ["feature\t" + "\t".join(names)]
    for name, row in zip(names, values):
        lines.append(name + "\t" + "\t".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def vector_to_text(values: np.ndarray, names: list[str]) -> str:
    lines = [f"{name}\t{_fmt(v)}" for name, v in zip(names, values)]
    return "\n".join(lines) + "\n"
