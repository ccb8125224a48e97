"""``ingest.dense_codes`` against ``np.unique``, and where ``np.unique`` no longer runs.

``dense_codes`` maps integer codes without sorting when their range is below
the row length and ranks any other row with ``np.unique`` first, so every
input kind below is checked against ``np.unique``'s sorted codes and counts
and against the dict first-appearance oracle of ``tests/oracles.py``.  The
binning functions built on it are checked against their former
``np.unique`` forms.  The last test pins that the selection path sorts no
full-length column: Q, F, CFS, ReliefF and the discretization of
categorical columns make no ``np.unique`` call on an n-element array.
"""

import numpy as np
import pytest

from qpfs.baselines import cfs, relieff
from qpfs.infotheory import build_redundancy_matrix, build_relevance_vector
from qpfs.ingest import (ColumnSpec, DiscretizedDataset, dense_codes, discretize,
                         equal_frequency_codes, equal_width_codes)

from conftest import dataset_from_rows
from oracles import oracle_first_appearance_codes

INT64 = np.iinfo(np.int64)


def unique_sorted(row):
    _, inverse, counts = np.unique(row, return_inverse=True, return_counts=True)
    return inverse.astype(np.int64), counts


def random_rows(rng, kind: str, p: int, n: int) -> np.ndarray:
    if kind == "small":
        return rng.integers(0, 5, (p, n))
    if kind == "negative":
        return rng.integers(-9, 3, (p, n))
    if kind == "constant":
        return np.full((p, n), int(rng.integers(-50, 50)))
    if kind == "sparse":
        return rng.choice([-7, 0, 40, 1000], size=(p, n))
    if kind == "huge-range":                    # range 7(n-1) >= n: np.unique
        return np.array([rng.permutation(n) * 7 - n for _ in range(p)])
    if kind == "int64-extremes":                # max - min overflows int64
        return rng.choice([INT64.min, INT64.max, 0, -1], size=(p, n))
    if kind == "fast-and-slow":
        rows = rng.integers(0, 4, (p, n))
        rows[::2] = rng.permutation(n) * 7 - n
        return rows
    if kind == "int8":
        return rng.integers(-128, 127, (p, n), dtype=np.int8, endpoint=True)
    if kind == "uint8":
        return rng.integers(0, 4, (p, n), dtype=np.uint8)
    if kind == "uint64":
        return rng.integers(2**63, 2**64 - 1, (p, n), dtype=np.uint64, endpoint=True)
    if kind == "bool":
        return rng.random((p, n)) < 0.3
    if kind == "strings":
        return rng.choice(["b", "a", "c", "aa"], size=(p, n))
    if kind == "floats":
        return rng.choice([0.5, -1.25, 3.0, 0.0, -0.0], size=(p, n))
    raise ValueError(kind)


KINDS = ["small", "negative", "constant", "sparse", "huge-range", "int64-extremes",
         "fast-and-slow", "int8", "uint8", "uint64", "bool", "strings", "floats"]


class TestDenseCodesMatchesUnique:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("first_appearance", [False, True])
    def test_rows_and_vectors(self, kind, first_appearance):
        oracle = oracle_first_appearance_codes if first_appearance else unique_sorted
        rng = np.random.default_rng(sum(map(ord, kind)) + first_appearance)
        for n in (0, 1, 2, 3, 7, 50, 301):
            for p in (1, 2, 3, 5):
                rows = random_rows(rng, kind, p, n)
                codes, sizes, counts = dense_codes(rows, first_appearance)
                assert codes.dtype == np.int64 and codes.shape == (p, n)
                assert codes.flags.c_contiguous
                assert sizes.dtype == np.int64 and sizes.shape == (p,)
                assert counts.size == sizes.sum()
                per_row = np.split(counts, sizes.cumsum()[:-1])
                for row, got, got_counts in zip(rows, codes, per_row):
                    want, want_counts = oracle(row)
                    assert np.array_equal(got, want)
                    assert np.array_equal(got_counts, want_counts)
                vector, vector_sizes, vector_counts = dense_codes(rows[0], first_appearance)
                assert np.array_equal(vector, codes[0])
                assert vector_sizes.tolist() == [sizes[0]]
                assert np.array_equal(vector_counts, per_row[0])

    def test_transposed_view_gives_c_contiguous_rows(self):
        matrix = np.random.default_rng(3).integers(-2, 6, (40, 9))
        codes, sizes, counts = dense_codes(matrix.T)
        assert codes.flags.c_contiguous
        per_row = np.split(counts, sizes.cumsum()[:-1])
        for j in range(9):
            want, want_counts = unique_sorted(matrix[:, j])
            assert np.array_equal(codes[j], want)
            assert np.array_equal(per_row[j], want_counts)

    def test_first_appearance_codes_on_lists_and_arrays(self):
        def codes(values):
            return dense_codes(values, first_appearance=True)[0].tolist()

        assert codes(["A", "B", "A", "C"]) == [0, 1, 0, 2]
        assert codes([9, -4, 9, 2, -4]) == [0, 1, 0, 2, 1]
        assert dense_codes(np.array([5]), first_appearance=True)[2].tolist() == [1]
        rng = np.random.default_rng(8)
        for kind in KINDS:
            row = random_rows(rng, kind, 1, 60)[0]
            got, _, got_counts = dense_codes(row, first_appearance=True)
            want, want_counts = oracle_first_appearance_codes(row)
            assert np.array_equal(got, want) and np.array_equal(got_counts, want_counts)

    def test_empty_vector(self):
        codes, sizes, counts = dense_codes(np.zeros(0, dtype=np.int64), first_appearance=True)
        assert codes.shape == (0,) and sizes.tolist() == [0] and counts.size == 0


def unique_equal_frequency(values, n_bins):
    n = values.size
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    first_rank = np.concatenate(([0], np.cumsum(counts)[:-1]))
    buckets, dense = np.unique(first_rank[inverse] * n_bins // n, return_inverse=True)
    return dense, buckets.size


def unique_equal_width(values, n_bins):
    lo, hi = float(values.min()), float(values.max())
    if hi == lo:
        return np.zeros(values.size, dtype=np.int64), 1
    width = (hi - lo) / n_bins
    provisional = np.minimum((values - lo) // width, n_bins - 1).astype(np.int64)
    buckets, dense = np.unique(provisional, return_inverse=True)
    return dense, buckets.size


class TestBinningMatchesUnique:
    @staticmethod
    def columns(rng):
        for n in (1, 2, 5, 40, 333):
            yield rng.normal(size=n)
            yield np.round(rng.normal(size=n), 1)               # ties
            yield rng.choice([0.0, 1.0, 2.5], size=n)           # few values
            yield np.full(n, 4.25)                              # constant
            yield np.concatenate([rng.normal(size=n), [1e6]])   # outlier: empty bins

    @pytest.mark.parametrize("n_bins", [1, 2, 3, 10, 50, 400])
    def test_equal_frequency(self, n_bins):
        for values in self.columns(np.random.default_rng(n_bins)):
            codes, n_codes = equal_frequency_codes(values, n_bins)
            want, want_n = unique_equal_frequency(values, n_bins)
            assert np.array_equal(codes, want) and n_codes == want_n
            assert codes.dtype == np.int64

    @pytest.mark.parametrize("n_bins", [1, 2, 3, 10, 50, 400])
    def test_equal_width(self, n_bins):
        for values in self.columns(np.random.default_rng(100 + n_bins)):
            codes, n_codes = equal_width_codes(values, n_bins)
            want, want_n = unique_equal_width(values, n_bins)
            assert np.array_equal(codes, want) and n_codes == want_n
            assert codes.dtype == np.int64


@pytest.fixture()
def unique_sizes(monkeypatch):
    """The sizes of the arrays that ``np.unique`` is called on, in order."""
    sizes: list[int] = []
    original = np.unique

    def counting(ar, *args, **kwargs):
        sizes.append(np.asarray(ar).size)
        return original(ar, *args, **kwargs)

    monkeypatch.setattr(np, "unique", counting)
    return sizes


class TestNoFullColumnSort:
    N = 157

    def discretized(self):
        rng = np.random.default_rng(5)
        codes = rng.integers(-3, 4, (self.N, 6))
        codes[:, 1] = rng.choice([0, 9, 40], self.N)     # sparse codes, range below n
        return DiscretizedDataset(feature_codes=codes, target=rng.integers(0, 2, self.N))

    def test_the_counter_sees_a_column_sort(self, unique_sizes):
        dense_codes(np.arange(self.N) * 7)              # range 7(N-1) >= N: np.unique
        assert unique_sizes == [self.N]

    def test_selection_path_sorts_no_column(self, unique_sizes):
        dd = self.discretized()
        build_redundancy_matrix(dd)
        build_relevance_vector(dd)
        cfs(dd)
        relieff(dd, 3, 5)
        relieff(dd, 3, 5, n_iterations=40, seed=2)
        assert self.N not in unique_sizes

    def test_discretizing_categorical_columns_sorts_no_column(self, unique_sizes):
        rng = np.random.default_rng(6)
        columns = [ColumnSpec("c1", "categorical"), ColumnSpec("c2", "categorical"),
                   ColumnSpec("b", "binary"), ColumnSpec("y", "binary", "target")]
        rows = [(f"A{rng.integers(0, 5)}", f"B{rng.integers(0, 12)}",
                 str(rng.integers(0, 2)), str(rng.integers(0, 2))) for _ in range(self.N)]
        data = dataset_from_rows(columns, rows)
        unique_sizes.clear()
        dd = discretize(data)
        assert self.N not in unique_sizes
        assert dd.feature_codes.shape == (self.N, 3)
