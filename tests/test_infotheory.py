"""Entropy / mutual-information estimators and the Q/F builders."""

import tracemalloc

import numpy as np
import pytest

from qpfs import infotheory, ingest
from qpfs.errors import DataError
from qpfs.cli import matrix_text, tsv
from qpfs.infotheory import (build_redundancy_matrix, build_relevance_vector,
                             information_matrix)
from qpfs.ingest import DiscretizationPolicy, discretize
from qpfs.evaluation import CvProtocol
from qpfs.pipeline import (METHODS, SelectionConfig, evaluate_methods,
                           information_quantities, select_features)

from conftest import make_dd, random_discretized, synthetic_credit_dataset
from oracles import (brute_force_mi_bits, contingency, entropy, mutual_information,
                     pairwise_oracle)


def table_information(counts) -> float:
    """MI of an (r, c) count table: ``information_matrix`` of two code vectors
    whose cross-tabulation it is."""
    counts = np.asarray(counts, dtype=np.int64)
    cells = np.repeat(np.arange(counts.size), counts.ravel())
    return information_matrix(np.column_stack(divmod(cells, counts.shape[1])))[0, 1]


def entropy_of(codes) -> float:
    """H of one code vector, the diagonal of its ``information_matrix``."""
    return information_matrix(np.asarray(codes).reshape(-1, 1))[0, 0]


class TestContingency:
    def test_all_four_cells_once(self):
        t = contingency([0, 0, 1, 1], [0, 1, 0, 1])
        assert t.tolist() == [[1, 1], [1, 1]]
        assert t.sum() == 4

    def test_single_cell_over_observed_labels(self):
        t = contingency([0, 0, 0], [1, 1, 1])
        assert t.tolist() == [[3]]
        assert t.sum() == 3

    def test_identical_vectors_diagonal(self):
        t = contingency([0, 1, 0, 1, 2], [0, 1, 0, 1, 2])
        assert np.diag(t).tolist() == [2, 2, 1]
        assert t.sum() - np.trace(t) == 0

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            contingency([0, 1], [0, 1, 2])

    def test_empty(self):
        with pytest.raises(DataError):
            contingency([], [])


class TestMutualInformation:
    def test_independent_fair_coins(self):
        t = np.array([[25, 25], [25, 25]])
        assert table_information(t) == 0.0

    def test_identical_fair_coins_one_bit(self):
        t = np.array([[50, 0], [0, 50]])
        assert table_information(t) == pytest.approx(1.0, abs=1e-15)

    def test_against_brute_force_oracle(self):
        # expected value computed by the independent term-by-term oracle
        counts = [[40, 10], [10, 40]]
        expected = brute_force_mi_bits(counts)
        assert expected == pytest.approx(0.27807190511263774, abs=1e-15)
        t = np.array(counts)
        assert table_information(t) == pytest.approx(expected, abs=1e-12)

    def test_random_tables_match_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            r, c = rng.integers(1, 6, size=2)
            counts = rng.integers(0, 30, size=(r, c))
            counts.flat[rng.integers(0, counts.size)] += 1   # non-empty
            assert table_information(counts) == pytest.approx(
                max(brute_force_mi_bits(counts), 0.0), abs=1e-12)

    def test_empty_table(self):
        with pytest.raises(DataError):
            table_information(np.zeros((2, 2)))


class TestEntropy:
    def test_constant(self):
        assert entropy_of([0, 0, 0, 0]) == 0.0

    def test_constant_is_positive_zero(self):
        # -0.0 == 0.0, so the sign bit is checked: a -0.0 printed as "-0" on Q's diagonal
        assert not np.signbit(entropy_of([0, 0, 0, 0]))
        assert not np.signbit(entropy([0, 0, 0, 0]))

    def test_uniform_binary(self):
        assert entropy_of([0, 1]) == pytest.approx(1.0, abs=1e-15)

    def test_uniform_four_symbols(self):
        assert entropy_of([0, 0, 1, 1, 2, 2, 3, 3]) == pytest.approx(2.0, abs=1e-15)

    def test_empty(self):
        with pytest.raises(DataError):
            entropy_of([])


class TestEstimatorProperties:
    """Spec invariants of ``information_matrix``, checked over randomized code vectors."""

    def test_symmetry_self_information_and_bounds(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            n = int(rng.integers(2, 60))
            a = rng.integers(0, int(rng.integers(2, 6)), size=n)
            b = rng.integers(0, int(rng.integers(2, 6)), size=n)
            info = information_matrix(np.column_stack([a, b, a]))
            mi_ab = info[0, 1]
            mi_ba = information_matrix(np.column_stack([b, a]))[0, 1]
            assert abs(mi_ab - mi_ba) <= 1e-12
            assert mi_ab >= 0.0
            assert mi_ab <= min(info[0, 0], info[1, 1]) + 1e-12
            assert abs(info[0, 2] - info[0, 0]) <= 1e-12

    def test_permutation_invariance(self):
        rng = np.random.default_rng(8)
        a = rng.integers(0, 4, size=50)
        b = rng.integers(0, 3, size=50)
        base = information_matrix(np.column_stack([a, b]))[0, 1]
        for _ in range(20):
            perm = rng.permutation(50)
            assert information_matrix(np.column_stack([a[perm], b[perm]]))[0, 1] == \
                pytest.approx(base, abs=1e-12)


def _with_target_last(rng):
    dd = random_discretized(rng, n=300, m=5)
    return np.column_stack([dd.feature_codes, dd.target])


def _sparse_codes(rng):
    # non-contiguous and negative code sets, plus one constant column
    return np.stack([rng.choice([-4, 3, 17], 120), rng.choice([2, 5, 11, 40], 120),
                     np.full(120, 9), rng.choice([0, 100], 120)], axis=1)


INFORMATION_CASES = {
    "latent-factor": lambda rng: random_discretized(rng, n=200, m=7).feature_codes,
    "non-contiguous-and-constant": _sparse_codes,
    "single-column": lambda rng: rng.integers(0, 5, (90, 1)),
    "target-last": _with_target_last,
}


def _fuzz_codes(rng):
    """[features | target] with n down to 1, p down to 1, constant, negative and
    non-contiguous columns, many bin counts, and sometimes one column whose
    every row has its own code."""
    n = int(rng.choice([1, 2, 3, 8, 40, 150]))
    columns = []
    for _ in range(int(rng.integers(1, 9))):
        kind = int(rng.integers(4))
        if kind == 0:
            columns.append(np.full(n, rng.integers(-9, 9)))
        elif kind == 1:
            columns.append(rng.choice(rng.choice(np.arange(-60, 60), 5, replace=False), n))
        else:
            columns.append(rng.integers(0, int(rng.integers(1, 9)), n))
    if rng.random() < 0.3:
        columns[int(rng.integers(len(columns)))] = rng.permutation(n) * 7 - n
    target = rng.integers(0, 2, n)
    target[:2] = [0, 1][:n]
    return np.column_stack(columns + [target])


class TestInformationFuzz:
    def test_batched_kernel_equals_pairwise_oracle_bit_for_bit(self, monkeypatch):
        # Pins, on the installed numpy, that a contiguous row of a stacked
        # reduction is summed like the 1-D array of one pair; tiny block
        # sizes run many blocks and term flushes within one call.
        rng = np.random.default_rng(8)
        for _ in range(150):
            monkeypatch.setattr(infotheory, "PAIR_BLOCK_CELLS",
                                int(rng.choice([1, 5, 64, 1 << 16])))
            codes = _fuzz_codes(rng)
            info = information_matrix(codes)
            assert np.array_equal(info, pairwise_oracle(codes))
            assert np.array_equal(information_matrix(codes[:, :-1]),
                                  pairwise_oracle(codes[:, :-1]))
            if codes.shape[0] >= 2:
                dd = make_dd(codes[:, :-1], codes[:, -1])
                assert np.array_equal(build_relevance_vector(dd), info[:-1, -1])


def _skewed_codes(rng, n, p):
    """(n, p) codes, each column with 1 to 13 codes of skewed frequencies, so
    that some count tables have an empty cell."""
    columns = []
    for _ in range(p):
        k = int(rng.integers(1, 14))
        weights = rng.random(k) ** 3
        columns.append(rng.choice(k, n, p=weights / weights.sum()))
    return np.column_stack(columns)


class TestTileKernel:
    """The one-hot tile kernel equals the per-pair reference bit for bit
    across tiles, runs of equal code count, row blocks and count dtypes."""

    @staticmethod
    def check(codes):
        info = information_matrix(codes)
        assert np.array_equal(info, pairwise_oracle(codes))
        assert not np.signbit(info).any()
        target = codes[:, -1]
        if codes.shape[1] >= 2 and target.min() < target.max():
            dd = make_dd(codes[:, :-1], target)
            assert np.array_equal(build_relevance_vector(dd), info[:-1, -1])

    # 0: every pair by bincount; 24: tile pairs of few codes per table by
    # product, the others by bincount; 10**9: every pair by product
    @pytest.mark.parametrize("cells_per_table", [0, 24, 10**9])
    def test_random_mixed_shapes(self, monkeypatch, cells_per_table):
        monkeypatch.setattr(infotheory, "PRODUCT_CELLS_PER_TABLE", cells_per_table)
        rng = np.random.default_rng(31)
        for _ in range(40):
            self.check(_skewed_codes(rng, int(rng.integers(2, 400)), int(rng.integers(1, 25))))

    @pytest.mark.parametrize("cells_per_table", [0, 24, 10**9])
    def test_wide_shape_with_small_tiles(self, monkeypatch, cells_per_table):
        # 24-code tiles over 64 columns of 2 to 10 codes: runs of equal code
        # count span tiles and interleave in column order, and stacks span
        # several float blocks
        monkeypatch.setattr(infotheory, "PRODUCT_CELLS_PER_TABLE", cells_per_table)
        monkeypatch.setattr(infotheory, "HOT_TILE_COLUMNS", 24)
        monkeypatch.setattr(infotheory, "PAIR_BLOCK_CELLS", 700)
        rng = np.random.default_rng(32)
        codes = np.column_stack([rng.integers(0, int(rng.choice([2, 3, 5, 10])), 600)
                                 for _ in range(64)])
        codes[:, -1] = rng.integers(0, 2, 600)
        self.check(codes)

    def test_single_code_columns_two_rows_and_empty_cells(self):
        a = np.array([0, 0, 1, 1] * 5)
        b = np.array([0, 1, 0, 1] * 5)          # a by b: a full 2 x 2 table
        constant = np.full(20, 3)
        self.check(np.column_stack([a, b, a, constant, b]))   # a by a: empty cells
        self.check(np.column_stack([constant, constant]))
        self.check(np.array([[0, 5, 1], [1, 5, 0]]))          # n = 2
        self.check(np.array([[0, 5, 1], [0, 5, 1]]))

    def test_column_with_a_code_per_row_is_counted_in_small_arrays(self):
        # its one-hot would be n x HOT_BLOCK_ROWS cells (80 MB here); its
        # (2, n) tables with the binary columns are the least a count needs
        rng = np.random.default_rng(34)
        n = 20_000
        codes = np.column_stack([rng.integers(0, 2, (n, 3)), rng.permutation(n)])
        tracemalloc.start()
        try:
            info = information_matrix(codes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
        assert np.array_equal(info, pairwise_oracle(codes))

    def test_relevance_alone_returns_one_column(self):
        rng = np.random.default_rng(35)
        codes = _skewed_codes(rng, 200, 9)
        codes[:, -1] = rng.integers(0, 3, 200)
        dd = make_dd(codes[:, :-1], codes[:, -1])
        values = build_relevance_vector(dd)
        assert values.shape == (8,)
        assert np.array_equal(values, pairwise_oracle(codes)[:8, 8])
        assert dd._information is None

    def test_row_blocks_and_float64_counts(self, monkeypatch):
        # float32 products of 37-row blocks, added in float64 over up to 9
        rng = np.random.default_rng(33)
        monkeypatch.setattr(infotheory, "HOT_BLOCK_ROWS", 37)
        for _ in range(20):
            self.check(_skewed_codes(rng, int(rng.integers(2, 300)), int(rng.integers(1, 12))))

    def test_relevance_alone_equals_the_matrix_column_on_a_wide_table(self):
        # n = 600, 64 columns of 2 to 10 codes and one with a code per row:
        # the matrix counts most pairs by one-hot products, F alone by keys
        rng = np.random.default_rng(36)
        codes = np.column_stack([rng.integers(0, int(rng.choice([2, 3, 5, 10])), 600)
                                 for _ in range(64)] + [rng.permutation(600)])
        y = rng.integers(0, 2, 600)
        info = make_dd(codes, y).information
        assert build_relevance_vector(make_dd(codes, y)).tobytes() == info[:-1, -1].tobytes()

    @pytest.mark.parametrize("n, m", [(20_000, 4), (40, 4_000)])
    def test_relevance_alone_is_counted_in_small_arrays(self, n, m):
        # feature 0 has a code per row; the (m + 1)**2 matrix would be 128 MB
        # at m = 4,000, F alone holds m values beside the codes
        rng = np.random.default_rng(37)
        codes = rng.integers(0, 2, (n, m))
        codes[:, 0] = rng.permutation(n)
        y = rng.integers(0, 2, n)
        dd = make_dd(codes, y)
        tracemalloc.start()
        try:
            F = build_relevance_vector(dd)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
        assert dd._information is None
        assert F.tolist() == [mutual_information(contingency(codes[:, i], y))
                              for i in range(m)]


class TestRedundancyMatrix:
    @pytest.mark.parametrize("case", sorted(INFORMATION_CASES))
    def test_information_matrix_equals_pairwise_oracle_exactly(self, case):
        codes = INFORMATION_CASES[case](np.random.default_rng(21))
        info = information_matrix(codes)
        assert np.array_equal(info, pairwise_oracle(codes))
        assert np.array_equal(info, info.T)
        dd = make_dd(codes, np.arange(codes.shape[0]) % 2)
        assert np.array_equal(build_redundancy_matrix(dd), info)

    def test_target_column_holds_relevance_exactly(self):
        codes = _with_target_last(np.random.default_rng(22))
        dd = make_dd(codes[:, :-1], codes[:, -1])
        info = information_matrix(codes)
        assert np.array_equal(build_relevance_vector(dd), info[:-1, -1])

    def test_information_matrix_rejects_empty(self):
        with pytest.raises(DataError):
            information_matrix(np.zeros((0, 3), dtype=int))
        with pytest.raises(DataError):
            information_matrix(np.zeros((4, 0), dtype=int))

    def test_single_feature_holds_entropy(self):
        dd = make_dd([[0], [1], [0], [1]], [0, 1, 0, 1])
        Q = build_redundancy_matrix(dd)
        assert Q.shape == (1, 1)
        assert Q[0, 0] == pytest.approx(1.0, abs=1e-15)

    def test_independent_features_zero_offdiagonal(self):
        # balanced product design: exact independence
        a = [0, 0, 1, 1] * 3
        b = [0, 1, 0, 1] * 3
        dd = make_dd(np.stack([a, b], axis=1), [0, 1] * 6)
        Q = build_redundancy_matrix(dd)
        assert Q[0, 1] == 0.0

    def test_symmetric_and_diagonal_entropy(self):
        rng = np.random.default_rng(3)
        dd = random_discretized(rng, n=150, m=6)
        Q = build_redundancy_matrix(dd)
        assert np.array_equal(Q, Q.T)          # mirrored exactly
        assert np.all(Q >= 0)
        for i in range(6):
            assert Q[i, i] == pytest.approx(
                entropy(dd.feature_codes[:, i]), abs=0)

    def test_spot_entries_match_pairwise_oracle(self):
        rng = np.random.default_rng(4)
        dd = random_discretized(rng, n=200, m=7)
        Q = build_redundancy_matrix(dd)
        for (i, j) in [(0, 3), (2, 5), (1, 6)]:
            t = contingency(dd.feature_codes[:, i], dd.feature_codes[:, j])
            assert Q[i, j] == pytest.approx(
                brute_force_mi_bits(t), abs=1e-12)

    def test_zero_diagonal_variant(self):
        rng = np.random.default_rng(5)
        dd = random_discretized(rng, n=100, m=4)
        Q = build_redundancy_matrix(dd)
        Z, _ = information_quantities(dd, "zero")
        assert np.all(np.diag(Z) == 0)
        off = ~np.eye(4, dtype=bool)
        assert np.array_equal(Z[off], Q[off])


class TestRelevanceVector:
    def test_feature_identical_to_target(self):
        y = np.array([0, 1, 1, 0, 1, 0])
        dd = make_dd(y[:, None], y)
        F = build_relevance_vector(dd)
        assert F[0] == pytest.approx(entropy(y), abs=1e-12)

    def test_independent_feature_zero(self):
        # balanced: feature level split identically across classes
        codes = np.array([[0], [1], [0], [1]])
        y = np.array([0, 0, 1, 1])
        F = build_relevance_vector(make_dd(codes, y))
        assert F[0] == 0.0

    def test_single_label_target_rejected(self):
        with pytest.raises(DataError):
            build_relevance_vector(make_dd([[0], [1]], [1, 1]))


class TestSharedInformation:
    """Q, F and SU read from one cached [features | target] matrix."""

    @pytest.mark.parametrize("seed", range(12))
    def test_either_order_equals_a_fresh_matrix_bit_for_bit(self, seed):
        # 2 to 8 columns of 1 to 12 bins each; seed 0 has a single feature
        rng = np.random.default_rng(seed)
        n, m = int(rng.integers(20, 200)), int(rng.integers(2, 9)) if seed else 1
        codes = np.column_stack([rng.integers(0, int(rng.integers(1, 13)), n)
                                 for _ in range(m)])
        y = rng.integers(0, 2, n)
        y[:2] = [0, 1]
        fresh = information_matrix(np.column_stack([codes, y]))
        f_first = make_dd(codes, y)
        F, Q = build_relevance_vector(f_first), build_redundancy_matrix(f_first)
        q_first = make_dd(codes, y)
        Q2, F2 = build_redundancy_matrix(q_first), build_relevance_vector(q_first)
        for got_Q, got_F in ((Q, F), (Q2, F2)):
            assert np.array_equal(got_Q, fresh[:m, :m])
            assert np.array_equal(got_F, fresh[:m, m])
        assert np.array_equal(f_first.information, fresh)

    def test_zeroed_diagonal_does_not_reach_the_shared_matrix(self):
        data = synthetic_credit_dataset(seed=6, n=150)
        config = SelectionConfig(method="quadratic", k=3, q_diagonal="zero")
        select_features(data, config)
        dd = discretize(data, config.policy)
        Q = build_redundancy_matrix(dd)
        entropies = [entropy(dd.feature_codes[:, i]) for i in range(dd.n_features)]
        assert np.diag(Q).tolist() == entropies
        assert min(entropies) > 0

    def _count_work(self, monkeypatch):
        """Lists that record each discretization and, per array the float part
        writes MI into (one per matrix build or F alone), [its size, the
        count tables sent through the float part into it]."""
        discretized, work = [], []
        outs = []           # held, so a later array is never taken for an earlier one
        resolve, tables = ingest.resolve_missing, infotheory._stack_information

        def counted_resolve(data, policy):
            discretized.append(data.n_samples)
            return resolve(data, policy)

        def counted_tables(out, at, counts, n, pending):
            if not outs or outs[-1] is not out:
                outs.append(out)
                work.append([out.size, 0])
            work[-1][1] += len(counts)
            return tables(out, at, counts, n, pending)

        monkeypatch.setattr(ingest, "resolve_missing", counted_resolve)
        monkeypatch.setattr(infotheory, "_stack_information", counted_tables)
        return discretized, work

    @pytest.mark.parametrize("strict", [False, True])
    def test_one_discretization_and_matrix_per_selection_input(self, monkeypatch, strict):
        data = synthetic_credit_dataset(seed=7, n=200)
        folds = 3
        discretized, work = self._count_work(monkeypatch)
        configs = [SelectionConfig(method=method, k=3) for method in METHODS]
        evaluate_methods(data, configs, CvProtocol(n_folds=folds, strict=strict))
        m = data.n_features
        inputs = folds + 1 if strict else 1
        assert len(discretized) == inputs
        # one (m + 1)**2 matrix of all pairs of [features | target] per input
        assert work == [[(m + 1) ** 2, m * (m + 1) // 2]] * inputs

    def test_relevance_alone_sends_only_the_target_pairs(self, monkeypatch):
        data = synthetic_credit_dataset(seed=7, n=200)
        dd = discretize(data, DiscretizationPolicy())
        _, work = self._count_work(monkeypatch)
        build_relevance_vector(dd)
        assert work == [[data.n_features, data.n_features]]      # m values, no matrix
        assert dd._information is None


class TestSerialization:
    def test_matrix_round_shape(self):
        text = matrix_text(np.array([[1.5, 0.25], [0.25, 2.0]]), ["a", "b"])
        lines = text.strip().split("\n")
        assert lines[0] == "feature\ta\tb"
        assert lines[1].split("\t") == ["a", "1.5", "0.25"]

    def test_vector_text(self):
        text = tsv(zip(["only"], np.array([0.125])))
        assert text == "only\t0.125\n"

    def test_redundancy_to_text_deterministic(self):
        rng = np.random.default_rng(9)
        dd = random_discretized(rng, n=80, m=3)
        Q = build_redundancy_matrix(dd)
        names = ["f0", "f1", "f2"]
        assert matrix_text(Q, names) == matrix_text(Q, names)
