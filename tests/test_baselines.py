"""Greedy mRMR, MaxRel, Information Gain, ReliefF, and CFS selectors."""

import numpy as np
import pytest

from qpfs.baselines import (RELIEFF_BLOCK, SelectionResult, cfs, cfs_merit,
                            information_gain, max_rel, mrmr_greedy, relieff,
                            truncate_selection)
from qpfs.errors import ConfigError, DataError
from qpfs.infotheory import (build_redundancy_matrix, build_relevance_vector, contingency,
                             entropy, mutual_information)
from qpfs.qp import ranking_of

from conftest import exhaustive_subset_objective, make_dd, random_discretized


def symmetric_uncertainty(codes_a, codes_b) -> float:
    """2*I(a;b) / (H(a)+H(b)), with 0/0 defined as 0: the per-pair reference
    for the symmetric uncertainty that ``cfs`` reads off one information matrix."""
    ha = entropy(codes_a)
    hb = entropy(codes_b)
    if ha + hb == 0.0:
        return 0.0
    return 2.0 * mutual_information(contingency(codes_a, codes_b)) / (ha + hb)


class TestMrmrGreedy:
    def test_k1_is_argmax_relevance(self):
        Q = np.eye(3)
        F = np.array([0.2, 0.9, 0.4])
        res = mrmr_greedy(Q, F, 1)
        assert res.selected == [1]
        assert res.scores[0] == pytest.approx(0.9)

    def test_duplicate_high_relevance_feature_demoted(self):
        # features 0 and 1 identical (high F, redundancy = entropy); feature 2
        # satisfies F[2] - mean_redundancy > F[dup] - H(dup), so step 2 skips
        # the duplicate.
        H = 1.0
        Q = np.array([
            [H, H, 0.05],
            [H, H, 0.05],
            [0.05, 0.05, 0.8],
        ])
        F = np.array([0.9, 0.9, 0.5])
        assert F[2] - 0.05 > F[1] - H
        res = mrmr_greedy(Q, F, 2)
        assert res.selected == [0, 2]

    def test_matches_exhaustive_or_documents_gap(self):
        # the greedy result must land in the top 10% of all C(8,4) subsets
        rng = np.random.default_rng(20130101)
        gaps = []
        for _ in range(25):
            dd = random_discretized(rng)
            Q = build_redundancy_matrix(dd)
            F = build_relevance_vector(dd)
            res = mrmr_greedy(Q, F, 4)
            scored = exhaustive_subset_objective(Q, F, 4)
            mine = [obj for obj, S in scored if set(S) == set(res.selected)][0]
            position = sum(1 for obj, _ in scored if obj < mine - 1e-12) + 1
            gaps.append(position)
            assert position <= 7, f"greedy rank {position} of 70"
        assert any(g > 1 for g in gaps)   # the heuristic gap is real

    def test_q_zero_equals_max_rel_for_every_k(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            m = int(rng.integers(2, 9))
            F = np.abs(rng.normal(size=m))
            Q = np.zeros((m, m))
            for k in range(1, m + 1):
                assert mrmr_greedy(Q, F, k).selected == max_rel(F, k).selected

    def test_first_pick_always_equals_max_rel_first(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            m = int(rng.integers(2, 9))
            F = np.abs(rng.normal(size=m))
            A = rng.normal(size=(m, m))
            Q = np.abs(A + A.T) / 2
            assert mrmr_greedy(Q, F, 1).selected[0] == max_rel(F, 1).selected[0]

    def test_k_bounds(self):
        with pytest.raises(ValueError):
            mrmr_greedy(np.eye(2), np.ones(2), 3)


class TestMaxRel:
    def test_example(self):
        res = max_rel(np.array([0.3, 0.9, 0.5]), 2)
        assert res.selected == [1, 2]

    def test_tie_rule(self):
        res = max_rel(np.array([0.5, 0.5, 0.5]), 2)
        assert res.selected == [0, 1]

    def test_k_too_large(self):
        with pytest.raises(ValueError):
            max_rel(np.ones(2), 3)


class TestInformationGain:
    def test_feature_equal_to_target_ranks_first(self):
        rng = np.random.default_rng(3)
        y = rng.integers(0, 2, 60)
        codes = np.stack([rng.integers(0, 3, 60), y, rng.integers(0, 3, 60)], axis=1)
        res = information_gain(make_dd(codes, y), 1)
        assert res.selected == [1]

    def test_independent_feature_scores_zero(self):
        codes = np.array([[0], [1], [0], [1]])
        y = np.array([0, 0, 1, 1])
        res = information_gain(make_dd(codes, y), 1)
        assert res.scores[0] == 0.0

    def test_scores_equal_relevance_vector_exactly(self):
        rng = np.random.default_rng(4)
        dd = random_discretized(rng, n=200, m=6)
        res = information_gain(dd, 3)
        F = build_relevance_vector(dd)
        assert np.array_equal(res.scores, F)

    def test_selection_identical_to_max_rel(self):
        rng = np.random.default_rng(5)
        dd = random_discretized(rng, n=150, m=6)
        F = build_relevance_vector(dd)
        for k in range(1, 7):
            assert information_gain(dd, k).selected == max_rel(F, k).selected


def relieff_reference(data, k, n_neighbors, n_iterations=None, seed=0):
    """ReliefF one visited row at a time: the loop ``relieff`` batches.

    For each visited row, Hamming distances to all rows, a full sort by
    (distance, index) with self last, then per class the nearest members.
    Returns (weights, selected).
    """
    codes = data.feature_codes
    y = data.target
    n, m = codes.shape
    priors = np.bincount(y, minlength=2) / n
    if n_iterations is None or n_iterations >= n:
        visit = np.arange(n)
    else:
        rng = np.random.default_rng(seed)
        visit = np.sort(rng.choice(n, size=n_iterations, replace=False))

    weights = np.zeros(m)
    for i in visit:
        diffs = codes != codes[i]
        dist = diffs.sum(axis=1)
        dist[i] = n * m + 1
        order = np.lexsort((np.arange(n), dist))
        hit_update = np.zeros(m)
        miss_update = np.zeros(m)
        for cls in np.unique(y):
            members = order[y[order] == cls]
            if cls == y[i]:
                near = members[members != i][:n_neighbors]
                if near.size:
                    hit_update = diffs[near].mean(axis=0)
            else:
                near = members[:n_neighbors]
                if near.size:
                    factor = priors[cls] / (1.0 - priors[y[i]])
                    miss_update += factor * diffs[near].mean(axis=0)
        weights += (miss_update - hit_update) / visit.size
    return weights, ranking_of(weights)[:k].tolist()


class TestRelieffMatchesReference:
    """The batched ``relieff`` gives the reference loop's weights bit for bit."""

    def check(self, codes, y, k, n_neighbors, n_iterations=None, seed=0):
        dd = make_dd(codes, y)
        weights, selected = relieff_reference(dd, k, n_neighbors, n_iterations, seed)
        res = relieff(dd, k, n_neighbors, n_iterations=n_iterations, seed=seed)
        assert np.array_equal(res.scores, weights)
        assert res.selected == selected

    def test_negative_and_noncontiguous_codes(self):
        for seed in range(6):
            rng = np.random.default_rng(seed)
            y = rng.integers(0, 2, 90)
            codes = rng.choice([-7, -2, 0, 5, 40], size=(90, 6))
            self.check(codes, y, 3, n_neighbors=4)

    def test_single_feature(self):
        for seed in range(4):
            rng = np.random.default_rng(100 + seed)
            y = rng.integers(0, 2, 60)
            codes = rng.integers(0, 3, (60, 1))
            self.check(codes, y, 1, n_neighbors=5)

    def test_iterations_subsample_under_seed(self):
        rng = np.random.default_rng(11)
        dd = random_discretized(rng, n=120, m=7)
        for seed, n_iterations in ((0, 1), (3, 17), (9, 60), (4, 119), (5, 500)):
            self.check(dd.feature_codes, dd.target, 4, 6, n_iterations, seed)

    def test_own_class_size_equals_neighbors(self):
        for seed in range(4):
            rng = np.random.default_rng(200 + seed)
            y = np.array([1] * 5 + [0] * 35)
            rng.shuffle(y)
            codes = rng.integers(0, 3, (40, 4))
            self.check(codes, y, 2, n_neighbors=5)
        y = np.array([1] + [0] * 9)
        self.check(np.arange(20).reshape(10, 2) % 3, y, 1, n_neighbors=1)

    def test_unbalanced_classes(self):
        for seed in range(4):
            rng = np.random.default_rng(300 + seed)
            y = (rng.random(150) < 0.1).astype(int)
            y[:3] = 1
            codes = rng.integers(0, 4, (150, 5))
            codes[:, 0] = np.where(rng.random(150) < 0.8, y, codes[:, 0])
            self.check(codes, y, 3, n_neighbors=3)

    def test_more_rows_than_one_block(self):
        rng = np.random.default_rng(12)
        n = 2 * RELIEFF_BLOCK + 7
        dd = random_discretized(rng, n=n, m=6, bins=3)
        self.check(dd.feature_codes, dd.target, 6, n_neighbors=10)
        self.check(dd.feature_codes, dd.target, 6, 10, n_iterations=n - 2, seed=7)


class TestRelieff:
    def test_target_copy_has_maximal_positive_weight(self):
        y = np.array([0] * 20 + [1] * 20)
        rng = np.random.default_rng(6)
        codes = np.stack([y, rng.integers(0, 3, 40), rng.integers(0, 2, 40)], axis=1)
        res = relieff(make_dd(codes, y), 3, n_neighbors=5)
        assert res.scores[0] > 0
        assert res.selected[0] == 0
        assert res.scores[0] == max(res.scores)

    def test_constant_feature_weight_zero(self):
        y = np.array([0] * 15 + [1] * 15)
        codes = np.stack([np.zeros(30, dtype=int), y], axis=1)
        res = relieff(make_dd(codes, y), 2, n_neighbors=5)
        assert res.scores[0] == 0.0

    def test_informative_first_across_ten_seeds(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            y = np.array([0] * 25 + [1] * 25)
            rng.shuffle(y)
            codes = np.empty((50, 5), dtype=np.int64)
            codes[:, 0] = y ^ (rng.random(50) < 0.1)
            for j in range(1, 5):
                codes[:, j] = rng.integers(0, 3, 50)
            res = relieff(make_dd(codes, y), 1, n_neighbors=10, seed=seed)
            assert res.selected[0] == 0

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(8)
        dd = random_discretized(rng, n=80, m=5)
        a = relieff(dd, 3, n_neighbors=5, n_iterations=40, seed=123)
        b = relieff(dd, 3, n_neighbors=5, n_iterations=40, seed=123)
        assert a.selected == b.selected
        assert np.array_equal(a.scores, b.scores)

    def test_class_too_small(self):
        y = np.array([0] * 3 + [1] * 30)
        codes = np.zeros((33, 2), dtype=int)
        with pytest.raises(DataError, match="class"):
            relieff(make_dd(codes, y), 1, n_neighbors=5)

    @pytest.mark.parametrize("n_neighbors, n_iterations, name", [
        (0, None, "n_neighbors"), (-3, None, "n_neighbors"), (5, 0, "n_iterations")])
    def test_invalid_settings_rejected(self, n_neighbors, n_iterations, name):
        y = np.array([0] * 10 + [1] * 10)
        codes = np.stack([y, y[::-1]], axis=1)
        with pytest.raises(ConfigError, match=name):
            relieff(make_dd(codes, y), 1, n_neighbors, n_iterations=n_iterations)


class TestCfs:
    def build_instance(self, rng, n=400):
        y = (rng.random(n) < 0.5).astype(int)
        codes = np.empty((n, 6), dtype=np.int64)
        codes[:, 0] = y ^ (rng.random(n) < 0.15)
        codes[:, 1] = y ^ (rng.random(n) < 0.25)
        for j in range(2, 6):
            codes[:, j] = rng.integers(0, 3, n)
        return make_dd(codes, y)

    def test_single_relevant_feature_yields_singleton(self):
        rng = np.random.default_rng(9)
        n = 300
        y = (rng.random(n) < 0.5).astype(int)
        codes = np.empty((n, 5), dtype=np.int64)
        codes[:, 0] = y ^ (rng.random(n) < 0.1)
        for j in range(1, 5):
            codes[:, j] = rng.integers(0, 3, n)
        res = cfs(make_dd(codes, y))
        assert res.selected == [0]

    def test_identical_pair_keeps_exactly_one(self):
        rng = np.random.default_rng(10)
        dd = self.build_instance(rng)
        codes = dd.feature_codes.copy()
        codes[:, 1] = codes[:, 0]
        res = cfs(make_dd(codes, dd.target))
        assert len(set(res.selected) & {0, 1}) == 1

    def test_matches_exhaustive_merit_maximization(self):
        from itertools import combinations
        rng = np.random.default_rng(5)
        dd = self.build_instance(rng)
        res = cfs(dd)

        su_t = np.array([symmetric_uncertainty(dd.feature_codes[:, j], dd.target)
                         for j in range(6)])
        su_p = np.zeros((6, 6))
        for i in range(6):
            for j in range(i + 1, 6):
                su = symmetric_uncertainty(dd.feature_codes[:, i], dd.feature_codes[:, j])
                su_p[i, j] = su_p[j, i] = su
        best_val, best_set = max(
            ((cfs_merit(list(S), su_t, su_p), sorted(S))
             for r in range(1, 7) for S in combinations(range(6), r)),
            key=lambda t: t[0],
        )
        assert sorted(res.selected) == best_set
        assert res.scores[-1] == pytest.approx(best_val, abs=1e-12)

    def test_emergent_k_and_truncation_flag(self):
        rng = np.random.default_rng(11)
        dd = self.build_instance(rng)
        res = cfs(dd)
        assert res.k == len(res.selected)
        cut = truncate_selection(res, 1)
        assert cut.truncated
        assert cut.selected == res.selected[:1]
        same = truncate_selection(res, res.k)
        assert not same.truncated

    @pytest.mark.parametrize("constant_columns", [False, True])
    def test_su_from_information_matrix_equals_pairwise_loop(self, monkeypatch,
                                                             constant_columns):
        dd = self.build_instance(np.random.default_rng(13), n=200)
        codes = dd.feature_codes.copy()
        if constant_columns:
            codes[:, 3:5] = 7                # SU of two constants is 0/0, defined as 0
        seen = []

        def spy(subset, su_target, su_pairs):
            seen.append((su_target, su_pairs))
            return cfs_merit(subset, su_target, su_pairs)

        monkeypatch.setattr("qpfs.baselines.cfs_merit", spy)
        cfs(make_dd(codes, dd.target))
        su_t = np.array([symmetric_uncertainty(codes[:, j], dd.target) for j in range(6)])
        su_p = np.zeros((6, 6))
        for i in range(6):
            for j in range(i + 1, 6):
                su_p[i, j] = su_p[j, i] = symmetric_uncertainty(codes[:, i], codes[:, j])
        su_target, su_pairs = seen[0]
        assert np.array_equal(su_target, su_t)
        assert np.array_equal(su_pairs, su_p)

    def test_symmetric_uncertainty_zero_over_zero(self):
        assert symmetric_uncertainty([0, 0, 0], [1, 1, 1]) == 0.0


class TestSelectionResult:
    def test_duplicates_rejected(self):
        with pytest.raises(DataError):
            SelectionResult("m", [1, 1], np.zeros(2), 2)

    def test_to_text_mrmr_prints_step_scores_in_pick_order(self):
        # k = m, so the per-step trace has one entry per feature
        Q = np.array([[0.0, 0.1, 0.8, 0.1],
                      [0.1, 0.0, 0.1, 0.1],
                      [0.8, 0.1, 0.0, 0.1],
                      [0.1, 0.1, 0.1, 0.0]])
        F = np.array([0.3, 0.2, 0.9, 0.5])
        res = mrmr_greedy(Q, F, 4)
        assert res.selected == [2, 3, 1, 0]
        lines = res.to_text(["a", "b", "c", "d"]).strip().split("\n")[1:]
        for pos, (line, i) in enumerate(zip(lines, res.selected)):
            assert line == f"{'abcd'[i]}\t{format(res.scores[pos], '.12g')}\t{pos + 1}"

    def test_to_text_cfs_prints_the_merit(self):
        res = SelectionResult("cfs", [1, 0], np.array([0.6]), 2)
        assert res.to_text(["a", "b"]) == "feature\tscore\trank\nb\t0.6\t1\na\t0.6\t2\n"

    def test_to_text_per_feature_scores(self):
        res = SelectionResult("maxrel", [1, 0], np.array([0.2, 0.7]), 2)
        text = res.to_text(["a", "b"])
        lines = text.strip().split("\n")
        assert lines[1] == "b\t0.7\t1"
        assert lines[2] == "a\t0.2\t2"

    def test_determinism(self):
        rng = np.random.default_rng(12)
        dd = random_discretized(rng, n=100, m=5)
        Q = build_redundancy_matrix(dd)
        F = build_relevance_vector(dd)
        assert mrmr_greedy(Q, F, 3).selected == mrmr_greedy(Q, F, 3).selected
        assert cfs(dd).selected == cfs(dd).selected
