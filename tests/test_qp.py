"""Alpha estimation, problem assembly, the simplex QP solver, and ranking."""

import numpy as np
import pytest

from qpfs import qp
from qpfs.errors import DataError, SolverError
from qpfs.infotheory import build_redundancy_matrix, build_relevance_vector
from qpfs.qp import (FeatureWeights, QpProblem, assemble, estimate_alpha,
                     kkt_residual, project_simplex, rank, ranking_of, solve,
                     weights_to_text)

from conftest import grid_search_simplex, random_discretized


def random_psd_instance(rng, m=None):
    m = m or int(rng.integers(2, 8))
    A = rng.normal(size=(m, m))
    Q = A @ A.T / m + 0.05 * np.eye(m)
    F = np.abs(rng.normal(size=m))
    return Q, F


class TestEstimateAlpha:
    def test_balance_point(self):
        Q = np.full((3, 3), 0.2)
        F = np.full(3, 0.2)
        assert estimate_alpha(Q, F) == pytest.approx(0.5, abs=1e-15)

    def test_all_zero_is_explicit_error(self):
        with pytest.raises(DataError):
            estimate_alpha(np.zeros((2, 2)), np.zeros(2))

    def test_range(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            Q, F = random_psd_instance(rng)
            assert 0.0 <= estimate_alpha(Q, F) <= 1.0

    def test_accepts_wrapped_types(self):
        rng = np.random.default_rng(1)
        dd = random_discretized(rng, n=100, m=4)
        Q = build_redundancy_matrix(dd)
        F = build_relevance_vector(dd)
        a = estimate_alpha(Q, F)
        b = estimate_alpha(Q.values, F.values)
        assert a == b


class TestAssemble:
    def test_alpha_one_zeroes_quadratic(self):
        Q = np.array([[1.0, 0.2], [0.2, 1.0]])
        F = np.array([0.5, 0.7])
        p = assemble(Q, F, 1.0)
        assert np.all(p.Q_eff == 0)
        assert np.array_equal(p.f_eff, F)
        assert p.psd_shift == 0.0

    def test_alpha_zero_zeroes_linear(self):
        Q = np.array([[1.0, 0.2], [0.2, 1.0]])
        F = np.array([0.5, 0.7])
        p = assemble(Q, F, 0.0)
        assert np.array_equal(p.Q_eff, Q)
        assert np.all(p.f_eff == 0)

    def test_indefinite_q_gets_shift_from_eigen_oracle(self):
        # eigenvalues of [[0, b], [b, 0]] are +/- b by the quadratic formula
        Q = np.array([[0.0, 0.3], [0.3, 0.0]])
        p = assemble(Q, np.array([0.1, 0.1]), 0.0)
        assert p.psd_shift == pytest.approx(0.3 + 1e-9, abs=1e-15)
        assert np.linalg.eigvalsh(p.Q_eff)[0] >= -1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(DataError):
            assemble(np.eye(3), np.ones(2), 0.5)

    def test_alpha_out_of_range(self):
        with pytest.raises(DataError):
            assemble(np.eye(2), np.ones(2), 1.5)

    def test_asymmetric_rejected(self):
        with pytest.raises(DataError):
            assemble(np.array([[1.0, 0.5], [0.1, 1.0]]), np.ones(2), 0.5)


class TestProjectSimplex:
    def test_already_feasible(self):
        x = np.array([0.25, 0.75])
        assert np.allclose(project_simplex(x), x, atol=1e-15)

    def test_projection_properties(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            v = rng.normal(size=int(rng.integers(1, 10))) * 10
            p = project_simplex(v)
            assert np.all(p >= 0)
            assert p.sum() == pytest.approx(1.0, abs=1e-9)
            # optimality: no feasible point is closer (spot check vs random feasible)
            w = rng.dirichlet(np.ones(v.size))
            assert np.sum((p - v) ** 2) <= np.sum((w - v) ** 2) + 1e-12


class TestSolve:
    def test_identity_uniform(self):
        p = QpProblem(np.eye(4), np.zeros(4), alpha=0.0)
        w = solve(p)
        assert np.allclose(w.x, 0.25, atol=1e-10)
        assert w.kkt_residual <= 1e-6

    def test_zero_q_lands_on_max_relevance_vertex(self):
        p = QpProblem(np.zeros((3, 3)), np.array([0.2, 0.9, 0.1]), alpha=1.0)
        w = solve(p)
        assert w.x.tolist() == [0.0, 1.0, 0.0]
        assert w.solver == "vertex"

    def test_two_feature_derived_example(self):
        # oracle: one-dimensional grid over x1 (x2 = 1 - x1), step 1e-6
        Q = np.array([[1.0, 0.5], [0.5, 1.0]])
        f = np.array([0.8, 0.6])
        t = np.linspace(0.0, 1.0, 1_000_001)
        X = np.stack([t, 1.0 - t], axis=1)
        vals = 0.5 * np.einsum("ni,ij,nj->n", X, Q, X) - X @ f
        oracle_x = X[int(np.argmin(vals))]
        assert np.allclose(oracle_x, [0.7, 0.3], atol=1e-6)

        w = solve(QpProblem(Q, f, alpha=0.5))
        assert np.max(np.abs(w.x - oracle_x)) <= 1e-4
        assert w.objective == pytest.approx(-0.345, abs=1e-9)

    def test_oracle_equivalence_small_m(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            m = int(rng.integers(2, 4))
            Q, f = random_psd_instance(rng, m)
            w = solve(QpProblem(Q, f, alpha=0.5))
            _, oracle_val = grid_search_simplex(Q, f)
            assert w.objective <= oracle_val + 1e-4
            assert abs(w.objective - oracle_val) <= 1e-4

    def test_restart_stability_strictly_convex(self):
        # projected gradient starts at the simplex centre, the active set at the
        # equality-constrained minimum; a strictly convex problem has one optimum
        rng = np.random.default_rng(4)
        for _ in range(30):
            Q, f = random_psd_instance(rng)
            base = solve(QpProblem(Q, f, alpha=0.5))
            again, _ = qp._solve_projected_gradient(Q, f, 100_000)
            assert np.max(np.abs(base.x - again)) <= 1e-5

    def test_feasibility_and_certificate_invariants(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            Q, f = random_psd_instance(rng)
            w = solve(QpProblem(Q, f, alpha=0.5))
            assert np.all(w.x >= -1e-10)
            assert abs(w.x.sum() - 1.0) <= 1e-8
            assert w.kkt_residual <= 1e-6

    def test_degenerate_rank_one_uses_fallback(self):
        Q = np.ones((3, 3))
        w = solve(QpProblem(Q, np.array([0.3, 0.2, 0.1]), alpha=0.5))
        assert w.fallback_used
        assert w.solver == "projected-gradient"
        assert w.kkt_residual <= 1e-6

    def test_uncertified_active_set_iterate_routes_to_fallback(self, monkeypatch):
        rng = np.random.default_rng(8)
        Q, f = random_psd_instance(rng, 5)
        p = QpProblem(Q, f, alpha=0.5)
        certified = solve(p)
        assert certified.solver == "active-set"
        monkeypatch.setattr(qp, "_solve_active_set", lambda Q, f, max_iter: (np.eye(5)[0], 3))
        w = solve(p)
        assert w.solver == "projected-gradient" and w.fallback_used
        assert w.kkt_residual <= 1e-6
        assert np.max(np.abs(w.x - certified.x)) <= 1e-5

    @pytest.mark.parametrize("active_set_result", ["uncertified", "degenerate"])
    def test_both_paths_uncertified_raise_with_best_iterate(self, monkeypatch,
                                                            active_set_result):
        # Q = I, f = 0: the optimum is uniform.  Residual of e_0 is 1 (its
        # complementarity), of (1/2, 1/2, 0) is 1/3 (its stationarity gap).
        def active_set(Q, f, max_iter):
            if active_set_result == "degenerate":
                raise qp._Degenerate("singular")
            return np.array([1.0, 0.0, 0.0]), 2
        monkeypatch.setattr(qp, "_solve_active_set", active_set)
        monkeypatch.setattr(qp, "_solve_projected_gradient",
                            lambda Q, f, max_iter: (np.array([0.5, 0.5, 0.0]), max_iter))
        with pytest.raises(SolverError, match="best residual 3.333e-01") as exc:
            solve(QpProblem(np.eye(3), np.zeros(3), alpha=0.0))
        assert exc.value.best_x.tolist() == [0.5, 0.5, 0.0]
        assert exc.value.residual == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_monotone_relevance_alpha_one(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            F = np.abs(rng.normal(size=5))
            p = assemble(np.zeros((5, 5)), F, 1.0)
            w = solve(p)
            assert w.ranking[0] == int(np.argmax(F))

    def test_kkt_residual_zero_at_known_optimum(self):
        Q = np.array([[1.0, 0.5], [0.5, 1.0]])
        f = np.array([0.8, 0.6])
        assert kkt_residual(Q, f, np.array([0.7, 0.3])) <= 1e-12


class TestScaleInvariance:
    def test_alpha_and_rank_invariant_under_joint_scaling(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            dd = random_discretized(rng, n=120, m=5)
            Q = build_redundancy_matrix(dd).values
            F = build_relevance_vector(dd).values
            if Q.sum() + F.sum() == 0:
                continue
            a0 = estimate_alpha(Q, F)
            w0 = solve(assemble(Q, F, a0))
            for c in (0.1, 10.0):
                ac = estimate_alpha(c * Q, c * F)
                assert abs(ac - a0) <= 1e-12
                wc = solve(assemble(c * Q, c * F, ac))
                assert wc.ranking.tolist() == w0.ranking.tolist()


class TestRank:
    def test_top_k(self):
        w = FeatureWeights(np.array([0.1, 0.7, 0.2]), ranking_of(np.array([0.1, 0.7, 0.2])),
                           0.0, 0.0, "vertex", 0)
        assert rank(w, 2) == [1, 2]

    def test_tie_rule_ascending_index(self):
        x = np.full(4, 0.25)
        w = FeatureWeights(x, ranking_of(x), 0.0, 0.0, "vertex", 0)
        assert rank(w, 3) == [0, 1, 2]

    def test_k_too_large(self):
        x = np.array([0.5, 0.5])
        w = FeatureWeights(x, ranking_of(x), 0.0, 0.0, "vertex", 0)
        with pytest.raises(ValueError):
            rank(w, 3)

    def test_weights_serialization(self):
        x = np.array([0.25, 0.75])
        w = FeatureWeights(x, ranking_of(x), -0.1, 0.0, "active-set", 3)
        text = weights_to_text(w, ["a", "b"])
        lines = text.strip().split("\n")
        assert lines[0] == "feature\tweight\trank"
        assert lines[1] == "b\t0.75\t1"
        assert lines[2] == "a\t0.25\t2"
