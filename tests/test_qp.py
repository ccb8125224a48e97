"""Alpha estimation, problem assembly, the simplex QP solver, and ranking."""

import collections
import warnings

import numpy as np
import pytest

from qpfs import qp
from qpfs.errors import DataError, SolverError
from qpfs.infotheory import build_redundancy_matrix, build_relevance_vector
from qpfs.cli import weights_text
from qpfs.ingest import parse_schema_text
from qpfs.pipeline import SelectionConfig, select_features
from qpfs.qp import (FeatureWeights, QpProblem, assemble, estimate_alpha,
                     kkt_residual, project_simplex, rank, ranking_of, solve)

from conftest import dataset_from_rows, grid_search_simplex, random_discretized
from oracles import OracleDegenerate, oracle_active_set


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

    def test_zero_redundancy_weighs_relevance_alone(self):
        Q, F = np.zeros((6, 6)), np.array([0.1, 0.3, 0.2, 0.05, 0.4, 0.0])
        assert estimate_alpha(Q, F) == 1.0
        assert rank(solve(assemble(Q, F, estimate_alpha(Q, F))), 1) == [4]

    def test_zero_redundancy_selects_by_relevance(self):
        # a and b are independent, so Q (zero diagonal) is all zero; y copies
        # b, so F = (0, 1 bit).  The balance point 0 would select a first.
        columns = parse_schema_text("a categorical feature\nb categorical feature\n"
                                    "y binary target positive=1\n")
        rows = [(a, b, "1" if b == "q" else "0") for a, b in zip("xxzzxxzz", "pqpqpqpq")]
        out = select_features(dataset_from_rows(columns, rows),
                              SelectionConfig(method="quadratic", k=2))
        assert out.problem.alpha == 1.0
        assert out.result.selected == [1, 0]

    def test_range(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            Q, F = random_psd_instance(rng)
            assert 0.0 <= estimate_alpha(Q, F) <= 1.0

    def test_terms_of_opposite_sign_clamp_to_the_range(self):
        # the balance point of these means is 2 or -1, outside [0, 1]
        assert estimate_alpha(np.full((2, 2), 0.2), np.full(2, -0.1)) == 1.0
        assert estimate_alpha(np.full((2, 2), -0.1), np.full(2, 0.2)) == 0.0

    def test_accepts_wrapped_types(self):
        rng = np.random.default_rng(1)
        dd = random_discretized(rng, n=100, m=4)
        Q = build_redundancy_matrix(dd)
        F = build_relevance_vector(dd)
        a = estimate_alpha(Q, F)
        b = estimate_alpha(Q.tolist(), F.tolist())      # any array-like
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

    def test_nan_in_q_is_named_before_the_symmetry_check(self):
        Q = np.eye(3)
        Q[1, 2] = np.nan
        with pytest.raises(DataError, match=r"Q has a non-finite entry nan at \(1, 2\)"):
            assemble(Q, np.ones(3), 0.5)

    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_non_finite_f_is_named_under_its_estimated_alpha(self, value):
        # estimate_alpha gives 0 for an infinite F and NaN for a NaN one
        Q, F = np.eye(2), np.array([0.1, value])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match=rf"F has a non-finite entry {value} at \(1,\)"):
                assemble(Q, F, estimate_alpha(Q, F))

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

    @pytest.mark.parametrize("v, message", [
        ([np.nan, 1.0], r"v has a non-finite entry nan at \(0,\)"),
        ([], "cannot project an empty vector"),
    ], ids=["nan", "empty"])
    def test_unprojectable_input_is_a_data_error(self, v, message):
        with pytest.raises(DataError, match=message):
            project_simplex(np.array(v, dtype=float))

    @pytest.mark.parametrize("v, expected", [
        ([1e308, 1e308], [0.5, 0.5]),
        ([1.7e308, 0.0, 0.0], [1.0, 0.0, 0.0]),
        ([-1e308, -1e308], [0.5, 0.5]),
        ([1.7e308, -1.7e308], [1.0, 0.0]),
    ], ids=["equal-huge", "one-huge", "equal-huge-negative", "range-past-max"])
    def test_large_finite_input_lands_on_the_simplex(self, v, expected):
        # A cumulative sum of the unshifted vector overflows on these.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = project_simplex(np.array(v))
        assert p.tolist() == expected


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
            assert ranking_of(w.x)[0] == int(np.argmax(F))

    @pytest.mark.parametrize("term", ["Q_eff", "f_eff"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_problem_is_a_data_error(self, term, value):
        terms = {"Q_eff": np.eye(2), "f_eff": np.array([0.5, 1.0])}
        terms[term][0, ...] = value
        with pytest.raises(DataError, match=f"{term} has a non-finite entry"):
            solve(QpProblem(**terms, alpha=0.5))

    @pytest.mark.parametrize("Q_eff, f_eff, message", [
        (np.eye(3), np.ones(2), r"dimension mismatch: Q_eff is \(3, 3\), f_eff is \(2,\)"),
        (np.ones(3), np.ones(3), r"Q_eff must be square, got shape \(3,\)"),
    ], ids=["length-mismatch", "one-dimensional"])
    def test_misshapen_problem_is_a_data_error(self, Q_eff, f_eff, message):
        with pytest.raises(DataError, match=message):
            solve(QpProblem(Q_eff, f_eff, alpha=0.5))

    def test_kkt_residual_zero_at_known_optimum(self):
        Q = np.array([[1.0, 0.5], [0.5, 1.0]])
        f = np.array([0.8, 0.6])
        assert kkt_residual(Q, f, np.array([0.7, 0.3])) <= 1e-12

    @pytest.mark.parametrize("f, x, expected", [
        # off the simplex: |sum - 1| = 0.4, the projected step moves 0.2
        ([0.0, 0.0], [0.7, 0.7], 0.4),
        # on it: weight 0.1 where the gradient is 10 above its minimum, the
        # projected step moves 0.1
        ([0.0, -10.0], [0.9, 0.1], 1.0),
    ])
    def test_kkt_residual_is_its_largest_term(self, f, x, expected):
        # Q = 0, so the gradient is -f.  A negative weight is never the
        # largest term: the projected step moves it at least to zero.
        residual = kkt_residual(np.zeros((2, 2)), np.array(f), np.array(x))
        assert residual == pytest.approx(expected, abs=1e-15)


def normalized(problem):
    """Q_eff and f_eff divided by their largest coefficient, as ``solve`` runs them."""
    scale = max(np.abs(problem.Q_eff).max(), np.abs(problem.f_eff).max())
    return problem.Q_eff / scale, problem.f_eff / scale


def mi_like_problem(rng, m):
    """Plug-in MI redundancy with a zero diagonal: indefinite, so assemble shifts it."""
    dd = random_discretized(rng, n=200, m=m, bins=int(rng.integers(2, 6)),
                            redundancy=float(rng.uniform(0.0, 1.5)))
    Q = build_redundancy_matrix(dd)
    np.fill_diagonal(Q, 0.0)
    F = build_relevance_vector(dd)
    return normalized(assemble(Q, F, estimate_alpha(Q, F)))


def latent_factor_problem(rng, m, n=300):
    """Gaussian MI of features that load on m/10 shared factors, as on ``wide``."""
    n_factors = max(1, m // 10)
    z = rng.normal(size=(n, n_factors))
    x = (z[:, np.arange(m) % n_factors] * rng.uniform(0.5, 1.5, m)
         + rng.normal(size=(n, m)) * rng.uniform(0.3, 1.0, m))
    r2 = np.minimum(np.corrcoef(x, rowvar=False) ** 2, 0.999)
    Q = -0.5 * np.log1p(-r2)
    np.fill_diagonal(Q, 0.0)
    F = rng.uniform(0.005, 0.03, m)
    return normalized(assemble(Q, F, estimate_alpha(Q, F)))


def diagonal_dominant_problem(rng, m):
    A = rng.uniform(-1.0, 1.0, size=(m, m))
    Q = 0.5 * (A + A.T)
    np.fill_diagonal(Q, np.abs(Q).sum(axis=1) + rng.uniform(0.0, 1.0, m))
    return Q, rng.uniform(0.0, 1.0, m)


def mixed_scale_problem(rng, m):
    """Curvatures spread over 16 decades: some bounds then admit no primal
    step (z_p <= tol), which takes the dual drop."""
    Q, f = random_psd_instance(rng, m)
    d = 10.0 ** rng.uniform(-3.0, 13.0, m)
    return Q * np.sqrt(np.outer(d, d)), f


PROBLEM_FAMILIES = {
    "random_pd": random_psd_instance,
    "mi_like": mi_like_problem,
    "latent_factor": latent_factor_problem,
    "diagonal_dominant": diagonal_dominant_problem,
}


def solve_both(Q, f, max_iter, branches):
    """The package's active set against the list-based oracle: the same bits,
    iterations and raises.  Returns the raise message, or None."""
    try:
        expected = oracle_active_set(Q, f, max_iter, branches)
    except OracleDegenerate as exc:
        with pytest.raises(qp._Degenerate) as raised:
            qp._solve_active_set(Q, f, max_iter)
        assert str(raised.value) == str(exc)
        return str(exc)
    x, iterations = qp._solve_active_set(Q, f, max_iter)
    assert x.tobytes() == expected[0].tobytes()
    assert iterations == expected[1]
    return None


class TestActiveSetMatchesOracle:
    @pytest.mark.parametrize("family", sorted(PROBLEM_FAMILIES))
    def test_bit_identical_weights_iterations_and_raises(self, family):
        rng = np.random.default_rng(sorted(PROBLEM_FAMILIES).index(family))
        branches = collections.Counter()
        for _ in range(60):
            m = int(rng.integers(2, 61))
            Q, f = PROBLEM_FAMILIES[family](rng, m)
            solve_both(Q, f, 100 * m, branches)
        assert branches["add"] > 0

    def test_wide_latent_factor_problem(self):
        rng = np.random.default_rng(300)
        Q, f = latent_factor_problem(rng, 120, n=600)
        branches = collections.Counter()
        assert solve_both(Q, f, 100 * 120, branches) is None
        assert branches["add"] >= 10

    def test_every_branch_is_taken(self):
        rng = np.random.default_rng(11)
        branches = collections.Counter()
        for _ in range(150):
            m = int(rng.integers(2, 40))
            for Q, f in (random_psd_instance(rng, m), diagonal_dominant_problem(rng, m),
                         mixed_scale_problem(rng, m)):
                solve_both(Q, f, 100 * m, branches)
        solve_both(np.ones((3, 3)), np.array([0.3, 0.2, 0.1]), 300, branches)
        solve_both(*random_psd_instance(rng, 6), 0, branches)
        for branch in ("add", "primal_drop", "dual_drop", "not_pd", "budget"):
            assert branches[branch] > 0, (branch, branches)


def rank_one_problem(rng, m):
    a = rng.uniform(0.1, 1.0, m)
    return np.outer(a, a), rng.uniform(0.0, 1.0, m)


def low_rank_problem(rng, m):
    A = rng.normal(size=(m, int(rng.integers(1, m))))
    return A @ A.T / A.shape[1], rng.uniform(0.0, 1.0, m)


def repeated_feature_problem(rng, m):
    """A random PD instance of m - 1 features whose last feature repeats one of them."""
    Q, f = random_psd_instance(rng, m - 1)
    idx = np.append(np.arange(m - 1), rng.integers(0, m - 1))
    return Q[np.ix_(idx, idx)], f[idx]


DEGENERATE_FAMILIES = {
    "rank_one": rank_one_problem,
    "low_rank": low_rank_problem,
    "repeated_feature": repeated_feature_problem,
}


class TestSolverOrder:
    """Up to ACTIVE_SET_MAX_M features the active set runs first, above it FISTA alone."""

    @pytest.mark.parametrize("family", sorted(PROBLEM_FAMILIES))
    def test_projected_gradient_certifies_above_the_size(self, family):
        rng = np.random.default_rng(60 + sorted(PROBLEM_FAMILIES).index(family))
        for m in (qp.ACTIVE_SET_MAX_M + 1, 2 * qp.ACTIVE_SET_MAX_M):
            Q, f = normalized(QpProblem(*PROBLEM_FAMILIES[family](rng, m), alpha=0.5))
            w = solve(QpProblem(Q, f, alpha=0.5))
            assert w.solver == "projected-gradient" and not w.fallback_used, (m, w)
            assert w.kkt_residual <= qp.KKT_TOL, (m, w.kkt_residual)
            # Past the support the active set's weights are round-off, so the
            # top-k is compared only where it lies inside that support.
            x, _ = qp._solve_active_set(Q, f, 100 * m)
            k = min(10, int(np.sum(x > qp.KKT_TOL)))
            assert rank(w, k) == ranking_of(x)[:k].tolist(), (m, k)

    @pytest.mark.parametrize("family", sorted(PROBLEM_FAMILIES))
    def test_projected_gradient_stops_at_half_the_tolerance(self, family):
        # FISTA checks its residual every 50 steps and returns the first
        # iterate at or below half of KKT_TOL, leaving room for the polish
        rng = np.random.default_rng(70 + sorted(PROBLEM_FAMILIES).index(family))
        for m in (qp.ACTIVE_SET_MAX_M + 1, 2 * qp.ACTIVE_SET_MAX_M):
            Q, f = normalized(QpProblem(*PROBLEM_FAMILIES[family](rng, m), alpha=0.5))
            x, iterations = qp._solve_projected_gradient(Q, f, 100_000)
            assert iterations % 50 == 0 and iterations < 100_000, (m, iterations)
            assert kkt_residual(Q, f, x) <= 0.5 * qp.KKT_TOL, m
            if iterations > 50:
                earlier, _ = qp._solve_projected_gradient(Q, f, iterations - 50)
                assert kkt_residual(Q, f, earlier) > 0.5 * qp.KKT_TOL, m

    def test_the_active_set_runs_first_at_the_size(self):
        Q, f = latent_factor_problem(np.random.default_rng(61), qp.ACTIVE_SET_MAX_M)
        w = solve(QpProblem(Q, f, alpha=0.5))
        assert w.solver == "active-set" and not w.fallback_used

    def test_above_the_size_the_active_set_never_runs(self, monkeypatch):
        m = qp.ACTIVE_SET_MAX_M + 1
        Q, f = latent_factor_problem(np.random.default_rng(62), m)

        def refuse(Q, f, max_iter):
            raise AssertionError("solve ran the active set above ACTIVE_SET_MAX_M")
        monkeypatch.setattr(qp, "_solve_active_set", refuse)
        w = solve(QpProblem(Q, f, alpha=0.5))
        assert w.solver == "projected-gradient" and not w.fallback_used
        # An uncertified FISTA iterate is final: polished, it rides on the error.
        missed = np.full(m, 2.0 / m)
        missed[0] = -1e-3
        monkeypatch.setattr(qp, "_solve_projected_gradient",
                            lambda Q, f, max_iter: (missed, max_iter))
        polished = qp._polish_feasibility(missed)
        with pytest.raises(SolverError) as exc:
            solve(QpProblem(Q, f, alpha=0.5))
        assert exc.value.best_x.tobytes() == polished.tobytes()
        assert exc.value.residual == kkt_residual(Q, f, polished) > qp.KKT_TOL


class TestFallback:
    """Singular Q: the active set reports degeneracy and the fallback solves.

    Every size here is at most ``ACTIVE_SET_MAX_M``, where FISTA is the fallback.
    """

    @pytest.mark.parametrize("family", sorted(DEGENERATE_FAMILIES))
    def test_degenerate_families_certify_through_the_fallback(self, monkeypatch, family):
        # Round-off can let Cholesky pass on a singular Q; the active set is
        # made to report degeneracy so that every problem reaches the fallback.
        def degenerate(Q, f, max_iter):
            raise qp._Degenerate("singular")
        monkeypatch.setattr(qp, "_solve_active_set", degenerate)
        rng = np.random.default_rng(30 + sorted(DEGENERATE_FAMILIES).index(family))
        for m in (2, 3, 2, 3, 5, 8, 13, 21, 34):
            Q, f = DEGENERATE_FAMILIES[family](rng, m)
            w = solve(QpProblem(Q, f, alpha=0.5))
            assert w.fallback_used and w.kkt_residual <= qp.KKT_TOL, (m, w)
            # the momentum restart keeps these to a few hundred steps; without
            # it one rank-one problem takes 1,600 and a low-rank one 500
            assert w.iterations <= 300, (m, w.iterations)
            if m <= 3:
                _, oracle_val = grid_search_simplex(Q, f)
                assert w.objective <= oracle_val + 1e-9
                assert abs(w.objective - oracle_val) <= 1e-6

    def test_fallback_runs_no_eigendecomposition(self, monkeypatch):
        problems = [(np.ones((3, 3)), np.array([0.3, 0.2, 0.1])),
                    low_rank_problem(np.random.default_rng(12), 40)]

        def refuse(*args, **kwargs):
            raise AssertionError("solve ran an eigendecomposition")
        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        monkeypatch.setattr(np.linalg, "eigh", refuse)
        for Q, f in problems:
            w = solve(QpProblem(Q, f, alpha=0.5))
            assert w.fallback_used and w.kkt_residual <= qp.KKT_TOL

    def test_mixed_scale_problem_certifies(self):
        # The 15th mixed-scale draw (m = 4): fixed-step projected gradient
        # spent its whole budget on it and stopped at residual 1.2e-6.
        rng = np.random.default_rng(123)
        for _ in range(15):
            Q, f = mixed_scale_problem(rng, int(rng.integers(2, 61)))
        assert f.shape == (4,)
        Q, f = normalized(QpProblem(Q, f, alpha=0.5))
        x, iterations = qp._solve_projected_gradient(Q, f, 100_000)
        assert iterations < 100_000
        assert kkt_residual(Q, f, qp._polish_feasibility(x)) <= qp.KKT_TOL


class TestScaleInvariance:
    def test_alpha_and_rank_invariant_under_joint_scaling(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            dd = random_discretized(rng, n=120, m=5)
            Q = build_redundancy_matrix(dd)
            F = build_relevance_vector(dd)
            if Q.sum() + F.sum() == 0:
                continue
            a0 = estimate_alpha(Q, F)
            w0 = solve(assemble(Q, F, a0))
            for c in (0.1, 10.0):
                ac = estimate_alpha(c * Q, c * F)
                assert abs(ac - a0) <= 1e-12
                wc = solve(assemble(c * Q, c * F, ac))
                assert ranking_of(wc.x).tolist() == ranking_of(w0.x).tolist()


class TestRank:
    def test_top_k(self):
        w = FeatureWeights(np.array([0.1, 0.7, 0.2]), 0.0, 0.0, "vertex", 0)
        assert rank(w, 2) == [1, 2]

    def test_tie_rule_ascending_index(self):
        x = np.full(4, 0.25)
        w = FeatureWeights(x, 0.0, 0.0, "vertex", 0)
        assert rank(w, 3) == [0, 1, 2]

    def test_k_too_large(self):
        x = np.array([0.5, 0.5])
        w = FeatureWeights(x, 0.0, 0.0, "vertex", 0)
        with pytest.raises(ValueError):
            rank(w, 3)

    def test_weights_serialization(self):
        x = np.array([0.25, 0.75])
        w = FeatureWeights(x, -0.1, 0.0, "active-set", 3)
        text = weights_text(w, ["a", "b"])
        lines = text.strip().split("\n")
        assert lines[0] == "feature\tweight\trank"
        assert lines[1] == "b\t0.75\t1"
        assert lines[2] == "a\t0.25\t2"
