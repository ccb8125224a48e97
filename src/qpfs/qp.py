"""Simplex-constrained quadratic program over redundancy and relevance.

Assembles  minimize  0.5 * x' Q_eff x - f_eff' x  over the probability
simplex {x >= 0, sum(x) = 1}, where Q_eff = (1 - alpha) * Q and
f_eff = alpha * F, estimates the balancing parameter alpha from the data,
solves, and ranks features by solution weight.

``solve`` follows one rule.  An all-zero Q_eff is a linear program, solved
at a vertex.  Above ``ACTIVE_SET_MAX_M`` features, accelerated projected
gradient (FISTA) runs alone and stops on its KKT certificate.  At or below
that size the dual active-set method runs first and FISTA is its one
fallback: it runs only when the active set reports degeneracy or its
iterate misses the KKT tolerance, and the iterate with the lower residual
is kept.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, SolverError

KKT_TOL = 1e-6

# The size that splits the solve rule of the module docstring.  It is the
# measured crossover (BENCH_22.json, "crossover"): on the same problems FISTA
# is faster on 0-3 of 12 per family up to m = 80, on 5-6 of 12 at m = 88 and
# on 7-12 of 12 from m = 96.  It must not fall below 20: the tables' QPs
# (m <= 20) keep the active set, whose round-off their recorded outputs hold.
ACTIVE_SET_MAX_M = 88


@dataclass
class QpProblem:
    """Effective quadratic/linear terms after alpha-balancing and PSD repair.

    ``lambda_min`` is the smallest eigenvalue of (1 - alpha) * Q before the
    repair (0.0 when that matrix is all zero or empty).
    """

    Q_eff: np.ndarray
    f_eff: np.ndarray
    alpha: float
    psd_shift: float = 0.0
    lambda_min: float = 0.0

    @property
    def m(self) -> int:
        return self.f_eff.shape[0]

    def objective(self, x: np.ndarray) -> float:
        return float(0.5 * x @ self.Q_eff @ x - self.f_eff @ x)


@dataclass
class FeatureWeights:
    """QP solution on the simplex plus its optimality certificate."""

    x: np.ndarray
    objective: float
    kkt_residual: float
    solver: str                  # "active-set", "projected-gradient", or "vertex"
    iterations: int

    @property
    def fallback_used(self) -> bool:
        """Whether FISTA supplied the iterate for a problem the active set was tried on."""
        return self.solver == "projected-gradient" and self.x.shape[0] <= ACTIVE_SET_MAX_M


def estimate_alpha(Q, F) -> float:
    """Balance point mean(Q) / (mean(Q) + mean(F)) over all m^2 entries of Q.

    An all-zero Q with a nonzero F gives 1.0: there is no redundancy to
    weigh, and the balance point 0 would zero the relevance term as well.
    Other terms whose means sum to zero, and an empty F (no features),
    raise DataError (no information content); silent defaulting would hide
    a degenerate pipeline upstream.
    """
    Qv = np.asarray(Q, dtype=float)
    Fv = np.asarray(F, dtype=float)
    if Fv.size == 0:
        raise DataError("no features; alpha is undefined")
    if not np.any(Qv) and np.any(Fv):
        return 1.0
    qm = float(np.mean(Qv))
    fm = float(np.mean(Fv))
    denom = qm + fm
    if denom == 0.0:
        raise DataError("all-zero redundancy and relevance; alpha is undefined")
    alpha = qm / denom
    return min(max(alpha, 0.0), 1.0)


def _require_shapes(Q: np.ndarray, F: np.ndarray, q_term="Q", f_term="F") -> None:
    """Raise DataError, naming the terms, unless Q is square and F a vector of its side."""
    if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
        raise DataError(f"{q_term} must be square, got shape {Q.shape}")
    if F.ndim != 1 or F.shape[0] != Q.shape[0]:
        raise DataError(f"dimension mismatch: {q_term} is {Q.shape}, {f_term} is {F.shape}")


def _require_finite(term: str, values: np.ndarray) -> None:
    """Raise DataError naming ``term`` and the first position where it is not finite."""
    bad = np.argwhere(~np.isfinite(values))
    if bad.size:
        where = tuple(int(i) for i in bad[0])
        raise DataError(f"{term} has a non-finite entry {values[where]} at {where}")


def assemble(Q, F, alpha: float) -> QpProblem:
    """Scale the terms by alpha and repair indefiniteness by diagonal shift.

    If the smallest eigenvalue of (1-alpha)*Q falls below -1e-9 the whole
    diagonal is lifted by |lambda_min| + 1e-9; the shift is recorded so the
    regularization is auditable.  A non-finite entry of Q or F is a
    DataError that names the term.
    """
    Qv = np.asarray(Q, dtype=float)
    Fv = np.asarray(F, dtype=float)
    _require_shapes(Qv, Fv)
    # Before the alpha check: estimate_alpha of a non-finite Q or F is NaN, 0 or 1.
    _require_finite("Q", Qv)
    _require_finite("F", Fv)
    if not 0.0 <= alpha <= 1.0:
        raise DataError(f"alpha must lie in [0, 1], got {alpha}")
    if not np.allclose(Qv, Qv.T, atol=1e-9, rtol=0.0):
        raise DataError("Q must be symmetric")

    Q_eff = (1.0 - alpha) * Qv
    Q_eff = 0.5 * (Q_eff + Q_eff.T)      # exact symmetry for eigvalsh/solvers
    f_eff = alpha * Fv
    psd_shift = 0.0
    lam_min = 0.0
    if Q_eff.shape[0] > 0 and np.any(Q_eff):
        lam_min = float(np.linalg.eigvalsh(Q_eff)[0])
        if lam_min < -1e-9:
            psd_shift = abs(lam_min) + 1e-9
            Q_eff = Q_eff + psd_shift * np.eye(Q_eff.shape[0])
    return QpProblem(Q_eff=Q_eff, f_eff=f_eff, alpha=float(alpha), psd_shift=psd_shift,
                     lambda_min=lam_min)


# ---------------------------------------------------------------------------
# Simplex geometry
# ---------------------------------------------------------------------------

def project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto {x >= 0, sum(x) = 1} (sort and threshold).

    An empty or non-finite ``v`` has no projection and is a DataError.  A
    common shift leaves the projection unchanged, so ``v`` is shifted to a
    maximum of 0; the threshold then lies in [-1, 0), so only entries above
    -1 are sorted and summed, and no sum of finite input can overflow.
    """
    v = np.asarray(v, dtype=float)
    if v.size == 0:
        raise DataError("cannot project an empty vector onto the simplex")
    _require_finite("v", v)
    with np.errstate(over="ignore"):     # a range past the largest float: -inf, projected to 0
        v = v - v.max()
    u = np.sort(v[v > -1.0])[::-1]
    cumulative = np.cumsum(u) - 1.0
    ks = np.arange(1, u.size + 1)
    rho = ks[u - cumulative / ks > 0][-1]
    theta = cumulative[rho - 1] / rho
    return np.maximum(v - theta, 0.0)


def kkt_residual(Q_eff: np.ndarray, f_eff: np.ndarray, x: np.ndarray) -> float:
    """Max over stationarity, primal feasibility, and complementary slackness.

    Stationarity is measured as the fixed-point gap of the projected
    gradient step; that step lands on the simplex, so the gap of a negative
    weight is at least its size and no separate nonnegativity term is
    needed.  Complementarity uses the multiplier estimate nu = -min(gradient),
    which is exact at any optimum.  Non-finite iterates report an infinite
    residual.
    """
    if not np.all(np.isfinite(x)):
        return float("inf")
    g = Q_eff @ x - f_eff
    stationarity = float(np.max(np.abs(x - project_simplex(x - g))))
    feasibility = abs(float(x.sum()) - 1.0)
    complementarity = float(np.max(x * (g - g.min())))
    return max(stationarity, feasibility, complementarity)


# ---------------------------------------------------------------------------
# Solvers
# ---------------------------------------------------------------------------

class _Degenerate(Exception):
    """Internal: active-set method cannot proceed; use the fallback."""


def _polish_feasibility(x: np.ndarray) -> np.ndarray:
    """Clip solver round-off below zero and rescale the sum to exactly one.

    Ill-conditioned systems (smallest eigenvalue near the repair margin)
    can leave O(1e-9) constraint violations; rescaling preserves the
    ranking and the sparsity pattern, unlike a Euclidean re-projection.
    """
    x = np.maximum(x, 0.0)
    total = x.sum()
    if total > 0:
        x = x / total
    return x


def _solve_vertex(f_eff: np.ndarray) -> np.ndarray:
    # Q_eff == 0: a linear program over the simplex; a max-coefficient vertex
    # is optimal (first such index on ties).
    x = np.zeros_like(f_eff)
    x[int(np.argmax(f_eff))] = 1.0
    return x


def _solve_active_set(Q: np.ndarray, f: np.ndarray, max_iter: int):
    """Dual active-set method for strictly convex Q.

    Starts from the equality-constrained minimum and adds violated bound
    constraints one at a time, taking dual steps (dropping blocking
    constraints) when a full primal step is not possible.  Raises
    _Degenerate on singular subproblems or when the iteration budget runs
    out, which routes the caller to the other solver.
    """
    m = f.shape[0]
    try:
        np.linalg.cholesky(Q)        # strict convexity gate
        Qinv = np.linalg.inv(Q)
    except np.linalg.LinAlgError:
        raise _Degenerate("Q_eff is not positive definite") from None
    ones = np.ones(m)

    # Minimum subject to the equality constraint alone: x = Qinv (f - nu*1).
    qf = Qinv @ f
    q1 = Qinv @ ones
    denom = float(ones @ q1)
    if denom <= 0.0 or not np.isfinite(denom):
        raise _Degenerate("equality KKT system is not positive definite")
    nu = (float(ones @ qf) - 1.0) / denom
    x = qf - nu * q1

    active: list[int] = []       # bound constraints x_i >= 0 active, in order of entry
    lam: list[float] = []        # their multipliers (kept >= 0)
    tol = 1e-11
    iterations = 0

    while True:
        fresh = [i for i in np.flatnonzero(x < -tol).tolist() if i not in active]
        if not fresh:
            return x, iterations
        p = min(fresh, key=x.__getitem__)   # most violated bound (first on ties)
        lam_p = 0.0

        while x[p] < -tol:
            iterations += 1
            if iterations > max_iter:
                raise _Degenerate(f"iteration budget {max_iter} exhausted")

            # Normals of active constraints: equality first, then bounds.
            N = np.zeros((m, 1 + len(active)))
            N[:, 0] = 1.0
            N[active, range(1, 1 + len(active))] = 1.0
            QiN = Qinv @ N
            B = N.T @ QiN
            rhs = QiN[p, :]                  # = N' Qinv e_p
            try:
                r = np.linalg.solve(B, rhs)
            except np.linalg.LinAlgError:
                raise _Degenerate("singular active-set system") from None
            z = Qinv[:, p] - QiN @ r

            # Dual blocking step over active bound constraints only: the first
            # constraint attaining the smallest ratio lam / r over r > tol.
            r_bounds = r[1:].tolist()
            t1 = np.inf
            blocker = -1
            for k, (lam_k, r_k) in enumerate(zip(lam, r_bounds)):
                if r_k > tol and lam_k / r_k < t1:
                    t1 = lam_k / r_k
                    blocker = k
            z_p = float(z[p])
            if z_p <= tol:
                # No primal progress possible in this direction.
                if not np.isfinite(t1):
                    raise _Degenerate("dual step unbounded; degenerate geometry")
                t = t1
            else:
                t2 = -float(x[p]) / z_p
                t = min(t1, t2)
                x = x + t * z
                if not np.all(np.isfinite(x)) or np.abs(x).max() > 1e6:
                    raise _Degenerate("iterates diverged; ill-conditioned system")
            lam = [lam_k - t * r_k for lam_k, r_k in zip(lam, r_bounds)]
            lam_p += t
            if z_p > tol and t2 <= t1:
                x[p] = 0.0                   # kill round-off on the new bound
                active.append(p)
                lam.append(lam_p)
                break
            del active[blocker], lam[blocker]   # the rest keep their order


def _solve_projected_gradient(Q: np.ndarray, f: np.ndarray, max_iter: int):
    """Accelerated projected gradient (FISTA) from the simplex centre.

    The step is 1/L, with L the largest absolute row sum of Q (a Gershgorin
    bound on its largest eigenvalue), and the momentum restarts whenever it
    points uphill (Beck & Teboulle 2009; O'Donoghue & Candes 2015).  Every
    50 steps the KKT residual is checked: the first iterate at or below
    half of ``KKT_TOL`` is returned, else the last one when the budget runs
    out.
    """
    x = y = np.full(f.shape[0], 1.0 / f.shape[0])
    step = 1.0 / max(float(np.abs(Q).sum(axis=1).max()), 1e-12)
    t = 1.0
    iterations = 0
    for iterations in range(1, max_iter + 1):
        x_next = project_simplex(y - step * (Q @ y - f))
        if (y - x_next) @ (x_next - x) > 0.0:
            t = 1.0
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        y = x_next + ((t - 1.0) / t_next) * (x_next - x)
        x, t = x_next, t_next
        if iterations % 50 == 0 and kkt_residual(Q, f, x) <= 0.5 * KKT_TOL:
            break
    return x, iterations


def solve(problem: QpProblem) -> FeatureWeights:
    """Minimize over the simplex and certify the result with a KKT residual.

    The solvers run by the rule in the module docstring.  The active set
    has a budget of 100 steps per feature, and projected gradient stops at
    its first iterate within half of ``KKT_TOL`` or after 100,000 steps.
    Raises SolverError (with the best iterate and its residual attached) if
    the kept residual still misses the tolerance, and DataError if Q_eff is
    not square, f_eff is not a vector of its side, or either has a
    non-finite entry.

    The problem is normalized by its largest coefficient before solving, so
    the certificate (and the tolerance it is held to) is invariant to a
    common positive rescaling of Q_eff and f_eff; the reported objective is
    on the original scale.
    """
    _require_shapes(problem.Q_eff, problem.f_eff, "Q_eff", "f_eff")
    m = problem.m
    if m == 0:
        raise DataError("empty problem")
    _require_finite("Q_eff", problem.Q_eff)
    _require_finite("f_eff", problem.f_eff)
    coeff_scale = max(float(np.abs(problem.Q_eff).max()),
                      float(np.abs(problem.f_eff).max()))
    if coeff_scale == 0.0:
        coeff_scale = 1.0
    Q = problem.Q_eff / coeff_scale
    f = problem.f_eff / coeff_scale

    if not np.any(Q):
        x, iterations, used = _solve_vertex(f), 0, "vertex"
        residual = kkt_residual(Q, f, x)
    else:
        solvers = [("projected-gradient", _solve_projected_gradient, 100_000)]
        if m <= ACTIVE_SET_MAX_M:
            solvers.insert(0, ("active-set", _solve_active_set, 100 * m))
        x, residual = None, float("inf")
        for name, run, budget in solvers:
            try:
                x_run, it_run = run(Q, f, budget)
            except _Degenerate:
                continue
            x_run = _polish_feasibility(x_run)
            r_run = kkt_residual(Q, f, x_run)
            if x is None or r_run < residual:
                x, residual, iterations, used = x_run, r_run, it_run, name
            if residual <= KKT_TOL:
                break
    if residual > KKT_TOL:
        raise SolverError(
            f"no solver reached KKT tolerance {KKT_TOL:g} (best residual {residual:.3e})",
            best_x=x, residual=residual,
        )

    return FeatureWeights(
        x=x,
        objective=problem.objective(x),
        kkt_residual=residual,
        solver=used,
        iterations=iterations,
    )


# ---------------------------------------------------------------------------
# Ranking
# ---------------------------------------------------------------------------

def ranking_of(x: np.ndarray) -> np.ndarray:
    """All indices by descending weight; ties broken by ascending index."""
    idx = np.arange(x.shape[0])
    return idx[np.lexsort((idx, -np.asarray(x)))]


def _check_k(k: int, m: int) -> None:
    if not 1 <= k <= m:
        raise ValueError(f"k must be in [1, {m}], got {k}")


def rank(weights: FeatureWeights, k: int) -> list[int]:
    """Top-k feature indices from a solved problem."""
    _check_k(k, weights.x.shape[0])
    return ranking_of(weights.x)[:k].tolist()
