"""Simplex-constrained quadratic program over redundancy and relevance.

Assembles  minimize  0.5 * x' Q_eff x - f_eff' x  over the probability
simplex {x >= 0, sum(x) = 1}, where Q_eff = (1 - alpha) * Q and
f_eff = alpha * F, estimates the balancing parameter alpha from the data,
solves, and ranks features by solution weight.

``solve`` follows one rule.  An all-zero Q_eff is a linear program, solved
at a vertex.  Otherwise the dual active-set method runs, and projected
gradient runs only when the active set reports degeneracy or its iterate
misses the KKT tolerance; the iterate with the lower residual is kept.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, SolverError

KKT_TOL = 1e-6


def _as_matrix(Q) -> np.ndarray:
    return np.asarray(getattr(Q, "values", Q), dtype=float)


def _as_vector(F) -> np.ndarray:
    return np.asarray(getattr(F, "values", F), dtype=float)


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
    ranking: np.ndarray          # all feature indices, descending weight
    objective: float
    kkt_residual: float
    solver: str                  # "active-set", "projected-gradient", or "vertex"
    iterations: int

    @property
    def fallback_used(self) -> bool:
        return self.solver == "projected-gradient"


def estimate_alpha(Q, F) -> float:
    """Balance point mean(Q) / (mean(Q) + mean(F)) over all m^2 entries of Q.

    Raises DataError when both means are zero (no information content);
    silent defaulting would hide a degenerate pipeline upstream.
    """
    qm = float(np.mean(_as_matrix(Q)))
    fm = float(np.mean(_as_vector(F)))
    denom = qm + fm
    if denom == 0.0:
        raise DataError("all-zero redundancy and relevance; alpha is undefined")
    alpha = qm / denom
    return min(max(alpha, 0.0), 1.0)


def assemble(Q, F, alpha: float) -> QpProblem:
    """Scale the terms by alpha and repair indefiniteness by diagonal shift.

    If the smallest eigenvalue of (1-alpha)*Q falls below -1e-9 the whole
    diagonal is lifted by |lambda_min| + 1e-9; the shift is recorded so the
    regularization is auditable.
    """
    Qv = _as_matrix(Q)
    Fv = _as_vector(F)
    if not 0.0 <= alpha <= 1.0:
        raise DataError(f"alpha must lie in [0, 1], got {alpha}")
    if Qv.ndim != 2 or Qv.shape[0] != Qv.shape[1]:
        raise DataError(f"Q must be square, got shape {Qv.shape}")
    if Fv.ndim != 1 or Fv.shape[0] != Qv.shape[0]:
        raise DataError(f"dimension mismatch: Q is {Qv.shape}, F is {Fv.shape}")
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
    """Euclidean projection onto {x >= 0, sum(x) = 1} (sort and threshold)."""
    v = np.asarray(v, dtype=float)
    u = np.sort(v)[::-1]
    cumulative = np.cumsum(u) - 1.0
    ks = np.arange(1, v.size + 1)
    rho = ks[u - cumulative / ks > 0][-1]
    theta = cumulative[rho - 1] / rho
    return np.maximum(v - theta, 0.0)


def kkt_residual(Q_eff: np.ndarray, f_eff: np.ndarray, x: np.ndarray) -> float:
    """Max over stationarity, primal feasibility, and complementary slackness.

    Stationarity is measured as the fixed-point gap of the projected
    gradient step; complementarity uses the multiplier estimate
    nu = -min(gradient), which is exact at any optimum.  Non-finite
    iterates report an infinite residual.
    """
    if not np.all(np.isfinite(x)):
        return float("inf")
    g = Q_eff @ x - f_eff
    stationarity = float(np.max(np.abs(x - project_simplex(x - g))))
    feasibility = abs(float(x.sum()) - 1.0)
    negativity = max(0.0, -float(x.min()))
    complementarity = float(np.max(x * (g - g.min())))
    return max(stationarity, feasibility, negativity, complementarity)


# ---------------------------------------------------------------------------
# Solvers
# ---------------------------------------------------------------------------

# Projected gradient counts a step as stalled when the objective falls by less
# than this fraction of its magnitude.
STALL_TOL = 1e-12


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
    out, which routes the caller to the projected-gradient fallback.
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

    active: list[int] = []       # bound constraints x_i >= 0 currently active
    lam: list[float] = []        # their multipliers (kept >= 0)
    tol = 1e-11
    iterations = 0

    while True:
        candidates = np.where(x < -tol)[0]
        fresh = [p for p in candidates if p not in active]
        if not fresh:
            return x, iterations
        p = min(fresh, key=lambda i: x[i])   # most violated bound
        lam_p = 0.0

        while x[p] < -tol:
            iterations += 1
            if iterations > max_iter:
                raise _Degenerate(f"iteration budget {max_iter} exhausted")

            # Normals of active constraints: equality first, then bounds.
            N = np.empty((m, 1 + len(active)))
            N[:, 0] = ones
            for col, a in enumerate(active, start=1):
                N[:, col] = 0.0
                N[a, col] = 1.0
            QiN = Qinv @ N
            B = N.T @ QiN
            rhs = QiN[p, :]                  # = N' Qinv e_p
            try:
                r = np.linalg.solve(B, rhs)
            except np.linalg.LinAlgError:
                raise _Degenerate("singular active-set system") from None
            z = Qinv[:, p] - QiN @ r

            # Dual blocking step over active bound constraints only.
            t1 = np.inf
            blocker = -1
            for idx, a in enumerate(active):
                r_a = r[1 + idx]
                if r_a > tol:
                    ratio = lam[idx] / r_a
                    if ratio < t1:
                        t1 = ratio
                        blocker = idx
            z_p = float(z[p])
            if z_p <= tol:
                # No primal progress possible in this direction.
                if not np.isfinite(t1):
                    raise _Degenerate("dual step unbounded; degenerate geometry")
                lam = [l - t1 * r[1 + i] for i, l in enumerate(lam)]
                lam_p += t1
                del lam[blocker]
                del active[blocker]
                continue
            t2 = -float(x[p]) / z_p
            t = min(t1, t2)
            x = x + t * z
            if not np.all(np.isfinite(x)) or np.abs(x).max() > 1e6:
                raise _Degenerate("iterates diverged; ill-conditioned system")
            lam = [l - t * r[1 + i] for i, l in enumerate(lam)]
            lam_p += t
            if t2 <= t1:
                x[p] = 0.0                   # kill round-off on the new bound
                active.append(p)
                lam.append(lam_p)
                break
            del lam[blocker]
            del active[blocker]


def _solve_projected_gradient(Q: np.ndarray, f: np.ndarray, max_iter: int):
    """Fixed-step (1/L) projected gradient from the simplex centre.

    The stall test (five consecutive relative decreases below ``STALL_TOL``)
    only ends the run once the iterate also meets the KKT certificate;
    otherwise iteration continues until the budget runs out, returning the
    lowest-residual iterate seen.
    """
    m = f.shape[0]
    x = np.full(m, 1.0 / m)
    if np.any(Q):
        lipschitz = float(np.linalg.eigvalsh(Q)[-1])
    else:
        lipschitz = 0.0
    step = 1.0 / max(lipschitz, 1e-12)

    def objective(v):
        return float(0.5 * v @ Q @ v - f @ v)

    prev = objective(x)
    best_x = x
    best_res = kkt_residual(Q, f, x)
    stalled = 0
    iterations = 0
    for iterations in range(1, max_iter + 1):
        x = project_simplex(x - step * (Q @ x - f))
        cur = objective(x)
        if prev - cur <= STALL_TOL * max(1.0, abs(prev)):
            stalled += 1
        else:
            stalled = 0
        prev = cur
        if stalled >= 5 or iterations % 200 == 0:
            res = kkt_residual(Q, f, x)
            if res < best_res:
                best_res = res
                best_x = x
            if res <= 0.5 * KKT_TOL and stalled >= 5:
                return x, iterations
            if res <= 1e-10:
                return x, iterations
            if stalled >= 5:
                stalled = 0          # certificate not met yet; keep iterating
    res = kkt_residual(Q, f, x)
    if res < best_res:
        best_x = x
    return best_x, iterations


def solve(problem: QpProblem) -> FeatureWeights:
    """Minimize over the simplex and certify the result with a KKT residual.

    An all-zero Q_eff goes to the vertex solution.  Otherwise the dual
    active-set method runs; projected gradient runs only when it raises
    ``_Degenerate`` or its polished iterate misses ``KKT_TOL``, and the
    iterate with the lower residual is kept.  Raises SolverError (with the
    best iterate and its residual attached) if that residual still misses
    the tolerance.

    The problem is normalized by its largest coefficient before solving, so
    the certificate (and the tolerance it is held to) is invariant to a
    common positive rescaling of Q_eff and f_eff; the reported objective is
    on the original scale.
    """
    m = problem.m
    if m == 0:
        raise DataError("empty problem")
    coeff_scale = max(float(np.abs(problem.Q_eff).max()),
                      float(np.abs(problem.f_eff).max()))
    if coeff_scale <= 0.0 or not np.isfinite(coeff_scale):
        coeff_scale = 1.0
    Q = problem.Q_eff / coeff_scale
    f = problem.f_eff / coeff_scale

    if not np.any(Q):
        x, iterations, used = _solve_vertex(f), 0, "vertex"
        residual = kkt_residual(Q, f, x)
    else:
        try:
            x, iterations = _solve_active_set(Q, f, 100 * m)
            x = _polish_feasibility(x)
            residual, used = kkt_residual(Q, f, x), "active-set"
        except _Degenerate:
            x, residual = None, float("inf")
        if residual > KKT_TOL:
            x_pg, it_pg = _solve_projected_gradient(Q, f, 100_000)
            x_pg = _polish_feasibility(x_pg)
            r_pg = kkt_residual(Q, f, x_pg)
            if x is None or r_pg < residual:
                x, residual, iterations, used = x_pg, r_pg, it_pg, "projected-gradient"
    if residual > KKT_TOL:
        raise SolverError(
            f"no solver reached KKT tolerance {KKT_TOL:g} (best residual {residual:.3e})",
            best_x=x, residual=residual,
        )

    return FeatureWeights(
        x=x,
        ranking=ranking_of(x),
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
    return weights.ranking[:k].tolist()


def weights_to_text(weights: FeatureWeights, names: list[str]) -> str:
    """feature / weight / rank table, one feature per line, ranked order."""
    lines = ["feature\tweight\trank"]
    for pos, i in enumerate(weights.ranking, start=1):
        lines.append(f"{names[int(i)]}\t{format(float(weights.x[int(i)]), '.12g')}\t{pos}")
    return "\n".join(lines) + "\n"
