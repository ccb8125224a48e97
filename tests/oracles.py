"""Reference implementations that the package is pinned against, each defined once.

- The per-pair estimators ``contingency``, ``mutual_information`` and
  ``entropy``: the plug-in MI of one pair of code vectors and the entropy
  of one.  ``qpfs.infotheory``'s batched kernel applies the same numpy
  operations to stacks of tables and must equal them bit for bit;
  ``pairwise_oracle`` and ``symmetric_uncertainty`` are built on them, and
  ``brute_force_mi_bits`` checks them term by term in plain Python.
- ``oracle_first_appearance_codes``: first-appearance coding with a dict.
- ``oracle_first_fault``: the first fault of a data file, found row by row
  and cell by cell, which ``qpfs.ingest.load_csv`` must report.
- The selector loops: greedy mRMR with each step's criterion computed one
  candidate at a time, and the CFS merit of one subset.  ``qpfs.baselines``
  computes both for all candidates at once and must equal them bit for bit.
- The IRLS oracles: the ridge log-likelihood and gradient, and the fit that
  recomputes the probabilities before every Newton step.
- ``oracle_active_set``: the dual active-set QP solver with its active set
  kept in Python lists, counting the branches it takes.
- ``oracle_exact_qp``: the exact optimum of a simplex QP, certified by its
  KKT conditions in ``fractions.Fraction`` arithmetic.

They import nothing from ``qpfs`` but its error type.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from qpfs.errors import DataError

# ---------------------------------------------------------------------------
# Per-pair mutual information
# ---------------------------------------------------------------------------


def contingency(codes_a, codes_b) -> np.ndarray:
    """Cross-tabulate two equal-length code vectors into an (r, c) count array.

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
    return np.bincount(ia * c + ib, minlength=r * c).reshape(r, c)


def mutual_information(counts) -> float:
    """I(A;B) in bits from an (r, c) contingency count array, clamped below at 0."""
    counts = np.asarray(counts, dtype=float)
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
    a = np.asarray(codes).ravel()
    if a.size == 0:
        raise DataError("empty code vector")
    p = np.unique(a, return_counts=True)[1] / a.size
    return float(0.0 - np.sum(p * np.log2(p)))


def pairwise_oracle(codes) -> np.ndarray:
    """The per-pair loop: entropy on the diagonal, MI with column i as rows above it."""
    p = codes.shape[1]
    out = np.zeros((p, p))
    for i in range(p):
        out[i, i] = entropy(codes[:, i])
        for j in range(i + 1, p):
            out[i, j] = out[j, i] = mutual_information(
                contingency(codes[:, i], codes[:, j]))
    return out


def symmetric_uncertainty(codes_a, codes_b) -> float:
    """2*I(a;b) / (H(a)+H(b)), with 0/0 defined as 0: the per-pair reference
    for the symmetric uncertainty that ``cfs`` reads off one information matrix."""
    ha = entropy(codes_a)
    hb = entropy(codes_b)
    if ha + hb == 0.0:
        return 0.0
    return 2.0 * mutual_information(contingency(codes_a, codes_b)) / (ha + hb)


def brute_force_mi_bits(counts) -> float:
    """Term-by-term plug-in MI over a counts matrix, in plain Python."""
    counts = [list(map(float, row)) for row in counts]
    total = sum(sum(row) for row in counts)
    mi = 0.0
    for u, row in enumerate(counts):
        for v, cnt in enumerate(row):
            if cnt == 0:
                continue
            puv = cnt / total
            pu = sum(counts[u]) / total
            pv = sum(r[v] for r in counts) / total
            mi += puv * math.log2(puv / (pu * pv))
    return mi


# ---------------------------------------------------------------------------
# Selector loops
# ---------------------------------------------------------------------------


def oracle_mrmr(Q, F, k: int) -> tuple[list[int], list[float]]:
    """Greedy mRMR (selected, per-step criterion), one candidate at a time;
    the first maximum wins ties."""
    selected = [int(np.argmax(F))]
    trace = [float(F[selected[0]])]
    remaining = [j for j in range(len(F)) if j != selected[0]]
    while len(selected) < k:
        crit = np.array([F[j] - Q[j, selected].mean() for j in remaining])
        best = int(np.argmax(crit))
        trace.append(float(crit[best]))
        selected.append(remaining.pop(best))
    return selected, trace


def oracle_cfs_merit(subset, su_target, su_pairs) -> float:
    """k * mean(feature-class SU) / sqrt(k + k(k-1) * mean(feature-feature SU))
    of one non-empty subset, from its k x k block minus the trace."""
    k = len(subset)
    idx = np.asarray(subset)
    r_cf = su_target[idx].mean()
    if k == 1:
        r_ff = 0.0
    else:
        sub = su_pairs[np.ix_(idx, idx)]
        r_ff = (sub.sum() - np.trace(sub)) / (k * (k - 1))
    return float(k * r_cf / np.sqrt(k + k * (k - 1) * r_ff))


# ---------------------------------------------------------------------------
# First-appearance coding
# ---------------------------------------------------------------------------


def oracle_first_appearance_codes(cells):
    """Codes in first-appearance order (A,B,A,C -> 0,1,0,2) and the count of each code."""
    mapping: dict = {}
    codes = np.empty(len(cells), dtype=np.int64)
    for i, v in enumerate(cells):
        codes[i] = mapping.setdefault(v, len(mapping))
    return codes, np.bincount(codes, minlength=len(mapping))


def oracle_first_fault(lines, schema, delimiter):
    """(index into ``lines``, column name or None) of a data file's first fault.

    ``schema`` holds objects with ``name``, ``kind`` and ``role``; lines are
    split on ``delimiter`` (``None``: on whitespace), and blank ones skipped.
    A line whose cell count is not the schema's is a fault with no column;
    in a line of the right length the cells are read left to right, and a
    fault is a continuous cell that is neither missing ("" or "?") nor a
    finite number, a missing target label, or a third distinct label in the
    target or a binary column.  ``None`` when the file has no fault.
    """
    seen: dict = {}                          # column -> labels in order of appearance
    for i, line in enumerate(lines):
        if not line.strip():
            continue
        cells = line.split(delimiter)
        if len(cells) != len(schema):
            return i, None
        for spec, cell in zip(schema, cells):
            cell = cell.strip()
            if cell in ("", "?"):
                if spec.role == "target":
                    return i, spec.name
            elif spec.kind == "continuous":
                try:
                    finite = math.isfinite(float(cell))
                except ValueError:
                    finite = False
                if not finite:
                    return i, spec.name
            elif spec.role == "target" or spec.kind == "binary":
                labels = seen.setdefault(spec.name, [])
                if cell not in labels:
                    if len(labels) == 2:
                        return i, spec.name
                    labels.append(cell)
    return None


# ---------------------------------------------------------------------------
# Ridge logistic regression (IRLS)
# ---------------------------------------------------------------------------


def oracle_sigmoid(eta):
    out = np.empty_like(eta)
    pos = eta >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-eta[pos]))
    expe = np.exp(eta[~pos])
    out[~pos] = expe / (1.0 + expe)
    return out


def oracle_loglik_and_grad(features, labels, beta, ridge):
    """Ridge-penalized log-likelihood of ``[1 | features]`` and its gradient.

    ``beta`` is the full coefficient vector (intercept first); the penalty
    excludes the intercept.
    """
    design = np.column_stack([np.ones(features.shape[0]), features])
    penalty_mask = np.ones(beta.size)
    penalty_mask[0] = 0.0
    eta = design @ beta
    ll = float(labels @ eta - np.logaddexp(0.0, eta).sum())
    ll -= 0.5 * ridge * float((penalty_mask * beta) @ beta)
    grad = design.T @ (labels - oracle_sigmoid(eta)) - ridge * penalty_mask * beta
    return ll, grad


def oracle_train_logistic(X, y, ridge, paths, max_iter=200, grad_tol=1e-8):
    """IRLS that recomputes the probabilities before every Newton step.

    Adds "lstsq" and "terminal" to ``paths`` when those branches run.
    """
    d1 = X.shape[1] + 1
    beta = np.zeros(d1)
    penalty = np.ones(d1)
    penalty[0] = 0.0
    Xd = np.column_stack([np.ones(X.shape[0]), X])
    ll, grad = oracle_loglik_and_grad(X, y, beta, ridge)
    for _ in range(max_iter):
        gnorm = float(np.linalg.norm(grad))
        if gnorm <= grad_tol:
            return beta
        p = oracle_sigmoid(Xd @ beta)
        w = np.clip(p * (1.0 - p), 1e-12, None)
        hess = Xd.T @ (w[:, None] * Xd) + ridge * np.diag(penalty)
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            paths.add("lstsq")
            step = np.linalg.lstsq(hess, grad, rcond=None)[0]
        t = 1.0
        improved = False
        for _ in range(60):
            candidate = beta + t * step
            new_ll, new_grad = oracle_loglik_and_grad(X, y, candidate, ridge)
            if new_ll > ll:
                beta, ll, grad = candidate, new_ll, new_grad
                improved = True
                break
            if (new_ll >= ll - 1e-9 * (1.0 + abs(ll))
                    and np.linalg.norm(new_grad) < 0.5 * gnorm):
                paths.add("terminal")
                beta, ll, grad = candidate, new_ll, new_grad
                improved = True
                break
            t *= 0.5
        if not improved:
            break
    assert np.linalg.norm(grad) <= grad_tol
    return beta


# ---------------------------------------------------------------------------
# Dual active-set QP solver
# ---------------------------------------------------------------------------


class OracleDegenerate(Exception):
    """``oracle_active_set`` cannot proceed (the package's ``qp._Degenerate``)."""


def oracle_active_set(Q: np.ndarray, f: np.ndarray, max_iter: int, branches):
    """Dual active-set method for strictly convex Q, bookkeeping in Python lists.

    Adds one to ``branches[name]`` for each branch taken: "add", "primal_drop"
    and "dual_drop" per step, and the reason for each raise ("not_pd",
    "equality", "budget", "singular", "unbounded", "diverged").
    """
    def degenerate(name, message):
        branches[name] += 1
        return OracleDegenerate(message)

    m = f.shape[0]
    try:
        np.linalg.cholesky(Q)        # strict convexity gate
        Qinv = np.linalg.inv(Q)
    except np.linalg.LinAlgError:
        raise degenerate("not_pd", "Q_eff is not positive definite") from None
    ones = np.ones(m)

    # Minimum subject to the equality constraint alone: x = Qinv (f - nu*1).
    qf = Qinv @ f
    q1 = Qinv @ ones
    denom = float(ones @ q1)
    if denom <= 0.0 or not np.isfinite(denom):
        raise degenerate("equality", "equality KKT system is not positive definite")
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
                raise degenerate("budget", f"iteration budget {max_iter} exhausted")

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
                raise degenerate("singular", "singular active-set system") from None
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
                    raise degenerate("unbounded", "dual step unbounded; degenerate geometry")
                branches["dual_drop"] += 1
                lam = [l - t1 * r[1 + i] for i, l in enumerate(lam)]
                lam_p += t1
                del lam[blocker]
                del active[blocker]
                continue
            t2 = -float(x[p]) / z_p
            t = min(t1, t2)
            x = x + t * z
            if not np.all(np.isfinite(x)) or np.abs(x).max() > 1e6:
                raise degenerate("diverged", "iterates diverged; ill-conditioned system")
            lam = [l - t * r[1 + i] for i, l in enumerate(lam)]
            lam_p += t
            if t2 <= t1:
                branches["add"] += 1
                x[p] = 0.0                   # kill round-off on the new bound
                active.append(p)
                lam.append(lam_p)
                break
            branches["primal_drop"] += 1
            del lam[blocker]
            del active[blocker]


def oracle_exact_qp(Q, f, support) -> tuple[list[Fraction], list[Fraction], int]:
    """Exact minimizer of 0.5 x'Qx - f'x over the simplex, for a convex Q.

    Every float is an exact rational, so the result is the optimum of the
    problem as given, with no round-off.  From the candidate ``support`` S it
    solves the equality KKT system [Q_SS -1; 1' 0] [x_S; nu] = [f_S; 1] in
    ``Fraction``s and checks exactly that x_S > 0 and that every reduced
    cost (Qx - f)_i - nu off S is >= 0; for a convex Q these certify the
    optimum.  On a failure it drops the support index of least weight, else
    adds the one of most negative reduced cost, and repeats.  Returns the m
    exact weights, the m reduced costs (0 on S) and the number of drops and
    adds.
    """
    Q = [[Fraction(v) for v in row] for row in np.asarray(Q, dtype=float).tolist()]
    f = [Fraction(v) for v in np.asarray(f, dtype=float).tolist()]
    m = len(f)
    support = sorted(support)
    for steps in range(4 * m):
        system = [[Q[i][j] for j in support] + [Fraction(-1), f[i]] for i in support]
        system.append([Fraction(1)] * len(support) + [Fraction(0), Fraction(1)])
        *weights, nu = _gauss_jordan(system)
        x = [Fraction(0)] * m
        for i, weight in zip(support, weights):
            x[i] = weight
        weakest = min(support, key=lambda i: (x[i], i))
        if x[weakest] <= 0:
            support.remove(weakest)
            continue
        reduced = [sum(Q[i][j] * x[j] for j in support) - f[i] - nu for i in range(m)]
        entering = min(range(m), key=lambda i: (reduced[i], i))
        if reduced[entering] >= 0:
            return x, reduced, steps
        support = sorted(support + [entering])
    raise DataError(f"no exact KKT point within {4 * m} drops and adds")


def _gauss_jordan(rows: list[list[Fraction]]) -> list[Fraction]:
    """The solution of the square system whose augmented rows are ``rows``."""
    n = len(rows)
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if pivot is None:
            raise DataError("singular KKT system")
        rows[col], rows[pivot] = rows[pivot], rows[col]
        head = rows[col]
        for r in range(n):
            factor = rows[r][col] / head[col] if r != col else 0
            if factor:
                rows[r] = [a - factor * b for a, b in zip(rows[r], head)]
    return [rows[r][n] / rows[r][r] for r in range(n)]
