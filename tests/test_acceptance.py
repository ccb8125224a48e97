"""Acceptance suite: one test per criterion, named criterion_01 .. criterion_11.

Criteria 1-6 are protocol-independent property checks and always run.
Criteria 7-11 reproduce published numbers and need the two UCI credit
files; they skip (with a pointer to `qpfs fetch`) when the files are not
present under $QPFS_DATA_DIR (default ./data).

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion with the measured values.
"""

import json
import time

import numpy as np
import pytest

from qpfs.baselines import information_gain, max_rel, mrmr_greedy
from qpfs.evaluation import CvProtocol, evaluate, train_logistic
from qpfs.infotheory import (build_redundancy_matrix, build_relevance_vector,
                             information_matrix)
from qpfs.pipeline import SelectionConfig, select_features
from qpfs.qp import QpProblem, assemble, estimate_alpha, ranking_of, solve

from conftest import (exhaustive_subset_objective, grid_search_simplex,
                      random_discretized)
from oracles import oracle_loglik_and_grad

TOL_EXACT = 1e-12
REPORT = "{}: {}"


def note(criterion, message):
    print(REPORT.format(criterion, message))


# ---------------------------------------------------------------------------
# Property-based criteria (always run)
# ---------------------------------------------------------------------------

def test_criterion_01_mi_estimator_properties():
    """Symmetry, non-negativity, I(X;X)=H(X), MI <= min(H), all to 1e-12."""
    rng = np.random.default_rng(101)
    for _ in range(1000):
        n = int(rng.integers(2, 50))
        a = rng.integers(0, int(rng.integers(2, 7)), size=n)
        b = rng.integers(0, int(rng.integers(2, 7)), size=n)
        info = information_matrix(np.column_stack([a, b, a]))
        mi = info[0, 1]
        assert mi >= 0.0
        assert abs(mi - information_matrix(np.column_stack([b, a]))[0, 1]) <= TOL_EXACT
        assert mi <= min(info[0, 0], info[1, 1]) + TOL_EXACT
        assert abs(info[0, 2] - info[0, 0]) <= TOL_EXACT
    note("criterion 1", "PASS - 1000 randomized tables, all four properties to 1e-12")


def test_criterion_02_qp_solver_oracle_equivalence():
    """Objective within 1e-4 of the grid oracle; KKT <= 1e-6 when PD."""
    rng = np.random.default_rng(202)
    checked_kkt = 0
    for i in range(200):
        m = 2 if i % 2 == 0 else 3
        A = rng.normal(size=(m, m))
        Q = A @ A.T / m
        if i % 7 == 0:                      # rank-deficient: exercises the fallback
            Q[:] = np.outer(A[0], A[0])
        f = rng.normal(size=m)
        lam_min = float(np.linalg.eigvalsh(Q)[0])
        problem = QpProblem(Q_eff=Q, f_eff=f, alpha=0.5)
        w = solve(problem)
        _, oracle_val = grid_search_simplex(Q, f)
        assert abs(w.objective - oracle_val) <= 1e-4
        if lam_min >= 1e-8:
            checked_kkt += 1
            assert w.kkt_residual <= 1e-6
    note("criterion 2", f"PASS - 200 instances within 1e-4 of oracle;"
                        f" KKT <= 1e-6 on all {checked_kkt} PD instances")


def test_criterion_03_scale_invariance():
    """alpha-hat identical to 1e-12 and rank identical under joint scaling."""
    rng = np.random.default_rng(303)
    pairs = 0
    while pairs < 50:
        dd = random_discretized(rng, n=150, m=5)
        Q = build_redundancy_matrix(dd)
        F = build_relevance_vector(dd)
        if Q.sum() + F.sum() == 0:
            continue
        pairs += 1
        a0 = estimate_alpha(Q, F)
        r0 = ranking_of(solve(assemble(Q, F, a0)).x).tolist()
        for c in (0.1, 10.0):
            ac = estimate_alpha(c * Q, c * F)
            assert abs(ac - a0) <= TOL_EXACT
            rc = ranking_of(solve(assemble(c * Q, c * F, ac)).x).tolist()
            assert rc == r0
    note("criterion 3", "PASS - 50 (Q,F) pairs, c in {0.1, 10}: alpha and rank invariant")


def test_criterion_04_degeneracy_chain():
    """alpha=1 reduces top-1 to argmax F; Q=0 makes greedy mRMR equal MaxRel."""
    rng = np.random.default_rng(404)
    for _ in range(100):
        m = int(rng.integers(2, 10))
        A = rng.normal(size=(m, m))
        Q = np.abs(A @ A.T) / m
        np.fill_diagonal(Q, np.abs(rng.normal(1.5, 0.5, m)))
        F = np.abs(rng.normal(size=m))
        top = ranking_of(solve(assemble(Q, F, 1.0)).x)[0]
        assert top == int(np.argmax(F))
        zero = np.zeros((m, m))
        for k in range(1, m + 1):
            assert mrmr_greedy(zero, F, k).selected == max_rel(F, k).selected
    note("criterion 4", "PASS - 100 instances: alpha=1 top-1 = argmax F;"
                        " Q=0 greedy == MaxRel for every k")


def test_criterion_05_greedy_within_top_decile():
    """Greedy mRMR lands in the top 10% of all C(8,4)=70 subsets."""
    rng = np.random.default_rng(20130101)
    positions = []
    for _ in range(50):
        dd = random_discretized(rng)              # n=600, m=8, latent-factor redundancy
        Q = build_redundancy_matrix(dd)
        F = build_relevance_vector(dd)
        picked = set(mrmr_greedy(Q, F, 4).selected)
        scored = exhaustive_subset_objective(Q, F, 4)
        mine = next(obj for obj, S in scored if set(S) == picked)
        position = sum(1 for obj, _ in scored if obj < mine - 1e-12) + 1
        positions.append(position)
        assert position <= 7, f"greedy landed at rank {position} of 70"
    gaps = sum(1 for p in positions if p > 1)
    note("criterion 5", f"PASS - 50 instances in top 10%; heuristic gap on {gaps}"
                        f" instances (worst rank {max(positions)} of 70)")


def test_criterion_06_logistic_gradient_certificates():
    """Zero gradient at the optimum; finite differences confirm the gradient."""
    rng = np.random.default_rng(606)
    X = rng.normal(size=(300, 4))
    y = (rng.random(300) < 1 / (1 + np.exp(-(X @ np.array([1.0, -0.5, 0.2, 0.0]))))
         ).astype(float)
    beta = train_logistic(X, y, ridge=1e-6)
    _, grad = oracle_loglik_and_grad(X, y, beta, 1e-6)
    gnorm = float(np.linalg.norm(grad))
    assert gnorm <= 1e-8

    worst = 0.0
    for _ in range(20):
        point = rng.normal(scale=0.7, size=5)
        _, g = oracle_loglik_and_grad(X, y, point, ridge=1e-3)
        fd = np.empty_like(g)
        h = 1e-6
        for i in range(point.size):
            up = point.copy(); up[i] += h
            dn = point.copy(); dn[i] -= h
            fd[i] = (oracle_loglik_and_grad(X, y, up, 1e-3)[0]
                     - oracle_loglik_and_grad(X, y, dn, 1e-3)[0]) / (2 * h)
        rel = np.abs(fd - g) / np.maximum(np.abs(g), 1e-3)
        worst = max(worst, float(rel.max()))
    assert worst <= 1e-5
    note("criterion 6", f"PASS - gradient norm {gnorm:.2e} at optimum;"
                        f" worst FD relative error {worst:.2e}")


# ---------------------------------------------------------------------------
# Published-number reproduction (needs the real UCI files)
# ---------------------------------------------------------------------------

def quadratic_selection(data, k):
    config = SelectionConfig(method="quadratic", k=k)
    return select_features(data, config)


def test_criterion_07_alpha_estimates(german_dataset, australian_dataset):
    """alpha-hat within +/-0.05 of the published 0.511 / 0.489."""
    measured = {}
    for name, data in (("german", german_dataset), ("australian", australian_dataset)):
        out = quadratic_selection(data, 5)
        measured[name] = out.problem.alpha
    assert abs(measured["german"] - 0.511) <= 0.05, measured
    assert abs(measured["australian"] - 0.489) <= 0.05, measured
    note("criterion 7", f"PASS - alpha german {measured['german']:.3f} (0.511 +/- 0.05),"
                        f" australian {measured['australian']:.3f} (0.489 +/- 0.05)")


def test_criterion_08_quadratic_test_error(german_dataset, australian_dataset):
    """Quadratic-method CV error: german <= 0.28 at k=7, australian <= 0.17 at k=6."""
    bounds = {"german": (german_dataset, 7, 0.28), "australian": (australian_dataset, 6, 0.17)}
    measured = {}
    for name, (data, k, bound) in bounds.items():
        out = quadratic_selection(data, k)
        report = evaluate(data, {"quadratic": out.result.selected}, CvProtocol())["quadratic"]
        measured[name] = report.test_error
        assert report.test_error <= bound, (name, report.test_error)
    note("criterion 8", f"PASS - test error german {measured['german']:.3f} (<= 0.28),"
                        f" australian {measured['australian']:.3f} (<= 0.17)")


def test_criterion_09_quadratic_beats_or_ties_mrmr(german_dataset, australian_dataset):
    """Quadratic <= greedy mRMR under the identical protocol (mean over 10 seeds
    when a single seed disagrees)."""
    outcomes = {}
    for name, data, k in (("german", german_dataset, 7),
                          ("australian", australian_dataset, 6)):
        quad_sel = quadratic_selection(data, k).result.selected
        mrmr_sel = select_features(data, SelectionConfig(method="mrmr", k=k)).result.selected

        def errors(seed):
            protocol = CvProtocol(seed=seed)
            reports = evaluate(data, {"quadratic": quad_sel, "mrmr": mrmr_sel}, protocol)
            return reports["quadratic"].test_error, reports["mrmr"].test_error

        q, m = errors(20130101)
        if q <= m:
            outcomes[name] = (q, m, 1)
            continue
        seeds = [20130101 + i for i in range(10)]
        triples = [errors(s) for s in seeds]
        q = float(np.mean([t[0] for t in triples]))
        m = float(np.mean([t[1] for t in triples]))
        outcomes[name] = (q, m, len(seeds))
        assert q <= m, (name, q, m)
    note("criterion 9", "PASS - " + "; ".join(
        f"{name}: quadratic {q:.3f} <= mrmr {m:.3f} ({n} seed{'s' if n > 1 else ''})"
        for name, (q, m, n) in outcomes.items()))


def test_criterion_10_maxrel_equals_infogain(german_dataset, australian_dataset):
    """MaxRel and Information Gain select identical features on both datasets."""
    for name, data, k in (("german", german_dataset, 7),
                          ("australian", australian_dataset, 6)):
        mr = select_features(data, SelectionConfig(method="maxrel", k=k)).result.selected
        ig = select_features(data, SelectionConfig(method="infogain", k=k)).result.selected
        assert mr == ig, (name, mr, ig)
    note("criterion 10", "PASS - identical selections on both datasets")


def test_criterion_11_reproduce_runtime_and_determinism(tmp_path, capsys):
    """Both tables in under 5 minutes, byte-identical at a fixed seed."""
    from qpfs.cli import main
    from conftest import data_dir, require_dataset
    require_dataset("german")
    require_dataset("australian")

    blobs = []
    start = time.time()
    for sub in ("r1", "r2"):
        out_dir = tmp_path / sub
        code = main(["reproduce", "--data-dir", str(data_dir()),
                     "--out", str(out_dir), "--cv-seed", "20130101"])
        assert code == 0
        blobs.append((out_dir / "results.json").read_bytes())
    elapsed = time.time() - start
    capsys.readouterr()                     # swallow the tables
    assert elapsed / 2 < 300.0
    assert blobs[0] == blobs[1]
    payload = json.loads(blobs[0])
    for key in ("german", "australian"):
        assert len(payload["datasets"][key]) == 6
    note("criterion 11", f"PASS - reproduce ran in {elapsed / 2:.1f}s per run,"
                         " bit-identical outputs")
