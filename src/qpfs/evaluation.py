"""Classifier evaluation of selected feature subsets.

Trains a ridge-penalized logistic regression (iteratively reweighted least
squares) on the selected features and reports test, Type I, and Type II
error rates under stratified cross-validation.  Class 1 is the
non-creditworthy ("bad") class: Type I error is the fraction of
creditworthy cases predicted bad, Type II the fraction of bad cases
predicted good; an alternative convention flag swaps the two.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError, NumericalError
from .ingest import (Dataset, binary_target, column_mode, first_appearance_codes,
                     missing_cells)

ENCODINGS = ("one-hot", "code-as-ordinal")
CONVENTIONS = ("bad-positive", "good-positive")


@dataclass(frozen=True)
class CvProtocol:
    """Everything a cross-validated evaluation needs besides the data.

    ``seed`` fixes the fold assignment; ``stratified`` deals each class
    round-robin over the folds.  ``encoding`` turns categorical columns
    into the design matrix, ``ridge`` is the logistic fit's L2 penalty
    (intercept excluded), and ``convention`` names the positive class that
    Type I and Type II errors are read against (see ``CONVENTIONS``).
    These fields are the only home of the defaults; the CLI passes on just
    the values a run sets.
    """

    n_folds: int = 10
    stratified: bool = True
    seed: int = 20130101
    encoding: str = "one-hot"
    ridge: float = 1e-6
    convention: str = "bad-positive"

    def __post_init__(self):
        if self.n_folds < 2:
            raise ConfigError("n_folds must be >= 2")
        if self.encoding not in ENCODINGS:
            raise ConfigError(f"unknown encoding {self.encoding!r}")
        if not 0.0 <= self.ridge < float("inf"):
            raise ConfigError(f"ridge must be finite and non-negative, got {self.ridge}")
        if self.convention not in CONVENTIONS:
            raise ConfigError(f"unknown error convention {self.convention!r}")


@dataclass
class EvaluationReport:
    """Mean error rates over folds plus the fold-level triples."""

    method: str
    dataset: str
    k: int
    test_error: float
    type1_error: float
    type2_error: float
    per_fold: list[tuple[float, float, float]] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "dataset": self.dataset,
            "k": self.k,
            "test_error": self.test_error,
            "type1_error": self.type1_error,
            "type2_error": self.type2_error,
            "per_fold": [list(t) for t in self.per_fold],
        }


# ---------------------------------------------------------------------------
# Ridge logistic regression via IRLS
# ---------------------------------------------------------------------------

def _sigmoid(eta: np.ndarray) -> np.ndarray:
    out = np.empty_like(eta)
    pos = eta >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-eta[pos]))
    expe = np.exp(eta[~pos])
    out[~pos] = expe / (1.0 + expe)
    return out


def loglik_and_grad(features: np.ndarray, labels: np.ndarray, beta: np.ndarray,
                    ridge: float) -> tuple[float, np.ndarray]:
    """Ridge-penalized log-likelihood and its gradient.

    ``beta`` is the full coefficient vector (intercept first); the penalty
    excludes the intercept so a constant-only model can match the label
    mean exactly.
    """
    design = np.column_stack([np.ones(features.shape[0]), features])
    return _loglik_and_grad(design, labels, beta, ridge, _penalty_mask(len(beta)))


def _penalty_mask(d1: int) -> np.ndarray:
    """Ones over the d1 coefficients except the unpenalized intercept."""
    mask = np.ones(d1)
    mask[0] = 0.0
    return mask


def _loglik_and_grad(design: np.ndarray, labels: np.ndarray, beta: np.ndarray,
                     ridge: float, penalty_mask: np.ndarray) -> tuple[float, np.ndarray]:
    """``loglik_and_grad`` on a design that already carries the intercept column."""
    eta = design @ beta
    ll = float(labels @ eta - np.logaddexp(0.0, eta).sum())
    ll -= 0.5 * ridge * float((penalty_mask * beta) @ beta)
    grad = design.T @ (labels - _sigmoid(eta)) - ridge * penalty_mask * beta
    return ll, grad


def train_logistic(features: np.ndarray, labels: np.ndarray, ridge: float = 1e-6,
                   max_iter: int = 200, grad_tol: float = 1e-8) -> np.ndarray:
    """Fit by IRLS with step-halving; returns (d+1,) coefficients, intercept first.

    Converged when the penalized log-likelihood gradient has 2-norm at most
    ``grad_tol``.  Deterministic: no randomness anywhere in the fit.
    """
    X = np.asarray(features, dtype=float)
    y = np.asarray(labels, dtype=float)
    if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
        raise DataError(f"bad design shapes: X {X.shape}, y {y.shape}")
    if ridge < 0:
        raise DataError("ridge must be non-negative")
    if y.min() == y.max():
        raise DataError("both labels must be present")

    d1 = X.shape[1] + 1
    beta = np.zeros(d1)
    penalty = _penalty_mask(d1)
    Xd = np.column_stack([np.ones(X.shape[0]), X])

    ll, grad = _loglik_and_grad(Xd, y, beta, ridge, penalty)
    for _ in range(max_iter):
        gnorm = float(np.linalg.norm(grad))
        if gnorm <= grad_tol:
            return beta
        p = _sigmoid(Xd @ beta)
        w = np.clip(p * (1.0 - p), 1e-12, None)
        hess = Xd.T @ (w[:, None] * Xd) + ridge * np.diag(penalty)
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(hess, grad, rcond=None)[0]
        t = 1.0
        improved = False
        for _ in range(60):
            candidate = beta + t * step
            new_ll, new_grad = _loglik_and_grad(Xd, y, candidate, ridge, penalty)
            if new_ll > ll:
                beta, ll, grad = candidate, new_ll, new_grad
                improved = True
                break
            # Terminal phase: the likelihood gain underflows float64 near the
            # optimum while Newton still contracts the gradient quadratically.
            if (new_ll >= ll - 1e-9 * (1.0 + abs(ll))
                    and np.linalg.norm(new_grad) < 0.5 * gnorm):
                beta, ll, grad = candidate, new_ll, new_grad
                improved = True
                break
            t *= 0.5
        if not improved:
            break                        # at numerical precision; check below
    gnorm = float(np.linalg.norm(grad))
    if gnorm <= grad_tol:
        return beta
    raise NumericalError(
        f"IRLS did not converge in {max_iter} iterations"
        f" (gradient norm {gnorm:.3e}, log-likelihood {ll:.6f})"
    )


def predict_proba(features: np.ndarray, beta: np.ndarray) -> np.ndarray:
    X = np.column_stack([np.ones(features.shape[0]), features])
    return _sigmoid(X @ beta)


# ---------------------------------------------------------------------------
# Design-matrix encoding, fitted on training rows only
# ---------------------------------------------------------------------------

class DesignEncoder:
    """Per-fold feature encoding with train-split statistics.

    Categorical and binary features: mode imputation, then one-hot with the
    first train-split category as reference (or a single standardized code
    column under "code-as-ordinal").  Continuous features: median
    imputation, then standardization to zero mean / unit variance.
    Categories unseen in training encode to all zeros.  Fitted statistics
    name categories by label, so ``transform`` accepts any Dataset with the
    same columns.
    """

    def __init__(self, data: Dataset, selected: list[int],
                 encoding: str = CvProtocol.encoding):
        self.specs = [data.feature_columns[i] for i in selected]
        self.col_idx = [data.column_index(s.name) for s in self.specs]
        self.encoding = encoding
        self.stats: list[dict] = []

    def fit(self, data: Dataset, train_positions) -> "DesignEncoder":
        train = np.asarray(train_positions, dtype=np.intp)
        self.stats = []
        for spec, j in zip(self.specs, self.col_idx):
            cells = data.arrays[j][train]
            missing = missing_cells(spec, cells)
            if missing.all():
                raise DataError(f"column {spec.name!r} all-missing in training split")
            if spec.kind == "continuous":
                median = float(np.median(cells[~missing]))
                filled = np.where(missing, median, cells)
                mean = float(filled.mean())
                std = float(filled.std())
                self.stats.append({"kind": "continuous", "median": median,
                                   "mean": mean, "std": std if std > 0 else 1.0})
                continue
            mode = column_mode(cells[~missing])
            filled = np.where(missing, mode, cells)
            ranks, n_categories = first_appearance_codes(filled)
            order = np.empty(n_categories, dtype=np.int64)
            order[ranks] = filled                    # code of each category, by first appearance
            table = data.categories[j]
            categories = [table[c] for c in order]
            if self.encoding == "code-as-ordinal":
                vals = ranks.astype(float)
                mean = float(vals.mean())
                std = float(vals.std())
                self.stats.append({"kind": "ordinal", "mode": table[mode],
                                   "codes": {c: float(i) for i, c in enumerate(categories)},
                                   "mean": mean, "std": std if std > 0 else 1.0})
            else:
                self.stats.append({"kind": "categorical", "mode": table[mode],
                                   "categories": categories})
        return self

    def transform(self, data: Dataset, positions) -> np.ndarray:
        rows = np.asarray(positions, dtype=np.intp)
        blocks: list[np.ndarray] = []
        for j, st in zip(self.col_idx, self.stats):
            cells = data.arrays[j][rows]
            if st["kind"] == "continuous":
                vals = np.where(np.isnan(cells), st["median"], cells)
                blocks.append(((vals - st["mean"]) / st["std"])[:, None])
                continue
            # One entry per code of this dataset's category table, then the
            # mode's entry, which missing cells (code -1) pick up.
            labels = [*data.categories[j], st["mode"]]
            if st["kind"] == "ordinal":
                vals = np.array([st["codes"].get(c, -1.0) for c in labels])[cells]
                blocks.append(((vals - st["mean"]) / st["std"])[:, None])
            else:
                column_of = {c: i for i, c in enumerate(st["categories"][1:])}  # first = reference
                cols = np.array([column_of.get(c, -1) for c in labels], dtype=np.intp)[cells]
                block = np.zeros((rows.size, len(column_of)))
                hit = np.flatnonzero(cols >= 0)
                block[hit, cols[hit]] = 1.0
                blocks.append(block)
        if not blocks:
            return np.zeros((rows.size, 0))
        return np.hstack(blocks)


# ---------------------------------------------------------------------------
# Cross-validation
# ---------------------------------------------------------------------------

def fold_assignment(row_ids: np.ndarray, labels: np.ndarray, n_folds: int,
                    seed: int, stratified: bool = CvProtocol.stratified) -> dict[int, int]:
    """Map stable row key -> fold, independent of current row order.

    Keys are processed in sorted order per class and dealt round-robin
    after a seeded shuffle, so shuffling the dataset rows (keys intact)
    cannot change the assignment.
    """
    keys = np.asarray(row_ids)
    fold_of: dict[int, int] = {}
    rng = np.random.default_rng(seed)
    groups = [np.unique(keys)] if not stratified else [
        np.sort(keys[labels == cls]) for cls in (0, 1)
    ]
    for group in groups:
        dealt = group[rng.permutation(group.size)]
        fold_of.update(zip(dealt.tolist(), (np.arange(group.size) % n_folds).tolist()))
    return fold_of


def _confusion_rates(y_true: np.ndarray, y_pred: np.ndarray,
                     convention: str) -> tuple[float, float, float]:
    n = y_true.size
    n0 = int((y_true == 0).sum())
    n1 = n - n0
    false_bad = int(((y_true == 0) & (y_pred == 1)).sum())   # creditworthy -> bad
    false_good = int(((y_true == 1) & (y_pred == 0)).sum())  # bad -> good
    test = (false_bad + false_good) / n
    t1 = false_bad / n0 if n0 else 0.0
    t2 = false_good / n1 if n1 else 0.0
    if convention == "good-positive":
        t1, t2 = t2, t1
    return test, t1, t2


def evaluate(data: Dataset, selected: list[int], protocol: CvProtocol | None = None,
             method: str = "", strict_selector=None) -> EvaluationReport:
    """Cross-validated error rates for a feature subset.

    Encoding and imputation statistics are fitted on each training split
    only.  ``strict_selector``, when given, re-selects features inside each
    fold from the training rows alone (leakage-free mode) instead of using
    ``selected``.
    """
    protocol = protocol or CvProtocol()
    if not selected:
        raise DataError("empty feature selection")

    # Canonical row order = stable key order; makes reports invariant to
    # prior shuffling of the input rows.
    order = np.argsort(data.row_ids, kind="stable")
    data = data.subset(order)
    y = binary_target(data)

    fold_of = fold_assignment(data.row_ids, y, protocol.n_folds, protocol.seed,
                              protocol.stratified)
    folds = np.array(list(map(fold_of.__getitem__, data.row_ids.tolist())), dtype=np.int64)
    for f in range(protocol.n_folds):
        members = y[folds == f]
        if members.size == 0:
            raise DataError(f"fold {f} is empty; reduce n_folds")
        if protocol.stratified and members.min() == members.max():
            raise DataError(f"fold {f} lost a class; reduce n_folds")

    per_fold: list[tuple[float, float, float]] = []
    for f in range(protocol.n_folds):
        train_pos = np.flatnonzero(folds != f)
        test_pos = np.flatnonzero(folds == f)
        fold_selected = selected
        if strict_selector is not None:
            fold_selected = strict_selector(data.subset(train_pos))
        encoder = DesignEncoder(data, list(fold_selected), protocol.encoding)
        encoder.fit(data, train_pos)
        X_train = encoder.transform(data, train_pos)
        X_test = encoder.transform(data, test_pos)
        beta = train_logistic(X_train, y[train_pos], ridge=protocol.ridge)
        pred = (predict_proba(X_test, beta) > 0.5).astype(int)
        per_fold.append(_confusion_rates(y[test_pos], pred, protocol.convention))

    triples = np.array(per_fold)
    return EvaluationReport(
        method=method,
        dataset=data.name,
        k=len(selected),
        test_error=float(triples[:, 0].mean()),
        type1_error=float(triples[:, 1].mean()),
        type2_error=float(triples[:, 2].mean()),
        per_fold=[tuple(t) for t in per_fold],
    )


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

METHOD_ORDER = ("quadratic", "relieff", "infogain", "cfs", "mrmr", "maxrel")
METHOD_LABELS = {
    "quadratic": "Quadratic",
    "relieff": "Relief",
    "infogain": "Information Gain",
    "cfs": "CFS Feature Set Evaluation",
    "mrmr": "mRMR",
    "maxrel": "MaxRel",
}


def format_report_table(dataset: str, k: int, reports: dict[str, EvaluationReport]) -> str:
    """Aligned text table, one row per method, three error columns."""
    header = f"Results for {dataset} dataset, {k} selected features"
    width = max(len(METHOD_LABELS[m]) for m in reports)
    lines = [header, "",
             f"{'Method':<{width}}  {'Test error':>10}  {'Type I':>8}  {'Type II':>8}"]
    for m in METHOD_ORDER:
        if m not in reports:
            continue
        r = reports[m]
        lines.append(
            f"{METHOD_LABELS[m]:<{width}}  {r.test_error:>10.3f}"
            f"  {r.type1_error:>8.3f}  {r.type2_error:>8.3f}"
        )
    return "\n".join(lines) + "\n"


def format_delta_table(dataset: str, reports: dict[str, EvaluationReport],
                       reference: dict) -> str:
    """Observed-minus-reference deltas against the published error rates."""
    lines = [f"Delta vs published results ({dataset})", ""]
    lines.append(f"{'Method':<28}  {'d(test)':>8}  {'d(type1)':>9}  {'d(type2)':>9}")
    for m in METHOD_ORDER:
        if m not in reports or m not in reference:
            continue
        r = reports[m]
        ref_test, ref_t1, ref_t2 = reference[m]
        lines.append(
            f"{METHOD_LABELS[m]:<28}  {r.test_error - ref_test:>+8.3f}"
            f"  {r.type1_error - ref_t1:>+9.3f}  {r.type2_error - ref_t2:>+9.3f}"
        )
    return "\n".join(lines) + "\n"


def reports_to_json(all_reports: dict[str, dict[str, EvaluationReport]],
                    extras: dict | None = None) -> str:
    """Machine-readable dump keyed by (dataset, method, metric)."""
    payload: dict = {"datasets": {}}
    for dataset, reports in sorted(all_reports.items()):
        payload["datasets"][dataset] = {
            method: report.to_dict() for method, report in sorted(reports.items())
        }
    if extras:
        payload["run"] = extras
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
