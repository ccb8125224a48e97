"""Classifier evaluation of selected feature subsets.

Trains a ridge-penalized logistic regression (iteratively reweighted least
squares) on the selected features and reports test, Type I, and Type II
error rates under stratified cross-validation.  Class 1 is the
non-creditworthy ("bad") class: Type I error is the fraction of
creditworthy cases predicted bad, Type II the fraction of bad cases
predicted good; an alternative convention flag swaps the two.

The path works on arrays: a fold per row, code lookups fitted on each
training split, and IRLS on the resulting design matrices.  Every method
of a dataset shares the folds and each fold's encoding.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError, NumericalError
from .ingest import (Dataset, binary_target, column_median, column_mode,
                     first_appearance_codes, missing_cells)

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
    ll, grad, _ = _loglik_and_grad(_with_intercept(features), labels, beta, ridge,
                                   _penalty_mask(len(beta)))
    return ll, grad


def _with_intercept(features: np.ndarray) -> np.ndarray:
    """The design ``[1 | features]``: a leading column of ones for the intercept."""
    return np.column_stack([np.ones(features.shape[0]), features])


def _penalty_mask(d1: int) -> np.ndarray:
    """Ones over the d1 coefficients except the unpenalized intercept."""
    mask = np.ones(d1)
    mask[0] = 0.0
    return mask


def _loglik_and_grad(design: np.ndarray, labels: np.ndarray, beta: np.ndarray,
                     ridge: float, penalty_mask: np.ndarray
                     ) -> tuple[float, np.ndarray, np.ndarray]:
    """``loglik_and_grad`` on a ``_with_intercept`` design, plus the probabilities."""
    eta = design @ beta
    ll = float(labels @ eta - np.logaddexp(0.0, eta).sum())
    ll -= 0.5 * ridge * float((penalty_mask * beta) @ beta)
    p = _sigmoid(eta)
    grad = design.T @ (labels - p) - ridge * penalty_mask * beta
    return ll, grad, p


# Newton-step budget and gradient-norm tolerance of train_logistic's IRLS.
IRLS_MAX_ITER = 200
IRLS_GRAD_TOL = 1e-8


def train_logistic(features: np.ndarray, labels: np.ndarray,
                   ridge: float = 1e-6) -> np.ndarray:
    """Fit by IRLS with step-halving; returns (d+1,) coefficients, intercept first.

    Converged when the penalized log-likelihood gradient has 2-norm at most
    ``IRLS_GRAD_TOL``.  Each Newton step weights the Hessian with the
    probabilities already computed at the accepted iterate.  Deterministic:
    no randomness anywhere in the fit.
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
    Xd = _with_intercept(X)

    ll, grad, p = _loglik_and_grad(Xd, y, beta, ridge, penalty)
    for _ in range(IRLS_MAX_ITER):
        gnorm = float(np.linalg.norm(grad))
        if gnorm <= IRLS_GRAD_TOL:
            return beta
        w = np.clip(p * (1.0 - p), 1e-12, None)
        hess = Xd.T @ (w[:, None] * Xd) + ridge * np.diag(penalty)
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(hess, grad, rcond=None)[0]
        t = 1.0
        for _ in range(60):
            candidate = beta + t * step
            new_ll, new_grad, new_p = _loglik_and_grad(Xd, y, candidate, ridge, penalty)
            # Accept a likelihood gain, or a loss below 1e-9 relative that
            # halves the gradient: near the optimum the gain underflows
            # float64 while Newton still contracts the gradient quadratically.
            if new_ll > ll or (new_ll >= ll - 1e-9 * (1.0 + abs(ll))
                               and np.linalg.norm(new_grad) < 0.5 * gnorm):
                beta, ll, grad, p = candidate, new_ll, new_grad, new_p
                break
            t *= 0.5
        else:
            break                        # at numerical precision; check below
    gnorm = float(np.linalg.norm(grad))
    if gnorm <= IRLS_GRAD_TOL:
        return beta
    raise NumericalError(
        f"IRLS did not converge in {IRLS_MAX_ITER} iterations"
        f" (gradient norm {gnorm:.3e}, log-likelihood {ll:.6f})"
    )


def predict_proba(features: np.ndarray, beta: np.ndarray) -> np.ndarray:
    return _sigmoid(_with_intercept(features) @ beta)


# ---------------------------------------------------------------------------
# Design-matrix encoding, fitted on training rows only
# ---------------------------------------------------------------------------

class DesignEncoder:
    """Per-fold design matrices for the selected features of one Dataset.

    ``fit(train_positions)`` stores one entry per selected column, taken
    from the training rows only; ``transform(positions)`` encodes rows of
    the same Dataset with one fancy-index per column.

    - continuous: (median, scale, mean, std).  Missing cells take the
      median; values are divided by ``scale`` (1.0 unless the mean or std
      overflows float64, then the largest magnitude) and standardized.
    - categorical and binary: design rows indexed by code, plus a last row,
      the mode's, for the missing code -1.  A row is one-hot with the first
      training category as the all-zero reference, or the standardized
      first-appearance rank under "code-as-ordinal"; a category unseen in
      training is all zeros, or rank -1.
    """

    def __init__(self, data: Dataset, selected: list[int],
                 encoding: str = CvProtocol.encoding):
        features = [j for j, spec in enumerate(data.columns) if spec.role == "feature"]
        self.data = data
        self.selected = list(selected)
        self.col_idx = [features[i] for i in self.selected]
        self.encoding = encoding

    def fit(self, train_positions) -> "DesignEncoder":
        train = np.asarray(train_positions, dtype=np.intp)
        self.stats = [self._fit_column(j, train) for j in self.col_idx]
        widths = [1 if isinstance(stat, tuple) else stat.shape[1] for stat in self.stats]
        starts = np.cumsum([0] + widths)
        self._design_columns = {feature: np.arange(starts[i], starts[i + 1])
                                for i, feature in enumerate(self.selected)}
        return self

    def columns(self, selected) -> np.ndarray:
        """Design-column indices of ``selected`` (a subset of the encoder's
        features, in any order) after ``fit``: the columns its own encoder
        would produce, in selection order.  A one-hot column with a single
        training category contributes none."""
        return np.concatenate([self._design_columns[feature] for feature in selected])

    def _fit_column(self, j: int, train: np.ndarray):
        spec = self.data.columns[j]
        cells = self.data.arrays[j][train]
        missing = missing_cells(spec, cells)
        if missing.all():
            raise DataError(f"column {spec.name!r} all-missing in training split")
        if spec.kind == "continuous":
            median = column_median(cells[~missing])
            filled = np.where(missing, median, cells)
            scale = 1.0
            with np.errstate(over="ignore", invalid="ignore"):
                mean, std = float(filled.mean()), float(filled.std())
            if not (math.isfinite(mean) and math.isfinite(std)):
                scale = float(np.abs(filled).max())
                filled = filled / scale
                mean, std = float(filled.mean()), float(filled.std())
            return median, scale, mean, std if std > 0 else 1.0

        mode = column_mode(cells[~missing])
        filled = np.where(missing, mode, cells)
        ranks, n_categories = first_appearance_codes(filled)
        rank_of = np.full(len(self.data.categories[j]) + 1, -1, dtype=np.int64)
        rank_of[filled] = ranks                  # by code; unseen codes keep -1
        rank_of[-1] = rank_of[mode]              # missing cells (code -1) take the mode's
        if self.encoding == "code-as-ordinal":
            vals = ranks.astype(float)
            std = float(vals.std())
            return ((rank_of - float(vals.mean())) / (std if std > 0 else 1.0))[:, None]
        # rank 0 is the reference category; ranks 1.. get one column each
        return (rank_of[:, None] == np.arange(1, n_categories)).astype(float)

    def transform(self, positions) -> np.ndarray:
        rows = np.asarray(positions, dtype=np.intp)
        blocks: list[np.ndarray] = []
        for j, stat in zip(self.col_idx, self.stats):
            cells = self.data.arrays[j][rows]
            if self.data.columns[j].kind == "continuous":
                median, scale, mean, std = stat
                vals = np.where(np.isnan(cells), median, cells) / scale
                blocks.append(((vals - mean) / std)[:, None])
            else:
                blocks.append(stat[cells])
        if not blocks:
            return np.zeros((rows.size, 0))
        return np.hstack(blocks)


# ---------------------------------------------------------------------------
# Cross-validation
# ---------------------------------------------------------------------------

def fold_assignment(row_ids: np.ndarray, labels: np.ndarray, n_folds: int,
                    seed: int, stratified: bool = CvProtocol.stratified) -> np.ndarray:
    """The fold of each row, as an int64 array aligned with ``row_ids``.

    Rows are taken in order of their (distinct) keys, per class when
    stratified, and dealt round-robin after a seeded shuffle, so a row's
    fold depends on its key, never on the current row order.
    """
    keys = np.asarray(row_ids)
    folds = np.empty(keys.size, dtype=np.int64)
    rng = np.random.default_rng(seed)
    groups = [np.arange(keys.size)] if not stratified else [
        np.flatnonzero(labels == cls) for cls in (0, 1)
    ]
    for group in groups:
        by_key = group[np.argsort(keys[group], kind="stable")]
        folds[by_key[rng.permutation(by_key.size)]] = np.arange(by_key.size) % n_folds
    return folds


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


def evaluate(data: Dataset, selections: dict[str, list[int]],
             protocol: CvProtocol | None = None,
             strict_selectors: dict | None = None) -> dict[str, EvaluationReport]:
    """Cross-validated error rates for each method's feature subset.

    ``selections`` maps a method name to its selected feature indices; all
    methods share the folds.  Encoding and imputation statistics are fitted
    on each training split only, once per fold over the union of the
    selected columns; each method's design matrix is its slice of that
    encoding, equal to what an encoder of its own columns would give.
    ``strict_selectors``, when given, maps each method to a function that
    re-selects features from a fold's training rows alone (leakage-free
    mode); the selectors of one fold share its training Dataset.
    """
    protocol = protocol or CvProtocol()
    for method, selected in selections.items():
        if not selected:
            raise DataError(f"empty feature selection for method {method!r}")

    # Canonical row order = stable key order; makes reports invariant to
    # prior shuffling of the input rows.
    order = np.argsort(data.row_ids, kind="stable")
    data = data.subset(order)
    y = binary_target(data)

    folds = fold_assignment(data.row_ids, y, protocol.n_folds, protocol.seed,
                            protocol.stratified)
    for f in range(protocol.n_folds):
        members = y[folds == f]
        if members.size == 0:
            raise DataError(f"fold {f} is empty; reduce n_folds")
        if protocol.stratified and members.min() == members.max():
            raise DataError(f"fold {f} lost a class; reduce n_folds")

    per_fold: dict[str, list[tuple[float, float, float]]] = {m: [] for m in selections}
    for f in range(protocol.n_folds):
        train_pos = np.flatnonzero(folds != f)
        test_pos = np.flatnonzero(folds == f)
        fold_selections = selections
        if strict_selectors is not None:
            train = data.subset(train_pos)
            fold_selections = {m: strict_selectors[m](train) for m in selections}
        union = dict.fromkeys(j for selected in fold_selections.values() for j in selected)
        encoder = DesignEncoder(data, list(union), protocol.encoding).fit(train_pos)
        X_train = encoder.transform(train_pos)
        X_test = encoder.transform(test_pos)
        for method, selected in fold_selections.items():
            # take() keeps the slice C-ordered like a method's own design
            # matrix, so IRLS runs the same BLAS calls on the same bits.
            cols = encoder.columns(selected)
            beta = train_logistic(X_train.take(cols, axis=1), y[train_pos],
                                  ridge=protocol.ridge)
            pred = (predict_proba(X_test.take(cols, axis=1), beta) > 0.5).astype(int)
            per_fold[method].append(_confusion_rates(y[test_pos], pred, protocol.convention))

    reports = {}
    for method, selected in selections.items():
        triples = np.array(per_fold[method])
        reports[method] = EvaluationReport(
            method=method,
            dataset=data.name,
            k=len(selected),
            test_error=float(triples[:, 0].mean()),
            type1_error=float(triples[:, 1].mean()),
            type2_error=float(triples[:, 2].mean()),
            per_fold=per_fold[method],
        )
    return reports


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
            method: dataclasses.asdict(report) for method, report in sorted(reports.items())
        }
    if extras:
        payload["run"] = extras
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
