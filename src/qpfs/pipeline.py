"""End-to-end wiring: discretize, build Q and F, select, evaluate.

This is the layer the CLI and the table-reproduction harness share; each
step delegates to the module that owns it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from importlib import resources

from . import baselines, infotheory, qp
from .errors import ConfigError, DataError
from .evaluation import CvProtocol, EvaluationReport, evaluate
from .ingest import Dataset, DiscretizationPolicy, DiscretizedDataset, discretize

METHODS = ("quadratic", "mrmr", "maxrel", "infogain", "relieff", "cfs")
Q_DIAGONALS = ("entropy", "zero")


@dataclass(frozen=True)
class SelectionConfig:
    """Everything a selection run needs besides the dataset itself.

    ``q_diagonal`` picks the objective reading for the redundancy matrix:
    "zero" (default) excludes self-similarity, which is the reading
    consistent with the published balance estimates near 0.5 on the credit
    benchmarks; "entropy" keeps H(x_i) on the diagonal.
    """

    method: str = "quadratic"
    k: int = 5
    policy: DiscretizationPolicy = DiscretizationPolicy()
    alpha: float | None = None
    q_diagonal: str = "zero"
    relieff_neighbors: int = 10
    relieff_iterations: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.method not in METHODS:
            raise ConfigError(f"unknown method {self.method!r}; expected one of {METHODS}")
        if self.q_diagonal not in Q_DIAGONALS:
            raise ConfigError(f"q_diagonal must be one of {Q_DIAGONALS}")
        if self.alpha is not None and not 0.0 <= self.alpha <= 1.0:
            raise ConfigError(f"alpha must lie in [0, 1], got {self.alpha}")
        if self.k < 1:
            raise ConfigError("k must be positive")
        if self.relieff_neighbors < 1:
            raise ConfigError(
                f"relieff_neighbors must be positive, got {self.relieff_neighbors}")
        if self.relieff_iterations is not None and self.relieff_iterations < 1:
            raise ConfigError(
                f"relieff_iterations must be positive, got {self.relieff_iterations}")


@dataclass
class SelectionOutput:
    """Selection plus the intermediate quantities worth inspecting."""

    result: baselines.SelectionResult
    weights: qp.FeatureWeights | None
    discretized: DiscretizedDataset
    redundancy: infotheory.RedundancyMatrix | None
    relevance: infotheory.RelevanceVector | None
    alpha: float | None
    problem: qp.QpProblem | None


def information_quantities(discretized: DiscretizedDataset, q_diagonal: str):
    """Redundancy matrix (with the requested diagonal) and relevance vector."""
    Q = infotheory.build_redundancy_matrix(discretized)
    if q_diagonal == "zero":
        Q = Q.with_zero_diagonal()
    F = infotheory.build_relevance_vector(discretized)
    return Q, F


def quadratic_problem(discretized: DiscretizedDataset, config: SelectionConfig):
    """Q, F, alpha (estimated unless the config fixes it) and the assembled QP."""
    Q, F = information_quantities(discretized, config.q_diagonal)
    alpha = config.alpha if config.alpha is not None else qp.estimate_alpha(Q, F)
    return Q, F, alpha, qp.assemble(Q, F, alpha)


def select_features(data: Dataset, config: SelectionConfig) -> SelectionOutput:
    """Run one selector on a dataset and return its full trace."""
    dd = discretize(data, config.policy)
    if config.k > dd.n_features and config.method != "cfs":
        raise ConfigError(f"k={config.k} exceeds the {dd.n_features} available features")

    weights = None
    problem = None
    alpha = None
    Q = None
    F = None

    if config.method == "quadratic":
        Q, F, alpha, problem = quadratic_problem(dd, config)
        weights = qp.solve(problem)
        selected = qp.rank(weights, config.k)
        result = baselines.SelectionResult(
            method="quadratic", selected=selected, scores=weights.x.copy(), k=config.k
        )
    elif config.method in ("mrmr", "maxrel"):
        Q, F = information_quantities(dd, config.q_diagonal)
        if config.method == "mrmr":
            result = baselines.mrmr_greedy(Q, F, config.k)
        else:
            result = baselines.max_rel(F, config.k)
    elif config.method == "infogain":
        result = baselines.information_gain(dd, config.k)
    elif config.method == "relieff":
        result = baselines.relieff(dd, config.k,
                                   n_neighbors=config.relieff_neighbors,
                                   n_iterations=config.relieff_iterations,
                                   seed=config.seed)
    else:  # cfs: emergent size, reconciled to k by entry-order truncation
        result = baselines.truncate_selection(baselines.cfs(dd), config.k)

    return SelectionOutput(result=result, weights=weights, discretized=dd,
                           redundancy=Q, relevance=F, alpha=alpha, problem=problem)


def inspect_quantities(data: Dataset, config: SelectionConfig) -> dict:
    """Deterministic dump of Q, F, alpha-hat, lambda_min, and psd_shift."""
    dd = discretize(data, config.policy)
    Q, F, alpha, problem = quadratic_problem(dd, config)
    return {
        "feature_names": dd.feature_names,
        "Q": Q,
        "F": F,
        "alpha": alpha,
        "lambda_min": problem.lambda_min,
        "psd_shift": problem.psd_shift,
        "bin_counts": dd.bin_counts,
    }


# ---------------------------------------------------------------------------
# Table reproduction
# ---------------------------------------------------------------------------

def reference_results() -> dict:
    """Published reference error rates shipped with the package."""
    with resources.files("qpfs.data").joinpath("reference_errors.json").open() as fh:
        return json.load(fh)


def evaluate_method(data: Dataset, config: SelectionConfig, protocol: CvProtocol,
                    strict: bool = False) -> EvaluationReport:
    """Select features with ``config`` and cross-validate the selection.

    Under ``strict`` the same config re-selects inside every training fold
    from the training rows alone (the leakage-free variant).
    """
    output = select_features(data, config)
    strict_selector = None
    if strict:
        def strict_selector(train):
            return select_features(train, config).result.selected
    return evaluate(data, output.result.selected, protocol, method=config.method,
                    strict_selector=strict_selector)


def run_method_suite(data: Dataset, k: int, base_config: SelectionConfig,
                     protocol: CvProtocol, strict: bool = False,
                     methods: tuple = METHODS) -> dict[str, EvaluationReport]:
    """Evaluate every selector at the same k under one protocol."""
    return {method: evaluate_method(data, replace(base_config, method=method, k=k),
                                    protocol, strict)
            for method in methods}


def reproduce_tables(datasets: dict[str, tuple[Dataset, int]],
                     base_config: SelectionConfig | None = None,
                     protocol: CvProtocol | None = None,
                     strict: bool = False) -> dict[str, dict[str, EvaluationReport]]:
    """Run every method on every dataset at its table's selection size.

    ``datasets`` maps a dataset key (e.g. "german") to (Dataset, k).
    Returns {dataset: {method: report}}; formatting and deltas live in
    the evaluation module.
    """
    base_config = base_config or SelectionConfig()
    protocol = protocol or CvProtocol()
    if not datasets:
        raise DataError("no datasets to reproduce")
    return {name: run_method_suite(data, k, base_config, protocol, strict)
            for name, (data, k) in datasets.items()}
