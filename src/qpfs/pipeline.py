"""End-to-end wiring: discretize, build Q and F, select, evaluate.

This is the layer the CLI and the table-reproduction harness share; each
step delegates to the module that owns it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

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
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")


@dataclass
class SelectionOutput:
    """Selection plus the intermediate quantities worth inspecting."""

    result: baselines.SelectionResult
    weights: qp.FeatureWeights | None
    problem: qp.QpProblem | None


def information_quantities(discretized: DiscretizedDataset, q_diagonal: str):
    """Redundancy matrix Q (with the requested diagonal) and relevance vector F."""
    Q = infotheory.build_redundancy_matrix(discretized)
    if q_diagonal == "zero":
        np.fill_diagonal(Q, 0.0)     # Q is a fresh copy, so zero it in place
    F = infotheory.build_relevance_vector(discretized)
    return Q, F


def quadratic_problem(discretized: DiscretizedDataset, config: SelectionConfig):
    """Q, F and the QP assembled at alpha (estimated unless the config fixes it)."""
    Q, F = information_quantities(discretized, config.q_diagonal)
    alpha = config.alpha if config.alpha is not None else qp.estimate_alpha(Q, F)
    return Q, F, qp.assemble(Q, F, alpha)


def select_features(data: Dataset, config: SelectionConfig) -> SelectionOutput:
    """Run one selector on a dataset and return its full trace."""
    dd = discretize(data, config.policy)
    if config.k > dd.n_features and config.method != "cfs":
        raise ConfigError(f"k={config.k} exceeds the {dd.n_features} available features")

    weights = None
    problem = None

    if config.method == "quadratic":
        _, _, problem = quadratic_problem(dd, config)
        weights = qp.solve(problem)
        selected = qp.rank(weights, config.k)
        result = baselines.SelectionResult(
            method="quadratic", selected=selected, scores=weights.x.copy())
    elif config.method in ("mrmr", "maxrel"):
        Q, F = information_quantities(dd, config.q_diagonal)
        if config.method == "mrmr":
            result = baselines.mrmr_greedy(Q, F, config.k)
        else:
            result = baselines.max_rel(F, config.k)
    elif config.method == "infogain":
        result = baselines.information_gain(infotheory.build_relevance_vector(dd), config.k)
    elif config.method == "relieff":
        result = baselines.relieff(dd, config.k,
                                   n_neighbors=config.relieff_neighbors,
                                   n_iterations=config.relieff_iterations,
                                   seed=config.seed)
    else:  # cfs: emergent size, reconciled to k by entry-order truncation
        result = baselines.truncate_selection(baselines.cfs(dd), config.k)

    return SelectionOutput(result=result, weights=weights, problem=problem)


# ---------------------------------------------------------------------------
# Table reproduction
# ---------------------------------------------------------------------------

def evaluate_methods(data: Dataset, configs: list[SelectionConfig],
                     protocol: CvProtocol) -> dict[str, EvaluationReport]:
    """Select features with each config and cross-validate every selection.

    One ``evaluate`` call serves all configs, so they share the folds and
    each fold's encoding.  Configs with one policy also share each selection
    input's discretization, which ``discretize`` memoizes on the Dataset, and
    so its information matrix.  Under ``protocol.strict`` every config re-selects
    inside every training fold from the training rows alone (the
    leakage-free variant); the full-data selection then only fixes the
    report's ``k``.
    """
    def select(rows: Dataset) -> dict[str, list[int]]:
        return {config.method: select_features(rows, config).result.selected
                for config in configs}

    return evaluate(data, select(data), protocol, select)


def reproduce_tables(datasets: dict[str, tuple[Dataset, int]],
                     base_config: SelectionConfig | None = None,
                     protocol: CvProtocol | None = None
                     ) -> dict[str, dict[str, EvaluationReport]]:
    """Run every method on every dataset at its table's selection size.

    ``datasets`` maps a dataset key (e.g. "german") to (Dataset, k); each
    method runs with ``base_config``'s other settings under one protocol,
    and all methods of a dataset share its folds.  Returns
    {dataset: {method: report}}; the CLI renders the tables and deltas.
    """
    base_config = base_config or SelectionConfig()
    protocol = protocol or CvProtocol()
    if not datasets:
        raise DataError("no datasets to reproduce")
    return {name: evaluate_methods(data, [replace(base_config, method=method, k=k)
                                          for method in METHODS], protocol)
            for name, (data, k) in datasets.items()}
