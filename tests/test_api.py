"""The public API: the names ``qpfs`` exports and the shape of its result types.

The lists below are a record, not a wish list.  Adding or removing a public
name, a result field or a ``Dataset`` parameter means editing them here, so
every change to the API is deliberate.
"""

import dataclasses
import inspect

import pytest

import qpfs

PUBLIC_NAMES = [
    "ColumnSpec", "ConfigError", "CvProtocol", "DataError", "Dataset",
    "DiscretizationPolicy", "DiscretizedDataset", "EvaluationReport",
    "FeatureWeights", "NumericalError", "QpProblem", "QpfsError", "SchemaError",
    "SelectionConfig", "SelectionOutput", "SelectionResult", "SolverError",
    "__version__", "assemble", "build_redundancy_matrix", "build_relevance_vector",
    "cfs", "contingency", "discretize", "entropy", "estimate_alpha", "evaluate",
    "information_gain", "information_matrix", "kkt_residual", "load_csv",
    "load_schema", "max_rel", "mrmr_greedy", "mutual_information",
    "parse_schema_text", "predict_proba", "project_simplex", "rank", "relieff",
    "reproduce_tables", "select_features", "solve", "train_logistic",
]

RESULT_FIELDS = {
    "SelectionOutput": ["result", "weights", "problem"],
    "SelectionResult": ["method", "selected", "scores", "k", "truncated"],
    "FeatureWeights": ["x", "ranking", "objective", "kkt_residual", "solver",
                       "iterations"],
    "QpProblem": ["Q_eff", "f_eff", "alpha", "psd_shift", "lambda_min"],
    "DiscretizedDataset": ["feature_codes", "target", "bin_counts", "feature_names"],
    "EvaluationReport": ["method", "dataset", "k", "test_error", "type1_error",
                         "type2_error", "per_fold"],
    "SelectionConfig": ["method", "k", "policy", "alpha", "q_diagonal",
                        "relieff_neighbors", "relieff_iterations", "seed"],
    "DiscretizationPolicy": ["method", "n_bins", "missing_policy"],
    "CvProtocol": ["n_folds", "stratified", "seed", "encoding", "ridge", "convention"],
}

DATASET_PARAMETERS = ["columns", "arrays", "categories", "row_ids", "name"]


def test_public_names_are_pinned():
    assert sorted(qpfs.__all__) == PUBLIC_NAMES


def test_every_public_name_resolves():
    for name in qpfs.__all__:
        assert getattr(qpfs, name, None) is not None, name


@pytest.mark.parametrize("name", sorted(RESULT_FIELDS))
def test_result_fields_are_pinned(name):
    fields = [f.name for f in dataclasses.fields(getattr(qpfs, name))]
    assert fields == RESULT_FIELDS[name]


def test_dataset_parameters_are_pinned():
    assert list(inspect.signature(qpfs.Dataset).parameters) == DATASET_PARAMETERS
