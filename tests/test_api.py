"""The public API: the names ``qpfs`` exports.

The list below is a record, not a wish list.  Adding or removing a public
name means editing it here, so every change to the API is deliberate.
"""

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


def test_public_names_are_pinned():
    assert sorted(qpfs.__all__) == PUBLIC_NAMES


def test_every_public_name_resolves():
    for name in qpfs.__all__:
        assert getattr(qpfs, name, None) is not None, name
