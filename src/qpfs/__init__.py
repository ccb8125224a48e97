"""Feature selection by simplex-constrained quadratic programming.

Ranks the features of a tabular binary-classification dataset by solving a
quadratic program on the probability simplex whose quadratic term is the
pairwise mutual-information redundancy between features and whose linear
term is each feature's mutual information with the class.  Ships greedy
mRMR and classical filter baselines plus a cross-validated logistic-
regression harness for the two UCI credit-scoring benchmarks.
"""

__version__ = "0.1.0"

from .baselines import (SelectionResult, cfs, information_gain, max_rel,
                        mrmr_greedy, relieff)
from .errors import (ConfigError, DataError, NumericalError, QpfsError,
                     SchemaError, SolverError)
from .evaluation import (CvProtocol, EvaluationReport, evaluate, predict_proba,
                         train_logistic)
from .infotheory import (build_redundancy_matrix, build_relevance_vector,
                         information_matrix)
from .ingest import (ColumnSpec, Dataset, DiscretizationPolicy,
                     DiscretizedDataset, discretize, load_csv, load_schema,
                     parse_schema_text)
from .pipeline import (SelectionConfig, SelectionOutput, reproduce_tables,
                       select_features)
from .qp import (FeatureWeights, QpProblem, assemble, estimate_alpha,
                 kkt_residual, project_simplex, rank, solve)

__all__ = [
    "__version__",
    "ColumnSpec", "Dataset", "DiscretizationPolicy", "DiscretizedDataset",
    "discretize", "load_csv", "load_schema", "parse_schema_text",
    "information_matrix", "build_redundancy_matrix", "build_relevance_vector",
    "QpProblem", "FeatureWeights", "estimate_alpha", "assemble", "solve",
    "rank", "project_simplex", "kkt_residual",
    "SelectionResult", "mrmr_greedy", "max_rel", "information_gain",
    "relieff", "cfs",
    "CvProtocol", "EvaluationReport", "train_logistic", "predict_proba",
    "evaluate",
    "SelectionConfig", "SelectionOutput", "select_features", "reproduce_tables",
    "QpfsError", "ConfigError", "SchemaError", "DataError", "NumericalError",
    "SolverError",
]
