"""Schema-driven ingestion of UCI-style tabular data.

Loads delimiter-separated text against a declared column schema, keeps
missing markers ("?" or empty cell) as missing, and discretizes continuous
features into integer bins so that downstream information estimates only
ever see integer codes.

Column roles and kinds come from a small declarative schema file, one
column per line::

    checking_status  categorical  feature
    duration         continuous   feature
    class            binary       target  positive=2

``positive=<label>`` on the target line names the raw label mapped to
class 1 (the "bad" / non-creditworthy class in the credit datasets).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError, SchemaError

logger = logging.getLogger(__name__)

KINDS = ("categorical", "continuous", "binary")
ROLES = ("feature", "target")
MISSING_MARKERS = ("", "?")

METHODS_DISCRETIZE = ("equal-frequency", "equal-width")
MISSING_POLICIES = ("impute-mode", "impute-median", "drop-row")


@dataclass(frozen=True)
class ColumnSpec:
    """Name, value kind, and role of one column."""

    name: str
    kind: str
    role: str = "feature"
    positive_label: str | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise SchemaError(f"column {self.name!r}: unknown kind {self.kind!r}")
        if self.role not in ROLES:
            raise SchemaError(f"column {self.name!r}: unknown role {self.role!r}")


@dataclass
class Dataset:
    """Raw tabular samples with typed columns and a binary target.

    Cells are ``float`` for continuous columns, ``str`` for categorical /
    binary / target columns, and ``None`` where the file had a missing
    marker.  ``row_ids`` are stable keys (original file order) used for
    deterministic cross-validation fold assignment.
    """

    columns: list[ColumnSpec]
    rows: list[tuple]
    row_ids: np.ndarray = None
    name: str = ""

    def __post_init__(self):
        if self.row_ids is None:
            self.row_ids = np.arange(len(self.rows), dtype=np.int64)
        else:
            self.row_ids = np.asarray(self.row_ids, dtype=np.int64)

    @property
    def n_samples(self) -> int:
        return len(self.rows)

    @property
    def n_features(self) -> int:
        return len(self.feature_columns)

    @property
    def feature_columns(self) -> list[ColumnSpec]:
        return [c for c in self.columns if c.role == "feature"]

    @property
    def feature_names(self) -> list[str]:
        return [c.name for c in self.feature_columns]

    @property
    def target_column(self) -> ColumnSpec:
        return next(c for c in self.columns if c.role == "target")

    def column_index(self, name: str) -> int:
        for i, c in enumerate(self.columns):
            if c.name == name:
                return i
        raise KeyError(name)

    def feature_cells(self, name: str) -> list:
        j = self.column_index(name)
        return [row[j] for row in self.rows]

    def subset(self, positions) -> "Dataset":
        """New Dataset holding the given row positions (row_ids preserved)."""
        positions = list(positions)
        return Dataset(
            columns=self.columns,
            rows=[self.rows[i] for i in positions],
            row_ids=self.row_ids[positions],
            name=self.name,
        )


@dataclass(frozen=True)
class DiscretizationPolicy:
    """How continuous features are binned and missing values resolved.

    Categorical and binary columns always impute by mode; the
    ``impute-median`` / ``impute-mode`` choice controls continuous columns.
    ``drop-row`` removes rows with any missing feature cell instead.
    """

    method: str = "equal-frequency"
    n_bins: int = 10
    missing_policy: str = "impute-median"

    def __post_init__(self):
        if self.method not in METHODS_DISCRETIZE:
            raise SchemaError(f"unknown discretization method {self.method!r}")
        if self.n_bins < 2:
            raise SchemaError("n_bins must be >= 2")
        if self.missing_policy not in MISSING_POLICIES:
            raise SchemaError(f"unknown missing policy {self.missing_policy!r}")


@dataclass
class DiscretizedDataset:
    """Integer-bin-coded feature matrix aligned with a {0,1} target."""

    feature_codes: np.ndarray          # (N, m) non-negative bin indices
    target: np.ndarray                 # (N,) labels in {0, 1}
    bin_counts: np.ndarray             # (m,) distinct bins per feature
    feature_names: list[str]
    provenance: DiscretizationPolicy
    row_ids: np.ndarray = None
    name: str = ""

    def __post_init__(self):
        if self.row_ids is None:
            self.row_ids = np.arange(self.feature_codes.shape[0], dtype=np.int64)

    @property
    def n_samples(self) -> int:
        return self.feature_codes.shape[0]

    @property
    def n_features(self) -> int:
        return self.feature_codes.shape[1]


# ---------------------------------------------------------------------------
# Schema files
# ---------------------------------------------------------------------------

def parse_schema_text(text: str, source: str = "<schema>") -> list[ColumnSpec]:
    """Parse the one-column-per-line schema format; '#' starts a comment."""
    columns: list[ColumnSpec] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) < 2:
            raise SchemaError(
                f"{source}, line {lineno}: expected 'name kind [role] [positive=LABEL]',"
                f" got {raw.strip()!r}"
            )
        name, kind = parts[0], parts[1]
        role = "feature"
        positive = None
        for token in parts[2:]:
            if "=" in token:
                key, _, value = token.partition("=")
                if key != "positive":
                    raise SchemaError(f"{source}, line {lineno}: unknown option {key!r}")
                positive = value
            else:
                role = token
        try:
            columns.append(ColumnSpec(name, kind, role, positive))
        except SchemaError as exc:
            raise SchemaError(f"{source}, line {lineno}: {exc}") from None

    targets = [c for c in columns if c.role == "target"]
    if len(targets) != 1:
        raise SchemaError(f"{source}: expected exactly one target column, found {len(targets)}")
    if targets[0].kind != "binary":
        raise SchemaError(f"{source}: target column {targets[0].name!r} must be binary")
    seen = set()
    for c in columns:
        if c.name in seen:
            raise SchemaError(f"{source}: duplicate column name {c.name!r}")
        seen.add(c.name)
    return columns


def load_schema(path) -> list[ColumnSpec]:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise SchemaError(f"cannot read schema file {path}: {exc}") from exc
    return parse_schema_text(text, source=str(path))


# ---------------------------------------------------------------------------
# CSV loading
# ---------------------------------------------------------------------------

def load_csv(path, schema: list[ColumnSpec], delimiter: str | None = ",",
             header: bool = False, name: str = "") -> Dataset:
    """Load a delimiter-separated file against a schema.

    ``delimiter=None`` splits on arbitrary whitespace (the UCI originals are
    space-delimited).  Rows keep file order; "?" and empty cells are
    recorded as missing, not dropped.  A continuous cell must parse to a
    finite number: "nan", "inf" and overflowing values such as "1e999" are
    rejected with the file, line and column.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise DataError(f"cannot read data file {path}: {exc}") from exc

    lines = text.splitlines()
    if header and lines:
        lines = lines[1:]

    n_cols = len(schema)
    rows: list[tuple] = []
    for lineno, raw in enumerate(lines, start=2 if header else 1):
        if not raw.strip():
            continue
        cells = raw.split() if delimiter is None else raw.split(delimiter)
        if len(cells) != n_cols:
            raise DataError(
                f"{path}, line {lineno}: expected {n_cols} cells, got {len(cells)}"
            )
        row = []
        for spec, cell in zip(schema, cells):
            cell = cell.strip()
            if cell in MISSING_MARKERS:
                row.append(None)
                continue
            if spec.kind == "continuous":
                try:
                    value = float(cell)
                    if not math.isfinite(value):
                        raise ValueError(cell)
                except ValueError:
                    raise DataError(
                        f"{path}, line {lineno}: non-numeric or non-finite value"
                        f" {cell!r} in continuous column {spec.name!r}"
                    ) from None
                row.append(value)
            else:
                row.append(cell)
        rows.append(tuple(row))

    if not rows:
        raise DataError(f"{path}: zero data rows")
    return Dataset(columns=list(schema), rows=rows, name=name or path.stem)


# ---------------------------------------------------------------------------
# Target coding
# ---------------------------------------------------------------------------

def binary_target(data: Dataset) -> np.ndarray:
    """Map the raw target column to {0, 1} with class 1 = positive label.

    When the schema does not pin ``positive=``, the larger label (numeric
    comparison when both labels parse as numbers) becomes class 1.
    """
    spec = data.target_column
    j = data.column_index(spec.name)
    raw = [row[j] for row in data.rows]
    if any(v is None for v in raw):
        raise DataError(f"target column {spec.name!r} has missing labels")
    labels = sorted(set(raw), key=_label_sort_key)
    if len(labels) < 2:
        raise DataError(f"target column {spec.name!r} has a single label {labels[0]!r}")
    if len(labels) > 2:
        raise DataError(
            f"target column {spec.name!r} has {len(labels)} distinct labels; expected 2"
        )
    if spec.positive_label is not None:
        if spec.positive_label not in labels:
            raise DataError(
                f"declared positive label {spec.positive_label!r} absent from target"
                f" (observed {labels})"
            )
        positive = spec.positive_label
    else:
        positive = labels[1]
    return np.fromiter((1 if v == positive else 0 for v in raw), dtype=np.int64,
                       count=len(raw))


def _label_sort_key(value: str):
    try:
        return (0, float(value), "")
    except (TypeError, ValueError):
        return (1, 0.0, str(value))


# ---------------------------------------------------------------------------
# Missing-value resolution
# ---------------------------------------------------------------------------

def column_mode(cells):
    """Most frequent non-missing value; ties go to the earliest-seen value."""
    counts: dict = {}
    order: dict = {}
    for i, v in enumerate(cells):
        if v is None:
            continue
        counts[v] = counts.get(v, 0) + 1
        order.setdefault(v, i)
    if not counts:
        raise DataError("all-missing column")
    best = max(counts, key=lambda v: (counts[v], -order[v]))
    return best


def _impute_column(cells, spec: ColumnSpec, policy: DiscretizationPolicy):
    present = [v for v in cells if v is not None]
    if not present:
        raise DataError(f"column {spec.name!r} is all-missing")
    if None not in cells:
        return list(cells)
    if spec.kind == "continuous" and policy.missing_policy != "impute-mode":
        fill = float(np.median(np.asarray(present, dtype=float)))
    else:
        fill = column_mode(cells)
    return [fill if v is None else v for v in cells]


def resolve_missing(data: Dataset, policy: DiscretizationPolicy) -> Dataset:
    """Return a Dataset with no missing feature cells, per the policy.

    Imputation statistics are computed on the full column.  Under
    ``drop-row`` the surviving rows keep their original row_ids.
    """
    feature_idx = [data.column_index(c.name) for c in data.feature_columns]
    if policy.missing_policy == "drop-row":
        keep = [
            i for i, row in enumerate(data.rows)
            if all(row[j] is not None for j in feature_idx)
        ]
        if not keep:
            raise DataError("drop-row removed every sample")
        if len(keep) < data.n_samples:
            logger.info("drop-row removed %d of %d rows", data.n_samples - len(keep),
                        data.n_samples)
        return data.subset(keep)

    new_cols: list[list] = []
    for j, spec in enumerate(data.columns):
        cells = [row[j] for row in data.rows]
        if spec.role == "feature":
            cells = _impute_column(cells, spec, policy)
        new_cols.append(cells)
    rows = [tuple(col[i] for col in new_cols) for i in range(data.n_samples)]
    return Dataset(columns=data.columns, rows=rows, row_ids=data.row_ids, name=data.name)


# ---------------------------------------------------------------------------
# Discretization
# ---------------------------------------------------------------------------

def _dense_codes(codes: np.ndarray) -> tuple[np.ndarray, int]:
    """Re-map monotonically to {0..B-1} with no gaps."""
    uniq, inv = np.unique(codes, return_inverse=True)
    return inv.astype(np.int64), int(uniq.size)


def first_appearance_codes(cells) -> tuple[np.ndarray, int]:
    """Code symbols by first-appearance order (A,B,A,C -> 0,1,0,2)."""
    mapping: dict = {}
    out = np.empty(len(cells), dtype=np.int64)
    for i, v in enumerate(cells):
        out[i] = mapping.setdefault(v, len(mapping))
    return out, len(mapping)


def equal_frequency_codes(values: np.ndarray, n_bins: int) -> tuple[np.ndarray, int]:
    """Quantile-bucket codes; tied values take the lower bucket.

    Each value gets the bucket of the lowest sorted rank among its ties, so
    occupancy differs from N/n_bins only by ties straddling a boundary.
    """
    n = values.size
    uniq, inv, counts = np.unique(values, return_inverse=True, return_counts=True)
    first_rank = np.concatenate(([0], np.cumsum(counts)[:-1]))
    provisional = first_rank[inv] * n_bins // n
    return _dense_codes(provisional)


def equal_width_codes(values: np.ndarray, n_bins: int) -> tuple[np.ndarray, int]:
    """Fixed-width codes over [min, max]; empty bins compacted away."""
    lo = float(values.min())
    hi = float(values.max())
    if hi == lo:
        return np.zeros(values.size, dtype=np.int64), 1
    width = (hi - lo) / n_bins
    provisional = np.minimum((values - lo) // width, n_bins - 1).astype(np.int64)
    return _dense_codes(provisional)


def discretize(data: Dataset, policy: DiscretizationPolicy | None = None) -> DiscretizedDataset:
    """Bin features into integer codes per the policy.

    Categorical and binary columns pass through with first-appearance codes
    (their natural categories are the bins); continuous columns are binned
    per the policy after missing values are resolved.  Row order is
    preserved: feature_codes row i corresponds to Dataset row i.
    """
    policy = policy or DiscretizationPolicy()
    if data.n_samples < 2:
        raise DataError("discretize needs at least 2 rows")

    data = resolve_missing(data, policy)
    target = binary_target(data)
    if target.min() == target.max():
        raise DataError("target has a single label after missing-value handling")

    features = data.feature_columns
    n, m = data.n_samples, len(features)
    codes = np.empty((n, m), dtype=np.int64)
    bin_counts = np.empty(m, dtype=np.int64)

    for j, spec in enumerate(features):
        cells = data.feature_cells(spec.name)
        if spec.kind == "continuous":
            values = np.asarray(cells, dtype=float)
            if np.unique(values).size == 1:
                logger.warning(
                    "constant continuous column %r: falling back to a single bin",
                    spec.name,
                )
                codes[:, j] = 0
                bin_counts[j] = 1
                continue
            if policy.method == "equal-frequency":
                codes[:, j], bin_counts[j] = equal_frequency_codes(values, policy.n_bins)
            else:
                codes[:, j], bin_counts[j] = equal_width_codes(values, policy.n_bins)
        else:
            col_codes, n_codes = first_appearance_codes(cells)
            if spec.kind == "binary" and n_codes > 2:
                raise DataError(
                    f"binary column {spec.name!r} has {n_codes} distinct values"
                )
            codes[:, j] = col_codes
            bin_counts[j] = max(n_codes, 1)

    return DiscretizedDataset(
        feature_codes=codes,
        target=target,
        bin_counts=bin_counts,
        feature_names=[c.name for c in features],
        provenance=policy,
        row_ids=data.row_ids,
        name=data.name,
    )
