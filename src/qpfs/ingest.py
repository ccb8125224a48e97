"""Schema-driven ingestion of UCI-style tabular data.

Loads delimiter-separated text against a declared column schema, keeps
missing markers ("?" or empty cell) as missing, and discretizes continuous
features into integer bins so that downstream information estimates only
ever see integer codes.

A loaded ``Dataset`` is columnar: one float64 array per continuous column
(NaN marks a missing cell) and one int64 code array per categorical,
binary or target column (-1 marks a missing cell) with a tuple of the raw
labels the codes index.  Missing-value resolution, target coding and
discretization work on whole columns; ``Dataset.rows`` is a row-tuple view
rebuilt on demand, not a stored copy.

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


class Dataset:
    """Typed tabular samples stored column by column, with a binary target.

    Column ``j`` of ``columns`` lives in ``arrays[j]``, one entry per row:

    - continuous: float64 values, NaN where the file had a missing marker
      (``load_csv`` rejects non-finite cells, so NaN means missing);
    - categorical, binary and target: int64 codes into ``categories[j]``,
      the column's tuple of raw labels, with -1 where the cell is missing.

    ``categories[j]`` is ``()`` for a continuous column.  ``subset`` indexes
    the arrays and shares the category tuples, so a code means the same
    label in every subset; codes are in first-appearance order only in the
    loaded file, and consumers that need subset order (``discretize``,
    ``DesignEncoder``) recode.  ``row_ids`` are stable keys (original file
    order) used for deterministic cross-validation fold assignment.
    ``rows`` gives the table back as row tuples, a view rebuilt on every
    access and never stored beside the arrays.

    A Dataset is treated as immutable once built: ``discretize`` memoizes
    its result per policy on the instance, so writing into ``arrays``
    afterwards would leave that result stale.  ``subset`` and
    ``resolve_missing`` build new instances, which start with no memo.
    """

    def __init__(self, columns: list[ColumnSpec], arrays: list[np.ndarray],
                 categories: list[tuple], row_ids=None, name: str = ""):
        self.columns = list(columns)
        self.arrays = list(arrays)
        self.categories = list(categories)
        n = self.arrays[0].size if self.arrays else 0
        self.row_ids = (np.arange(n, dtype=np.int64) if row_ids is None
                        else np.asarray(row_ids, dtype=np.int64))
        self.name = name
        self._discretized: dict[DiscretizationPolicy, DiscretizedDataset] = {}

    @property
    def n_samples(self) -> int:
        return int(self.row_ids.size)

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

    # Only bench/tracer.py (fingerprints) and tests (write, compare tables) read ``rows``.
    def _cells(self, j: int) -> list:
        """Column ``j`` as ``float`` / ``str`` cells, ``None`` where missing."""
        values = self.arrays[j]
        if self.columns[j].kind == "continuous":
            out = values.astype(object)
            out[np.isnan(values)] = None
        else:
            labels = np.empty(len(self.categories[j]) + 1, dtype=object)
            labels[:-1] = self.categories[j]
            out = labels[values]                     # code -1 picks the trailing None
        return out.tolist()

    @property
    def rows(self) -> list[tuple]:
        """Row tuples of ``float`` / ``str`` / ``None`` cells, rebuilt on each access."""
        return list(zip(*(self._cells(j) for j in range(len(self.columns)))))

    def subset(self, positions) -> "Dataset":
        """New Dataset holding the given row positions (row_ids preserved)."""
        idx = np.asarray(positions, dtype=np.intp)
        return Dataset(self.columns, [a[idx] for a in self.arrays], self.categories,
                       self.row_ids[idx], self.name)


def missing_cells(spec: ColumnSpec, values: np.ndarray) -> np.ndarray:
    """Mask of the missing entries of one column's array (NaN, or code -1)."""
    return np.isnan(values) if spec.kind == "continuous" else values < 0


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


@dataclass(eq=False)
class DiscretizedDataset:
    """Integer-bin-coded feature matrix aligned with a {0,1} target.

    Each column's codes are dense, 0..B-1, so its bin count is its maximum
    code plus one; the column order is the source Dataset's feature order.
    ``discretize`` hands the same instance to every caller with the same
    Dataset and policy, so its arrays are read-only.  It compares and hashes
    by identity, which keys ``qpfs.infotheory.information``'s matrix cache.
    """

    feature_codes: np.ndarray          # (N, m) non-negative bin indices
    target: np.ndarray                 # (N,) labels in {0, 1}

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
    names = set()
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
        if name in names:
            raise SchemaError(f"{source}, line {lineno}: duplicate column name {name!r}")
        names.add(name)
        try:
            columns.append(ColumnSpec(name, kind, role, positive))
        except SchemaError as exc:
            raise SchemaError(f"{source}, line {lineno}: {exc}") from None

    targets = [c for c in columns if c.role == "target"]
    if len(targets) != 1:
        raise SchemaError(f"{source}: expected exactly one target column, found {len(targets)}")
    if targets[0].kind != "binary":
        raise SchemaError(f"{source}: target column {targets[0].name!r} must be binary")
    if not any(c.role == "feature" for c in columns):
        raise SchemaError(f"{source}: no feature column")
    return columns


def load_schema(path) -> list[ColumnSpec]:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8-sig")   # a leading BOM is not data
    except (OSError, UnicodeDecodeError) as exc:
        raise SchemaError(f"cannot read schema file {path}: {exc}") from exc
    return parse_schema_text(text, source=str(path))


# ---------------------------------------------------------------------------
# CSV loading
# ---------------------------------------------------------------------------

# Rows are split into Python strings this many cells at a time, so loading a
# wide file never holds more than one block of cell strings at once (splitting
# all 600 lines of a 300-column file first raised the peak RSS by about 5 MB).
PARSE_BLOCK_CELLS = 1 << 14


def load_csv(path, schema: list[ColumnSpec], delimiter: str | None = ",",
             header: bool = False, name: str = "") -> Dataset:
    """Load a delimiter-separated file against a schema.

    ``delimiter=None`` splits on arbitrary whitespace (the UCI originals are
    space-delimited).  Rows keep file order; "?" and empty cells are
    recorded as missing, not dropped.  A continuous cell must parse to a
    finite number: "nan", "inf" and overflowing values such as "1e999" are
    rejected with the file, line and column, as are a missing target label
    and a third distinct label in the target or a binary feature column;
    a line with the wrong number of cells is rejected with the file and
    line.  Of several faults, the first in file order is reported.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8-sig")   # a leading BOM is not data
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read data file {path}: {exc}") from exc

    first_lineno = 2 if header else 1
    lines = text.splitlines()[first_lineno - 1:]
    n_cols = len(schema)
    step = max(1, PARSE_BLOCK_CELLS // n_cols)
    parts: list[list] = [[] for _ in schema]     # per column, one array per block
    linenos: list[int] = []                      # file line of each split row
    faults = []                                  # (row, column, message)
    for lo in range(0, len(lines), step):
        numbered = [(lineno, raw.split(delimiter)) for lineno, raw
                    in enumerate(lines[lo:lo + step], start=first_lineno + lo)
                    if raw.strip()]
        good = next((i for i, (_, cells) in enumerate(numbered) if len(cells) != n_cols),
                    len(numbered))
        if good < len(numbered):
            faults.append((len(linenos) + good, n_cols, f"expected {n_cols} cells,"
                           f" got {len(numbered[good][1])}"))
        columns = zip(*(cells for _, cells in numbered[:good]))
        for j, (spec, column) in enumerate(zip(schema, columns)):
            if spec.kind == "continuous":
                values, bad = _parse_numbers(column)
                if bad is not None:
                    faults.append((len(linenos) + bad, j, f"non-numeric or non-finite value"
                                   f" {column[bad].strip()!r} in continuous column {spec.name!r}"))
                parts[j].append(values)
            else:
                parts[j].append(np.char.strip(np.array(column, dtype=str)))
        linenos += [lineno for lineno, _ in numbered]
        if faults:
            break

    arrays, categories = [], []
    for j, (spec, blocks) in enumerate(zip(schema, parts)):
        column = np.concatenate(blocks) if blocks else np.empty(0, dtype=str)
        if spec.kind == "continuous":
            arrays.append(column)
            categories.append(())
            continue
        codes, labels = _code_labels(column, np.isin(column, MISSING_MARKERS))
        arrays.append(codes)
        categories.append(labels)
        if spec.role == "target" and (codes < 0).any():
            faults.append((int(np.argmax(codes < 0)), j,
                           f"missing label in target column {spec.name!r}"))
        if len(labels) > 2 and (spec.role == "target" or spec.kind == "binary"):
            where = "target" if spec.role == "target" else "binary"
            faults.append((int(np.argmax(codes == 2)), j, f"third distinct label"
                           f" {labels[2]!r} in {where} column {spec.name!r}; expected two"
                           f" ({labels[0]!r}, {labels[1]!r} seen before)"))
    if faults:
        row, _, message = min(faults)
        raise DataError(f"{path}, line {linenos[row]}: {message}")
    if not linenos:
        raise DataError(f"{path}: zero data rows")
    return Dataset(schema, arrays, categories, name=name or path.stem)


def _parse_numbers(column: tuple[str, ...]) -> tuple[np.ndarray, int | None]:
    """Float values of one column's cells (NaN where missing), and the row of
    the first cell that is not a finite number."""
    try:
        values = np.fromiter(map(float, column), dtype=np.float64, count=len(column))
        missing = np.zeros(values.size, dtype=bool)
    except ValueError:                           # missing markers, or a cell that is no number
        cells = np.char.strip(np.array(column, dtype=str))
        missing = np.isin(cells, MISSING_MARKERS)
        values = np.fromiter(map(_number, np.where(missing, "nan", cells).tolist()),
                             dtype=np.float64, count=cells.size)
    bad = np.flatnonzero(~missing & ~np.isfinite(values))
    return values, int(bad[0]) if bad.size else None


def _number(cell: str) -> float:
    """``float(cell)``, or inf (not finite, so reported) for a cell that is no number."""
    try:
        return float(cell)
    except ValueError:
        return math.inf


def _code_labels(cells: np.ndarray, missing: np.ndarray) -> tuple[np.ndarray, tuple]:
    """Codes in first-appearance order (-1 where missing) and the label of each code."""
    codes = np.full(cells.size, -1, dtype=np.int64)
    present, sizes, _ = dense_codes(cells[~missing], first_appearance=True)
    codes[~missing] = present
    labels = np.empty(sizes[0], dtype=cells.dtype)
    labels[present] = cells[~missing]
    return codes, tuple(labels.tolist())


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
    codes = data.arrays[j]
    if (codes < 0).any():
        raise DataError(f"target column {spec.name!r} has missing labels")
    table = data.categories[j]
    labels = sorted((table[c] for c in np.flatnonzero(np.bincount(codes))),
                    key=_label_sort_key)
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
    return (codes == table.index(positive)).astype(np.int64)


def _label_sort_key(value: str):
    try:
        return (0, float(value), "")
    except (TypeError, ValueError):
        return (1, 0.0, str(value))


# ---------------------------------------------------------------------------
# Missing-value resolution
# ---------------------------------------------------------------------------

def column_mode(values):
    """Most frequent value of a column with no missing entries.

    Ties go to the value seen first.  The result is the first occurrence
    itself, so values that compare equal (0.0 and -0.0) yield the earliest.
    """
    values = np.asarray(values)
    if values.size == 0:
        raise DataError("all-missing column")
    _, first, counts = np.unique(values, return_index=True, return_counts=True)
    return values[first[counts == counts.max()].min()]


def column_median(values: np.ndarray) -> float:
    """``np.median`` of a non-empty column, kept finite on finite values.

    Computed with ``np.partition`` alone, since the first ``np.median`` call
    of a process imports ``numpy.ma``.  It matches ``np.median`` bit for
    bit, including the sign of a zero: numpy's mean adds the middle values
    onto +0.0.  The two middle values of an even count average as
    (0.0 + a + b) / 2, unless that overflows float64; then as a/2 + b/2.
    """
    k = values.size // 2
    if values.size % 2:
        return float(0.0 + np.partition(values, k)[k])
    a, b = np.partition(values, (k - 1, k))[k - 1:k + 1]
    with np.errstate(over="ignore"):
        median = float((0.0 + a + b) / 2)
    return float(a / 2 + b / 2) if math.isinf(median) else median


def _impute_column(values: np.ndarray, spec: ColumnSpec,
                   policy: DiscretizationPolicy) -> np.ndarray:
    missing = missing_cells(spec, values)
    if missing.all():
        raise DataError(f"column {spec.name!r} is all-missing")
    if not missing.any():
        return values
    present = values[~missing]
    if spec.kind == "continuous" and policy.missing_policy != "impute-mode":
        fill = column_median(present)
    else:
        fill = column_mode(present)
    return np.where(missing, fill, values)


def resolve_missing(data: Dataset, policy: DiscretizationPolicy) -> Dataset:
    """Return a Dataset with no missing feature cells, per the policy.

    Imputation statistics are computed on the full column; a categorical
    column takes its mode's code.  Under ``drop-row`` the surviving rows
    keep their original row_ids.
    """
    features = [j for j, c in enumerate(data.columns) if c.role == "feature"]
    if policy.missing_policy == "drop-row":
        complete = np.ones(data.n_samples, dtype=bool)
        for j in features:
            complete &= ~missing_cells(data.columns[j], data.arrays[j])
        keep = np.flatnonzero(complete)
        if keep.size == 0:
            raise DataError("drop-row removed every sample")
        if keep.size < data.n_samples:
            logger.info("drop-row removed %d of %d rows", data.n_samples - keep.size,
                        data.n_samples)
        return data.subset(keep)

    arrays = list(data.arrays)
    for j in features:
        arrays[j] = _impute_column(arrays[j], data.columns[j], policy)
    return Dataset(data.columns, arrays, data.categories, data.row_ids, data.name)


# ---------------------------------------------------------------------------
# Discretization
# ---------------------------------------------------------------------------

def dense_codes(values, first_appearance: bool = False):
    """Re-map codes to 0..s-1 and count each: in sorted order, or by first appearance.

    ``values`` is one vector of n codes, or a (p, n) array whose p >= 1 rows
    are such vectors.  Returns ``(codes, sizes, counts)``: the dense codes
    (int64, the input's shape, C-contiguous), each row's code count s (int64,
    one entry for a vector) and the counts of codes 0..s-1, row after row in
    one array.  The sorted order is ``np.unique``'s, so the codes equal its
    ``return_inverse`` output; first appearance gives A,B,A,C the codes 0,1,0,2.

    A row of integers that fit int64 (or of bools) whose range max - min is
    below n needs no sort.  Any other row (strings, floats, uint64, a wider
    range, or no cells) is first ranked with ``np.unique``, which gives it a
    range below n.  Then the rows are shifted to start at 0 and offset to
    disjoint key ranges, one ``np.bincount`` counts the keys, and a
    ``cumsum`` over the present ones ranks them.  First appearance re-ranks
    each row's codes by the index where each first appears, found with
    ``np.minimum.at``.
    """
    values = np.asarray(values)
    rows = values.reshape(1, -1) if values.ndim == 1 else values
    p, n = rows.shape
    if n and (rows.dtype.kind in "ib" or rows.dtype.kind == "u" and rows.itemsize < 8):
        keys = np.array(rows, dtype=np.int64, order="C")
        lo = keys.min(axis=1)
        span = keys.max(axis=1).astype(np.uint64) - lo.astype(np.uint64)  # exact mod 2**64
    else:
        keys = np.empty((p, n), dtype=np.int64)
        lo, span = np.zeros(p, dtype=np.int64), np.full(p, n, dtype=np.uint64)
    for j in np.flatnonzero(span >= n):     # rank the rows bincount cannot count
        distinct, keys[j] = np.unique(rows[j], return_inverse=True)
        lo[j], span[j] = 0, max(distinct.size, 1) - 1

    codes, sizes, counts = _bincount_ranks(keys, lo, span)
    if first_appearance:
        codes, counts = _by_first_appearance(codes, sizes, counts)
    return codes[0] if values.ndim == 1 else codes, sizes, counts


def _bincount_ranks(keys: np.ndarray, lo: np.ndarray, span: np.ndarray):
    """``dense_codes``' sorted codes of int64 rows, each with range span below n.

    ``keys`` is a C-contiguous copy of the rows, reused for the result.
    Returns the (p, n) codes, each row's code count and all rows' code
    counts, concatenated.
    """
    spans = span.astype(np.int64) + 1
    starts = spans.cumsum() - spans
    keys -= lo[:, None]                 # exact mod 2**64, and the result is in range
    keys += starts[:, None]
    tally = np.bincount(keys.ravel(), minlength=int(spans.sum()))
    present = tally > 0
    seen = present.cumsum()             # a row's minimum is present: seen[start] = 1
    # In place: under mode="clip" (every key is in range) take writes straight
    # into out, so no second (p, n) array is held.
    codes = np.take(seen, keys, out=keys, mode="clip")
    codes -= seen[starts][:, None]
    return codes, np.add.reduceat(present, starts, dtype=np.int64), tally[present]


def _by_first_appearance(codes: np.ndarray, sizes: np.ndarray, tally: np.ndarray):
    """Re-rank each row's sorted codes by the index where each first appears."""
    p, n = codes.shape
    starts = sizes.cumsum() - sizes
    ids = (codes + starts[:, None]).ravel()         # one id per (row, code)
    first = np.full(tally.size, p * n, dtype=np.int64)
    np.minimum.at(first, ids, np.arange(p * n))     # flat index of each code's first cell
    order = np.argsort(first)                       # row by row, then by first index
    rank = np.empty_like(first)
    rank[order] = np.arange(first.size) - np.repeat(starts, sizes)
    return rank[ids].reshape(p, n), tally[order]


def equal_frequency_codes(values: np.ndarray, n_bins: int) -> tuple[np.ndarray, int]:
    """Quantile-bucket codes; tied values take the lower bucket.

    Each value gets the bucket of the lowest sorted rank among its ties, so
    occupancy differs from N/n_bins only by ties straddling a boundary.
    """
    n = values.size
    uniq, inv, counts = np.unique(values, return_inverse=True, return_counts=True)
    first_rank = np.concatenate(([0], np.cumsum(counts)[:-1]))
    bucket = first_rank * n_bins // n          # per distinct value, non-decreasing,
    dense = np.concatenate(([0], np.cumsum(bucket[1:] != bucket[:-1])))  # so no sort
    return dense[inv], int(dense[-1]) + 1


def equal_width_codes(values: np.ndarray, n_bins: int) -> tuple[np.ndarray, int]:
    """Fixed-width codes over [min, max]; empty bins compacted away.

    Raises ``DataError`` when the bin width is not a positive finite
    float64: max - min overflows, or a subnormal range divides to zero.
    """
    lo = float(values.min())
    hi = float(values.max())
    if hi == lo:
        return np.zeros(values.size, dtype=np.int64), 1
    width = (hi - lo) / n_bins
    if not 0.0 < width < math.inf:
        raise DataError(f"range [{lo!r}, {hi!r}] has no {n_bins} equal-width"
                        " bins in float64")
    provisional = np.minimum((values - lo) // width, n_bins - 1).astype(np.int64)
    codes, sizes, _ = dense_codes(provisional)
    return codes, int(sizes[0])


def discretize(data: Dataset, policy: DiscretizationPolicy | None = None) -> DiscretizedDataset:
    """Bin features into integer codes per the policy.

    Categorical and binary columns pass through with first-appearance codes
    (their natural categories are the bins); continuous columns are binned
    per the policy after missing values are resolved.  A continuous column
    that bins to a single bin (constant, or collapsed by ties under
    equal-frequency) carries no information, and a warning names it.  Row
    order is preserved: feature_codes row i corresponds to row i of
    ``resolve_missing(data, policy)``, which under ``drop-row`` keeps only
    the complete rows.

    The result is memoized on ``data`` per policy: a second call returns the
    same instance, whose arrays are read-only.  A failing call caches
    nothing, so it fails again.
    """
    policy = policy or DiscretizationPolicy()
    memo = data._discretized.get(policy)
    if memo is not None:
        return memo
    if data.n_samples < 2:
        raise DataError("discretize needs at least 2 rows")

    resolved = resolve_missing(data, policy)
    target = binary_target(resolved)   # both classes present, or a DataError

    features = [(spec, values) for spec, values in zip(resolved.columns, resolved.arrays)
                if spec.role == "feature"]
    n, m = resolved.n_samples, len(features)
    codes = np.empty((n, m), dtype=np.int64)
    categorical = [j for j, (spec, _) in enumerate(features) if spec.kind != "continuous"]
    if categorical:             # one first-appearance remap for all of them
        cat_codes, cat_sizes, _ = dense_codes(np.array([features[j][1] for j in categorical]),
                                              first_appearance=True)
        coded = dict(zip(categorical, zip(cat_codes, cat_sizes.tolist())))

    for j, (spec, values) in enumerate(features):
        if spec.kind == "continuous":
            if policy.method == "equal-frequency":
                codes[:, j], n_codes = equal_frequency_codes(values, policy.n_bins)
            else:
                try:
                    codes[:, j], n_codes = equal_width_codes(values, policy.n_bins)
                except DataError as exc:
                    raise DataError(f"continuous column {spec.name!r}: {exc}") from None
            if n_codes == 1:
                logger.warning("continuous column %r: binning gives a single bin",
                               spec.name)
        else:
            codes[:, j], n_codes = coded[j]
            if spec.kind == "binary" and n_codes > 2:
                raise DataError(f"binary column {spec.name!r} has {n_codes} distinct values")

    codes.flags.writeable = False
    target.flags.writeable = False
    memo = data._discretized[policy] = DiscretizedDataset(feature_codes=codes, target=target)
    return memo
