"""Columnar Dataset against row-wise oracles.

The oracles below are the row-tuple implementations that ``ingest`` and
``evaluation`` used before ``Dataset`` stored columns: ``column_mode``,
``first_appearance_codes``, ``resolve_missing``, ``discretize`` and
``DesignEncoder``.  They read nothing but lists of row tuples, so they pin
the columnar code to the same codes, bin counts, targets, row_ids and
design matrices, bit for bit, on seeded random datasets.
"""

import math

import numpy as np
import pytest

from qpfs import ingest
from qpfs.errors import DataError
from qpfs.evaluation import DesignEncoder
from qpfs.ingest import (ColumnSpec, DiscretizationPolicy, binary_target,
                         column_mode, discretize, equal_frequency_codes,
                         equal_width_codes, first_appearance_codes, load_csv,
                         resolve_missing)

from conftest import dataset_from_rows

POLICIES = [DiscretizationPolicy(method=method, n_bins=bins, missing_policy=missing)
            for method, bins in (("equal-frequency", 5), ("equal-width", 4))
            for missing in ("impute-median", "impute-mode", "drop-row")]


# ---------------------------------------------------------------------------
# Row-wise oracles
# ---------------------------------------------------------------------------

def oracle_column_mode(cells):
    counts: dict = {}
    order: dict = {}
    for i, v in enumerate(cells):
        if v is None:
            continue
        counts[v] = counts.get(v, 0) + 1
        order.setdefault(v, i)
    if not counts:
        raise DataError("all-missing column")
    return max(counts, key=lambda v: (counts[v], -order[v]))


def oracle_first_appearance_codes(cells):
    mapping: dict = {}
    out = np.empty(len(cells), dtype=np.int64)
    for i, v in enumerate(cells):
        out[i] = mapping.setdefault(v, len(mapping))
    return out, len(mapping)


def oracle_median(present):
    ordered = sorted(present)
    k = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[k]
    a, b = ordered[k - 1], ordered[k]
    return a / 2 + b / 2 if math.isinf((a + b) / 2) else (a + b) / 2


def oracle_binary_target(columns, rows):
    j, spec = next((j, c) for j, c in enumerate(columns) if c.role == "target")
    raw = [row[j] for row in rows]
    labels = sorted(set(raw), key=ingest._label_sort_key)
    positive = spec.positive_label if spec.positive_label is not None else labels[1]
    return np.array([1 if v == positive else 0 for v in raw], dtype=np.int64)


def oracle_resolve_missing(columns, rows, row_ids, policy):
    feature_idx = [j for j, c in enumerate(columns) if c.role == "feature"]
    if policy.missing_policy == "drop-row":
        keep = [i for i, row in enumerate(rows)
                if all(row[j] is not None for j in feature_idx)]
        return [rows[i] for i in keep], row_ids[keep]
    new_cols = []
    for j, spec in enumerate(columns):
        cells = [row[j] for row in rows]
        if spec.role == "feature" and None in cells:
            present = [v for v in cells if v is not None]
            if spec.kind == "continuous" and policy.missing_policy != "impute-mode":
                fill = oracle_median(present)
            else:
                fill = oracle_column_mode(cells)
            cells = [fill if v is None else v for v in cells]
        new_cols.append(cells)
    return [tuple(col[i] for col in new_cols) for i in range(len(rows))], row_ids


def oracle_discretize(columns, rows, row_ids, policy):
    """(feature codes, bin counts, target, row_ids) as the row-wise code built them."""
    rows, row_ids = oracle_resolve_missing(columns, rows, row_ids, policy)
    target = oracle_binary_target(columns, rows)
    features = [j for j, c in enumerate(columns) if c.role == "feature"]
    codes = np.empty((len(rows), len(features)), dtype=np.int64)
    bin_counts = np.empty(len(features), dtype=np.int64)
    for k, j in enumerate(features):
        cells = [row[j] for row in rows]
        if columns[j].kind == "continuous":
            values = np.asarray(cells, dtype=float)
            if np.unique(values).size == 1:
                codes[:, k], bin_counts[k] = 0, 1
            elif policy.method == "equal-frequency":
                codes[:, k], bin_counts[k] = equal_frequency_codes(values, policy.n_bins)
            else:
                codes[:, k], bin_counts[k] = equal_width_codes(values, policy.n_bins)
        else:
            col_codes, n_codes = oracle_first_appearance_codes(cells)
            codes[:, k], bin_counts[k] = col_codes, max(n_codes, 1)
    return codes, bin_counts, target, row_ids


def oracle_encode(columns, rows, selected, train, test, encoding):
    """Row-wise DesignEncoder: fit on ``train`` rows, transform ``train`` and ``test``."""
    features = [j for j, c in enumerate(columns) if c.role == "feature"]
    stats = []
    for j in (features[i] for i in selected):
        cells = [rows[i][j] for i in train]
        if columns[j].kind == "continuous":
            median = float(np.median(np.array([v for v in cells if v is not None], float)))
            filled = np.array([median if v is None else v for v in cells])
            std = float(filled.std())
            stats.append((j, "continuous", median, float(filled.mean()), std or 1.0))
            continue
        mode = oracle_column_mode(cells)
        categories: list = []
        for v in cells:
            v = mode if v is None else v
            if v not in categories:
                categories.append(v)
        if encoding == "code-as-ordinal":
            codes = {c: float(i) for i, c in enumerate(categories)}
            vals = np.array([codes[mode if v is None else v] for v in cells])
            std = float(vals.std())
            stats.append((j, "ordinal", mode, codes, float(vals.mean()), std or 1.0))
        else:
            stats.append((j, "categorical", mode, categories))

    def transform(positions):
        blocks = []
        for st in stats:
            j, kind = st[0], st[1]
            cells = [rows[i][j] for i in positions]
            if kind == "continuous":
                _, _, median, mean, std = st
                vals = np.array([median if v is None else v for v in cells], dtype=float)
                blocks.append(((vals - mean) / std)[:, None])
            elif kind == "ordinal":
                _, _, mode, codes, mean, std = st
                vals = np.array([codes.get(mode if v is None else v, -1.0) for v in cells])
                blocks.append(((vals - mean) / std)[:, None])
            else:
                _, _, mode, categories = st
                lookup = {c: i for i, c in enumerate(categories[1:])}
                block = np.zeros((len(cells), len(lookup)))
                for r, v in enumerate(cells):
                    col = lookup.get(mode if v is None else v)
                    if col is not None:
                        block[r, col] = 1.0
                blocks.append(block)
        return np.hstack(blocks) if blocks else np.zeros((len(positions), 0))

    return transform(train), transform(test)


# ---------------------------------------------------------------------------
# Seeded random datasets
# ---------------------------------------------------------------------------

def random_table(rng, n, missing_rate=0.08):
    """(columns, rows) with every column kind, missing cells (also in row 0),
    mode ties, a constant column of each kind, and a rare category."""
    columns = [
        ColumnSpec("x_cont", "continuous"),
        ColumnSpec("x_ties", "continuous"),          # few distinct values
        ColumnSpec("x_const", "continuous"),
        ColumnSpec("c_many", "categorical"),
        ColumnSpec("c_tied", "categorical"),         # two labels, equal counts
        ColumnSpec("c_rare", "categorical"),         # one label in a few rows only
        ColumnSpec("c_const", "categorical"),
        ColumnSpec("b0", "binary"),
        ColumnSpec("label", "binary", "target",
                   positive_label="bad" if rng.random() < 0.5 else None),
    ]
    half = n // 2
    tied = np.array(["P"] * half + ["Q"] * (n - half))
    rng.shuffle(tied)
    rare = np.where(rng.random(n) < 0.04, "RARE", rng.choice(["u", "v"], size=n))
    y = rng.random(n) < 0.4
    y[:2] = [True, False]                            # both labels present
    cols = [
        rng.normal(0, 3, n).tolist(),
        rng.integers(0, 4, n).astype(float).tolist(),
        [2.5] * n,
        rng.choice(["a", "b", "c", "d", "e"], size=n, p=[.4, .2, .2, .1, .1]).tolist(),
        tied.tolist(),
        rare.tolist(),
        ["k"] * n,
        rng.choice(["yes", "no"], size=n).tolist(),
        np.where(y, "bad", "good").tolist(),
    ]
    for spec, cells in zip(columns, cols):
        if spec.role == "target":
            continue
        for i in np.flatnonzero(rng.random(n) < missing_rate):
            cells[i] = None
        if rng.random() < 0.5:
            cells[0] = None                          # a missing first row
    rows = list(zip(*cols))
    return columns, rows


EXTREMES = np.array([-1.7976931348623157e308, -1e308, -3e300, -1.0, -5e-324, 0.0,
                     5e-324, 2.2250738585072014e-308, 1.0, 3e300, 1e308,
                     1.7976931348623157e308])


def fuzz_table(rng):
    """(columns, rows) of random width and kinds: continuous columns drawn from
    normals, ties, a constant or extreme finite magnitudes, categorical and
    binary columns (sometimes with a third value or a constant), and missing
    feature cells.  Rows 0-3 are complete and carry both target labels, so
    any DataError comes from a feature column."""
    n = int(rng.integers(4, 40))
    columns, cols = [], []
    for j in range(int(rng.integers(1, 6))):
        kind = ("continuous", "categorical", "binary")[int(rng.integers(3))]
        columns.append(ColumnSpec(f"{kind[0]}{j}", kind))
        if kind == "continuous":
            draw = int(rng.integers(4))
            if draw == 0:
                cells = rng.normal(0, 3, n)
            elif draw == 1:
                cells = rng.integers(-2, 3, n).astype(float)
            elif draw == 2:
                cells = np.full(n, rng.choice(EXTREMES))
            else:
                cells = rng.choice(rng.choice(EXTREMES, int(rng.integers(2, 6)),
                                              replace=False), n)
            if rng.random() < 0.3:
                cells = np.where(rng.random(n) < 0.3, rng.choice(EXTREMES, n), cells)
            cells = cells.tolist()
        else:
            labels = ["a", "b", "c", "d"][: (2 if kind == "binary" else 4)]
            if rng.random() < 0.15:
                labels = labels[:1] if rng.random() < 0.5 else ["a", "b", "c"]
            cells = rng.choice(labels, n).tolist()
        for i in np.flatnonzero(rng.random(n) < 0.15):
            if i >= 4:
                cells[i] = None
        cols.append(cells)
    columns.append(ColumnSpec("label", "binary", "target"))
    cols.append(["bad", "good", "bad", "good"] + rng.choice(["bad", "good"], n - 4).tolist())
    return columns, list(zip(*cols))


def assert_discretized_equal(data, policy, expected):
    """``discretize(data, policy)`` equals the oracle's codes, bin counts and
    target, on the rows (``row_ids``) that ``resolve_missing`` keeps."""
    codes, bin_counts, target, row_ids = expected
    dd = discretize(data, policy)
    assert np.array_equal(dd.feature_codes, codes)
    assert np.array_equal(dd.bin_counts, bin_counts)
    assert np.array_equal(dd.target, target)
    assert np.array_equal(resolve_missing(data, policy).row_ids, row_ids)


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------

class TestPrimitives:
    @pytest.mark.parametrize("seed", range(30))
    def test_first_appearance_and_mode_match_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 60))
        labels = rng.choice(["A", "B", "C", "D"][: int(rng.integers(1, 5))], size=n).tolist()
        codes, nb = first_appearance_codes(labels)
        want, want_nb = oracle_first_appearance_codes(labels)
        assert np.array_equal(codes, want) and nb == want_nb
        ints = rng.integers(-3, 3, n).tolist()
        assert np.array_equal(first_appearance_codes(ints)[0],
                              oracle_first_appearance_codes(ints)[0])
        assert column_mode(labels) == oracle_column_mode(labels)
        floats = rng.integers(0, 3, n).astype(float).tolist()
        assert column_mode(floats) == oracle_column_mode(floats)

    def test_mode_of_equal_floats_is_the_first_seen(self):
        assert str(column_mode([-0.0, 0.0, 1.0, 0.0])) == "-0.0"
        assert str(oracle_column_mode([-0.0, 0.0, 1.0, 0.0])) == "-0.0"


class TestDiscretizeOracle:
    @pytest.mark.parametrize("policy", POLICIES,
                             ids=lambda p: f"{p.method}-{p.missing_policy}")
    @pytest.mark.parametrize("seed", range(8))
    def test_full_and_shuffled_subsets(self, policy, seed):
        rng = np.random.default_rng(seed)
        columns, rows = random_table(rng, int(rng.integers(40, 160)))
        data = dataset_from_rows(columns, rows, name="r")
        ids = np.arange(len(rows))
        assert_discretized_equal(data, policy, oracle_discretize(columns, rows, ids, policy))

        for _ in range(3):                           # subsets in shuffled row order
            pos = rng.permutation(len(rows))[: int(rng.integers(len(rows) // 2, len(rows)))]
            sub_rows = [rows[i] for i in pos]
            if len({row[-1] for row in sub_rows}) < 2:
                continue
            assert_discretized_equal(data.subset(pos), policy,
                                     oracle_discretize(columns, sub_rows, ids[pos], policy))

    @pytest.mark.parametrize("policy", POLICIES[:3], ids=lambda p: p.missing_policy)
    def test_resolve_missing_rows_match_oracle(self, policy):
        rng = np.random.default_rng(99)
        columns, rows = random_table(rng, 120, missing_rate=0.15)
        pos = rng.permutation(120)[:90]
        got = resolve_missing(dataset_from_rows(columns, rows).subset(pos), policy)
        want_rows, want_ids = oracle_resolve_missing(columns, [rows[i] for i in pos],
                                                     pos, policy)
        assert got.rows == want_rows
        assert np.array_equal(got.row_ids, want_ids)

    def test_missing_first_row_takes_the_mode_code(self):
        cols = [ColumnSpec("c", "categorical"), ColumnSpec("y", "binary", "target")]
        rows = [(None, "0"), ("Z", "1"), ("A", "0"), ("A", "1"), ("Z", "0"), ("A", "1")]
        dd = discretize(dataset_from_rows(cols, rows), DiscretizationPolicy())
        assert dd.feature_codes[:, 0].tolist() == [0, 1, 0, 0, 1, 0]   # None -> mode "A"

    def test_target_matches_oracle_on_subsets(self):
        rng = np.random.default_rng(5)
        columns, rows = random_table(rng, 80)
        data = dataset_from_rows(columns, rows)
        pos = rng.permutation(80)[:50]
        assert np.array_equal(binary_target(data.subset(pos)),
                              oracle_binary_target(columns, [rows[i] for i in pos]))


class TestDiscretizeFuzz:
    def test_named_error_or_ordered_dense_codes_matching_oracle(self):
        # Every outcome is a DataError naming a feature column, or dense codes
        # that keep value order within each continuous column and equal the
        # row-wise oracle's.
        rng = np.random.default_rng(2027)
        outcomes = {"codes": 0, "error": 0}
        for _ in range(120):
            columns, rows = fuzz_table(rng)
            data = dataset_from_rows(columns, rows)
            ids = np.arange(len(rows))
            for policy in POLICIES:
                try:
                    dd = discretize(data, policy)
                except DataError as exc:
                    assert any(repr(c.name) in str(exc) for c in columns[:-1]), exc
                    outcomes["error"] += 1
                    continue
                outcomes["codes"] += 1
                assert_discretized_equal(data, policy,
                                         oracle_discretize(columns, rows, ids, policy))
                kept = resolve_missing(data, policy).row_ids
                for j, spec in enumerate(columns[:-1]):
                    codes = dd.feature_codes[:, j]
                    assert np.array_equal(np.unique(codes), np.arange(dd.bin_counts[j]))
                    if spec.kind != "continuous":
                        continue
                    assert dd.bin_counts[j] <= policy.n_bins
                    present = {(rows[i][j], int(c)) for i, c in zip(kept, codes)
                               if rows[i][j] is not None}
                    assert len(present) == len({v for v, _ in present})   # ties share
                    by_value = [c for _, c in sorted(present)]
                    assert by_value == sorted(by_value)
        assert min(outcomes.values()) > 50, outcomes


class TestEncoderOracle:
    @pytest.mark.parametrize("encoding", ["one-hot", "code-as-ordinal"])
    @pytest.mark.parametrize("seed", range(10))
    def test_design_matrices_match_oracle(self, encoding, seed):
        rng = np.random.default_rng(100 + seed)
        columns, rows = random_table(rng, int(rng.integers(60, 200)))
        perm = rng.permutation(len(rows))
        data = dataset_from_rows(columns, rows).subset(perm)
        shuffled = [rows[i] for i in perm]
        n, m = data.n_samples, data.n_features
        rare = data.column_index("c_rare")
        # keep "RARE" out of training so the test split sees an unseen category
        pool = [i for i in rng.permutation(n) if shuffled[i][rare] != "RARE"]
        train = pool[: int(0.7 * len(pool))]
        test = [i for i in range(n) if i not in set(train)]
        selected = sorted(rng.choice(m, size=int(rng.integers(1, m + 1)), replace=False))

        encoder = DesignEncoder(data, list(selected), encoding).fit(train)
        want_train, want_test = oracle_encode(columns, shuffled, selected, train, test,
                                              encoding)
        assert np.array_equal(encoder.transform(train), want_train)
        assert np.array_equal(encoder.transform(test), want_test)

    @pytest.mark.parametrize("encoding", ["one-hot", "code-as-ordinal"])
    def test_fit_on_subset_transform_subset_of_it(self, encoding):
        rng = np.random.default_rng(7)
        columns, rows = random_table(rng, 150)
        data = dataset_from_rows(columns, rows)
        train = sorted(rng.choice(150, size=90, replace=False).tolist())
        inner = [train[i] for i in rng.permutation(len(train))[:40]]
        selected = list(range(data.n_features))

        encoder = DesignEncoder(data, selected, encoding).fit(train)
        _, want = oracle_encode(columns, rows, selected, train, inner, encoding)
        assert np.array_equal(encoder.transform(inner), want)

    @pytest.mark.parametrize("encoding", ["one-hot", "code-as-ordinal"])
    @pytest.mark.parametrize("seed", range(8))
    def test_union_slice_equals_own_encoder(self, encoding, seed):
        # c_const is a zero-width one-hot block; c_rare may be one when its
        # rare label misses the training rows
        rng = np.random.default_rng(300 + seed)
        columns, rows = random_table(rng, int(rng.integers(60, 200)))
        data = dataset_from_rows(columns, rows)
        n, m = data.n_samples, data.n_features
        train = rng.choice(n, size=int(0.7 * n), replace=False)
        encoded = rng.permutation(n)[: int(rng.integers(1, n + 1))]
        members = rng.choice(m, size=int(rng.integers(1, m + 1)), replace=False)
        union = DesignEncoder(data, list(members), encoding).fit(train)
        X = union.transform(encoded)
        for _ in range(6):
            selected = list(rng.choice(members, size=int(rng.integers(1, members.size + 1)),
                                       replace=False))
            own = DesignEncoder(data, selected, encoding).fit(train).transform(encoded)
            assert np.array_equal(X[:, union.columns(selected)], own)

    def test_all_missing_categorical_training_column_is_named(self):
        cols = [ColumnSpec("c", "categorical"), ColumnSpec("y", "binary", "target")]
        data = dataset_from_rows(cols, [(None, "0"), (None, "1"), ("A", "0")])
        with pytest.raises(DataError, match="column 'c' all-missing in training split"):
            DesignEncoder(data, [0]).fit([0, 1])


class TestRowsView:
    @pytest.mark.parametrize("block_cells", [9, 1 << 14])
    def test_load_csv_rows_round_trip(self, tmp_path, monkeypatch, block_cells):
        monkeypatch.setattr(ingest, "PARSE_BLOCK_CELLS", block_cells)
        rng = np.random.default_rng(11)
        columns, rows = random_table(rng, 50)
        path = tmp_path / "t.csv"
        path.write_text("".join(
            ",".join("?" if v is None else repr(v) if isinstance(v, float) else v
                     for v in row) + "\n" for row in rows))
        data = load_csv(path, columns)
        assert data.rows == rows
        assert data.rows is not data.rows                # rebuilt, never stored
        assert np.array_equal(data.row_ids, np.arange(50))
        assert_discretized_equal(
            data, POLICIES[0], oracle_discretize(columns, rows, np.arange(50), POLICIES[0]))

    def test_rows_is_read_only(self):
        data = dataset_from_rows([ColumnSpec("y", "binary", "target")], [("0",), ("1",)])
        with pytest.raises(AttributeError):
            data.rows = []
