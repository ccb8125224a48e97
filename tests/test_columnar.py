"""Columnar Dataset against row-wise oracles.

The oracles below are the row-tuple implementations that ``ingest`` and
``evaluation`` used before ``Dataset`` stored columns: ``column_mode``,
``first_appearance_codes``, ``resolve_missing``, ``discretize`` and
``DesignEncoder``.  They read nothing but lists of row tuples, so they pin
the columnar code to the same codes, bin counts, targets, row_ids and
design matrices, bit for bit, on seeded random datasets.
"""

import numpy as np
import pytest

from qpfs import ingest
from qpfs.errors import DataError
from qpfs.evaluation import DesignEncoder
from qpfs.ingest import (ColumnSpec, Dataset, DiscretizationPolicy, binary_target,
                         column_mode, discretize, equal_frequency_codes,
                         equal_width_codes, first_appearance_codes, load_csv,
                         resolve_missing)

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
                fill = float(np.median(np.asarray(present, dtype=float)))
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


def assert_discretized_equal(dd, expected):
    codes, bin_counts, target, row_ids = expected
    assert np.array_equal(dd.feature_codes, codes)
    assert np.array_equal(dd.bin_counts, bin_counts)
    assert np.array_equal(dd.target, target)
    assert np.array_equal(dd.row_ids, row_ids)


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
        data = Dataset(columns, rows, name="r")
        ids = np.arange(len(rows))
        assert_discretized_equal(discretize(data, policy),
                                 oracle_discretize(columns, rows, ids, policy))

        for _ in range(3):                           # subsets in shuffled row order
            pos = rng.permutation(len(rows))[: int(rng.integers(len(rows) // 2, len(rows)))]
            sub_rows = [rows[i] for i in pos]
            if len({row[-1] for row in sub_rows}) < 2:
                continue
            assert_discretized_equal(discretize(data.subset(pos), policy),
                                     oracle_discretize(columns, sub_rows, ids[pos], policy))

    @pytest.mark.parametrize("policy", POLICIES[:3], ids=lambda p: p.missing_policy)
    def test_resolve_missing_rows_match_oracle(self, policy):
        rng = np.random.default_rng(99)
        columns, rows = random_table(rng, 120, missing_rate=0.15)
        pos = rng.permutation(120)[:90]
        got = resolve_missing(Dataset(columns, rows).subset(pos), policy)
        want_rows, want_ids = oracle_resolve_missing(columns, [rows[i] for i in pos],
                                                     pos, policy)
        assert got.rows == want_rows
        assert np.array_equal(got.row_ids, want_ids)

    def test_missing_first_row_takes_the_mode_code(self):
        cols = [ColumnSpec("c", "categorical"), ColumnSpec("y", "binary", "target")]
        rows = [(None, "0"), ("Z", "1"), ("A", "0"), ("A", "1"), ("Z", "0"), ("A", "1")]
        dd = discretize(Dataset(cols, rows), DiscretizationPolicy())
        assert dd.feature_codes[:, 0].tolist() == [0, 1, 0, 0, 1, 0]   # None -> mode "A"

    def test_target_matches_oracle_on_subsets(self):
        rng = np.random.default_rng(5)
        columns, rows = random_table(rng, 80)
        data = Dataset(columns, rows)
        pos = rng.permutation(80)[:50]
        assert np.array_equal(binary_target(data.subset(pos)),
                              oracle_binary_target(columns, [rows[i] for i in pos]))


class TestEncoderOracle:
    @pytest.mark.parametrize("encoding", ["one-hot", "code-as-ordinal"])
    @pytest.mark.parametrize("seed", range(10))
    def test_design_matrices_match_oracle(self, encoding, seed):
        rng = np.random.default_rng(100 + seed)
        columns, rows = random_table(rng, int(rng.integers(60, 200)))
        perm = rng.permutation(len(rows))
        data = Dataset(columns, rows).subset(perm)
        shuffled = [rows[i] for i in perm]
        n, m = data.n_samples, data.n_features
        rare = data.column_index("c_rare")
        # keep "RARE" out of training so the test split sees an unseen category
        pool = [i for i in rng.permutation(n) if shuffled[i][rare] != "RARE"]
        train = pool[: int(0.7 * len(pool))]
        test = [i for i in range(n) if i not in set(train)]
        selected = sorted(rng.choice(m, size=int(rng.integers(1, m + 1)), replace=False))

        encoder = DesignEncoder(data, list(selected), encoding).fit(data, train)
        want_train, want_test = oracle_encode(columns, shuffled, selected, train, test,
                                              encoding)
        assert np.array_equal(encoder.transform(data, train), want_train)
        assert np.array_equal(encoder.transform(data, test), want_test)

    def test_all_missing_categorical_training_column_is_named(self):
        cols = [ColumnSpec("c", "categorical"), ColumnSpec("y", "binary", "target")]
        data = Dataset(cols, [(None, "0"), (None, "1"), ("A", "0")])
        with pytest.raises(DataError, match="column 'c' all-missing in training split"):
            DesignEncoder(data, [0]).fit(data, [0, 1])


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
            discretize(data, POLICIES[0]),
            oracle_discretize(columns, rows, np.arange(50), POLICIES[0]))

    def test_rows_is_read_only(self):
        data = Dataset([ColumnSpec("y", "binary", "target")], [("0",), ("1",)])
        with pytest.raises(AttributeError):
            data.rows = []
