"""Shared fixtures: synthetic datasets, oracle helpers, real-data discovery.

The two UCI credit files are not shipped; tests that reproduce published
numbers look for them under $QPFS_DATA_DIR (default ./data) and skip with
a pointer to `qpfs fetch` when absent.  No test reaches the network:
`urllib.request.urlopen` raises `URLError` for every test.
"""

from __future__ import annotations

import os
import urllib.error
import urllib.request
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from qpfs.ingest import ColumnSpec, Dataset, DiscretizedDataset, equal_frequency_codes

# ---------------------------------------------------------------------------
# Network guard
# ---------------------------------------------------------------------------

@pytest.fixture(autouse=True)
def no_network(monkeypatch):
    """Make every download fail as it would offline, before any socket opens."""
    def offline(url, *args, **kwargs):
        raise urllib.error.URLError(f"network disabled in tests: {url}")
    monkeypatch.setattr(urllib.request, "urlopen", offline)


# ---------------------------------------------------------------------------
# Real-data discovery
# ---------------------------------------------------------------------------

def data_dir() -> Path:
    return Path(os.environ.get("QPFS_DATA_DIR", "data"))


def require_dataset(key: str) -> Path:
    from qpfs.fetch import SOURCES
    path = data_dir() / SOURCES[key].filename
    if not path.exists():
        pytest.skip(
            f"{SOURCES[key].filename} not present under {data_dir()}/;"
            " run `qpfs fetch` (or place the UCI file there) to enable"
            " published-number reproduction tests"
        )
    return path


@pytest.fixture(scope="session")
def german_dataset():
    from qpfs.cli import packaged_schema_text
    from qpfs.ingest import load_csv, parse_schema_text
    path = require_dataset("german")
    schema = parse_schema_text(packaged_schema_text("german"), source="<german>")
    return load_csv(path, schema, delimiter=None, name="german")


@pytest.fixture(scope="session")
def australian_dataset():
    from qpfs.cli import packaged_schema_text
    from qpfs.ingest import load_csv, parse_schema_text
    path = require_dataset("australian")
    schema = parse_schema_text(packaged_schema_text("australian"), source="<australian>")
    return load_csv(path, schema, delimiter=None, name="australian")


# ---------------------------------------------------------------------------
# Synthetic data builders
# ---------------------------------------------------------------------------

def dataset_from_rows(columns: list[ColumnSpec], rows, name: str = "") -> Dataset:
    """Dataset over row tuples of ``float`` / ``str`` / ``None`` cells (None is missing).

    Categorical, binary and target cells are coded in first-appearance
    order, as ``load_csv`` codes a file.
    """
    cells = list(zip(*rows)) or [()] * len(columns)
    if len(cells) != len(columns):
        raise ValueError(f"rows have {len(cells)} cells, schema has {len(columns)} columns")
    arrays, categories = [], []
    for spec, column in zip(columns, cells):
        if spec.kind == "continuous":
            arrays.append(np.array([np.nan if v is None else v for v in column],
                                   dtype=np.float64))
            categories.append(())
        else:
            index: dict = {}
            codes = [-1 if v is None else index.setdefault(v, len(index)) for v in column]
            arrays.append(np.array(codes, dtype=np.int64))
            categories.append(tuple(index))
    return Dataset(columns, arrays, categories, name=name)


def synthetic_credit_dataset(seed: int = 0, n: int = 400, name: str = "synth") -> Dataset:
    """Mixed-kind dataset with known structure: informative, redundant, noise.

    Feature layout: x0 continuous informative; x1 continuous copy of x0
    plus small noise (redundant); x2 continuous noise; c0 categorical
    informative; c1 categorical noise; b0 binary informative.
    """
    rng = np.random.default_rng(seed)
    y = (rng.random(n) < 0.35).astype(int)
    x0 = 1.4 * y + rng.normal(0, 1, n)
    x1 = x0 + rng.normal(0, 0.2, n)
    x2 = rng.normal(0, 1, n)
    c0 = np.where(rng.random(n) < 0.25 + 0.5 * y, "P", np.where(rng.random(n) < 0.5, "Q", "R"))
    c1 = rng.choice(list("ABCD"), size=n)
    b0 = np.where(rng.random(n) < 0.2 + 0.4 * y, "t", "f")
    columns = [
        ColumnSpec("x0", "continuous"),
        ColumnSpec("x1", "continuous"),
        ColumnSpec("x2", "continuous"),
        ColumnSpec("c0", "categorical"),
        ColumnSpec("c1", "categorical"),
        ColumnSpec("b0", "binary"),
        ColumnSpec("label", "binary", "target", positive_label="1"),
    ]
    rows = [
        (float(x0[i]), float(x1[i]), float(x2[i]), str(c0[i]), str(c1[i]),
         str(b0[i]), str(y[i]))
        for i in range(n)
    ]
    return dataset_from_rows(columns, rows, name=name)


SYNTH_SCHEMA_TEXT = """\
x0 continuous feature
x1 continuous feature
x2 continuous feature
c0 categorical feature
c1 categorical feature
b0 binary feature
label binary target positive=1
"""


def write_synthetic_files(tmp_path: Path, seed: int = 0, n: int = 400):
    """Synthetic dataset as comma-separated file + schema file on disk."""
    data = synthetic_credit_dataset(seed=seed, n=n)
    lines = []
    for row in data.rows:
        cells = [format(v, ".6g") if isinstance(v, float) else str(v) for v in row]
        lines.append(",".join(cells))
    data_path = tmp_path / "synth.csv"
    data_path.write_text("\n".join(lines) + "\n")
    schema_path = tmp_path / "synth.schema"
    schema_path.write_text(SYNTH_SCHEMA_TEXT)
    return data_path, schema_path


def write_uci_like_files(dir_path: Path, n_german: int = 1000, n_australian: int = 690,
                         seed: int = 20130101):
    """Synthetic stand-ins shaped exactly like the two UCI files.

    Same column kinds, delimiters, label alphabets, and row counts as the
    real files (configurable down for speed), with a planted signal so the
    selectors have something to find.  For pipeline/CLI mechanics only;
    published-number tests always use the real data.
    """
    from qpfs.cli import packaged_schema_text
    from qpfs.ingest import parse_schema_text

    rng = np.random.default_rng(seed)
    dir_path = Path(dir_path)
    dir_path.mkdir(parents=True, exist_ok=True)

    def synth_rows(schema, n, bad_fraction, bad_label, good_label):
        y = (rng.random(n) < bad_fraction).astype(int)
        columns = []
        for spec in schema:
            if spec.role == "target":
                columns.append(np.where(y == 1, bad_label, good_label))
            elif spec.kind == "continuous":
                signal = rng.uniform(0, 1.5)
                vals = np.round(np.abs(signal * y * 3 + rng.normal(3, 2, n)), 2)
                columns.append(vals.astype(str))
            elif spec.kind == "binary":
                flip = rng.random(n) < rng.uniform(0.05, 0.45)
                bit = (y ^ flip) if rng.random() < 0.5 else rng.integers(0, 2, n)
                columns.append(np.where(bit == 1, "yes", "no"))
            else:
                levels = int(rng.integers(3, 6))
                base = rng.integers(0, levels, n)
                informative = rng.random() < 0.6
                if informative:
                    shift = (rng.random(n) < 0.5 * y).astype(int)
                    base = np.minimum(base + shift, levels - 1)
                columns.append(np.array([f"V{v}" for v in base]))
        return [" ".join(str(col[i]) for col in columns) for i in range(n)]

    german_schema = parse_schema_text(packaged_schema_text("german"), "<german>")
    australian_schema = parse_schema_text(packaged_schema_text("australian"), "<australian>")
    (dir_path / "german.data").write_text(
        "\n".join(synth_rows(german_schema, n_german, 0.3, "2", "1")) + "\n")
    (dir_path / "australian.dat").write_text(
        "\n".join(synth_rows(australian_schema, n_australian, 0.55, "0", "1")) + "\n")
    return dir_path


def make_dd(codes, target) -> DiscretizedDataset:
    """DiscretizedDataset over given codes, with features named f0, f1, ..."""
    codes = np.asarray(codes)
    return DiscretizedDataset(
        feature_codes=codes,
        target=np.asarray(target),
        bin_counts=codes.max(axis=0) + 1,
        feature_names=[f"f{j}" for j in range(codes.shape[1])],
    )


def random_discretized(rng, n: int = 600, m: int = 8, bins: int = 4,
                       redundancy: float = 0.5) -> DiscretizedDataset:
    """Latent-factor tabular instance: varied relevance, shared-factor redundancy."""
    z = rng.normal(size=n)
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-1.5 * z))).astype(int)
    codes = np.empty((n, m), dtype=np.int64)
    for j in range(m):
        a = rng.uniform(0, 1.2)
        b = rng.uniform(0, redundancy)
        x = a * y + b * z + rng.normal(0, 1, n)
        codes[:, j], _ = equal_frequency_codes(x, bins)
    return make_dd(codes, y)


# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------

def brute_force_mi_bits(counts) -> float:
    """Term-by-term plug-in MI over a counts matrix; independent of qpfs."""
    import math
    counts = [list(map(float, row)) for row in counts]
    total = sum(sum(row) for row in counts)
    mi = 0.0
    for u, row in enumerate(counts):
        for v, cnt in enumerate(row):
            if cnt == 0:
                continue
            puv = cnt / total
            pu = sum(counts[u]) / total
            pv = sum(r[v] for r in counts) / total
            mi += puv * math.log2(puv / (pu * pv))
    return mi


def grid_search_simplex(Q, f, coarse: float = 1e-3) -> tuple[np.ndarray, float]:
    """Brute-force minimizer of 0.5 x'Qx - f'x over the simplex, m in {2, 3}.

    Coarse grid at the given step, refined locally in two stages down to
    1e-6. Vectorized but entirely independent of the package solver.
    """
    Q = np.asarray(Q, float)
    f = np.asarray(f, float)
    m = f.shape[0]

    def batch_objective(X):
        return 0.5 * np.einsum("ni,ij,nj->n", X, Q, X) - X @ f

    def best_on(points):
        vals = batch_objective(points)
        i = int(np.argmin(vals))
        return points[i], float(vals[i])

    if m == 2:
        t = np.arange(0.0, 1.0 + coarse / 2, coarse)
        x, _ = best_on(np.stack([t, 1 - t], axis=1))
        for step in (1e-5, 1e-6):
            lo = max(0.0, x[0] - 200 * step)
            hi = min(1.0, x[0] + 200 * step)
            t = np.arange(lo, hi + step / 2, step)
            x, val = best_on(np.stack([t, 1 - t], axis=1))
        return x, val
    if m == 3:
        t = np.arange(0.0, 1.0 + coarse / 2, coarse)
        a, b = np.meshgrid(t, t, indexing="ij")
        keep = a + b <= 1.0 + 1e-12
        pts = np.stack([a[keep], b[keep], 1.0 - a[keep] - b[keep]], axis=1)
        x, _ = best_on(pts)
        for step in (1e-5, 1e-6):
            lo0, hi0 = max(0.0, x[0] - 150 * step), min(1.0, x[0] + 150 * step)
            lo1, hi1 = max(0.0, x[1] - 150 * step), min(1.0, x[1] + 150 * step)
            t0 = np.arange(lo0, hi0 + step / 2, step)
            t1 = np.arange(lo1, hi1 + step / 2, step)
            a, b = np.meshgrid(t0, t1, indexing="ij")
            keep = a + b <= 1.0 + 1e-12
            pts = np.stack([a[keep], b[keep], 1.0 - a[keep] - b[keep]], axis=1)
            x, val = best_on(pts)
        return x, val
    raise ValueError("oracle supports m in {2, 3} only")


def exhaustive_subset_objective(Qv, Fv, k: int):
    """All k-subsets scored by mean pairwise redundancy minus mean relevance."""
    m = Fv.shape[0]
    scored = []
    for S in combinations(range(m), k):
        idx = list(S)
        sub = Qv[np.ix_(idx, idx)]
        redundancy = (sub.sum() - np.trace(sub)) / (k * k)
        scored.append((redundancy - Fv[idx].mean(), S))
    scored.sort(key=lambda t: t[0])
    return scored
