"""Selections follow from the data, not from how the data is written down.

Each selector runs on ``write_uci_like_files`` data and on four rewrites
of it that the math cannot see:

- every categorical and binary feature relabeled: its labels get new
  strings whose sorted order is a random permutation of the old one;
- every continuous feature mapped by 3x + 7;
- every continuous feature mapped by x^3, strictly increasing but not affine;
- the feature columns permuted, with the selection mapped back.

The selected set must not move.  The first three rewrites leave the
discretization byte-identical, which each of their cases checks first; so
every selector, quadratic included, sees the same codes.  Quadratic is left
out of the permutation while its ranking past the QP support orders
round-off-level weights, which a reordered Q can move.
"""

from __future__ import annotations

import json
from importlib import resources

import numpy as np
import pytest

from qpfs.cli import packaged_schema_text
from qpfs.fetch import SOURCES
from qpfs.ingest import discretize, load_csv, parse_schema_text
from qpfs.pipeline import SelectionConfig, select_features

from conftest import write_uci_like_files

METHODS = ("quadratic", "mrmr", "maxrel", "infogain", "relieff", "cfs")
SEEDS = (1, 4242)
TABLES = ("german", "australian")
# The published results, each table's k among them, as ``qpfs reproduce`` reads them.
REFERENCE = json.loads(
    resources.files("qpfs.data").joinpath("reference_errors.json").read_text())


def relabeled(rows, specs, rng):
    """Rows with each categorical and binary feature's labels renamed."""
    rows = [list(row) for row in rows]
    for j, spec in enumerate(specs):
        if spec.role == "feature" and spec.kind != "continuous":
            labels = sorted({row[j] for row in rows})
            codes = rng.permutation(len(labels))
            new = {label: f"L{code}" for label, code in zip(labels, codes)}
            for row in rows:
                row[j] = new[row[j]]
    return rows, specs, None


def mapped(rows, specs, increasing):
    """Rows with every continuous feature x written as ``increasing(x)``."""
    continuous = [j for j, spec in enumerate(specs)
                  if spec.role == "feature" and spec.kind == "continuous"]
    rows = [list(row) for row in rows]
    for row in rows:
        for j in continuous:
            row[j] = repr(increasing(float(row[j])))
    return rows, specs, None


def rescaled(rows, specs, rng):
    """Rows with every continuous feature x written as 3x + 7."""
    return mapped(rows, specs, lambda x: 3.0 * x + 7.0)


def cubed(rows, specs, rng):
    """Rows with every continuous feature x written as x^3."""
    return mapped(rows, specs, lambda x: x ** 3)


def permuted(rows, specs, rng):
    """Rows and schema with the feature columns shuffled; the target stays.

    Also returns, for each new feature index, the original one.
    """
    features = [j for j, spec in enumerate(specs) if spec.role == "feature"]
    shuffled = iter(rng.permutation(features).tolist())
    order = [next(shuffled) if spec.role == "feature" else j for j, spec in enumerate(specs)]
    back = [features.index(order[j]) for j in features]
    return [[row[j] for j in order] for row in rows], [specs[j] for j in order], back


TRANSFORMS = {"relabel": relabeled, "rescale": rescaled, "cube": cubed, "permute": permuted}
# The rewrites under which ``discretize`` must give the same bytes.
SAME_CODES = ("relabel", "rescale", "cube")
CASES = [(method, transform) for transform in TRANSFORMS for method in METHODS
         if transform in SAME_CODES or method != "quadratic"]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """``inputs(seed, table, transform)``: the loaded table and, for a
    permutation, each new feature's original index; each input loaded once."""
    root = tmp_path_factory.mktemp("invariance")
    datasets = {}

    def dataset(seed, table, transform):
        key = (seed, table, transform)
        if key not in datasets:
            source = root / f"data{seed}" / SOURCES[table].filename
            if not source.exists():
                write_uci_like_files(source.parent, seed=seed)
            specs = parse_schema_text(packaged_schema_text(table), table)
            rows = [line.split() for line in source.read_text().splitlines()]
            back = None
            if transform is not None:
                rng = np.random.default_rng([seed, TABLES.index(table)])
                rows, specs, back = TRANSFORMS[transform](rows, specs, rng)
            path = root / f"{seed}-{table}-{transform}.data"
            path.write_text("".join(" ".join(row) + "\n" for row in rows))
            datasets[key] = load_csv(path, specs, delimiter=None, name=table), back
        return datasets[key]

    return dataset


def selection(inputs, seed, table, transform, method):
    """The selected set, in the original feature indices."""
    data, back = inputs(seed, table, transform)
    config = SelectionConfig(method=method, k=REFERENCE[table]["k"])
    selected = select_features(data, config).result.selected
    return {back[i] if back else i for i in selected}


def codes(inputs, seed, table, transform):
    """The bytes of the discretization that every selector reads."""
    dd = discretize(inputs(seed, table, transform)[0], SelectionConfig().policy)
    return dd.feature_codes.tobytes(), dd.target.tobytes()


@pytest.mark.parametrize("method, transform", CASES)
@pytest.mark.parametrize("table", TABLES)
@pytest.mark.parametrize("seed", SEEDS)
def test_selection_is_invariant(inputs, seed, table, method, transform):
    if transform in SAME_CODES:
        assert codes(inputs, seed, table, transform) == codes(inputs, seed, table, None)
    assert (selection(inputs, seed, table, transform, method)
            == selection(inputs, seed, table, None, method))
