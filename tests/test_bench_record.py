"""The benchmark's `wide` record holds under the package as it stands.

``bench/workloads.py`` is imported read-only: its ``prepare`` writes the
inputs, ``qpfs.cli.main`` runs in-process, and its ``observe`` and
``matches`` check the output against ``bench/expected.json``.  A change to
the QP that breaks the benchmark's correctness check fails here first.
"""

import contextlib
import importlib.util
import io
from pathlib import Path

import pytest

from qpfs import cli

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"


def bench_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH_DIR / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("seed", [1, 7, 58, 59, 4242])
def test_wide_top_k_matches_the_recorded_output(tmp_path, seed):
    workloads = bench_workloads()
    wide = workloads.WORKLOADS["wide"]
    expected = workloads.expected_for("wide", seed)
    assert expected is not None, seed
    argv = wide.prepare(tmp_path, seed)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    observed = wide.observe(tmp_path)
    assert wide.matches(observed, expected), (observed, expected)
