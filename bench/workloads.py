"""The benchmark's workloads: inputs made from a seed, the CLI call, the output check.

Each workload writes its input files into a fresh directory and returns the
argument list for one ``qpfs.cli.main`` call; the program sees only those
files.  ``observe`` reads back what the call wrote, in the form recorded in
``expected.json`` at the reference commit.  README.md says why each workload exists.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

KKT_TOL = 1e-6           # qpfs.qp.KKT_TOL at the reference commit
N_METHODS = 6


def uci_like_writer():
    """``write_uci_like_files`` from the test suite, imported, not copied."""
    spec = importlib.util.spec_from_file_location(
        "qpfs_test_conftest", ROOT / "tests" / "conftest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.write_uci_like_files


class Tables:
    """``qpfs reproduce`` on UCI-shaped German (1000x20) and Australian (690x14)."""

    def __init__(self, name: str, strict: bool, why: str, layer_metrics: tuple):
        self.name = name
        self.strict = strict
        self.why = why
        self.layer_metrics = layer_metrics

    def prepare(self, work: Path, seed: int, small: bool = False) -> list[str]:
        n_german, n_australian = (260, 220) if small else (1000, 690)
        uci_like_writer()(work / "data", n_german=n_german,
                          n_australian=n_australian, seed=seed)
        argv = ["reproduce", "--data-dir", str(work / "data"), "--out", str(work / "out")]
        return argv + ["--strict"] if self.strict else argv

    def observe(self, work: Path) -> dict:
        """Digest of every error rate in results.json, exact to the last bit.

        Only the per-method reports are digested (floats round-trip exactly
        through JSON), so run metadata added to the file later does not
        count as a changed result.
        """
        payload = json.loads((work / "out" / "results.json").read_text())
        rates = {
            dataset: {method: [r["k"], r["test_error"], r["type1_error"],
                               r["type2_error"], r["per_fold"]]
                      for method, r in reports.items()}
            for dataset, reports in payload["datasets"].items()
        }
        for dataset, reports in rates.items():
            if len(reports) != N_METHODS:
                raise ValueError(f"{dataset}: {len(reports)} methods, expected {N_METHODS}")
            for method, (_, *errors, _) in reports.items():
                if not all(0.0 <= e <= 1.0 for e in errors):
                    raise ValueError(f"{dataset}/{method}: error rate outside [0, 1]")
        canonical = json.dumps(rates, sort_keys=True).encode()
        return {"results_sha256": hashlib.sha256(canonical).hexdigest()}

    def matches(self, observed: dict, expected: dict) -> bool:
        return observed == expected


class Wide:
    """``qpfs select --method quadratic`` on a continuous table, n=600, m=300."""

    name = "wide"
    why = ("m=300 features with latent-factor redundancy: one large Q build"
           " (44,850 pairs) and the only sizeable QP solve; no evaluation")
    layer_metrics = (
        "ingest.load_csv_s", "ingest.discretize_s",
        "infotheory.redundancy_s", "infotheory.redundancy_calls", "infotheory.pairs",
        "infotheory.relevance_s",
        "qp.assemble_s", "qp.solve_s", "qp.solve_calls", "qp.solve_iterations",
        "pipeline.select_features_s", "cli.self_s",
    )

    @staticmethod
    def shape(small: bool) -> tuple[int, int, int]:
        """(rows, features, k): k stays below the QP support of every recorded seed."""
        return (200, 40, 5) if small else (600, 300, 10)

    @staticmethod
    def table(seed: int, n: int, m: int) -> tuple[np.ndarray, np.ndarray]:
        """Latent-factor features: each loads on one of m/10 factors, half of
        which drive the label.  Features sharing a factor are redundant, so
        the QP support holds roughly one feature per informative factor."""
        rng = np.random.default_rng(seed)
        n_factors = m // 10
        z = rng.normal(size=(n, n_factors))
        w = np.zeros(n_factors)
        w[: n_factors // 2] = rng.uniform(0.5, 1.5, n_factors // 2)
        eta = 2.0 * (z @ w) / np.sqrt((w ** 2).sum())
        y = (rng.random(n) < 1.0 / (1.0 + np.exp(-eta))).astype(int)
        x = np.empty((n, m))
        for j in range(m):
            x[:, j] = (rng.uniform(0.5, 1.5) * z[:, j % n_factors]
                       + rng.normal(0.0, rng.uniform(0.3, 1.0), n))
        return x, y

    def prepare(self, work: Path, seed: int, small: bool = False) -> list[str]:
        n, m, k = self.shape(small)
        x, y = self.table(seed, n, m)
        work.mkdir(parents=True, exist_ok=True)
        lines = [",".join([*(format(v, ".6g") for v in row), str(label)])
                 for row, label in zip(x.tolist(), y.tolist())]
        (work / "wide.csv").write_text("\n".join(lines) + "\n")
        schema = [f"f{j} continuous feature" for j in range(m)]
        (work / "wide.schema").write_text(
            "\n".join(schema + ["label binary target positive=1"]) + "\n")
        return ["select", "--data", str(work / "wide.csv"),
                "--schema", str(work / "wide.schema"),
                "--method", "quadratic", "--k", str(k), "--out", str(work / "out")]

    def observe(self, work: Path) -> dict:
        """Top-k feature names, and the support size (weights above KKT_TOL)."""
        selection = (work / "out" / "selection.txt").read_text().splitlines()[1:]
        weights = (work / "out" / "weights.txt").read_text().splitlines()[1:]
        selected = [line.split("\t")[0] for line in selection]
        weight_of = {name: float(w) for name, w, _ in (line.split("\t") for line in weights)}
        if abs(sum(weight_of.values()) - 1.0) > 1e-9 or min(weight_of.values()) < 0.0:
            raise ValueError("weights are not on the simplex")
        if any(weight_of[name] <= KKT_TOL for name in selected):
            raise ValueError("a selected feature lies outside the QP support")
        return {"selected": selected,
                "support": sum(1 for w in weight_of.values() if w > KKT_TOL)}

    def matches(self, observed: dict, expected: dict) -> bool:
        # The support beyond the top k holds round-off-level weights that a
        # different solver may drop; only the top k is pinned.
        return observed["selected"] == expected["selected"]


_TABLE_LAYERS = (
    "ingest.load_csv_s", "ingest.discretize_s", "ingest.discretize_calls",
    "ingest.discretize_distinct_ratio",
    "baselines.relieff_s", "baselines.cfs_s", "baselines.mrmr_greedy_s",
    "baselines.information_gain_s", "baselines.max_rel_s",
    "evaluation.evaluate_self_s", "evaluation.encode_s",
    "evaluation.train_logistic_s", "evaluation.train_logistic_calls",
    "pipeline.select_features_s", "pipeline.select_features_calls", "cli.self_s",
)

WORKLOADS = {
    w.name: w for w in (
        Tables("tables", strict=False,
               why="the paper's headline run: reproduce, 6 methods x 10 folds;"
                   " time is in evaluation and ReliefF, Q and the QP barely run",
               layer_metrics=_TABLE_LAYERS),
        Tables("tables-strict", strict=True,
               why="reproduce --strict: selection repeats in every fold, so"
                   " discretize and Q run many times on few distinct inputs",
               layer_metrics=_TABLE_LAYERS + (
                   "infotheory.redundancy_s", "infotheory.redundancy_calls",
                   "infotheory.redundancy_distinct_ratio", "infotheory.relevance_s")),
        Wide(),
    )
}


def expected_for(workload: str, seed: int) -> dict | None:
    """The output recorded at the reference commit for this seed, if there is one."""
    recorded = json.loads(EXPECTED_PATH.read_text()) if EXPECTED_PATH.exists() else {}
    return recorded.get("outputs", {}).get(workload, {}).get(str(seed))
