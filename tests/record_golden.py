"""Record the CLI golden digests that ``test_golden.py`` checks (golden.json).

    PYTHONPATH=src python3 tests/record_golden.py

Runs every case of ``cases()`` through ``qpfs.cli.main`` in-process on
``write_uci_like_files`` data, and on the first seed also on a copy of its
files with gaps (``?`` cells), and stores a SHA-256 of each case's exit
code, stdout and artifact files, with the numpy version that produced them.
Re-record only in a change that names every moved entry and why.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from conftest import write_uci_like_files
from qpfs import cli
from qpfs.fetch import SOURCES
from qpfs.ingest import parse_schema_text
from qpfs.pipeline import METHODS, Q_DIAGONALS

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"

# (data seed, German rows, Australian rows).  The sizes keep the whole record
# to a few seconds of tier-1; the second seed is smaller still so that the
# two seeds also differ in shape.
DATA = ((1, 200, 160), (7, 120, 100))
GAP_RATE = 0.03         # the share of feature cells a gapped copy sets to "?"

# The runs on the gapped copy, each a default run plus these flags: every
# missing policy, equal-width binning, and the evaluation settings that the
# other cases leave at their defaults.
GAP_CASES = (
    ("select", "german", ("--missing", "impute-median")),
    ("select", "german", ("--missing", "impute-mode")),
    ("select", "german", ("--missing", "drop-row")),
    ("select", "german", ("--binning", "equal-width")),
    ("evaluate", "australian", ("--missing", "drop-row")),
    ("evaluate", "australian", ("--encoding", "code-as-ordinal")),
    ("evaluate", "australian", ("--error-convention", "good-positive")))


def with_gaps(data_dir: Path, gapped_dir: Path, seed: int) -> Path:
    """A copy of ``data_dir``'s two files in which a seeded ``GAP_RATE`` share
    of the feature cells reads ``?``; the target column keeps every label."""
    rng = np.random.default_rng(seed)
    gapped_dir.mkdir(parents=True)
    for name, source in SOURCES.items():
        schema = parse_schema_text(cli.packaged_schema_text(name), f"<{name}>")
        feature = np.array([spec.role == "feature" for spec in schema])
        rows = []
        for line in (data_dir / source.filename).read_text().splitlines():
            cells = np.array(line.split(), dtype=object)
            cells[feature & (rng.random(cells.size) < GAP_RATE)] = "?"
            rows.append(" ".join(cells))
        (gapped_dir / source.filename).write_text("\n".join(rows) + "\n")
    return gapped_dir


def cases(data_dir: Path, out_dir: Path, gapped_dir: Path | None = None):
    """(name, argv, artifact directory) for every recorded CLI run on one data
    set, and for the ``GAP_CASES`` on its gapped copy when one is given."""
    data = ["--data-dir", str(data_dir)]
    for q_diagonal in Q_DIAGONALS:
        q = ["--q-diagonal", q_diagonal]
        for method in METHODS:
            for command, dataset in (("select", "german"), ("evaluate", "australian")):
                name = f"{command} {dataset} {method} q={q_diagonal}"
                out = out_dir / name.replace(" ", "_")
                yield name, [command, "--name", dataset, *data, "--method", method,
                             *q, "--out", str(out)], out
        for dataset in ("german", "australian"):
            name = f"inspect {dataset} q={q_diagonal}"
            out = out_dir / name.replace(" ", "_")
            yield name, ["inspect", "--name", dataset, *data, *q, "--out", str(out)], out
        for strict in ((), ("--strict",)):
            name = " ".join(["reproduce", *strict, f"q={q_diagonal}"])
            out = out_dir / name.replace(" ", "_")
            yield name, ["reproduce", *data, *q, *strict, "--out", str(out)], out
    for command, dataset, flags in GAP_CASES if gapped_dir is not None else ():
        name = f"{command} {dataset} gaps {flags[0][2:]}={flags[1]}"
        out = out_dir / name.replace(" ", "_")
        yield name, [command, "--name", dataset, "--data-dir", str(gapped_dir), *flags,
                     "--out", str(out)], out


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digests() -> dict[str, dict[str, str]]:
    """``{"<case> seed=<s>": {"exit": ..., "stdout": ..., "<artifact>": ...}}``.

    The temporary directory is replaced by ``<tmp>`` in stdout, so the
    digests do not depend on where the run happened.
    """
    record: dict[str, dict[str, str]] = {}
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for seed, n_german, n_australian in DATA:
            data_dir = write_uci_like_files(root / f"data{seed}", n_german=n_german,
                                            n_australian=n_australian, seed=seed)
            gapped_dir = (with_gaps(data_dir, root / f"gaps{seed}", seed)
                          if seed == DATA[0][0] else None)
            for name, argv, out in cases(data_dir, root / f"out{seed}", gapped_dir):
                stdout = io.StringIO()
                with contextlib.redirect_stdout(stdout):
                    code = cli.main(argv)
                entry = {"exit": sha256(str(code).encode()),
                         "stdout": sha256(stdout.getvalue().replace(tmp, "<tmp>").encode())}
                for path in sorted(out.iterdir()) if out.is_dir() else ():
                    entry[path.name] = sha256(path.read_bytes())
                record[f"{name} seed={seed}"] = entry
    return record


def main() -> int:
    golden = {"numpy": np.__version__, "entries": digests()}
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"{len(golden['entries'])} cases written to {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
