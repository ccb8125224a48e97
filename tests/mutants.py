"""Run the standing mutant list: each mutant must make its tests fail.

    python3 tests/mutants.py            # every mutant
    python3 tests/mutants.py NAME ...   # the named ones

A mutant is one exact text edit of a file and the tests that must catch
it.  For each, the script copies ``src/``, ``tests/``, ``bench/`` (which
``tests/test_bench_record.py`` reads) and ``pyproject.toml`` to a temporary
directory, applies the edit there and runs ``python -m pytest -q -x -p
no:cacheprovider <tests>``; a failing run kills the mutant.  Before any
mutant runs, every selection must pass unedited.  At most two runs go at a
time.  Each mutant is reported as killed or survived, or as equivalent when
it survives and its entry says why no test can kill it; the summary and the
wall time come last.

Exit status: 0 when every mutant is killed or equivalent, 1 when one
survives, 2 when a mutant's old text does not occur exactly once in its
file (checked before anything runs, so the list cannot rot silently) or a
selection fails unedited or collects no tests.  Only the standard library
is used, and pytest does not collect this file.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "bench", "pyproject.toml")
WORKERS = 2
TIMEOUT_S = 600


class Mutant(NamedTuple):
    name: str
    path: str           # relative to the repository root
    old: str            # must occur exactly once in the file
    new: str
    tests: tuple        # pytest arguments
    equivalent: str = ""    # why no test can kill it, if none can


QP, EVALUATION, INGEST = "src/qpfs/qp.py", "src/qpfs/evaluation.py", "src/qpfs/ingest.py"
INFOTHEORY, BASELINES = "src/qpfs/infotheory.py", "src/qpfs/baselines.py"
QP_TESTS = ("tests/test_qp.py", "tests/test_bench_record.py", "tests/test_golden.py")
EVALUATION_TESTS = ("tests/test_evaluation.py", "tests/test_columnar.py", "tests/test_golden.py")
INGEST_TESTS = ("tests/test_ingest.py", "tests/test_columnar.py", "tests/test_remap.py")
INFOTHEORY_TESTS = ("tests/test_infotheory.py", "tests/test_ingest.py")
RELIEFF_TESTS = ("tests/test_baselines.py",)
KKT_MAX = "return max(stationarity, feasibility, complementarity)"
FISTA_EXIT = "kkt_residual(Q, f, x) <= 0.5 * KKT_TOL:"
SIZE_RULE = "if m <= ACTIVE_SET_MAX_M:"
IRLS_STOP = "        if gnorm <= IRLS_GRAD_TOL:\n            return beta\n        w = "

MUTANTS = (
    # QP certificates and solver rule
    Mutant("fista-exit-at-kkt-tol", QP, FISTA_EXIT, "kkt_residual(Q, f, x) <= KKT_TOL:",
           QP_TESTS),
    Mutant("fista-never-stops-early", QP, FISTA_EXIT, "kkt_residual(Q, f, x) < 0.0:",
           ("tests/test_qp.py::TestSolverOrder"
            "::test_projected_gradient_stops_at_half_the_tolerance",)),
    Mutant("fista-no-momentum", QP, "y = x_next + ((t - 1.0) / t_next) * (x_next - x)",
           "y = x_next", QP_TESTS),
    Mutant("fista-4x-step", QP, "step = 1.0 / max(", "step = 4.0 / max(", QP_TESTS),
    Mutant("fista-no-restart", QP, "if (y - x_next) @ (x_next - x) > 0.0:", "if False:",
           QP_TESTS),
    *(Mutant(f"kkt-without-{term}", QP, KKT_MAX,
             KKT_MAX.replace(f"{term}, ", "").replace(f", {term}", ""), QP_TESTS)
      for term in ("stationarity", "feasibility", "complementarity")),
    Mutant("active-set-above-size", QP, SIZE_RULE, "if m >= ACTIVE_SET_MAX_M:", QP_TESTS),
    Mutant("active-set-below-size", QP, SIZE_RULE, "if m < ACTIVE_SET_MAX_M:", QP_TESTS),
    Mutant("fallback-ignores-size", QP,
           ' == "projected-gradient" and self.x.shape[0] <= ACTIVE_SET_MAX_M',
           ' == "projected-gradient"', QP_TESTS),
    Mutant("projection-unshifted", QP, "v = v - v.max()", "v = v + 0.0", QP_TESTS),
    Mutant("alpha-unclamped", QP, "return min(max(alpha, 0.0), 1.0)", "return alpha",
           QP_TESTS),
    Mutant("ranking-ties-by-descending-index", QP, "np.lexsort((idx, -np.asarray(x)))",
           "np.lexsort((-idx, -np.asarray(x)))", QP_TESTS),
    Mutant("ranking-ascending", QP, "np.lexsort((idx, -np.asarray(x)))",
           "np.lexsort((idx, np.asarray(x)))", QP_TESTS),
    # evaluation
    Mutant("irls-no-gradient-stop", EVALUATION, IRLS_STOP,
           IRLS_STOP.replace("IRLS_GRAD_TOL", "0.0"), EVALUATION_TESTS),
    Mutant("design-slice-not-taken", EVALUATION, "train_logistic(X_train.take(cols, axis=1),",
           "train_logistic(X_train[:, cols],", EVALUATION_TESTS),
    Mutant("design-columns-sorted", EVALUATION, "for feature in selected])",
           "for feature in sorted(selected)])", EVALUATION_TESTS),
    Mutant("encoder-missing-cell-not-the-mode", EVALUATION,
           "rank_of[-1] = rank_of[mode]", "pass", EVALUATION_TESTS),
    Mutant("encoder-imputes-the-mean", EVALUATION,
           "vals = np.where(np.isnan(cells), median, cells) / scale",
           "vals = np.where(np.isnan(cells), mean, cells) / scale", EVALUATION_TESTS),
    Mutant("reselect-methods-unchecked", EVALUATION,
           "if fold_selections.keys() != selections.keys():", "if False:",
           ("tests/test_evaluation.py",)),
    # ingest
    Mutant("load-csv-error-names-the-row", INGEST, 'line {numbered[row][0]}: {message}',
           'line {row}: {message}', INGEST_TESTS),
    Mutant("load-csv-error-names-the-first-column", INGEST,
           "in continuous column {spec.name!r}", "in continuous column {schema[0].name!r}",
           INGEST_TESTS),
    Mutant("load-csv-non-number-reads-zero", INGEST, "        return math.inf\n",
           "        return 0.0\n", INGEST_TESTS),
    Mutant("load-csv-reports-the-last-fault", INGEST, "min(faults)", "max(faults)",
           INGEST_TESTS),
    Mutant("load-csv-ragged-row-off-by-one", INGEST, "faults.append((lo + good,",
           "faults.append((lo + good + 1,", INGEST_TESTS),
    Mutant("mode-ties-to-the-last", INGEST, "first[counts == counts.max()].min()",
           "first[counts == counts.max()].max()", INGEST_TESTS),
    Mutant("first-appearance-ranks-sorted", INGEST, "order = np.argsort(first) ",
           "order = np.arange(first.size) ", INGEST_TESTS),
    # infotheory
    Mutant("mi-unclamped", INFOTHEORY, "    out[out < 0.0] = 0.0\n", "", INFOTHEORY_TESTS),
    Mutant("information-writeable", INFOTHEORY, "        values.flags.writeable = False\n", "",
           INFOTHEORY_TESTS),
    Mutant("information-kept-past-its-dataset", INFOTHEORY,
           "_INFORMATION: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()",
           "_INFORMATION: dict = {}", INFOTHEORY_TESTS),
    Mutant("terms-summed-by-reduceat", INFOTHEORY,
           "    for length in np.flatnonzero(np.bincount(lengths)):     # distinct, ascending\n"
           "        same = lengths == length\n"
           "        out[sel[same]] = terms[starts[same][:, None] + np.arange(length)]"
           ".sum(axis=1)\n",
           "    out[sel] = np.add.reduceat(terms, starts)\n", INFOTHEORY_TESTS),
    Mutant("packed-rows-overwritten-not-added", INFOTHEORY,
           "packed[:len(hot) // 2] += PACK * hot[1::2]",
           "np.maximum(packed[:len(hot) // 2], PACK * hot[1::2], out=packed[:len(hot) // 2])",
           INFOTHEORY_TESTS),
    Mutant("single-code-column-sum-in-sequence", INFOTHEORY,
           "pcol = _pairwise_sum(p) if c == 1 else np.add.reduce(p, axis=0)",
           "pcol = np.add.reduce(p, axis=0)", INFOTHEORY_TESTS),
    Mutant("tables-last-divide-in-float32", INFOTHEORY,
           "np.divide(block.transpose(1, 2, 0), float(n), out=p, dtype=np.float64)",
           "np.divide(block.transpose(1, 2, 0), float(n), out=p)", INFOTHEORY_TESTS),
    # ReliefF
    Mutant("relieff-unstable-sort", BASELINES, 'kind="stable")[:, :n_neighbors]',
           'kind="quicksort")[:, :n_neighbors]', RELIEFF_TESTS),
    Mutant("relieff-self-not-last", BASELINES, "rows] = m + 1 ", "rows] = 0 ", RELIEFF_TESTS),
    Mutant("relieff-hits-count-self", BASELINES,
           "n_hits = max(min(n_neighbors, idx.size - 1), 1)", "n_hits = n_neighbors",
           RELIEFF_TESTS),
    Mutant("relieff-block-summed", BASELINES,
           "weights = np.cumsum(np.vstack([weights, (miss - hit) / visit.size]), axis=0)[-1]",
           "weights = weights + ((miss - hit) / visit.size).sum(axis=0)", RELIEFF_TESTS),
    # fetch and cli
    Mutant("fetch-rewrites-a-verified-file", "src/qpfs/fetch.py", "        if download:\n",
           "        if True:\n", ("tests/test_fetch.py",)),
    Mutant("data-dir-default-not-data", "src/qpfs/cli.py", 'DATA_DIR = "data"',
           'DATA_DIR = "."', ("tests/test_cli_flags.py",)),
    # the invariance test itself
    Mutant("permutation-not-mapped-back", "tests/test_invariance.py",
           "return {back[i] if back else i for i in selected}", "return set(selected)",
           ("tests/test_invariance.py", "-k", "permute")),
)


def check_list(mutants) -> list[str]:
    """A line for each mutant whose old text does not occur exactly once."""
    problems = []
    for mutant in mutants:
        count = (ROOT / mutant.path).read_text().count(mutant.old)
        if count != 1:
            problems.append(f"{mutant.name}: old text occurs {count} times in {mutant.path}")
    return problems


def run_pytest(tests, mutant: Mutant | None = None) -> tuple[int, list, float]:
    """(pytest exit status, output tail, seconds) of ``tests`` on a fresh copy
    of the tree with ``mutant`` applied."""
    with tempfile.TemporaryDirectory(prefix="qpfs-mutant-") as tmp:
        work = Path(tmp)
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(source, work / name,
                                ignore=shutil.ignore_patterns("__pycache__", "*.pyc"))
            else:
                shutil.copy2(source, work / name)
        if mutant is not None:
            target = work / mutant.path
            target.write_text(target.read_text().replace(mutant.old, mutant.new))
        env = dict(os.environ, PYTHONPATH=str(work / "src"), PYTHONDONTWRITEBYTECODE="1")
        start = time.perf_counter()
        try:
            done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x",
                                   "-p", "no:cacheprovider", *tests],
                                  cwd=work, env=env, capture_output=True, text=True,
                                  timeout=TIMEOUT_S)
            status, output = done.returncode, done.stdout + done.stderr
        except subprocess.TimeoutExpired:
            status, output = -1, f"timed out after {TIMEOUT_S} s"
        return status, output.strip().splitlines()[-1:], time.perf_counter() - start


def main(argv: list[str]) -> int:
    unknown = set(argv) - {mutant.name for mutant in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    mutants = [mutant for mutant in MUTANTS if not argv or mutant.name in argv]
    problems = check_list(mutants)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 2

    start = time.perf_counter()
    selections = list(dict.fromkeys(mutant.tests for mutant in mutants))
    with ThreadPoolExecutor(WORKERS) as pool:
        for tests, (status, tail, _) in zip(selections, pool.map(run_pytest, selections)):
            if status != 0:
                print(f"unedited tree fails {' '.join(tests)}: {' '.join(tail)}",
                      file=sys.stderr)
                return 2
        results = pool.map(lambda mutant: run_pytest(mutant.tests, mutant), mutants)
        survived = equivalent = errors = 0
        for mutant, (status, tail, seconds) in zip(mutants, results):
            if status == 0 and mutant.equivalent:
                verdict = "equivalent"
                equivalent += 1
            elif status == 0:
                verdict = "SURVIVED"
                survived += 1
            elif status in (1, -1):         # a failing test, or a run past the timeout
                verdict = "killed"
            else:                           # collection error, no tests, usage
                verdict = f"error {status}"
                errors += 1
            print(f"{verdict:10s} {mutant.name:40s} {seconds:6.1f} s  {' '.join(tail)}",
                  flush=True)
    killed = len(mutants) - survived - equivalent - errors
    print(f"{len(mutants)} mutants: {killed} killed, {equivalent} equivalent, {survived}"
          f" survived, {errors} errors in {time.perf_counter() - start:.0f} s")
    return 2 if errors else 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
