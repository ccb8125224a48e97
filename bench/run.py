"""qpfs benchmark driver.

    python3 bench/run.py --workload {tables,tables-strict,wide} --seed N \\
        --seconds S --trace {0,1}

Runs fresh child processes (bench/child.py) one after another, closed loop,
for about S seconds and at least MIN_SAMPLES of them.  Each child builds the
workload's inputs from the seed, then makes one timed ``qpfs.cli.main``
call with BLAS and OpenMP pinned to one thread.  Every output is checked
against the value recorded for that seed at the reference commit named in
expected.json, or, for a seed with no record, against the other children
of the run.

``--trace 0`` reports the end-to-end metrics: medians over the untraced
children.  ``--trace 1`` alternates untraced and traced children and
reports the per-layer metrics (medians over the traced children) plus the
tracing overhead.  Human-readable lines come first; the last line is one
JSON object.  The exit code is 1 when an output is wrong, 2 when the
benchmark cannot run at all (then no result is printed).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_ROOT = ROOT / ".bench_work"      # inputs and outputs of the children; removed after use
sys.path.insert(0, str(BENCH_DIR))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

MIN_SAMPLES = 3           # untraced children per run
MIN_TRACED = 2            # traced children per --trace 1 run
CHILD_TIMEOUT_S = 120
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                  "MKL_NUM_THREADS": "1", "BLIS_NUM_THREADS": "1",
                  "VECLIB_MAXIMUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1"}
END_TO_END = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


class BenchmarkError(Exception):
    """The benchmark itself cannot run here; no result is printed."""


def run_child(workload: str, seed: int, work: Path, trace: bool) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "child.py"), "--workload", workload,
           "--seed", str(seed), "--work", str(work)] + (["--trace"] if trace else [])
    proc = subprocess.run(cmd, env=dict(os.environ, **PINNED_THREADS), cwd=ROOT,
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchmarkError(f"child failed (exit {proc.returncode}):\n{proc.stderr[-2000:]}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        raise BenchmarkError(f"child printed no result: {exc}") from exc


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def collect(workload: str, seed: int, seconds: float, trace: bool):
    """Closed loop of children; traced ones alternate with untraced when tracing.

    Once the minimum counts are met, a child starts only if one more child,
    as long as the last one took, still ends within ``seconds``.
    """
    samples: list[tuple[bool, dict]] = []
    started = time.perf_counter()
    while True:
        traced = trace and len(samples) % 2 == 1
        work = Path(tempfile.mkdtemp(dir=WORK_ROOT))
        t0 = time.perf_counter()
        try:
            samples.append((traced, run_child(workload, seed, work, traced)))
        finally:
            shutil.rmtree(work, ignore_errors=True)
        now = time.perf_counter()
        untraced = sum(1 for t, _ in samples if not t)
        enough = untraced >= MIN_SAMPLES and (not trace or len(samples) - untraced >= MIN_TRACED)
        if enough and now + (now - t0) - started > seconds:
            return samples


def failures(name: str, reference: dict | None, samples: list[tuple[bool, dict]]) -> list[str]:
    """Why each failed sample failed; one entry per failed sample.

    ``reference`` is the output recorded for this seed; without one, every
    child must agree with the first that produced an output.
    """
    workload = workloads.WORKLOADS[name]
    if reference is None:
        observed = [s["observed"] for _, s in samples if s["observed"] is not None]
        reference = observed[0] if observed else None
    problems = []
    for traced, sample in samples:
        if sample["error"]:
            problems.append(sample["error"])
        elif not workload.matches(sample["observed"], reference):
            problems.append(f"output {sample['observed']} differs from {reference}")
        elif traced and (sample["trace"]["maxima"].get("qp.kkt_residual_max", 0.0)
                         > workloads.KKT_TOL):
            problems.append("KKT residual above tolerance")
    return problems


def per_layer(samples: list[tuple[bool, dict]]) -> dict[str, float]:
    traced = [s for t, s in samples if t]
    untraced = [s for t, s in samples if not t]
    summaries = [tracing.layer_metrics(s["trace"]) for s in traced]
    metrics = {key: statistics.median(m[key] for m in summaries) for key in summaries[0]}
    metrics["trace.wall_s"] = statistics.median(s["wall_s"] for s in traced)
    metrics["trace.overhead_s"] = (metrics["trace.wall_s"]
                                   - statistics.median(s["wall_s"] for s in untraced))
    return metrics


def report(name: str, seed: int, samples, trace: bool) -> tuple[dict, list[str]]:
    """Print every metric by name and unit; return the result object and the failures.

    End-to-end metrics always come from the untraced children; with tracing,
    the per-layer metrics follow and are the ones the result object carries.
    """
    reference = workloads.expected_for(name, seed)
    problems = failures(name, reference, samples)
    print(f"workload {name}  seed {seed}  samples {len(samples)}  reference "
          + ("recorded at the reference commit" if reference else "none, children must agree"))
    print("env " + json.dumps(samples[0][1]["env"], sort_keys=True))
    print(f"error_rate {len(problems)}/{len(samples)}")
    for problem in problems:
        print(f"  failed: {problem}")

    untraced = [s for t, s in samples if not t]
    metrics = {}
    for key, unit in END_TO_END.items():
        values = [s[key] for s in untraced]
        q1, median, q3 = quartiles(values)
        print(f"{key:<40} {median:.6g} {unit}  (q1 {q1:.6g}, q3 {q3:.6g},"
              f" max {max(values):.6g}, n {len(values)})")
        metrics[key] = {"value": median, "unit": unit}
    if trace:
        values = per_layer(samples)
        metrics = {key: {"value": values[key], "unit": spec[0]}
                   for key, spec in tracing.PER_LAYER.items()}
        for key, entry in metrics.items():
            print(f"{key:<40} {entry['value']:.6g} {entry['unit']}")
    result = {"correct": not problems, "attempted": len(samples),
              "failed": len(problems), "metrics": metrics}
    return result, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="qpfs end-to-end and per-layer benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        for needed in (ROOT / "src" / "qpfs" / "cli.py", ROOT / "tests" / "conftest.py"):
            if not needed.is_file():
                raise BenchmarkError(f"{needed.relative_to(ROOT)} is missing;"
                                     " run from a full checkout")
        WORK_ROOT.mkdir(exist_ok=True)
        try:
            samples = collect(args.workload, args.seed, args.seconds, bool(args.trace))
        finally:
            try:
                WORK_ROOT.rmdir()
            except OSError:          # not empty: another run is using it
                pass
    except (BenchmarkError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    result, problems = report(args.workload, args.seed, samples, bool(args.trace))
    print(json.dumps(result))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
