"""One benchmark sample in a fresh interpreter: set up, then one timed CLI call.

    python3 bench/child.py --workload NAME --seed N --work DIR [--trace] [--small]

Set-up (``setup_s``) is importing qpfs and writing the workload's inputs,
timed from the first statement of this file.  The CLI call is timed alone
(``wall_s``), with its user+system CPU time.  Prints one JSON object.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
sys.path.insert(0, str(SRC))
if str(BENCH_DIR) not in sys.path:
    sys.path.insert(0, str(BENCH_DIR))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def environment() -> dict:
    """Interpreter, numpy and BLAS versions, core count, thread settings."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {key: os.environ.get(key) for key in
               ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "nproc": len(os.sched_getaffinity(0)), "threads": threads}


def cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def run_sample(name: str, seed: int, work: Path, trace: bool = False,
               small: bool = False, started: float | None = None) -> dict:
    """Set up and make the CLI call once; return timings, outputs and trace summary."""
    started = time.perf_counter() if started is None else started
    import qpfs.cli
    if not Path(qpfs.cli.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"qpfs imported from {qpfs.cli.__file__}, not {SRC}")
    workload = workloads.WORKLOADS[name]
    argv = workload.prepare(work, seed, small)
    setup_s = time.perf_counter() - started

    tracer = tracing.Tracer() if trace else None
    scope = tracer.installed() if tracer else contextlib.nullcontext()
    error = None
    with scope, contextlib.redirect_stdout(io.StringIO()):
        cpu0 = cpu_seconds()
        t0 = time.perf_counter()
        try:
            code = qpfs.cli.main(argv)
        except Exception as exc:    # a crash of the program is a failed operation
            code, error = None, f"{type(exc).__name__}: {exc}"
        wall_s = time.perf_counter() - t0
        cpu_s = cpu_seconds() - cpu0

    observed = None
    if code == 0:
        try:
            observed = workload.observe(work)
        except (OSError, ValueError, KeyError) as exc:
            error = f"unreadable output: {exc}"
    elif error is None:
        error = f"qpfs exited with code {code}"
    return {
        "setup_s": setup_s, "wall_s": wall_s, "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "error": error, "observed": observed,
        "trace": tracer.summary() if tracer else None,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True, help="empty directory for inputs and outputs")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--small", action="store_true", help="tiny inputs, for tests")
    args = parser.parse_args()
    sample = run_sample(args.workload, args.seed, Path(args.work), trace=args.trace,
                        small=args.small, started=T_START)
    sample["env"] = environment()
    print(json.dumps(sample))
    return 0


if __name__ == "__main__":
    sys.exit(main())
