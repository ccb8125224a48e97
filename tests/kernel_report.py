"""Report which recorded outputs move under each kernel setting of the build.

    python3 tests/kernel_report.py

A child process runs, first in the default environment and then under each
alternative kernel setting that the running numpy build offers, every
golden case of ``record_golden.digests()`` and every seed recorded in
``bench/expected.json`` through its workload's ``prepare`` ->
``qpfs.cli.main`` -> ``observe`` -> ``matches``.  Per setting, the report
lists the digests that differ from ``tests/golden.json`` and the failing
seeds of each workload.  The alternatives:

- ``OPENBLAS_CORETYPE``: an OpenBLAS core type other than the detected one,
  when numpy's OpenBLAS is built with ``DYNAMIC_ARCH``;
- ``NPY_DISABLE_CPU_FEATURES``: numpy's dispatch targets above the lowest
  one the CPU supports (that one alone, if it is the only one).

A setting the build does not offer is skipped, with the reason.  Only the
children's environment changes, and at most two children run at a time.
``bench/workloads.py`` is imported read-only, as ``trace_paths.py`` does.
Pytest does not collect this file.
"""

from __future__ import annotations

import contextlib
import ctypes
import importlib.util
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_PATH = ROOT / "tests" / "golden.json"
EXPECTED_PATH = ROOT / "bench" / "expected.json"
WORKERS = 2
# OpenBLAS core types to switch to, each with the CPU feature its kernels need
CORE_TYPES = (("Haswell", "AVX2"), ("Sandybridge", "AVX"), ("Prescott", "SSE3"))


def openblas_core() -> str | None:
    """The core type numpy's OpenBLAS detected, or None where it cannot be read."""
    package = Path(np.__file__).parent
    for path in (*package.parent.glob("numpy.libs/*openblas*"),
                 *package.glob(".dylibs/*openblas*")):
        library = ctypes.CDLL(str(path))      # the copy numpy has already loaded
        for symbol in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename",
                       "openblas_get_corename64_", "openblas_get_corename"):
            corename = getattr(library, symbol, None)
            if corename is not None:
                corename.restype = ctypes.c_char_p
                return corename().decode()
    return None


def settings() -> tuple[list[tuple[str, dict]], list[str]]:
    """([(label, environment changes)], [why each absent alternative is absent])."""
    chosen, skipped = [("default", {})], []
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    core = openblas_core()
    if "DYNAMIC_ARCH" not in blas.get("openblas configuration", ""):
        skipped.append(f"OPENBLAS_CORETYPE: {blas.get('name')} is not an OpenBLAS"
                       " built with DYNAMIC_ARCH")
    elif core is None:
        skipped.append("OPENBLAS_CORETYPE: the detected OpenBLAS core type cannot be read")
    else:
        other = next((name for name, feature in CORE_TYPES
                      if name.lower() != core.lower() and __cpu_features__.get(feature)), None)
        if other is None:
            skipped.append(f"OPENBLAS_CORETYPE: no core type other than {core} runs here")
        else:
            chosen.append((f"OPENBLAS_CORETYPE={other}", {"OPENBLAS_CORETYPE": other}))
    dispatch = [target for target in __cpu_dispatch__ if __cpu_features__.get(target)]
    if dispatch:
        disabled = " ".join(reversed(dispatch[1:] or dispatch))
        chosen.append((f"NPY_DISABLE_CPU_FEATURES={disabled!r}",
                       {"NPY_DISABLE_CPU_FEATURES": disabled}))
    else:
        skipped.append("NPY_DISABLE_CPU_FEATURES: the CPU runs no numpy dispatch target"
                       " above the baseline")
    return chosen, skipped


def child() -> dict:
    """The golden digests and each workload's failing seeds in this environment."""
    sys.path.insert(0, str(ROOT / "src"))
    import record_golden
    from qpfs import cli

    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  ROOT / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    expected = json.loads(EXPECTED_PATH.read_text())["outputs"]
    failing, seeds = {}, {}
    for name, workload in workloads.WORKLOADS.items():
        recorded = sorted(expected[name].items(), key=lambda item: int(item[0]))
        failing[name], seeds[name] = [], len(recorded)
        for seed, output in recorded:
            with tempfile.TemporaryDirectory() as tmp:
                argv = workload.prepare(Path(tmp), int(seed))
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(argv)
                try:
                    ok = code == 0 and workload.matches(workload.observe(Path(tmp)), output)
                except ValueError:                  # observe rejects the output
                    ok = False
            if not ok:
                failing[name].append(int(seed))
    return {"core": openblas_core(), "golden": record_golden.digests(),
            "failing": failing, "seeds": seeds}


def run_child(setting: tuple[str, dict]) -> dict:
    label, changes = setting
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", **changes)
    done = subprocess.run([sys.executable, __file__, "--child"], env=env,
                          capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{label}: the child exited {done.returncode}\n{done.stderr}")
    return json.loads(done.stdout)


def main() -> int:
    start = time.perf_counter()
    chosen, skipped = settings()
    golden = json.loads(GOLDEN_PATH.read_text())
    recorded = golden["entries"]
    print(f"numpy {np.__version__} (golden.json: numpy {golden['numpy']}),"
          f" dispatch {' '.join(__cpu_dispatch__)}")
    with ThreadPoolExecutor(WORKERS) as pool:
        for (label, _), result in zip(chosen, pool.map(run_child, chosen)):
            observed = result["golden"]
            moved = [f"{case}: {item}"
                     for case in sorted(set(recorded) | set(observed))
                     for item in sorted(set(recorded.get(case, {}))
                                        | set(observed.get(case, {})))
                     if recorded.get(case, {}).get(item) != observed.get(case, {}).get(item)]
            total = sum(len(entry) for entry in recorded.values())
            print(f"{label} (OpenBLAS core {result['core']}):")
            print(f"  golden: {len(moved)} of {total} digests moved")
            for line in moved:
                print(f"    {line}")
            for name, seeds in result["failing"].items():
                print(f"  {name}: {len(seeds)} of {result['seeds'][name]} seeds fail"
                      + "".join(f" {seed}" for seed in seeds), flush=True)
    for reason in skipped:
        print(f"skipped {reason}")
    print(f"{len(chosen)} settings run, {len(skipped)} skipped,"
          f" in {time.perf_counter() - start:.0f} s")
    return 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--child"]:
        with contextlib.redirect_stdout(sys.stderr):
            result = child()
        print(json.dumps(result))
    else:
        sys.exit(main())
