"""Print the statements of ``src/qpfs`` that no recorded run reaches.

    python3 tests/trace_paths.py

Runs every golden case of ``record_golden.cases()`` and the three benchmark
workloads of ``bench/workloads.py`` (seed 1, full size, one in-process
``qpfs.cli.main`` call each) under ``trace.Trace(count=1)``, then lists,
per module, each line that starts a statement's bytecode and never ran,
with the function it belongs to.  ``bench/workloads.py`` is imported
read-only, as ``test_bench_record.py`` does.  The package is imported
inside the traced run, so module-level statements count as reached.
"""

from __future__ import annotations

import contextlib
import dis
import importlib.util
import io
import sys
import tempfile
import trace
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qpfs"
SEED = 1


def run_everything() -> None:
    """Every golden case, then every benchmark workload at ``SEED``."""
    import record_golden
    from qpfs import cli

    record_golden.digests()
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  ROOT / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for name, workload in workloads.WORKLOADS.items():
        with tempfile.TemporaryDirectory() as tmp:
            argv = workload.prepare(Path(tmp), SEED)
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            if code != 0:
                raise SystemExit(f"workload {name} exited {code}")


def statement_lines(path: Path) -> dict[int, str]:
    """{line: qualified name of its function} for each line that starts bytecode."""
    lines: dict[int, str] = {}
    codes = [compile(path.read_text(), str(path), "exec")]
    while codes:
        code = codes.pop()
        for _, line in dis.findlinestarts(code):
            if line:
                lines.setdefault(line, code.co_qualname)
        codes.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    if "qpfs" in sys.modules:
        raise SystemExit("qpfs was imported before the trace started")
    tracer = trace.Trace(count=1, trace=0)
    tracer.runfunc(run_everything)
    reached = {(Path(filename).resolve(), line)
               for filename, line in tracer.results().counts}
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text().splitlines()
        lines = statement_lines(path)
        missed = sorted(line for line in lines if (path, line) not in reached)
        print(f"{path.relative_to(ROOT / 'src')}: {len(missed)} of {len(lines)} "
              f"statement lines unreached")
        for line in missed:
            print(f"  {line:5d}  {lines[line]:<32} {source[line - 1].strip()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
