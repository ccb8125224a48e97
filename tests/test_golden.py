"""The CLI's exit codes, stdout and artifacts match the recorded digests (golden.json).

Re-record with ``tests/record_golden.py`` only in a change that names every
moved entry and why.
"""

import json

import numpy as np

import record_golden


def test_cli_runs_match_the_golden_record():
    golden = json.loads(record_golden.GOLDEN_PATH.read_text())
    recorded, observed = golden["entries"], record_golden.digests()
    moved = [f"{case}: {item}"
             for case in sorted(set(recorded) | set(observed))
             for item in sorted(set(recorded.get(case, {})) | set(observed.get(case, {})))
             if recorded.get(case, {}).get(item) != observed.get(case, {}).get(item)]
    assert not moved, (
        f"{len(moved)} digests moved (recorded with numpy {golden['numpy']},"
        f" running numpy {np.__version__}):\n" + "\n".join(moved))
