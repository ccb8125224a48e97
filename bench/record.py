"""Record the reference outputs the benchmark checks against (expected.json).

    python3 bench/record.py [SEED ...]

Runs one untraced child per workload and seed and stores what it observed.
Run it only at a commit whose outputs are known to be right; the file names
the commit it was recorded at.  With no seeds, records DEFAULT_SEEDS.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run
import workloads

DEV_SEED = 1          # the seed used while developing a change
HOLDOUT_SEED = 4242   # never used in development; confirms a claim afterwards
DEFAULT_SEEDS = (*range(64), 100, 123, 1000, 1234, 2024, 12345, HOLDOUT_SEED, 20130101)


def main(argv: list[str]) -> int:
    seeds = [int(s) for s in argv] or list(DEFAULT_SEEDS)
    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=run.ROOT,
                            capture_output=True, text=True).stdout.strip()
    path = workloads.EXPECTED_PATH
    recorded = json.loads(path.read_text()) if path.exists() else {"outputs": {}}
    recorded.update(commit=commit, dev_seed=DEV_SEED, holdout_seed=HOLDOUT_SEED)
    run.WORK_ROOT.mkdir(exist_ok=True)
    for seed in seeds:
        for name in workloads.WORKLOADS:
            work = Path(tempfile.mkdtemp(dir=run.WORK_ROOT))
            try:
                sample = run.run_child(name, seed, work, trace=False)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            if sample["error"]:
                raise SystemExit(f"{name} seed {seed}: {sample['error']}")
            recorded["outputs"].setdefault(name, {})[str(seed)] = sample["observed"]
            print(f"{name} seed {seed}: {sample['observed']}", flush=True)
        path.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    run.WORK_ROOT.rmdir()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
