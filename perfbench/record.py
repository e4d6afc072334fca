"""Record the expected rows of every workload, one file per workload.

    python3 perfbench/record.py [WORKLOAD ...]

Runs each scenario seed of the pool through the same child process a
benchmark request uses and writes perfbench/expected/<workload>.json. Rows
are the byte-identity reference for every later run, so record them only
from a commit whose rows are known to be right.
"""

import json
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from run import REQUEST_TIMEOUT_S, run_child  # noqa: E402
from workloads import POOL_SIZE, WORKLOADS, describe, expected_path  # noqa: E402


def record(name: str) -> None:
    wl = WORKLOADS[name]

    def one(seed):
        result, err = run_child(name, seed, False, REQUEST_TIMEOUT_S)
        if err is not None:
            raise RuntimeError(f"{name} scenario seed {seed}: {err}")
        return result["rows"]

    with ThreadPoolExecutor(max_workers=wl.lanes) as pool:
        rows = dict(zip(range(POOL_SIZE), pool.map(one, range(POOL_SIZE))))
    data = {"workload": describe(wl),
            "rows": {str(seed): r for seed, r in rows.items()}}
    expected_path(name).write_text(json.dumps(data, indent=1) + "\n")
    print(f"{name}: {POOL_SIZE} scenario seeds recorded")


if __name__ == "__main__":
    for name in sys.argv[1:] or sorted(WORKLOADS):
        record(name)
