"""Reproduce the three 500 s seed-42 stage-1 rows that ROADMAP.md pins.

    python3 perfbench/reference.py

Runs aodv, gpsr and crp on scenarios/stage1_load.scn at seed 42 to the full
500 s horizon, two at a time, and compares each row byte for byte with
perfbench/expected/reference-<protocol>.json (copied from ROADMAP.md).
Exits 1 if any row differs or any run fails. Takes about half a minute on
two cores.
"""

import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from run import Run  # noqa: E402
from workloads import REFERENCE, REFERENCE_SEED  # noqa: E402


def main() -> int:
    runs = [Run(name) for name in REFERENCE]
    with ThreadPoolExecutor(max_workers=2) as pool:
        results = list(pool.map(lambda r: r.request(REFERENCE_SEED, trace=False), runs))
    failed = 0
    for run, result in zip(runs, results):
        if result is None:
            failed += 1
            print(f"FAILED {run.name}: {run.failures[0]}")
        else:
            print(f"ok {run.name} ({result['wall_s']:.1f} s): {result['rows'][0]}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
