"""Benchmark workloads and the scenario each request of a run simulates.

A run is a closed loop of requests. One request builds one world from a
scenario file plus overrides and runs it to the horizon (for a study
workload, one whole `run_sweep`). The scenario seed of every request comes
from a pool of POOL_SIZE seeds whose expected rows are recorded under
`expected/`, so every request is checked byte for byte.

How much host time a transmission costs depends on the topology a seed
draws: sparse, partitioned fields flood less and cost less per
transmission. So `request_seeds` stratifies the pool by the recorded
transmission count and visits one seed of every stratum per round; every
run then simulates the same mix of cheap and dear topologies, and `--seed`
picks which members and in what order.
"""

import json
import random
from dataclasses import asdict, dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
EXPECTED_DIR = BENCH_DIR / "expected"

POOL_SIZE = 64
STRATA = 8


@dataclass(frozen=True)
class Study:
    """A `run_sweep` plan over the workload's scenario."""

    axis: str
    values: tuple[str, ...]
    protocols: tuple[str, ...]
    replications: int
    jobs: int


@dataclass(frozen=True)
class Workload:
    scenario: str                       # file under scenarios/
    overrides: dict = field(default_factory=dict)
    study: Study | None = None
    trace_requests: int = 1             # requests a traced run simulates
    # Requests in flight at once. Two keep both cores of the reference box
    # busy, and host noise on the two cores is nearly independent, so two
    # lanes average it out; a study already runs two pool workers.
    lanes: int = 2


WORKLOADS = {
    # Broadcast-heavy radio: RREQ floods go through Radio.broadcast ->
    # neighbors -> position_at_time; the gpsr layer is idle.
    "stage1-aodv": Workload("stage1_load.scn",
                            {"protocol": "aodv", "duration_s": 150.0}),
    # Unicast-heavy radio: per-hop unicasts plus beacons, no floods;
    # planarize_gg, perimeter_next_hop and fresh() lead, aodv is idle.
    "stage1-gpsr": Workload("stage1_load.scn",
                            {"protocol": "gpsr", "duration_s": 150.0},
                            trace_requests=2),
    # 100 nodes always mid-leg: beacons with ~25 receivers each, so the
    # O(N) neighbors scan and position lookups lead.
    "dense-crp": Workload("stage2_mobility.scn",
                          {"protocol": "crp", "n_nodes": 100, "duration_s": 20.0},
                          trace_requests=2),
    # The only workload through the process pool: pause {0, 40} x
    # {aodv, gpsr, crp} cells on two workers.
    "study-pause": Workload("stage2_mobility.scn", {"duration_s": 50.0},
                            study=Study("pause", ("0", "40"),
                                        ("aodv", "gpsr", "crp"), 1, 2),
                            trace_requests=2, lanes=1),
}

# The three 500 s seed-42 stage-1 runs whose rows the ROADMAP pins.
REFERENCE = {
    f"reference-{proto}": Workload("stage1_load.scn", {"protocol": proto})
    for proto in ("aodv", "gpsr", "crp")
}
REFERENCE_SEED = 42


def lookup(name: str) -> Workload:
    if name in WORKLOADS:
        return WORKLOADS[name]
    return REFERENCE[name]


def request_seeds(seed: int, expected: dict[int, list[str]]) -> list[int]:
    """Scenario seeds in the order a run with `--seed seed` simulates them.

    The pool is ranked by the transmissions of its recorded rows and cut
    into STRATA strata; round r visits the r-th member of each shuffled
    stratum in a shuffled order. Scenario seed `seed % POOL_SIZE` leads, so
    `--seed 42` starts with the ROADMAP reference seed.
    """
    rng = random.Random(seed)
    ranked = sorted(range(POOL_SIZE), key=lambda s: (transmissions(expected[s]), s))
    size = POOL_SIZE // STRATA
    strata = [ranked[i:i + size] for i in range(0, POOL_SIZE, size)]
    first = seed % POOL_SIZE
    for stratum in strata:
        rng.shuffle(stratum)
        if first in stratum:
            stratum.remove(first)
            stratum.insert(0, first)
    order = []
    for r in range(size):
        round_ = [stratum[r] for stratum in strata]
        rng.shuffle(round_)
        if r == 0:
            round_.remove(first)
            round_.insert(0, first)
        order += round_
    return order


def transmissions(rows: list[str]) -> int:
    """transmissions_total summed over result rows (column 11 of the CSV)."""
    return sum(int(row.split(",")[10]) for row in rows)


def describe(wl: Workload) -> dict:
    """The inputs a recorded row depends on, stored beside the rows."""
    return {"scenario": wl.scenario, "overrides": wl.overrides,
            "study": asdict(wl.study) if wl.study else None}


def expected_path(name: str) -> Path:
    return EXPECTED_DIR / f"{name}.json"


def load_expected(name: str) -> dict[int, list[str]]:
    """Recorded rows per scenario seed; refuses rows recorded for other inputs."""
    data = json.loads(expected_path(name).read_text())
    recorded = data["workload"]
    current = json.loads(json.dumps(describe(lookup(name))))
    if recorded != current:
        raise ValueError(f"{name}: expected rows were recorded for {recorded}, "
                         f"but the workload is now {current}")
    return {int(seed): rows for seed, rows in data["rows"].items()}
