"""Metamorphic whole-run relations: twin worlds that must give one result.

A metamorphic relation links two runs whose outputs must agree where no
expected output is known (Chen, Cheung & Yiu, HKUST-CS98-01, 1998).
`tests/test_differential.py` compares twin implementations of one world;
these relations compare twin worlds, so they also catch a fault that every
implementation shares. Each compares the row, `transmissions_by_kind`,
`diagnostics`, the flood log and the hop log.

- **Scaling by a power of two.** Multiplying `area_width`, `area_height`,
  `radio_range` and `speed_mps` by 2 or by 0.5 scales every coordinate and
  distance exactly in binary floating point, and leaves every travel time
  and angle as it was. So every protocol must give the same result. A
  distance constant written into a protocol would break this.
- **Swapping the axes.** Swapping x and y in every leg of the built traces
  mirrors the world about its diagonal. Every distance stays the same, so
  aodv, crp and gpsr_greedy_only must give the same result. gpsr is left
  out: the mirror turns its face walk's right-hand rule into a left-hand
  one, so its perimeter hops differ. `tests/reference_geometry.py` checks
  the walk's handedness.

The draws are the fuzz test's runnable scenarios and the stage-2 pause
ladder, both at short horizons.
"""

import dataclasses
import os
from collections import Counter

import pytest

from manet_lab.engine import Engine, build_traces
from manet_lab.errors import ValidationError
from manet_lab.geometry import Position
from manet_lab.mobility import Leg, WaypointTrace
from manet_lab.scenario import PROTOCOLS, load_scenario, validate_scenario

from test_differential import outcome, runnable_fuzz_draws

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios")

# Protocols whose decisions read only distances, never a turning direction.
MIRROR_SAFE = ("aodv", "crp", "gpsr_greedy_only")


def run(sc, traces=None):
    return outcome(Engine(sc, traces=traces, record_hops=True))


def scaled(sc, factor):
    """sc with every length and the speed times factor."""
    return dataclasses.replace(
        sc, area_width=sc.area_width * factor, area_height=sc.area_height * factor,
        radio_range=sc.radio_range * factor, speed_mps=sc.speed_mps * factor)


def mirrored(sc):
    """sc with its area's sides swapped, and the traces sc builds mirrored
    about the line x = y."""
    def mirror(p):
        return Position(p.y, p.x)
    traces = [WaypointTrace(trace.duration,
                            [Leg(leg.depart_at, mirror(leg.start), mirror(leg.end),
                                 leg.arrive_at) for leg in trace.legs])
              for trace in build_traces(sc)]
    return dataclasses.replace(sc, area_width=sc.area_height,
                               area_height=sc.area_width), traces


def twin_worlds(sc):
    """(relation, scenario, traces) for each twin world of sc: both scaled
    twins that validate, and the mirror for a protocol that allows it."""
    for factor in (2.0, 0.5):
        twin = scaled(sc, factor)
        try:
            validate_scenario(twin)
        except ValidationError:
            continue
        yield f"scaling by {factor}", twin, None
    if sc.protocol in MIRROR_SAFE:
        yield ("swapping the axes", *mirrored(sc))


def assert_twin_worlds_agree(sc) -> list[str]:
    """Run sc and each of its twin worlds; returns the relations checked."""
    base = run(sc)
    relations = []
    for relation, twin, traces in twin_worlds(sc):
        assert run(twin, traces) == base, f"{relation} changed {sc}"
        relations.append(relation)
    return relations


def test_fuzz_draws_agree_with_twin_worlds():
    checked = Counter()
    for sc in runnable_fuzz_draws():
        for relation in assert_twin_worlds_agree(sc):
            checked[relation, sc.protocol] += 1
    for protocol in PROTOCOLS:
        for factor in (2.0, 0.5):
            assert checked[f"scaling by {factor}", protocol] >= 10, checked
    for protocol in MIRROR_SAFE:
        assert checked["swapping the axes", protocol] >= 10, checked


@pytest.mark.parametrize("pause", [0.0, 10.0, 20.0, 40.0])
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_pause_ladder_agrees_with_twin_worlds(pause, protocol):
    base = load_scenario(os.path.join(SCENARIO_DIR, "stage2_mobility.scn"))
    # Every node's initial rest ends before the horizon.
    sc = dataclasses.replace(base, protocol=protocol, seed=5, pause_s=pause,
                             duration_s=max(15.0, pause + 5.0),
                             jitter_max_s=0.002, aodv_hello=pause == 10.0)
    relations = assert_twin_worlds_agree(sc)
    assert len(relations) == (3 if protocol in MIRROR_SAFE else 2)
