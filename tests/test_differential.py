"""Whole runs against plain twins of every shortcut (differential testing).

Each speed-up since the first version kept a cache or a shortcut, and each
has its own exactness test. This file checks them together, over whole
runs: the same scenario runs twice, once as built and once with plain twins
swapped onto the built `Engine` before `run()`, and the two runs must give
the same row, `transmissions_by_kind`, `diagnostics`, flood log and hop
log. The twins drop every shortcut:

- `PlainRadio` reads every node's `position_at` on every broadcast (no
  per-instant snapshot, no rest state, no moving node interpolated on a
  leg the radio stored, no resting-neighbor lists, `dist` of Positions in
  place of `math.dist` of tuples) and schedules one arrival per receiver,
  each with its own `clone` of the packet (no shared read-only packet),
  so each broadcast reception is its own call to the protocol's `hear`
  (no batched hearing of all receivers in one call);
- each geographic node gets a neighbor table whose `fresh` always purges
  and sorts, and a `planar_view` that always runs `planarize_gg`;
- each reactive core gets a `seen` window of infinity, so it never
  forgets a flood.

Protocols read `engine.radio` and their own attributes at each call, so the
swap needs nothing from `src/`. The draws are the fuzz test's runnable
scenarios, the stage-2 pause ladder and hand-built traces whose phase
changes fall on the microsecond of a send; every protocol runs with jitter
and aodv with hellos on and off.
"""

import dataclasses
import math
import os
import random

import pytest

from manet_lab.core import PACKET_ARRIVAL, us
from manet_lab.engine import Engine
from manet_lab.errors import ValidationError
from manet_lab.geometry import Position, dist
from manet_lab.gpsr import GpsrNode, planarize_gg
from manet_lab.mobility import Leg, WaypointTrace, position_at
from manet_lab.packets import BEACON, HELLO, RREQ, clone
from manet_lab.radio import DELIVERED, LINK_FAILURE
from manet_lab.scenario import Scenario, load_scenario

from conftest import VOID_D, VOID_POSITIONS, VOID_S, VOID_U3, cbr
from test_fuzz import N_SCENARIOS, draw_scenario
from test_gpsr import UncachedTable

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios")


class PlainRadio:
    """The unit-disk radio with no snapshot, no rest state and no shared
    arrivals. It draws jitter from the engine's stream in the same order as
    the radio (one draw per receiver, in id order), so both runs see the
    same delays."""

    def __init__(self, engine: Engine):
        sc = engine.scenario
        self.range = sc.radio_range
        self.bandwidth = sc.bandwidth_bps
        self.proc_us = us(sc.processing_delay_s)
        self.jitter_max_s = sc.jitter_max_s
        self.jittered = us(sc.jitter_max_s) > 0
        self.traces = engine.traces
        self.sim = engine.sim
        self.metrics = engine.metrics
        self.rng = engine.rng_jitter

    def tx_delay_us(self, size_bytes):
        return us(size_bytes * 8 / self.bandwidth)

    def arrival_at(self, t, pkt):
        at = t + self.tx_delay_us(pkt.size_bytes) + self.proc_us
        if self.jittered:
            at += us(self.rng.uniform(0.0, self.jitter_max_s))
        return at

    def neighbors(self, node, t):
        positions = [position_at(trace, t) for trace in self.traces]
        here = positions[node]
        return [other for other, p in enumerate(positions)
                if other != node and dist(here, p) <= self.range]

    def broadcast(self, sender, pkt):
        t = self.sim.now
        self.metrics.record_transmission(pkt.kind)
        receivers = self.neighbors(sender, t)
        for receiver in receivers:
            self.sim.schedule(self.arrival_at(t, pkt), PACKET_ARRIVAL,
                              (clone(pkt), sender, (receiver,)))
        return receivers

    def unicast(self, sender, next_hop, pkt):
        t = self.sim.now
        self.metrics.record_transmission(pkt.kind)
        if dist(position_at(self.traces[sender], t),
                position_at(self.traces[next_hop], t)) > self.range:
            return LINK_FAILURE
        self.sim.schedule(self.arrival_at(t, pkt), PACKET_ARRIVAL,
                          (pkt, sender, (next_hop,)))
        return DELIVERED


def plain_twin(engine: Engine) -> Engine:
    """Swap the plain twins onto a built engine that has not run."""
    engine.radio = PlainRadio(engine)
    for proto in engine.protocols:
        if hasattr(proto, "nbrs"):
            proto.nbrs = UncachedTable(proto.nbrs.timeout_us)
        if isinstance(proto, GpsrNode):
            proto.planar_view = planarize_gg
        if hasattr(proto, "core"):
            proto.core._seen_window = math.inf
    return engine


def outcome(engine: Engine):
    row = engine.run()
    m = engine.metrics
    return (row.to_csv_row(), dict(m.transmissions_by_kind), dict(m.diagnostics),
            engine.flood_log, engine.hop_log)


def assert_twins_agree(sc, traces=None, streams=None):
    built = outcome(Engine(sc, traces=traces, streams=streams, record_hops=True))
    plain = outcome(plain_twin(Engine(sc, traces=traces, streams=streams,
                                      record_hops=True)))
    for name, a, b in zip(("row", "transmissions_by_kind", "diagnostics",
                           "flood_log", "hop_log"), built, plain):
        assert a == b, f"{name} differs for {sc}"


# Half the fuzz test's horizon: the twins run three to six times slower
# than the built engine, and the whole file must stay under a minute.
HORIZON_S = 10.0


def runnable_fuzz_draws():
    """The fuzz test's draws that validate, cut to HORIZON_S."""
    rng = random.Random(2026)
    for _ in range(N_SCENARIOS):
        try:  # making a Scenario validates it
            sc = draw_scenario(rng)
        except ValidationError:
            continue
        yield dataclasses.replace(sc, duration_s=min(sc.duration_s, HORIZON_S))


def test_fuzz_draws_match_plain_twins():
    ran = 0
    for sc in runnable_fuzz_draws():
        assert_twins_agree(sc)
        ran += 1
    assert ran > N_SCENARIOS // 5


# Every protocol at every pause with jitter off and on; aodv runs hellos at
# pause 10 and 40, so it meets all four jitter and hello settings.
LADDER = [(pause, protocol, jitter)
          for pause in (0.0, 10.0, 20.0, 40.0)
          for protocol in ("aodv", "gpsr", "crp")
          for jitter in (0.0, 0.002)]


@pytest.mark.parametrize("pause, protocol, jitter", LADDER)
def test_pause_ladder_matches_plain_twins(pause, protocol, jitter):
    base = load_scenario(os.path.join(SCENARIO_DIR, "stage2_mobility.scn"))
    # Every node's initial rest ends 5 s before the horizon, and every
    # stream, started within the first 10 s, runs for 10 s at least.
    duration = max(20.0, pause + 5.0)
    assert_twins_agree(dataclasses.replace(
        base, protocol=protocol, seed=5, duration_s=duration, pause_s=pause,
        jitter_max_s=jitter, aodv_hello=pause in (10.0, 40.0)))


@pytest.mark.parametrize("protocol", ["aodv", "gpsr", "crp"])
def test_hundred_nodes_match_plain_twins(protocol):
    base = load_scenario(os.path.join(SCENARIO_DIR, "stage2_mobility.scn"))
    assert_twins_agree(dataclasses.replace(
        base, protocol=protocol, seed=5, n_nodes=100, duration_s=15.0,
        pause_s=10.0, jitter_max_s=0.002, aodv_hello=True))


@pytest.mark.parametrize("protocol", ["aodv", "crp"])
def test_slow_floods_match_plain_twins(protocol):
    # Up to 50 ms of jitter per hop and 3-hop floods: the last copy of a
    # flood can reach a node far into the seen window after its first
    # sight, where a window too short would let it through again.
    base = load_scenario(os.path.join(SCENARIO_DIR, "stage2_mobility.scn"))
    sc = dataclasses.replace(base, protocol=protocol, seed=5, duration_s=20.0,
                             pause_s=10.0, jitter_max_s=0.05, rreq_ttl=3)
    assert_twins_agree(sc)


# -- phase changes on the instant of a send ---------------------------------
#
# A whole run rarely puts a rest's end, or a jump of a trace, on the very
# microsecond a node beacons or relays a flood, where the radio must read
# the new phase and not the one it kept. These runs build such traces by
# hand on the void topology: every node rests, then one at a time a planned
# node changes phase at the next instant when a send of the wanted kind
# starts. The world before that instant is unchanged, so a probe run of the
# traces planned so far finds the instant, and a last probe checks that
# every planned instant still holds its send.

PHASE_HORIZON_S = 10.0


def phase_trace(duration, here, change):
    """Rest at `here`; with change (t, mode), a jump at t or a rest that
    ends at t with a 4 s leg, either way a fifth of the way to the middle
    of the area, which keeps the void topology connected."""
    legs = [Leg(0, here, here, 0)]
    if change is not None:
        t, mode = change
        there = Position(here.x + (500.0 - here.x) / 5, here.y + (500.0 - here.y) / 5)
        legs.append(Leg(t, here, there, t if mode == "jump" else t + us(4.0)))
    return WaypointTrace(duration, legs)


def phase_traces(sc, plan):
    return [phase_trace(us(sc.duration_s), VOID_POSITIONS[node], plan.get(node))
            for node in range(sc.n_nodes)]


def sends(sc, traces, streams):
    """(instant, kind, sender) of every beacon, hello and flood relay (a
    broadcast whose sender is not the packet's origin) the run sends."""
    engine = Engine(sc, traces=traces, streams=streams)
    broadcast = engine.radio.broadcast
    log = []

    def logged(sender, pkt):
        if pkt.kind in (BEACON, HELLO) or pkt.origin != sender:
            log.append((engine.sim.now, pkt.kind, sender))
        return broadcast(sender, pkt)

    engine.radio.broadcast = logged
    engine.run()
    return log


def plan_phase_changes(sc, streams, wanted):
    """{node: (instant, mode)}: for each (kind, mode) in wanted, a node not
    yet planned changes phase at the first later instant it sends kind."""
    plan = {}
    last = 0
    for kind, mode in wanted:
        log = sends(sc, phase_traces(sc, plan), streams)
        last, _, node = next((t, k, n) for t, k, n in log
                             if t > last and k is kind and n not in plan)
        plan[node] = (last, mode)
    return plan


PHASE_CASES = {
    "aodv": [(HELLO, "jump"), (RREQ, "rest_end"), (RREQ, "jump"),
             (HELLO, "rest_end")],
    "gpsr": [(BEACON, "jump"), (BEACON, "rest_end"), (BEACON, "jump")],
    "crp": [(BEACON, "rest_end"), (RREQ, "jump"), (RREQ, "rest_end"),
            (BEACON, "jump")],
}


@pytest.mark.parametrize("jitter", [0.0, 0.002])
@pytest.mark.parametrize("protocol", sorted(PHASE_CASES))
def test_phase_change_on_a_send_matches_plain_twins(protocol, jitter):
    streams = [cbr(VOID_S, VOID_D, 1.0, 0.25, 9.0), cbr(9, VOID_U3, 1.5, 0.5, 9.0)]
    sc = Scenario(n_nodes=len(VOID_POSITIONS), protocol=protocol,
                  duration_s=PHASE_HORIZON_S, seed=3, pause_s=PHASE_HORIZON_S,
                  n_streams=len(streams), jitter_max_s=jitter,
                  aodv_hello=protocol == "aodv")
    plan = plan_phase_changes(sc, streams, PHASE_CASES[protocol])
    traces = phase_traces(sc, plan)
    log = sends(sc, traces, streams)
    for (kind, _), (node, (t, _)) in zip(PHASE_CASES[protocol], plan.items()):
        assert (t, kind, node) in log
    assert_twins_agree(sc, traces, streams)
