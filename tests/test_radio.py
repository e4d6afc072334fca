"""Radio primitives: neighbor sets, delays, jitter, and overhead counting."""

import pytest

from manet_lab.core import EventKind, Simulator, rng_stream, us
from manet_lab.geometry import Position, dist
from manet_lab.metrics import RunMetrics
from manet_lab.mobility import position_at
from manet_lab.packets import Packet, PacketKind
from manet_lab.radio import Radio, TxStatus
from manet_lab.scenario import Scenario

from conftest import (random_positions, static_traces, trace_from_waypoints,
                      unit_disk_adj)


def build_radio(positions, config=None, seed=1):
    """Radio over nodes resting at `positions` (ids 0..n-1) for 10 s."""
    sim = Simulator()
    sim.handler = lambda ev: None
    metrics = RunMetrics()
    cfg = config or Scenario()
    radio = Radio(cfg, static_traces(positions, 10.0), sim, metrics,
                  rng_stream(seed, "jitter"))
    return radio, sim, metrics


def record_arrivals(sim):
    """Log (receivers, time) for each event the simulator dispatches."""
    arrivals = []
    sim.handler = lambda ev: arrivals.append((ev.payload[2], sim.now))
    return arrivals


def data_packet(origin=0, dst=1, size=512):
    return Packet(uid=0, kind=PacketKind.DATA, origin=origin, final_dst=dst,
                  created_at=0, ttl=32, size_bytes=size)


def test_boundary_distance_is_neighbor():
    positions = {0: Position(0, 0), 1: Position(250, 0)}
    radio, _, _ = build_radio(positions)
    assert radio.neighbors(0, 0) == [1]
    assert radio.neighbors(1, 0) == [0]


def test_isolated_node_has_no_neighbors():
    positions = {0: Position(0, 0), 1: Position(900, 900)}
    radio, _, _ = build_radio(positions)
    assert radio.neighbors(0, 0) == []


def test_neighbor_symmetry_random():
    # Pairwise brute-force check on 30 random nodes.
    import random
    positions = random_positions(random.Random(4), 30)
    radio, _, _ = build_radio(positions)
    adj = unit_disk_adj(positions)
    for u in positions:
        assert set(radio.neighbors(u, 0)) == adj[u]
    for u in positions:
        for v in radio.neighbors(u, 0):
            assert u in radio.neighbors(v, 0)


@pytest.mark.parametrize("n", [30, 100])
def test_neighbors_equal_brute_force_scan(n):
    # Node 1 sits at exactly the range from node 0 (a 150-200-250 triangle).
    import random
    positions = random_positions(random.Random(n), n)
    positions[0] = Position(300.0, 400.0)
    positions[1] = Position(450.0, 600.0)
    assert dist(positions[0], positions[1]) == 250.0
    radio, _, _ = build_radio(positions)
    for a in range(n):
        expected = [b for b in range(n)
                    if b != a and dist(positions[a], positions[b]) <= 250.0]
        assert radio.neighbors(a, 0) == expected
    assert 1 in radio.neighbors(0, 0) and 0 in radio.neighbors(1, 0)


def test_engine_neighbors_match_brute_force_while_moving():
    # Through the engine's per-instant snapshot, on a 100-node field that
    # never pauses, against pairwise distances of lazily built positions.
    import random
    from manet_lab.engine import Engine
    from manet_lab.mobility import position_at
    from manet_lab.scenario import Scenario
    sc = Scenario(n_nodes=100, duration_s=20.0, pause_s=0.0, seed=7)
    engine = Engine(sc)
    picker = random.Random(7)
    for t in sorted(picker.randrange(engine.duration + 1) for _ in range(10)):
        here = [position_at(trace, t) for trace in engine.traces]
        for a in range(sc.n_nodes):
            expected = [b for b in range(sc.n_nodes)
                        if b != a and dist(here[a], here[b]) <= sc.radio_range]
            assert engine.radio.neighbors(a, t) == expected


def test_tx_delay_values():
    radio, _, _ = build_radio({0: Position(0, 0)})
    assert radio.tx_delay_us(0) == 0
    assert radio.tx_delay_us(512) == 2048  # 512*8 / 2e6 s
    assert radio.tx_delay_us(1024) == 2 * radio.tx_delay_us(512)
    assert radio.tx_delay_us(64) == 256
    assert radio.tx_delay_us(512) == 2048  # the cached value


def test_broadcast_zero_neighbors_still_counts_once():
    positions = {0: Position(0, 0), 1: Position(900, 900)}
    radio, _, metrics = build_radio(positions)
    assert radio.broadcast(0, data_packet()) == []
    assert metrics.transmissions_total == 1


def test_broadcast_receive_time_no_jitter():
    # 512 B at 2 Mb/s is 2.048 ms on the air plus 1 ms processing.
    positions = {0: Position(0, 0), 1: Position(100, 0), 2: Position(0, 100)}
    radio, sim, _ = build_radio(positions)
    arrivals = []
    sim.handler = lambda ev: arrivals.append((ev.payload[2], sim.now, ev.kind))
    assert radio.broadcast(0, data_packet()) == [1, 2]
    expected = us(0.002048) + us(0.001)
    # one arrival event carries every receiver, in id order
    sim.run_until(us(1))
    assert arrivals == [((1, 2), expected, EventKind.PACKET_ARRIVAL)]


def test_broadcast_jitter_range_and_spread():
    positions = {i: Position(0, i) for i in range(21)}
    config = Scenario(jitter_max_s=0.005)
    radio, sim, _ = build_radio(positions, config=config)
    arrivals = record_arrivals(sim)
    base = us(0.002048) + us(0.001)
    for _ in range(50):  # 50 broadcasts x 20 receivers = 1000 draws
        assert radio.broadcast(0, data_packet()) == list(range(1, 21))
    sim.run_until(us(1))
    assert all(len(receivers) == 1 for receivers, _ in arrivals)
    times = [t for _, t in arrivals]
    assert len(times) == 1000
    assert all(base <= t <= base + us(0.005) for t in times)
    assert len(set(times)) > 1, "per-receiver jitter should spread arrivals"


def test_unicast_in_range_delivers():
    positions = {0: Position(0, 0), 1: Position(200, 0)}
    radio, sim, _ = build_radio(positions)
    arrivals = record_arrivals(sim)
    outcome = radio.unicast(0, 1, data_packet())
    assert outcome.status is TxStatus.DELIVERED
    sim.run_until(us(1))
    assert arrivals == [((1,), us(0.002048) + us(0.001))]


def test_unicast_out_of_range_fails_synchronously():
    positions = {0: Position(0, 0), 1: Position(251, 0)}
    radio, sim, metrics = build_radio(positions)
    outcome = radio.unicast(0, 1, data_packet())
    assert outcome.status is TxStatus.LINK_FAILURE
    assert metrics.transmissions_total == 1  # the attempt consumed the channel
    assert sim.run_until(us(1)) == 0  # nothing was scheduled


def test_mobile_receiver_outcome_decided_at_send_time():
    # Node 1 drifts away through the range boundary at 1 m/s; the verdict
    # follows the distance at the send instant, not at would-be receive time.
    traces = [trace_from_waypoints(10.0, [(0.0, Position(0, 0))]),
              trace_from_waypoints(10.0, [(0.0, Position(249, 0)),
                                          (10.0, Position(259, 0))])]
    sim = Simulator()
    sim.handler = lambda ev: None
    radio = Radio(Scenario(), traces, sim, RunMetrics(), rng_stream(1, "jitter"))

    def gap():
        return dist(position_at(traces[0], sim.now), position_at(traces[1], sim.now))

    assert radio.unicast(0, 1, data_packet()).status is TxStatus.DELIVERED
    sim.run_until(us(0.5))
    assert gap() < 250
    assert radio.unicast(0, 1, data_packet()).status is TxStatus.DELIVERED
    sim.run_until(us(2.0))
    assert gap() > 250
    assert radio.unicast(0, 1, data_packet()).status is TxStatus.LINK_FAILURE


def test_unicast_verdict_equals_distance_of_positions():
    # On a 100-node field that never pauses, at seeded instants and node
    # pairs, the verdict must be the boundary-inclusive range test on the
    # distance of the two nodes' Positions, bit for bit. Nodes 0 and 1 rest
    # at exactly the range apart (a 150-200-250 triangle).
    import random
    from manet_lab.engine import Engine, build_traces
    sc = Scenario(n_nodes=100, duration_s=20.0, pause_s=0.0, seed=9)
    traces = build_traces(sc)
    traces[:2] = static_traces({0: Position(300.0, 400.0),
                                1: Position(450.0, 600.0)}, sc.duration_s)
    engine = Engine(sc, traces=traces, streams=[])
    engine.sim.handler = lambda ev: None
    radio = engine.radio
    picker = random.Random(9)
    verdicts = []
    for t in sorted(picker.randrange(engine.duration + 1) for _ in range(40)):
        engine.sim.run_until(t)
        pairs = [(0, 1), (1, 0)] + [tuple(picker.sample(range(sc.n_nodes), 2))
                                    for _ in range(50)]
        for a, b in pairs:
            gap = dist(position_at(traces[a], t), position_at(traces[b], t))
            status = radio.unicast(a, b, data_packet(a, b)).status
            assert (status is TxStatus.DELIVERED) == (gap <= sc.radio_range)
            verdicts.append(status)
    assert dist(position_at(traces[0], 0), position_at(traces[1], 0)) == 250.0
    assert TxStatus.DELIVERED in verdicts and TxStatus.LINK_FAILURE in verdicts


def test_causality_receive_after_send():
    positions = {0: Position(0, 0), 1: Position(10, 0)}
    radio, sim, _ = build_radio(positions)
    sim.run_until(us(3))
    sent_at = sim.now
    arrivals = record_arrivals(sim)
    radio.unicast(0, 1, data_packet(size=1))
    sim.run_until(us(4))
    assert len(arrivals) == 1 and arrivals[0][1] > sent_at


def test_overhead_once_per_primitive_call():
    positions = {0: Position(0, 0), 1: Position(10, 0), 2: Position(20, 0)}
    radio, _, metrics = build_radio(positions)
    radio.broadcast(0, data_packet())          # 2 receivers, +1
    radio.unicast(0, 1, data_packet())         # +1
    radio.unicast(0, 2, data_packet())         # +1
    assert metrics.transmissions_total == 3


# -- rest tracking against a scan of all nodes -----------------------------

class FrozenClock:
    """The radio's view of the simulator: a settable `now`, and a
    `schedule` that drops events, so verdicts can be taken at any instant,
    backwards too."""

    now = 0

    def schedule(self, *args) -> None:
        pass


def phase_instants(traces, picker, spread=3, n_random=100):
    """Every microsecond within `spread` of each departure and arrival, the
    ends of the run, and `n_random` random instants."""
    duration = traces[0].duration
    instants = {0, duration}
    for trace in traces:
        for leg in trace.legs:
            for edge in (leg.depart_at, leg.arrive_at):
                instants.update(t for t in range(edge - spread, edge + spread + 1)
                                if 0 <= t <= duration)
    instants.update(picker.randrange(duration + 1) for _ in range(n_random))
    return sorted(instants)


def assert_radio_matches_scan(traces, instants, unicast_every=1):
    """At each instant, in the order given: `coords_at` equals position_at
    for every node, `neighbors` equals a scan of pairwise distances, and
    every unicast verdict (at every `unicast_every`-th instant) is that
    scan's range test. Unicasts go first at odd positions, so they meet a
    snapshot and a rest state left at another instant."""
    n = len(traces)
    clock = FrozenClock()
    sc = Scenario(n_nodes=n)
    radio = Radio(sc, traces, clock, RunMetrics(), rng_stream(1, "jitter"))
    pkt = data_packet()
    scans = {}
    for i, t in enumerate(instants):
        if t not in scans:
            here = [position_at(trace, t) for trace in traces]
            near = [[b for b in range(n)
                     if b != a and dist(here[a], here[b]) <= sc.radio_range]
                    for a in range(n)]
            scans[t] = here, near
        here, near = scans[t]
        clock.now = t
        unicasts = i % unicast_every == 0
        if unicasts and i % 2:
            assert_unicast_verdicts(radio, near, pkt)
        assert radio.coords_at(t) == [(p.x, p.y) for p in here], t
        for a in range(n):
            assert radio.neighbors(a, t) == near[a], (t, a)
        if unicasts and not i % 2:
            assert_unicast_verdicts(radio, near, pkt)


def assert_unicast_verdicts(radio, near, pkt):
    """Every ordered pair's unicast delivers iff the scan links it."""
    for a, linked in enumerate(map(set, near)):
        for b in range(len(near)):
            if b != a:
                status = radio.unicast(a, b, pkt).status
                assert (status is TxStatus.DELIVERED) == (b in linked), (a, b)


def query_orders(instants, picker, n_back=None):
    """Forwards, then backwards, then shuffled: a run only moves forward,
    but the radio must answer any order."""
    backwards = instants[::-1]
    if n_back is not None:
        backwards = sorted(picker.sample(instants, min(n_back, len(instants))),
                           reverse=True)
    shuffled = picker.sample(instants, len(backwards))
    return instants + backwards + shuffled


@pytest.mark.parametrize("pause_s, duration_s, seed", [(40.0, 150.0, 5), (0.0, 60.0, 6)])
def test_rest_tracking_equals_scan_on_random_fields(pause_s, duration_s, seed):
    # A pause-40 field rests most of the time; a pause-0 field only moves.
    import random
    from manet_lab.engine import build_traces
    sc = Scenario(n_nodes=30, pause_s=pause_s, duration_s=duration_s, seed=seed)
    traces = build_traces(sc)
    picker = random.Random(seed)
    instants = phase_instants(traces, picker)
    order = query_orders(instants, picker, n_back=300)
    assert_radio_matches_scan(traces, order, unicast_every=3)


def hand_built_traces():
    """Ten nodes over 10 s, resting, jumping and moving across one another.

    Nodes 0 and 1 rest at exactly the range apart (a 150-200-250 triangle)
    and node 2 rests on node 0. Node 3 rests, then a zero-length leg jumps
    it onto node 1 at 2 s. Node 4 drives past node 0 and rests at 5 s.
    Node 5 arrives at the very end of the run, so it rests only at
    t == duration. Node 6 never rests. Node 7 rests on a zero-length leg
    with no jump, then drives off. Node 8 drives onto node 0 in 1 us and
    rests there. Node 9 rests across a leg boundary at one point."""
    from manet_lab.mobility import Leg, WaypointTrace
    P = Position
    a, b = P(300.0, 400.0), P(450.0, 600.0)
    legs = [
        [Leg(0, a, a, 0)],
        [Leg(0, b, b, 0)],
        [Leg(0, a, a, 0)],
        [Leg(0, P(900.0, 900.0), P(900.0, 900.0), 0),
         Leg(us(2.0), P(900.0, 900.0), b, us(2.0))],
        [Leg(0, P(0.0, 400.0), P(500.0, 400.0), us(5.0))],
        [Leg(0, P(100.0, 100.0), P(1000.0, 100.0), us(10.0))],
        [Leg(0, P(300.0, 0.0), P(300.0, 1000.0), us(4.0)),
         Leg(us(4.0), P(300.0, 1000.0), P(300.0, 0.0), us(10.0) + 7)],
        [Leg(0, P(550.0, 400.0), P(550.0, 400.0), 0),
         Leg(us(3.0), P(550.0, 400.0), P(550.0, 800.0), us(6.0))],
        [Leg(0, P(300.001, 400.0), a, 1)],
        [Leg(0, P(500.0, 500.0), P(500.0, 650.0), us(1.0)),
         Leg(us(1.5), P(500.0, 650.0), P(500.0, 650.0), us(1.5)),
         Leg(us(2.5), P(500.0, 650.0), P(700.0, 650.0), us(3.5))],
    ]
    return [WaypointTrace(us(10.0), node_legs) for node_legs in legs]


def test_rest_tracking_equals_scan_on_hand_built_traces():
    import random
    traces = hand_built_traces()
    assert dist(position_at(traces[0], 0), position_at(traces[1], 0)) == 250.0
    duration = traces[0].duration
    # a rest that jumps to new coordinates at one instant
    assert position_at(traces[3], us(2.0) - 1) == Position(900.0, 900.0)
    assert position_at(traces[3], us(2.0)) == Position(450.0, 600.0)
    assert traces[5].phase_at(duration - 1)[0] is False
    assert traces[5].phase_at(duration) == (
        True, duration + 1, (0, duration, 100.0, 100.0, 1000.0, 100.0))
    picker = random.Random(3)
    instants = phase_instants(traces, picker, n_random=50)
    assert_radio_matches_scan(traces, query_orders(instants, picker))


def test_resting_sender_list_follows_rests_that_start_and_end():
    # Forward queries, as in a run. Each step changes the resting set that
    # the resting senders 0 and 1 keep their lists over.
    traces = hand_built_traces()
    clock = FrozenClock()
    radio = Radio(Scenario(n_nodes=len(traces)), traces, clock, RunMetrics(),
                  rng_stream(1, "jitter"))
    assert 3 not in radio.neighbors(1, us(2.0) - 1)
    assert 3 in radio.neighbors(1, us(2.0))    # jumped onto node 1
    assert 3 in radio.neighbors(0, us(2.0))    # and so exactly 250 m from 0
    assert 4 in radio.neighbors(0, us(5.0) - 1)  # driving past
    assert 4 in radio.neighbors(0, us(5.0))      # now resting 200 m away
    assert 7 in radio.neighbors(0, us(3.0) - 1)
    assert 7 not in radio.neighbors(0, us(6.0))  # drove off to (550, 800)
    clock.now = traces[0].duration
    assert radio.unicast(0, 1, data_packet()).status is TxStatus.DELIVERED
    assert radio.unicast(1, 0, data_packet()).status is TxStatus.DELIVERED
    assert radio.unicast(0, 4, data_packet()).status is TxStatus.DELIVERED


def test_unicast_ahead_of_the_snapshot_leaves_it_exact():
    # A unicast at a later instant (node 4 comes to rest at 5 s) reads the
    # traces, whose cursors move on; asking for the snapshot's instant again
    # must not mix in coordinates of the later one.
    traces = hand_built_traces()
    clock = FrozenClock()
    radio = Radio(Scenario(n_nodes=len(traces)), traces, clock, RunMetrics(),
                  rng_stream(1, "jitter"))
    before = us(5.0) - 1
    expected = [tuple(position_at(trace, before)) for trace in traces]
    assert radio.coords_at(before) == expected
    clock.now = us(5.0)
    assert radio.unicast(0, 4, data_packet()).status is TxStatus.DELIVERED
    assert radio.coords_at(before) == expected


# -- moving nodes interpolated on their stored legs --------------------------

def leg_switch_traces():
    """Four nodes over 10 s whose legs change while they move, with no rest
    between the legs.

    Node 0 turns a corner at 4 s: its second leg departs from where the
    first arrives. Node 1 jumps at 4 s: its second leg departs from
    another point the instant its first arrives. Node 2 jumps at 3 s + 7 us
    in the middle of its first leg, which would arrive at 9 s. Node 3
    rests throughout, so a rest is tracked beside the moving nodes."""
    from manet_lab.mobility import Leg, WaypointTrace
    P = Position
    switch, early = us(4.0), us(3.0) + 7
    legs = [
        [Leg(0, P(100.0, 100.0), P(700.0, 100.0), switch),
         Leg(switch, P(700.0, 100.0), P(700.0, 900.0), us(10.0))],
        [Leg(0, P(0.0, 300.0), P(400.0, 700.0), switch),
         Leg(switch, P(900.0, 0.0), P(200.0, 200.0), us(10.0))],
        [Leg(0, P(333.3, 10.0), P(10.0, 777.7), us(9.0)),
         Leg(early, P(500.0, 500.0), P(0.1, 999.9), us(10.0))],
        [Leg(0, P(450.0, 450.0), P(450.0, 450.0), 0)],
    ]
    return [WaypointTrace(us(10.0), node_legs) for node_legs in legs], (switch, early)


def bits(point):
    return tuple(c.hex() for c in point)


def test_moving_nodes_switch_legs_exactly():
    import random
    traces, switches = leg_switch_traces()
    # no rest between the legs: each of nodes 0-2 moves on both sides
    for t in switches:
        for trace in traces[:3]:
            assert trace.phase_at(t - 1)[0] is False
            assert trace.phase_at(t)[0] is False
    instants = sorted({s + d for s in switches for d in range(-3, 4)})
    picker = random.Random(7)
    radio = Radio(Scenario(n_nodes=len(traces)), traces, FrozenClock(), RunMetrics(),
                  rng_stream(1, "jitter"))
    for t in query_orders(instants, picker):
        points = radio.coords_at(t)
        assert [bits(p) for p in points] == \
            [bits(trace.coords_at(t)) for trace in traces], t

