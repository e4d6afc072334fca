"""Route discovery, reply handling, maintenance, and the BFS optimality law."""

import dataclasses
import os
import random

import pytest

from manet_lab.aodv import ReactiveCore
from manet_lab.core import us
from manet_lab.engine import Engine
from manet_lab.geometry import Position
from manet_lab.packets import AodvHeader, Packet, PacketKind, clone
from manet_lab.scenario import Scenario, load_scenario

from conftest import (bfs_hops, cbr, connected_random_positions, one_shot_stream,
                      static_engine, static_traces, trace_from_waypoints,
                      unit_disk_adj)

CHAIN = {0: Position(0, 0), 1: Position(200, 0), 2: Position(400, 0),
         3: Position(600, 0)}


def run_chain_discovery():
    engine = static_engine(CHAIN, "aodv", duration_s=5.0,
                           streams=[one_shot_stream(0, 3, at_s=1.0)])
    row = engine.run()
    return engine, row


def test_chain_discovery_installs_bfs_route():
    # Oracle first: BFS over the unit-disk chain gives 3 hops from 0 to 3.
    assert bfs_hops(unit_disk_adj(CHAIN), 0, 3) == 3
    engine, row = run_chain_discovery()
    assert row.delivered == 1
    entry = engine.protocols[0].core.table.get(3)
    assert entry is not None and entry.active
    assert entry.hop_count == 3
    assert entry.next_hop == 1
    # intermediate nodes hold forward entries too
    assert engine.protocols[1].core.table.get(3).hop_count == 2
    assert engine.protocols[2].core.table.get(3).hop_count == 1
    # the delivered packet walked exactly the BFS distance
    hops = [h for h in engine.hop_log[0] if h[2] == "aodv"]
    assert len(hops) == 3
    assert [(node, tag) for node, _, tag in engine.hop_log[0]] == [
        (0, "originated"), (0, "aodv"), (1, "aodv"), (2, "aodv"),
        (3, "delivered")]


def test_loop_freedom_along_installed_route():
    # Walking the table chain toward the destination, (dst_seq, -hop_count)
    # must be lexicographically non-decreasing.
    engine, _ = run_chain_discovery()
    node = 0
    prev_key = None
    while node != 3:
        entry = engine.protocols[node].core.table.get(3)
        assert entry is not None and entry.active
        key = (entry.dst_seq, -entry.hop_count)
        if prev_key is not None:
            assert key >= prev_key, f"freshness order violated at node {node}"
        prev_key = key
        node = entry.next_hop
    assert node == 3


def test_destination_replies_instead_of_rebroadcast():
    engine, _ = run_chain_discovery()
    # Chain flood: origin + two relays transmit, destination answers only.
    assert engine.metrics.transmissions_by_kind["rreq"] == 3
    assert engine.metrics.transmissions_by_kind["rrep"] == 3  # back over 3 hops


def test_duplicate_rreq_ignored_and_reverse_path_kept():
    engine = static_engine(CHAIN, "aodv", duration_s=1.0, streams=[])
    node = engine.protocols[2]
    tx = engine.metrics.transmissions_by_kind
    rreq = Packet(uid=90, kind=PacketKind.RREQ, origin=0, final_dst=9,
                  created_at=0, ttl=32, size_bytes=64,
                  aodv=AodvHeader(rreq_id=1, origin_seq=5, dst_seq=0, hop_count=1))
    engine.hear(engine, rreq, 1, (2,))
    first = node.core.table.get(0)
    assert first.next_hop == 1 and first.hop_count == 2
    assert tx["rreq"] == 1  # no route to 9 here: the first copy is relayed
    dup = clone(rreq)
    engine.hear(engine, dup, 3, (2,))  # same flood via another neighbor
    assert tx["rreq"] == 1, "a repeat of a seen flood must not be relayed"
    again = node.core.table.get(0)
    assert again.next_hop == 1, "reverse path must stick with the first copy"


def test_rerr_adopts_higher_seq_and_bumps_lower():
    # RFC 3561 6.11: an invalidated route takes the RERR's sequence number
    # when it is newer, and its own plus one otherwise.
    engine = static_engine(CHAIN, "aodv", duration_s=1.0, streams=[])
    node = engine.protocols[1]
    table = node.core.table
    table.accept(3, next_hop=2, hop_count=2, dst_seq=10, now=0)
    table.accept(2, next_hop=2, hop_count=1, dst_seq=7, now=0)
    table.accept(0, next_hop=0, hop_count=1, dst_seq=4, now=0)
    sent = []
    broadcast = engine.radio.broadcast

    def recording_broadcast(sender, pkt):
        sent.append(pkt)
        return broadcast(sender, pkt)

    engine.radio.broadcast = recording_broadcast
    rerr = Packet(uid=92, kind=PacketKind.RERR, origin=2, final_dst=-1,
                  created_at=0, ttl=32, size_bytes=64,
                  rerr_dsts=((3, 15), (2, 4), (0, 9)))
    engine.hear(engine, rerr, 2, (1,))
    assert not table.get(3).active and table.get(3).dst_seq == 15
    assert not table.get(2).active and table.get(2).dst_seq == 8
    # a route through another neighbor is not the reporter's to break
    assert table.get(0).active and table.get(0).dst_seq == 4
    assert [p.kind for p in sent] == [PacketKind.RERR]
    assert sent[0].rerr_dsts == ((3, 15), (2, 8))
    assert sent[0].ttl == 31


def test_stale_rrep_leaves_table_unchanged():
    engine = static_engine(CHAIN, "aodv", duration_s=1.0, streams=[])
    node = engine.protocols[1]
    node.core.table.accept(3, next_hop=2, hop_count=2, dst_seq=10, now=0)
    stale = Packet(uid=91, kind=PacketKind.RREP, origin=3, final_dst=0,
                   created_at=0, ttl=32, size_bytes=64,
                   aodv=AodvHeader(rreq_id=0, origin_seq=0, dst_seq=4, hop_count=0))
    node.core.handle_rrep(stale, sender=2)
    entry = node.core.table.get(3)
    assert entry.dst_seq == 10 and entry.hop_count == 2


def test_fresher_seq_replaces_and_equal_seq_needs_fewer_hops():
    engine = static_engine(CHAIN, "aodv", duration_s=1.0, streams=[])
    table = engine.protocols[1].core.table
    assert table.accept(3, next_hop=2, hop_count=4, dst_seq=5, now=0)
    assert not table.accept(3, next_hop=0, hop_count=4, dst_seq=5, now=0)
    assert table.accept(3, next_hop=0, hop_count=3, dst_seq=5, now=0)
    assert table.accept(3, next_hop=2, hop_count=9, dst_seq=6, now=0)
    assert table.get(3).hop_count == 9 and table.get(3).dst_seq == 6


def test_buffered_packets_flush_fifo_on_rrep():
    # Five packets issued 1 ms apart, all faster than discovery completes.
    engine = static_engine(CHAIN, "aodv", duration_s=5.0,
                           streams=[cbr(0, 3, start_s=1.0, interval_s=0.001,
                                        stop_s=1.004)])
    row = engine.run()
    assert row.sent == 5 and row.delivered == 5
    deliveries = []
    for uid, hops in engine.hop_log.items():
        arrive = [t for (_, t, tag) in hops if tag == "delivered"]
        assert len(arrive) == 1
        deliveries.append((uid, arrive[0]))
    ordered = sorted(deliveries, key=lambda p: p[1])
    assert [uid for uid, _ in ordered] == sorted(engine.hop_log), \
        "buffer must flush in FIFO (origination) order"
    # exactly one flood served all five packets
    assert len(engine.flood_log) == 1


def test_ttl_one_flood_does_not_propagate():
    positions = {0: Position(0, 0), 1: Position(200, 0), 2: Position(400, 0)}
    engine = static_engine(positions, "aodv", duration_s=5.0,
                           streams=[one_shot_stream(0, 2, at_s=1.0)],
                           rreq_ttl=1, discovery_retries=0)
    row = engine.run()
    # node 1 receives the request with ttl 1 and must not rebroadcast
    assert engine.metrics.transmissions_by_kind["rreq"] == 1
    assert row.delivered == 0
    assert row.drops["discovery_timeout"] == 1


def test_retry_floods_use_fresh_rreq_id():
    # Unreachable destination: initial flood plus two retries, none suppressed
    # by the duplicate cache because every retry carries a new flood id.
    positions = {0: Position(0, 0), 1: Position(200, 0), 2: Position(900, 900)}
    engine = static_engine(positions, "aodv", duration_s=10.0,
                           streams=[one_shot_stream(0, 2, at_s=1.0)])
    row = engine.run()
    assert len(engine.flood_log) == 3  # 1 + discovery_retries
    assert engine.metrics.transmissions_by_kind["rreq"] == 6  # origin + relay each time
    assert row.drops["discovery_timeout"] == 1
    assert engine.protocols[0].core.next_rreq_id == 3


def test_rrep_cancels_discovery_timer():
    engine, _ = run_chain_discovery()
    # With the route found, the discovery's timer fires as a no-op: no retry
    # flood may follow the timeout window.
    assert len(engine.flood_log) == 1
    assert engine.protocols[0].core.pending == {}


def test_stale_discovery_timer_leaves_next_discovery_alone():
    # A discovery from 0 to 3 succeeds at about 1.008 s and is flushed; its
    # timer still fires at 1.1 s. Node 1 leaves at 1.03 s, so the packet
    # sent at 1.06 s fails its first hop and opens a second discovery to 3,
    # which no one can answer. The old timer must not touch it.
    duration = 1.12
    traces = [trace_from_waypoints(duration, [(0.0, CHAIN[n])]) for n in CHAIN]
    traces[1] = trace_from_waypoints(duration, [(0.0, CHAIN[1]),
                                                (1.03, CHAIN[1]),
                                                (1.04, Position(200, 900))])
    sc = Scenario(n_nodes=4, protocol="aodv", duration_s=duration, seed=1,
                  pause_s=duration, n_streams=2)
    engine = Engine(sc, traces=traces,
                    streams=[one_shot_stream(0, 3, at_s=1.0),
                             one_shot_stream(0, 3, at_s=1.06)])
    core = engine.protocols[0].core
    first_fire = us(1.0) + core._discovery_timeout
    row = engine.run()
    assert row.delivered == 1
    assert [(o, d) for o, d, _ in engine.flood_log] == [(0, 3), (0, 3)]
    second_flood_at = engine.flood_log[1][2]
    assert second_flood_at < first_fire < engine.duration
    assert engine.duration < second_flood_at + core._discovery_timeout
    d = core.pending[3]
    assert d.retries_left == sc.discovery_retries and len(d.buffer) == 1


def test_link_break_rerr_and_rediscovery():
    # Diamond: 0-1-3 and 0-2-3. The first route goes through 1; node 1 then
    # leaves, the source learns via the failed unicast, floods again, and
    # traffic resumes through 2.
    positions = {0: Position(0, 0), 1: Position(200, 0), 2: Position(200, 150),
                 3: Position(400, 0)}
    duration = 20.0
    traces = [
        trace_from_waypoints(duration, [(0.0, positions[0])]),
        trace_from_waypoints(duration, [(0.0, positions[1]),
                                        (8.0, positions[1]),
                                        (8.1, Position(200, 900))]),
        trace_from_waypoints(duration, [(0.0, positions[2])]),
        trace_from_waypoints(duration, [(0.0, positions[3])]),
    ]
    sc = Scenario(n_nodes=4, protocol="aodv", duration_s=duration, seed=3,
                  pause_s=duration, n_streams=1)
    engine = Engine(sc, traces=traces,
                    streams=[cbr(0, 3, start_s=1.0, interval_s=0.5, stop_s=19.0)],
                    record_hops=True)
    row = engine.run()
    assert engine.metrics.transmissions_by_kind["rerr"] >= 1
    assert len(engine.flood_log) >= 2, "break must trigger rediscovery"
    # the re-buffered in-flight packet survives: source-side breaks lose nothing
    assert row.delivered == row.sent
    assert engine.protocols[0].core.table.get(3).next_hop == 2


def test_transit_node_without_route_drops_and_reports():
    engine = static_engine(CHAIN, "aodv", duration_s=1.0, streams=[])
    relay = engine.protocols[1]
    orphan = Packet(uid=70, kind=PacketKind.DATA, origin=0, final_dst=3,
                    created_at=0, ttl=32, size_bytes=512)
    engine.metrics.record_origination(70)
    relay.on_packet(orphan, sender=0)
    assert engine.metrics.drops["link_failure"] == 1
    assert engine.metrics.transmissions_by_kind["rerr"] == 1


def test_self_delivery_zero_transmissions():
    engine = static_engine(CHAIN, "aodv", duration_s=2.0,
                           streams=[one_shot_stream(0, 0, at_s=1.0)])
    row = engine.run()
    assert row.sent == 1 and row.delivered == 1
    assert row.transmissions_total == 0
    assert row.mean_delay_ms == 0.0


def test_route_present_means_single_unicast_no_flood():
    engine = static_engine(CHAIN, "aodv", duration_s=5.0,
                           streams=[one_shot_stream(0, 3, at_s=1.0),
                                    one_shot_stream(0, 3, at_s=2.0)])
    engine.run()
    assert len(engine.flood_log) == 1, "second packet rides the cached route"
    assert engine.metrics.transmissions_by_kind["data"] == 6  # 3 hops twice


def test_discovered_routes_match_bfs_on_random_graphs():
    # First-arrival flood property: with zero jitter and uniform per-hop
    # delay, the discovered hop count equals the BFS shortest path length.
    rng = random.Random(2024)
    for case in range(20):
        positions = connected_random_positions(rng, 30)
        adj = unit_disk_adj(positions)
        src, dst = rng.sample(sorted(positions), 2)
        want = bfs_hops(adj, src, dst)
        engine = static_engine(positions, "aodv", duration_s=5.0,
                               streams=[one_shot_stream(src, dst, at_s=0.5)],
                               seed=case + 1)
        row = engine.run()
        assert row.delivered == 1, f"case {case}: not delivered"
        got = engine.protocols[src].core.table.get(dst).hop_count
        assert got == want, f"case {case}: route {got} hops, BFS {want}"
        data_hops = [h for h in engine.hop_log[0] if h[2] == "aodv"]
        assert len(data_hops) == want


def test_hello_mode_emits_hellos_and_default_does_not():
    pair = {0: Position(0, 0), 1: Position(200, 0)}
    on = static_engine(pair, "aodv", duration_s=5.0, streams=[], aodv_hello=True)
    on.run()
    assert on.metrics.transmissions_by_kind["hello"] >= 8  # ~2 nodes x 5 s
    off = static_engine(pair, "aodv", duration_s=5.0, streams=[])
    off.run()
    assert off.metrics.transmissions_by_kind["hello"] == 0


def test_hello_loss_invalidates_routes():
    # Node 1 carries the only route 0->2 and then walks away; with hellos on,
    # node 0 notices the silence and tears the route down via an error packet.
    positions = {0: Position(0, 0), 1: Position(200, 0), 2: Position(400, 0)}
    duration = 20.0
    traces = [
        trace_from_waypoints(duration, [(0.0, positions[0])]),
        trace_from_waypoints(duration, [(0.0, positions[1]),
                                        (6.0, positions[1]),
                                        (6.1, Position(200, 900))]),
        trace_from_waypoints(duration, [(0.0, positions[2])]),
    ]
    sc = Scenario(n_nodes=3, protocol="aodv", duration_s=duration, seed=5,
                  pause_s=duration, n_streams=1, aodv_hello=True)
    engine = Engine(sc, traces=traces,
                    streams=[one_shot_stream(0, 2, at_s=1.0)])
    engine.run()
    entry = engine.protocols[0].core.table.get(2)
    assert entry is not None and not entry.active
    assert engine.metrics.transmissions_by_kind["rerr"] >= 1


# -- the duplicate cache forgets floods no copy of which can still arrive ----

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios")


def stage1(protocol: str, duration_s: float, **overrides) -> Scenario:
    base = load_scenario(os.path.join(SCENARIO_DIR, "stage1_load.scn"))
    return dataclasses.replace(base, protocol=protocol, seed=3,
                               duration_s=duration_s, **overrides)


def rreq_from(origin: int, rreq_id: int, uid: int) -> Packet:
    return Packet(uid=uid, kind=PacketKind.RREQ, origin=origin, final_dst=9,
                  created_at=0, ttl=32, size_bytes=64,
                  aodv=AodvHeader(rreq_id=rreq_id, origin_seq=1, dst_seq=0,
                                  hop_count=1))


def test_copy_at_the_window_edge_is_still_suppressed():
    engine = static_engine(CHAIN, "aodv", duration_s=1.0, streams=[])
    node = engine.protocols[2]
    core = node.core
    # rreq_ttl * (64 bytes at 2 Mb/s + 1 ms of processing)
    assert core._seen_window == 32 * (256 + 1000)
    flood = rreq_from(origin=0, rreq_id=1, uid=90)
    core.handle_rreq(flood, sender=1)  # first sight at t = 0
    # Another flood first seen at exactly stamp + W keeps the first one.
    engine.sim.now = core._seen_window
    core.handle_rreq(rreq_from(origin=3, rreq_id=1, uid=91), sender=3)
    assert (0, 1) in core.seen
    relayed = engine.metrics.transmissions_by_kind["rreq"]
    engine.hear(engine, clone(flood), 3, (2,))  # a copy at stamp + W
    assert engine.metrics.transmissions_by_kind["rreq"] == relayed
    assert core.table.get(0).next_hop == 1
    # One microsecond later the first flood is forgotten, the second kept.
    engine.sim.now = core._seen_window + 1
    core.handle_rreq(rreq_from(origin=3, rreq_id=2, uid=92), sender=3)
    assert list(core.seen) == [(3, 1), (3, 2)]


EXPIRY_CASES = {
    "aodv": ("aodv", {}),
    "crp": ("crp", {}),
    # Jitter up to 20 ms: a flood's copies spread over far more than
    # rreq_ttl * (on-air time + processing).
    "aodv-jitter": ("aodv", {"jitter_max_s": 0.02}),
    "crp-jitter": ("crp", {"jitter_max_s": 0.02}),
    # Floods that run out of hops: the window is nearly tight.
    "aodv-short-ttl": ("aodv", {"rreq_ttl": 3, "jitter_max_s": 0.002}),
    # Every hop takes 0 us, so a whole flood happens at one instant.
    "aodv-zero-window": ("aodv", {"processing_delay_s": 0.0,
                                  "bandwidth_bps": 1e12}),
}


@pytest.mark.parametrize("case", EXPIRY_CASES)
def test_no_rreq_arrives_for_a_forgotten_flood(case, monkeypatch):
    protocol, overrides = EXPIRY_CASES[case]
    expired: dict[int, set[tuple[int, int]]] = {}
    mark_seen = ReactiveCore._mark_seen

    def recording_mark_seen(core, key, now):
        before = set(core.seen)
        mark_seen(core, key, now)
        expired.setdefault(core.node, set()).update(before - core.seen.keys())
        assert min(core.seen.values()) >= now - core._seen_window

    monkeypatch.setattr(ReactiveCore, "_mark_seen", recording_mark_seen)
    # Nodes rest for the first 40 s, so most floods come after that.
    engine = Engine(stage1(protocol, 100.0, **overrides))
    late = []
    receptions = 0
    hear = engine.hear

    def checked(engine_, pkt, sender, receivers):
        nonlocal receptions
        if pkt.kind is PacketKind.RREQ:
            receptions += len(receivers)
            key = (pkt.origin, pkt.aodv.rreq_id)
            late.extend((node, *key, engine.sim.now) for node in receivers
                        if key in expired.get(node, ()))
        hear(engine_, pkt, sender, receivers)

    engine.hear = checked
    engine.run()
    if case == "aodv-zero-window":
        assert engine.protocols[0].core._seen_window == 0
    assert sum(map(len, expired.values())) > 1000
    # the check saw the floods: 26k to 126k copies over the cases
    assert receptions > 20_000
    assert late == []


@pytest.mark.parametrize("protocol", ["aodv", "crp"])
def test_only_first_sights_reach_handle_rreq(protocol, monkeypatch):
    handled: dict[int, list[tuple[int, int]]] = {}
    handle_rreq = ReactiveCore.handle_rreq

    def recording_handle_rreq(core, pkt, sender):
        handled.setdefault(core.node, []).append((pkt.origin, pkt.aodv.rreq_id))
        handle_rreq(core, pkt, sender)

    monkeypatch.setattr(ReactiveCore, "handle_rreq", recording_handle_rreq)
    engine = Engine(stage1(protocol, 60.0))
    received: dict[int, set[tuple[int, int]]] = {}
    receptions = 0
    hear = engine.hear

    def recording(engine_, pkt, sender, receivers):
        nonlocal receptions
        if pkt.kind is PacketKind.RREQ:
            receptions += len(receivers)
            for node in receivers:
                if pkt.origin != node:
                    received.setdefault(node, set()).add(
                        (pkt.origin, pkt.aodv.rreq_id))
        hear(engine_, pkt, sender, receivers)

    engine.hear = recording
    engine.run()
    # Each node hands every flood it hears, but its own, to handle_rreq
    # once, at its first sight; the repeats, most receptions, never.
    for node in range(engine.scenario.n_nodes):
        assert sorted(handled.get(node, [])) == sorted(received.get(node, ())), node
    calls = sum(map(len, handled.values()))
    assert calls > 1000 and receptions > 3 * calls


@pytest.fixture(scope="module")
def stage1_aodv_runs():
    runs = {}
    for duration_s in (50.0, 150.0):
        engine = Engine(stage1("aodv", duration_s))
        engine.run()
        runs[duration_s] = engine
    return runs


def test_seen_holds_one_window_of_floods(stage1_aodv_runs):
    totals = {}
    for duration_s, engine in stage1_aodv_runs.items():
        starts = [t for _, _, t in engine.flood_log]
        totals[duration_s] = 0
        for proto in engine.protocols:
            core = proto.core
            if not core.seen:
                continue
            window = core._seen_window
            newest = max(core.seen.values())
            # Nothing older than one window before the last insertion.
            assert min(core.seen.values()) >= newest - window
            # Each entry is a flood started at most one window before it was
            # first seen, and so at most two before the newest stamp.
            in_reach = sum(newest - 2 * window <= t <= newest for t in starts)
            assert len(core.seen) <= in_reach
            totals[duration_s] += len(core.seen)
    # Three times the horizon and over ten times the floods, and no more
    # entries: a node keeps a flood only while copies of it may arrive.
    floods = {d: len(engine.flood_log) for d, engine in stage1_aodv_runs.items()}
    assert floods[150.0] > 10 * floods[50.0]
    assert totals[150.0] <= totals[50.0]


def test_run_metrics_keep_no_state_per_delivered_packet(stage1_aodv_runs):
    metrics = stage1_aodv_runs[150.0].metrics
    assert metrics.delivered > 5_000
    for name, value in vars(metrics).items():
        if hasattr(value, "__len__"):
            assert len(value) <= max(metrics.in_flight, 16), name


@pytest.mark.parametrize("protocol", ["aodv", "crp"])
def test_full_origin_buffer_drops_its_oldest_packet(protocol):
    # Node 1 is out of range, so every packet waits on one discovery; with
    # room for two, the third and fourth push out the first and second.
    engine = static_engine({0: Position(0, 0), 1: Position(900, 0)}, protocol,
                           duration_s=5.0, buffer_cap=2,
                           streams=[one_shot_stream(0, 1, at_s=1.0 + 0.01 * k)
                                    for k in range(4)])
    engine.run()
    ends = [engine.hop_log[uid][-1][2] for uid in sorted(engine.hop_log)]
    assert ends == ["dropped:buffer"] * 2 + ["dropped:discovery_timeout"] * 2
