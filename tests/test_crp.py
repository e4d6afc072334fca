"""Hybrid protocol: greedy phase, anchored discovery, and the no-recovery rule."""

import re

import pytest

from manet_lab.core import us
from manet_lab.engine import Engine
from manet_lab.geometry import Position
from manet_lab.packets import PacketKind
from manet_lab.radio import LINK_FAILURE
from manet_lab.scenario import Scenario

from conftest import (VOID_D, VOID_POSITIONS, VOID_S, VOID_S1, VOID_U1,
                      VOID_U4, VOID_X, cbr, one_shot_stream, static_engine,
                      trace_from_waypoints)


def test_dense_path_stays_greedy_with_zero_floods():
    positions = {0: Position(0, 0), 1: Position(200, 0), 2: Position(400, 0),
                 3: Position(600, 0)}
    engine = static_engine(positions, "crp", duration_s=10.0,
                           streams=[cbr(0, 3, start_s=5.0, interval_s=0.5,
                                        stop_s=8.0)])
    row = engine.run()
    assert row.delivered == row.sent == 7
    assert engine.metrics.transmissions_by_kind["rreq"] == 0
    assert engine.flood_log == []
    for hops in engine.hop_log.values():
        tags = {tag for (_, _, tag) in hops}
        assert "aodv_route" not in tags


def test_void_triggers_anchored_discovery_and_delivers(void_positions):
    engine = static_engine(void_positions, "crp", duration_s=15.0,
                           streams=[one_shot_stream(VOID_S, VOID_D, at_s=5.0)])
    row = engine.run()
    assert row.delivered == 1
    # the flood is anchored at the stuck node, not at the packet's source
    assert [(o, d) for (o, d, _t) in engine.flood_log] == [(VOID_X, VOID_D)]
    assert engine.metrics.transmissions_by_kind["rreq"] > 0
    assert engine.metrics.transmissions_by_kind["rerr"] == 0
    (uid, hops), = engine.hop_log.items()
    visited = [n for (n, _, tag) in hops if tag != "originated"]
    assert visited == [0, 1, 2, 3, 4, 5, 6, 7]


def test_mode_sequence_never_returns_to_greedy(void_positions):
    engine = static_engine(void_positions, "crp", duration_s=20.0,
                           streams=[cbr(VOID_S, VOID_D, start_s=5.0,
                                        interval_s=0.5, stop_s=12.0)])
    engine.run()
    assert engine.hop_log
    for uid, hops in engine.hop_log.items():
        tags = [tag for (_, _, tag) in hops
                if tag in ("geo_greedy", "aodv_route")]
        pattern = "".join("g" if t == "geo_greedy" else "a" for t in tags)
        assert re.fullmatch("g*a*", pattern), \
            f"uid {uid}: mode sequence {pattern} returned to greedy"


def test_escape_cache_amortizes_floods(void_positions):
    streams = [cbr(VOID_S, VOID_D, start_s=5.0, interval_s=0.5, stop_s=9.0)]
    cached = static_engine(void_positions, "crp", duration_s=15.0,
                           streams=streams)
    row = cached.run()
    assert row.delivered == row.sent == 9
    assert len(cached.flood_log) == 1, "later packets ride the cached route"


def test_beacon_overhead_identical_to_gpsr():
    # Same scenario and seed: beacon scheduling draws from the same stream,
    # so beacon counts agree between the two geographic protocols.
    gpsr_sc = Scenario(n_nodes=12, protocol="gpsr", duration_s=30.0, seed=77,
                       n_streams=2)
    crp_sc = Scenario(n_nodes=12, protocol="crp", duration_s=30.0, seed=77,
                      n_streams=2)
    gpsr_run = Engine(gpsr_sc)
    gpsr_run.run()
    crp_run = Engine(crp_sc)
    crp_run.run()
    assert gpsr_run.metrics.transmissions_by_kind["beacon"] == \
        crp_run.metrics.transmissions_by_kind["beacon"] > 0
    assert crp_run.metrics.transmissions_by_kind["hello"] == 0


def test_route_break_drops_exactly_one_packet_then_reanchors():
    # Two escape chains around a void; the first discovered relay leaves and
    # takes the active route with it. The in-flight packet is the only loss,
    # no error packets appear, and the next packet floods a fresh discovery
    # from the same anchor.
    positions = dict(VOID_POSITIONS)
    mirror = {3: Position(460.0, 290.0), 4: Position(600.0, 150.0),
              5: Position(800.0, 200.0), 6: Position(870.0, 350.0)}
    extra = {14: mirror[3], 15: mirror[4], 16: mirror[5], 17: mirror[6]}
    positions.update(extra)
    duration = 20.0
    traces = [trace_from_waypoints(duration, [(0.0, positions[n])])
              for n in sorted(positions)]
    # u1 (id 3) carries the first escape route, then leaves abruptly
    traces[3] = trace_from_waypoints(
        duration, [(0.0, positions[3]), (6.2, positions[3]),
                   (6.3, Position(100.0, 900.0))])
    sc = Scenario(n_nodes=len(positions), protocol="crp", duration_s=duration,
                  seed=11, pause_s=duration, n_streams=1)
    engine = Engine(sc, traces=traces,
                    streams=[cbr(VOID_S, VOID_D, start_s=5.0, interval_s=0.5,
                                 stop_s=12.0)],
                    record_hops=True)
    row = engine.run()
    assert row.sent == 15
    assert row.drops["link_failure"] == 1, "no-recovery loses only the in-flight packet"
    assert row.delivered == 14
    assert engine.metrics.transmissions_by_kind["rerr"] == 0
    anchors = [o for (o, _d, _t) in engine.flood_log]
    assert anchors == [VOID_X, VOID_X], "rediscovery re-anchors at the stuck node"


def test_greedy_mode_break_follows_retry_rule_not_drop():
    # In the greedy phase a dead link is a neighbor eviction plus one retry,
    # exactly like plain geographic forwarding.
    positions = {0: Position(0, 0), 1: Position(200, 0), 2: Position(400, 0),
                 3: Position(400, 150), 4: Position(600, 0)}
    duration = 20.0
    traces = [trace_from_waypoints(duration, [(0.0, positions[n])])
              for n in range(5)]
    traces[2] = trace_from_waypoints(duration,
                                     [(0.0, positions[2]), (6.2, positions[2]),
                                      (6.3, Position(400, 900))])
    sc = Scenario(n_nodes=5, protocol="crp", duration_s=duration, seed=13,
                  pause_s=duration, n_streams=1)
    engine = Engine(sc, traces=traces,
                    streams=[cbr(0, 4, start_s=5.0, interval_s=0.5, stop_s=12.0)],
                    record_hops=True)
    ttl_at_delivery = {}
    deliver = engine._deliver

    def recording_deliver(node, pkt):
        ttl_at_delivery[pkt.uid] = pkt.ttl
        deliver(node, pkt)

    engine._deliver = recording_deliver
    row = engine.run()
    assert row.delivered == row.sent
    assert row.drops["link_failure"] == 0
    assert engine.metrics.transmissions_by_kind["rerr"] == 0
    assert engine.metrics.transmissions_by_kind["rreq"] == 0
    # a failed send costs no TTL: each packet arrives with data_ttl less
    # the hops it took
    hops = {uid: sum(tag == "geo_greedy" for (_, _, tag) in log)
            for uid, log in engine.hop_log.items()}
    assert ttl_at_delivery == {uid: sc.data_ttl - n for uid, n in hops.items()}
    assert engine.metrics.transmissions_by_kind["data"] > sum(hops.values()), \
        "some greedy send failed and was retried"


def test_partitioned_destination_times_out_with_bounded_floods():
    positions = {0: Position(0, 0), 1: Position(200, 0), 2: Position(350, 0),
                 3: Position(900, 900)}
    engine = static_engine(positions, "crp", duration_s=10.0,
                           streams=[one_shot_stream(0, 3, at_s=2.0)])
    row = engine.run()
    assert row.delivered == 0
    assert row.drops["discovery_timeout"] == 1
    assert len(engine.flood_log) == 3  # initial + two retries
    assert engine.metrics.transmissions_by_kind["rerr"] == 0


def test_source_at_local_maximum_floods_from_itself(void_positions):
    # A packet originated at the stuck node itself anchors the flood there.
    engine = static_engine(void_positions, "crp", duration_s=12.0,
                           streams=[one_shot_stream(VOID_X, VOID_D, at_s=5.0)])
    row = engine.run()
    assert row.delivered == 1
    assert [(o, d) for (o, d, _t) in engine.flood_log] == [(VOID_X, VOID_D)]


def test_routeless_relay_reanchors_discovery(void_positions):
    # A packet in route mode reaching a node with no live entry re-anchors
    # a discovery there.
    from manet_lab.packets import GeoHeader, GeoMode, Packet

    engine = static_engine(void_positions, "crp", duration_s=5.0, streams=[])
    pkt = Packet(uid=0, kind=PacketKind.DATA, origin=VOID_S,
                 final_dst=VOID_D, created_at=0, ttl=32, size_bytes=512)
    pkt.geo = GeoHeader(dst_pos=void_positions[VOID_D], mode=GeoMode.ROUTE)
    engine.metrics.record_origination(0)
    engine.protocols[VOID_X].forward(pkt)
    assert [(o, d) for (o, d, _t) in engine.flood_log] == [(VOID_X, VOID_D)]
    assert engine.metrics.drops.get("link_failure", 0) == 0


@pytest.mark.parametrize("protocol", ["aodv", "crp"])
def test_failed_route_reply_notes_one_control_link_failure(protocol):
    # The flood toward D reaches it only through u4, which leaves between
    # relaying the request and D's reply: the reply's unicast fails once,
    # and the retried floods find no path, so no other reply is sent.
    positions = dict(VOID_POSITIONS)
    duration = 12.0
    stream = one_shot_stream(VOID_S, VOID_D, at_s=5.0)
    probe = static_engine(positions, protocol, duration_s=duration,
                          streams=[stream], record_hops=False)
    replies = []
    unicast = probe.radio.unicast

    def recording_unicast(sender, next_hop, pkt):
        if pkt.kind is PacketKind.RREP and sender == VOID_D:
            replies.append((probe.sim.now, next_hop))
        return unicast(sender, next_hop, pkt)

    probe.radio.unicast = recording_unicast
    probe.run()
    (reply_at, relay), = replies
    assert relay == VOID_U4
    traces = [trace_from_waypoints(duration, [(0.0, positions[n])])
              for n in sorted(positions)]
    left, gone = (reply_at - 2) / 1e6, (reply_at - 1) / 1e6
    traces[VOID_U4] = trace_from_waypoints(
        duration, [(0.0, positions[VOID_U4]), (left, positions[VOID_U4]),
                   (gone, Position(100.0, 900.0))])
    sc = Scenario(n_nodes=len(positions), protocol=protocol,
                  duration_s=duration, seed=1, pause_s=duration, n_streams=1)
    engine = Engine(sc, traces=traces, streams=[stream])
    row = engine.run()
    assert dict(engine.metrics.diagnostics) == {"control_link_failure": 1}
    assert engine.metrics.transmissions_by_kind["rrep"] == 1
    assert row.delivered == 0
    assert row.drops["discovery_timeout"] == 1


@pytest.mark.parametrize("protocol, anchor, relay", [
    ("aodv", VOID_S, VOID_S1),
    ("crp", VOID_X, VOID_U1),
], ids=["aodv", "crp"])
def test_route_lost_during_flush_is_rediscovered_once(protocol, anchor, relay):
    # The route reply reaches the discovery's anchor through relay, which
    # leaves between sending the reply and its arrival. The flush's first
    # data unicast fails and kills the route, so every later buffered packet
    # must find no route and join one new discovery from the same anchor,
    # not ride the dead entry. The anchor is then cut off, so the new
    # discovery times out.
    positions = dict(VOID_POSITIONS)
    duration = 12.0
    stream = cbr(VOID_S, VOID_D, start_s=5.0, interval_s=0.002, stop_s=5.006)
    probe = static_engine(positions, protocol, duration_s=duration,
                          streams=[stream], record_hops=False)
    replies = []
    unicast = probe.radio.unicast

    def recording_unicast(sender, next_hop, pkt):
        if pkt.kind is PacketKind.RREP and next_hop == anchor:
            replies.append((sender, probe.sim.now))
        return unicast(sender, next_hop, pkt)

    probe.radio.unicast = recording_unicast
    probe_core = probe.protocols[anchor].core
    handle_rrep = probe_core.handle_rrep
    arrivals = []

    def recording_handle_rrep(pkt, sender):
        arrivals.append((probe.sim.now, len(probe_core.pending[VOID_D].buffer)))
        handle_rrep(pkt, sender)

    probe_core.handle_rrep = recording_handle_rrep
    assert probe.run().delivered == 4
    (sender, sent_at), = replies
    (arrived_at, buffered), = arrivals
    assert sender == relay and buffered >= 3 and sent_at + 1 < arrived_at

    traces = [trace_from_waypoints(duration, [(0.0, positions[n])])
              for n in sorted(positions)]
    traces[relay] = trace_from_waypoints(
        duration, [(0.0, positions[relay]), (sent_at / 1e6, positions[relay]),
                   ((sent_at + 1) / 1e6, Position(100.0, 900.0))])
    sc = Scenario(n_nodes=len(positions), protocol=protocol,
                  duration_s=duration, seed=1, pause_s=duration, n_streams=1)
    engine = Engine(sc, traces=traces, streams=[stream])
    failed = []
    unicast = engine.radio.unicast

    def recording_unicast(sender, next_hop, pkt):
        outcome = unicast(sender, next_hop, pkt)
        if pkt.kind is PacketKind.DATA and outcome is LINK_FAILURE:
            failed.append(pkt.uid)
        return outcome

    engine.radio.unicast = recording_unicast
    core = engine.protocols[anchor].core
    flush = core._flush
    flushes = []

    def recording_flush(d):
        floods = len(engine.flood_log)
        queued = [pkt.uid for pkt in d.buffer]
        if flush(d):
            again = core.pending.get(VOID_D)
            flushes.append((queued, engine.flood_log[floods:],
                            again and [pkt.uid for pkt in again.buffer]))
            return True
        return False

    core._flush = recording_flush
    row = engine.run()
    (queued, floods, rebuffered), = flushes
    assert len(queued) == buffered
    assert failed == queued[:1], "only the first flushed packet is sent"
    assert [(o, d) for (o, d, _t) in floods] == [(anchor, VOID_D)]
    # An aodv source re-buffers the failed packet too; crp drops it.
    assert rebuffered == (queued if protocol == "aodv" else queued[1:])
    assert row.delivered == 0
    assert row.drops["discovery_timeout"] == len(rebuffered)
