"""CBR stream construction and the accounting conventions."""

import dataclasses
from collections import Counter
from pathlib import Path

import pytest

from manet_lab.core import rng_stream, us
from manet_lab.engine import Engine
from manet_lab.errors import AccountingError, DuplicateDelivery
from manet_lab.geometry import Position
from manet_lab.metrics import CSV_COLUMNS, DropCause, RunMetrics
from manet_lab.packets import PacketKind
from manet_lab.scenario import load_scenario
from manet_lab.traffic import make_streams

from conftest import assert_float_columns_exact, cbr, static_engine


def test_stream_count_matches_closed_form():
    # Oracle: floor((stop - start) / interval) + 1 emissions per stream.
    streams = make_streams(20, 30, 512, 0.25, 500.0,
                           rng_stream(1, "pairs"), rng_stream(1, "traffic"))
    for s in streams:
        expected = (s.stop_at - s.start_at) // s.interval + 1
        # starts staggered over the first 10 s of a 500 s run
        assert 0 <= s.start_at <= us(10.0)
        assert s.stop_at == us(500.0)
        assert expected >= 1960, f"0.25 s interval over 500 s gives {expected}"


def test_run_originates_closed_form_count_per_stream():
    # A run originates floor((stop - start) / interval) + 1 packets per
    # stream: the first stream's stop falls on an emission, the second's
    # between two.
    positions = {0: Position(0, 0), 1: Position(100, 0), 2: Position(200, 0)}
    streams = [cbr(0, 2, start_s=0.5, interval_s=0.25, stop_s=2.0),
               cbr(2, 1, start_s=0.3, interval_s=0.4, stop_s=3.2)]
    engine = static_engine(positions, "aodv", duration_s=4.0, streams=streams)
    row = engine.run()
    expected = [(s.stop_at - s.start_at) // s.interval + 1 for s in streams]
    assert expected == [7, 8]
    assert row.sent == sum(expected)
    origins = Counter(hops[0][0] for hops in engine.hop_log.values())
    assert [origins[s.src] for s in streams] == expected


def test_two_nodes_forced_pair():
    streams = make_streams(1, 2, 512, 0.25, 10.0,
                           rng_stream(3, "pairs"), rng_stream(3, "traffic"))
    (s,) = streams
    assert {s.src, s.dst} == {0, 1}


def test_no_self_pairs_and_determinism():
    a = make_streams(200, 5, 512, 1.0, 100.0,
                     rng_stream(9, "pairs"), rng_stream(9, "traffic"))
    b = make_streams(200, 5, 512, 1.0, 100.0,
                     rng_stream(9, "pairs"), rng_stream(9, "traffic"))
    assert a == b
    assert all(s.src != s.dst for s in a)
    assert {s.src for s in a} == set(range(5))  # every node shows up eventually


def test_transmission_counting_conventions():
    m = RunMetrics()
    m.record_transmission(PacketKind.RREQ)      # a broadcast to 7 receivers: +1
    assert m.transmissions_total == 1
    for _ in range(3):                          # 3 forward hops
        m.record_transmission(PacketKind.DATA)
    assert m.transmissions_total == 4
    m.record_transmission(PacketKind.DATA)      # failed unicast
    assert m.transmissions_total == 5
    assert m.transmissions_by_kind["data"] == 4
    assert m.transmissions_by_kind["rreq"] == 1


def test_delivery_delay_arithmetic():
    m = RunMetrics()
    m.record_origination(1)
    m.record_delivery(1, created_at=us(10.0), now=us(10.030))
    assert m.mean_delay_ms() == pytest.approx(30.0)


def test_buffered_time_included_in_delay():
    # Creation-to-reception definition: discovery buffering is inside.
    m = RunMetrics()
    m.record_origination(7)
    m.record_delivery(7, created_at=us(1.0), now=us(1.0) + us(0.120) + us(0.010))
    assert m.mean_delay_ms() == pytest.approx(130.0)


def test_zero_deliveries_mean_absent_not_zero():
    m = RunMetrics()
    row = m.finalize("aodv", "s", 1, 30, 0.0, 4.0)
    assert row.mean_delay_ms is None
    assert row.delivery_ratio == 0.0
    fields = row.to_csv_row().split(",")
    assert fields[CSV_COLUMNS.index("mean_delay_ms")] == ""


def test_duplicate_delivery_raises():
    m = RunMetrics()
    m.record_origination(1)
    m.record_delivery(1, 0, 10)
    with pytest.raises(DuplicateDelivery):
        m.record_delivery(1, 0, 20)


def test_delivery_of_a_uid_never_sent_raises():
    m = RunMetrics()
    m.record_origination(1)
    with pytest.raises(AccountingError):
        m.record_delivery(2, 0, 10)


def test_delivery_after_a_drop_raises():
    m = RunMetrics()
    m.record_origination(1)
    m.record_drop(1, DropCause.TTL)
    with pytest.raises(DuplicateDelivery):
        m.record_delivery(1, 0, 10)


def test_drop_of_unknown_uid_raises():
    m = RunMetrics()
    with pytest.raises(AccountingError):
        m.record_drop(99, DropCause.TTL)


def test_finalize_ratio_and_identity():
    m = RunMetrics()
    for uid in range(10):
        m.record_origination(uid)
    for uid in range(8):
        m.record_delivery(uid, 0, us(0.020 * (uid + 1)))
    m.record_drop(8, DropCause.TTL)
    row = m.finalize("gpsr", "s", 1, 30, 0.0, 4.0)
    assert row.sent == 10 and row.delivered == 8
    assert row.delivery_ratio == pytest.approx(0.8)
    assert row.in_flight == 1
    assert row.delivered + sum(row.drops.values()) + row.in_flight == row.sent


def test_mean_of_three_delays():
    m = RunMetrics()
    for uid, ms in enumerate((10, 20, 30)):
        m.record_origination(uid)
        m.record_delivery(uid, 0, us(ms / 1000))
    assert m.mean_delay_ms() == pytest.approx(20.0)


def test_csv_row_round_trip():
    m = RunMetrics()
    for uid in range(4):
        m.record_origination(uid)
    m.record_delivery(0, 0, us(0.0123))
    m.record_delivery(1, 0, us(0.0456))
    m.record_drop(2, DropCause.DISCOVERY_TIMEOUT)
    row = m.finalize("aodv", "table1", 42, 30, 40.0, 4.0)
    line = row.to_csv_row()
    assert line == "aodv,table1,42,30,40.0,4.0,4,2,0.5,28.95,0,0,0,1,0,0"
    assert_float_columns_exact(row, line)


def test_engine_drop_of_a_control_packet_raises():
    # Only data packets are ever in flight, so only they can be dropped.
    positions = {0: Position(0, 0), 1: Position(100, 0)}
    engine = static_engine(positions, "aodv", duration_s=1.0,
                           streams=[cbr(0, 1, 0.5, 1.0, 0.5)])
    rreq = engine.packet(PacketKind.RREQ, 0, 1, 4, 48)
    with pytest.raises(AccountingError):
        engine.drop(rreq, DropCause.TTL)
    assert not engine.metrics.diagnostics


@pytest.mark.parametrize("protocol", ["aodv", "gpsr", "crp"])
def test_self_addressed_stream_is_delivered_at_emission(protocol):
    positions = {0: Position(0, 0), 1: Position(100, 0)}
    engine = static_engine(positions, protocol, duration_s=2.0,
                           streams=[cbr(1, 1, 0.5, 0.5, 1.5)])
    row = engine.run()
    assert row.sent == row.delivered == 3
    assert row.mean_delay_ms == 0.0
    assert engine.metrics.transmissions_by_kind["data"] == 0
    for hops in engine.hop_log.values():
        t = hops[0][1]
        assert hops == [(1, t, "originated"), (1, t, "delivered")]


@pytest.mark.parametrize("protocol, hello", [("crp", False), ("aodv", True)])
def test_engine_stamps_every_packet(protocol, hello):
    # Every packet of a run comes from Engine.packet, which hands out the
    # uids in order and stamps each packet with the instant it is made.
    scn = Path(__file__).resolve().parent.parent / "scenarios" / "stage1_load.scn"
    sc = dataclasses.replace(load_scenario(scn), protocol=protocol, seed=3,
                             duration_s=60.0, aodv_hello=hello)
    engine = Engine(sc)
    made = []
    make = engine.packet

    def packet(*args, **fields):
        pkt = make(*args, **fields)
        made.append((pkt.uid, pkt.created_at, engine.sim.now, pkt.kind))
        return pkt

    engine.packet = packet
    row = engine.run()
    assert [uid for uid, _, _, _ in made] == list(range(len(made)))
    assert all(born == now for _, born, now, _ in made)
    kinds = Counter(kind for _, _, _, kind in made)
    assert kinds[PacketKind.DATA] == row.sent
    expected = ({PacketKind.DATA, PacketKind.RREQ, PacketKind.RREP,
                 PacketKind.BEACON} if protocol == "crp" else
                {PacketKind.DATA, PacketKind.RREQ, PacketKind.RREP,
                 PacketKind.RERR, PacketKind.HELLO})
    assert set(kinds) == expected
