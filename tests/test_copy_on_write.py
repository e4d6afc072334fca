"""Receivers read packets; only the code that changes one copies it.

Every receiver of a broadcast gets the same packet object, and a unicast
hands its packet to the receiver. So a handler that changes a received
broadcast without cloning it first, or a sender that changes a packet after
sending it, would show the change to a receiver that has not run yet. This
test runs whole protocols with checking wrappers: each send records a
fingerprint of the packet (every field, headers included), and dispatch
asserts that fingerprint before each receiver's `on_packet`.
"""

import dataclasses
import functools
import os

import pytest

from manet_lab.core import EventKind
from manet_lab.engine import Engine
from manet_lab.scenario import load_scenario

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios")


@functools.cache
def _is_record(cls) -> bool:
    return dataclasses.is_dataclass(cls)


def fingerprint(value):
    """Every field's value, walking into headers and tuples; the leaves
    (numbers, enums, None) are immutable."""
    if _is_record(type(value)):
        return tuple(map(fingerprint, vars(value).values()))
    if type(value) is tuple:
        return tuple(map(fingerprint, value))
    return value


def run_guarded(sc) -> int:
    """Run sc with the checks in place; returns how many receptions were checked."""
    engine = Engine(sc)
    sim, radio = engine.sim, engine.radio
    sending = []   # fingerprint of the packet inside the current send
    at_send = {}   # id of a queued arrival's payload -> its packet's
                   # fingerprint at send time (the queue keeps the payload alive)
    handed = []    # fingerprint of the arrival being dispatched
    checked = [0]

    def recording(send):
        def send_and_record(*args):
            sending.append(fingerprint(args[-1]))
            try:
                return send(*args)
            finally:
                sending.pop()
        return send_and_record

    schedule = sim.schedule

    def tagging_schedule(fire_at, kind, payload=None):
        schedule(fire_at, kind, payload)
        if kind is EventKind.PACKET_ARRIVAL:
            at_send[id(payload)] = sending[-1]

    dispatch = sim.handler

    def checking_dispatch(ev):
        if ev.kind is not EventKind.PACKET_ARRIVAL:
            dispatch(ev)
            return
        handed.append(at_send.pop(id(ev.payload)))
        try:
            dispatch(ev)
        finally:
            handed.pop()

    def checking(node, on_packet):
        def on_packet_checked(pkt, sender):
            assert fingerprint(pkt) == handed[-1], (
                f"{pkt.kind.value} uid {pkt.uid} from {sender} changed between "
                f"its send and node {node}'s reception")
            checked[0] += 1
            return on_packet(pkt, sender)
        return on_packet_checked

    radio.broadcast = recording(radio.broadcast)
    radio.unicast = recording(radio.unicast)
    sim.schedule = tagging_schedule
    sim.handler = checking_dispatch
    for node, proto in enumerate(engine.protocols):
        proto.on_packet = checking(node, proto.on_packet)
    engine.run()
    return checked[0]


STAGE1_CASES = [(proto, hello, jitter)
                for proto, hello in (("aodv", False), ("aodv", True),
                                     ("gpsr", False), ("gpsr_greedy_only", False),
                                     ("crp", False))
                for jitter in (0.0, 0.002)]


@pytest.mark.parametrize("protocol, hello, jitter", STAGE1_CASES)
def test_receivers_see_packets_as_sent_stage1(protocol, hello, jitter):
    base = load_scenario(os.path.join(SCENARIO_DIR, "stage1_load.scn"))
    sc = dataclasses.replace(base, protocol=protocol, aodv_hello=hello,
                             jitter_max_s=jitter, duration_s=60.0)
    assert run_guarded(sc) > 10_000


def test_receivers_see_packets_as_sent_dense_crp():
    base = load_scenario(os.path.join(SCENARIO_DIR, "stage2_mobility.scn"))
    sc = dataclasses.replace(base, protocol="crp", n_nodes=100, duration_s=5.0)
    assert run_guarded(sc) > 10_000
