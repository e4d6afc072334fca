"""Event loop ordering and seeded stream determinism."""

import hashlib
import random

import pytest

from manet_lab.core import EventKind, Simulator, _derive_seed, rng_stream, us
from manet_lab.errors import SchedulingInPast

from conftest import fresh_python


def make_sim(log):
    sim = Simulator()
    sim.handler = lambda ev: log.append((sim.now, ev.payload))
    return sim


def test_empty_queue_advances_clock():
    sim = make_sim([])
    count = sim.run_until(us(500))
    assert count == 0
    assert sim.now == us(500)


def test_fire_order_and_tie_break():
    log = []
    sim = make_sim(log)
    sim.schedule(us(2), EventKind.TIMER_EXPIRY, payload="second-a")
    sim.schedule(us(1), EventKind.TIMER_EXPIRY, payload="first")
    sim.schedule(us(2), EventKind.TIMER_EXPIRY, payload="second-b")
    sim.run_until(us(3))
    assert [p for _, p in log] == ["first", "second-a", "second-b"]
    assert [t for t, _ in log] == [us(1), us(2), us(2)]


def test_schedule_at_now_runs_after_current_event():
    sim = Simulator()
    log = []

    def handler(ev):
        log.append(ev.payload)
        if ev.payload == "outer":
            sim.schedule(sim.now, EventKind.TIMER_EXPIRY, payload="inner")

    sim.handler = handler
    sim.schedule(us(5), EventKind.TIMER_EXPIRY, payload="outer")
    sim.run_until(us(5))
    assert log == ["outer", "inner"]


def test_scheduling_in_past_rejected():
    sim = make_sim([])
    sim.schedule(us(1), EventKind.TIMER_EXPIRY)
    sim.run_until(us(2))
    with pytest.raises(SchedulingInPast):
        sim.schedule(us(1), EventKind.TIMER_EXPIRY)


def test_handler_chain_dispatched_in_same_run():
    # Counter oracle: each handler schedules a successor 1 ms later until 100;
    # everything within the window must be dispatched by one run_until call.
    sim = Simulator()
    fired = []

    def handler(ev):
        fired.append(ev.payload)
        if ev.payload < 100:
            sim.schedule(sim.now + us(0.001), EventKind.TIMER_EXPIRY,
                         payload=ev.payload + 1)

    sim.handler = handler
    sim.schedule(0, EventKind.TIMER_EXPIRY, payload=1)
    count = sim.run_until(us(1))
    assert count == 100
    assert fired == list(range(1, 101))


def test_total_order_property_random_events():
    # Dispatch log of randomly scheduled events must equal the sorted order.
    import random
    rng = random.Random(99)
    sim = Simulator()
    log = []
    sim.handler = lambda ev: log.append((ev.fire_at, ev.payload))
    expected = []
    for i in range(500):  # i is the insertion order
        t = rng.randrange(0, 10_000)
        sim.schedule(t, EventKind.TIMER_EXPIRY, payload=i)
        expected.append((t, i))
    sim.run_until(10_000)
    assert log == sorted(expected)


def test_rng_same_seed_same_label_identical():
    a = rng_stream(7, "traffic")
    b = rng_stream(7, "traffic")
    assert [a.random() for _ in range(1000)] == [b.random() for _ in range(1000)]


def test_rng_labels_are_independent():
    a = rng_stream(7, "traffic")
    b = rng_stream(7, "mobility")
    assert [a.random() for _ in range(50)] != [b.random() for _ in range(50)]


def test_rng_draws_match_plain_random_with_derived_seed():
    # The stream is exactly random.Random seeded with the derived seed.
    stream = rng_stream(11, "mobility")
    plain = random.Random(_derive_seed(11, "mobility"))
    for _ in range(100):
        assert stream.random() == plain.random()
        assert stream.uniform(-3.0, 7.0) == plain.uniform(-3.0, 7.0)
        assert stream.gauss(0.0, 1.0) == plain.gauss(0.0, 1.0)


# Every label the engine draws from.
ENGINE_LABELS = ("mobility", "jitter", "beacon", "hello", "pairs", "traffic")


def hashlib_stream(seed: int, label: str) -> random.Random:
    digest = hashlib.sha256(f"{seed}|{label}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def test_rng_stream_seeds_from_sha256_of_seed_and_label():
    for seed in range(200):
        for label in ENGINE_LABELS:
            stream, oracle = rng_stream(seed, label), hashlib_stream(seed, label)
            assert [stream.random() for _ in range(3)] == \
                [oracle.random() for _ in range(3)], (seed, label)


def test_rng_stream_without_builtin_sha256_falls_back_to_hashlib():
    # Blocking both built-in modules makes core.py take hashlib's sha256.
    code = (
        "import hashlib, json, sys\n"
        "sys.modules['_sha256'] = sys.modules['_sha2'] = None\n"
        "from manet_lab import core\n"
        "assert core._sha256 is hashlib.sha256\n"
        f"labels = {ENGINE_LABELS!r}\n"
        "print(json.dumps([[core.rng_stream(s, l).random() for l in labels]"
        " for s in range(200)]))\n"
    )
    expected = [[hashlib_stream(s, l).random() for l in ENGINE_LABELS]
                for s in range(200)]
    assert fresh_python(code) == expected


def test_rng_uniform_mean():
    # Statistical oracle: mean of 1e6 U(0,1) draws, tolerance about 3 sigma.
    stream = rng_stream(12345, "traffic")
    n = 1_000_000
    mean = sum(stream.random() for _ in range(n)) / n
    assert abs(mean - 0.5) < 0.002, f"sample mean {mean} too far from 0.5"
