"""Random-waypoint traces: coverage, interpolation, and area invariants."""

import random
from bisect import bisect_right

import pytest

from manet_lab.core import rng_stream, us
from manet_lab.engine import Engine
from manet_lab.errors import OutOfTraceRange
from manet_lab.geometry import Position, dist
from manet_lab.mobility import (Leg, WaypointTrace, position_at,
                                random_waypoint_trace)
from manet_lab.scenario import Scenario


def test_pause_equals_duration_is_stationary():
    rng = rng_stream(3, "mobility")
    trace = random_waypoint_trace(1000, 1000, 20.0, pause_s=50.0,
                                  duration_s=50.0, rng=rng)
    p0 = position_at(trace, 0)
    for t_s in (0.0, 12.5, 49.999, 50.0):
        assert position_at(trace, us(t_s)) == p0


def test_arrival_time_is_distance_over_speed():
    # d = v * t: a 100 m leg at 20 m/s arrives exactly 5 s after departure.
    leg = Leg(depart_at=0, start=Position(0, 0), end=Position(100, 0),
              arrive_at=us(5.0))
    trace = WaypointTrace(us(5.0), [leg])
    assert position_at(trace, us(5.0)) == Position(100, 0)
    assert position_at(trace, us(2.5)) == Position(50, 0)  # midpoint
    assert position_at(trace, 0) == Position(0, 0)         # departure point

    rng = rng_stream(8, "mobility")
    generated = random_waypoint_trace(1000, 1000, 20.0, 0.0, 60.0, rng)
    for leg in generated.legs:
        travel_s = dist(leg.start, leg.end) / 20.0
        assert leg.arrive_at - leg.depart_at == us(travel_s)


def test_waypoints_uniform_over_area():
    # Statistical oracle: the mean of uniform draws over a 1000 m square is
    # the center; 1e4 waypoints put the sample mean within +-10 m.
    rng = rng_stream(41, "mobility")
    xs, ys, count = 0.0, 0.0, 0
    while count < 10_000:
        trace = random_waypoint_trace(1000, 1000, 20.0, 0.0, 2000.0, rng)
        for leg in trace.legs:
            xs += leg.end.x
            ys += leg.end.y
            count += 1
    assert abs(xs / count - 500.0) < 10.0
    assert abs(ys / count - 500.0) < 10.0


def test_position_during_pause_is_waypoint():
    rng = rng_stream(5, "mobility")
    trace = random_waypoint_trace(1000, 1000, 20.0, pause_s=5.0,
                                  duration_s=300.0, rng=rng)
    moving = [leg for leg in trace.legs if leg.arrive_at > leg.depart_at]
    assert moving, "expected at least one travelled leg"
    leg = moving[0]
    inside_pause = leg.arrive_at + us(2.5)
    assert position_at(trace, inside_pause) == leg.end


def test_out_of_range_query_rejected():
    rng = rng_stream(5, "mobility")
    trace = random_waypoint_trace(1000, 1000, 20.0, 0.0, 10.0, rng)
    with pytest.raises(OutOfTraceRange):
        position_at(trace, trace.duration + 1)
    with pytest.raises(OutOfTraceRange):
        position_at(trace, -1)


def test_legs_are_time_contiguous():
    # Each leg takes distance / speed, and the next departs pause_s after
    # it arrives, from where it ended.
    rng = rng_stream(17, "mobility")
    trace = random_waypoint_trace(800, 600, 20.0, 3.0, 400.0, rng)
    for prev, nxt in zip(trace.legs, trace.legs[1:]):
        assert prev.arrive_at - prev.depart_at == us(dist(prev.start, prev.end) / 20.0)
        assert nxt.depart_at - prev.arrive_at == us(3.0)
        assert prev.end == nxt.start


def test_positions_never_leave_area():
    rng = rng_stream(29, "mobility")
    sample_rng = rng_stream(29, "traffic")
    for _ in range(10):
        trace = random_waypoint_trace(1000, 1000, 20.0, 2.0, 500.0, rng)
        for _ in range(1000):
            t = sample_rng.randrange(0, trace.duration + 1)
            p = position_at(trace, t)
            assert 0.0 <= p.x <= 1000.0 and 0.0 <= p.y <= 1000.0


def test_continuity_bound():
    # Between samples 1 ms apart the node moves at most speed * 1 ms (+eps).
    rng = rng_stream(31, "mobility")
    trace = random_waypoint_trace(1000, 1000, 20.0, 1.0, 120.0, rng)
    step = us(0.001)
    bound = 20.0 * 0.001 + 1e-9
    for k in range(0, 120_000, 37):  # stride keeps the sweep cheap
        t = k * 1000
        if t + step > trace.duration:
            break
        assert dist(position_at(trace, t), position_at(trace, t + step)) <= bound


def test_same_stream_reproduces_trace():
    a = random_waypoint_trace(1000, 1000, 20.0, 4.0, 200.0, rng_stream(77, "mobility"))
    b = random_waypoint_trace(1000, 1000, 20.0, 4.0, 200.0, rng_stream(77, "mobility"))
    assert a.legs == b.legs


def bisect_position(trace: WaypointTrace, t: int) -> Position:
    """Reference interpolation without a cursor: binary search on every call."""
    idx = max(bisect_right([leg.depart_at for leg in trace.legs], t) - 1, 0)
    leg = trace.legs[idx]
    if t >= leg.arrive_at:
        return leg.end
    frac = (t - leg.depart_at) / (leg.arrive_at - leg.depart_at)
    return Position(leg.start.x + frac * (leg.end.x - leg.start.x),
                    leg.start.y + frac * (leg.end.y - leg.start.y))


@pytest.mark.parametrize("pause_s", [0.0, 3.0])
def test_snapshot_equals_position_at_exactly(pause_s):
    # The per-instant coordinate snapshot and the leg cursor must reproduce
    # the binary-search interpolation bit for bit, whatever order the
    # queries come in: forwards, backwards, shuffled and repeated.
    duration_s = 120.0
    rng = rng_stream(11, "mobility")
    traces = [random_waypoint_trace(1000, 1000, 20.0, pause_s, duration_s, rng)
              for _ in range(12)]
    sc = Scenario(n_nodes=len(traces), duration_s=duration_s, pause_s=pause_s)
    engine = Engine(sc, traces=traces, streams=[])
    duration = traces[0].duration
    instants = {0, duration}
    for trace in traces:
        for leg in trace.legs:
            instants.update(t for t in (leg.depart_at, leg.arrive_at)
                            if t <= duration)
    picker = random.Random(5)
    instants.update(picker.randrange(duration + 1) for _ in range(300))
    forwards = sorted(instants)
    shuffled = list(forwards)
    picker.shuffle(shuffled)
    order = forwards + forwards[::-1] + shuffled
    order = [t for t in order for _ in (0, 1)]  # each query twice in a row
    for t in order:
        points = engine.radio.coords_at(t)
        for node, trace in enumerate(traces):
            expected = bisect_position(trace, t)
            assert points[node] == (expected.x, expected.y)
            assert position_at(trace, t) == expected
            assert engine.position_at_time(node, t) == expected
