"""Distance and angle primitives against brute-force oracles."""

import math
import random

import pytest

from manet_lab.geometry import Position, dist

from reference_geometry import DegenerateEdge, ccw_angle, sweep_from_ray


def test_dist_345():
    assert dist(Position(0, 0), Position(3, 4)) == 5.0


def test_dist_identity():
    p = Position(17.5, -3.25)
    assert dist(p, p) == 0.0


def test_dist_symmetry_random_pairs():
    rng = random.Random(5)
    for _ in range(1000):
        a = Position(rng.uniform(-1e3, 1e3), rng.uniform(-1e3, 1e3))
        b = Position(rng.uniform(-1e3, 1e3), rng.uniform(-1e3, 1e3))
        assert dist(a, b) == dist(b, a)


def test_math_dist_is_hypot_of_differences_bit_for_bit():
    # The radio tests range with math.dist on (x, y) tuples, the protocols
    # with hypot of the coordinate differences; both must be one float.
    def both(p, q):
        return math.dist(p, q).hex(), math.hypot(p[0] - q[0], p[1] - q[1]).hex()

    rng = random.Random(250)
    pairs = [((rng.uniform(0, 1000), rng.uniform(0, 1000)),
              (rng.uniform(0, 1000), rng.uniform(0, 1000))) for _ in range(100_000)]
    for _ in range(2_000):  # about 250 m apart, and 250.0 exactly
        x, y = rng.uniform(0, 1000), rng.uniform(0, 1000)
        a = rng.uniform(0, 2 * math.pi)
        pairs.append(((x, y), (x + 250.0 * math.cos(a), y + 250.0 * math.sin(a))))
        pairs += [((x, y), (x + dx, y + dy))
                  for dx, dy in ((250.0, 0.0), (0.0, -250.0), (150.0, 200.0),
                                 (-70.0, 240.0))]
    pairs += [((0.0, 0.0), (250.0, 0.0)), ((0.0, 0.0), (150.0, 200.0))]
    for x in (0.0, -0.0, 1e-310, 5e-324, 1e-150, 123.456, 1e150, 1e300, 1.7e308):
        pairs += [((x, x), (x, x)), ((x, -x), (-x, x)), ((x, 0.0), (0.0, x)),
                  ((x, 1.0), (1.0, x)), ((3 * x, 4 * x), (0.0, 0.0))]
    for p, q in pairs:
        got, want = both(p, q)
        assert got == want, (p, q)
    assert math.dist((0.0, 0.0), (150.0, 200.0)) == 250.0


def test_ccw_angle_west_arrival_north_candidate():
    # Arriving from due west means the continuation points east (angle zero);
    # a candidate due north sits a quarter turn counterclockwise.
    pivot = Position(0, 0)
    west = Position(-1, 0)
    north = Position(0, 1)
    angle = ccw_angle((pivot, west), (pivot, north))
    assert angle == pytest.approx(math.pi / 2)


def test_ccw_angle_collinear_with_continuation_is_zero():
    pivot = Position(0, 0)
    west = Position(-1, 0)
    east = Position(2, 0)
    assert ccw_angle((pivot, west), (pivot, east)) == pytest.approx(0.0)


def test_ccw_angle_degenerate_edges():
    p = Position(1, 1)
    with pytest.raises(DegenerateEdge):
        ccw_angle((p, p), (p, Position(2, 2)))
    with pytest.raises(DegenerateEdge):
        ccw_angle((p, Position(0, 0)), (p, p))


def test_ccw_angle_requires_shared_pivot():
    with pytest.raises(ValueError):
        ccw_angle((Position(0, 0), Position(1, 0)),
                  (Position(5, 5), Position(6, 5)))


def _polar_oracle(pivot, ref, cand):
    # Independent computation: polar angles via atan2, sweep measured from
    # the reversed reference direction.
    zero = math.atan2(pivot.y - ref.y, pivot.x - ref.x)
    theta = math.atan2(cand.y - pivot.y, cand.x - pivot.x)
    return (theta - zero) % (2 * math.pi)


def test_ccw_angle_matches_atan2_oracle_random():
    rng = random.Random(11)
    for _ in range(1000):
        pivot = Position(rng.uniform(-100, 100), rng.uniform(-100, 100))
        ref = Position(rng.uniform(-100, 100), rng.uniform(-100, 100))
        cand = Position(rng.uniform(-100, 100), rng.uniform(-100, 100))
        if ref == pivot or cand == pivot:
            continue
        got = ccw_angle((pivot, ref), (pivot, cand))
        want = _polar_oracle(pivot, ref, cand)
        assert got == pytest.approx(want, abs=1e-12)
        assert 0.0 <= got < 2 * math.pi


def test_ccw_angle_sorting_matches_polar_sort():
    # Candidates around a pivot sorted by ccw_angle must come out in the same
    # cyclic order as sorting by raw polar angle from the same zero direction.
    rng = random.Random(23)
    for _ in range(200):
        pivot = Position(0, 0)
        ref = Position(rng.uniform(-10, 10), rng.uniform(-10, 10))
        if ref == pivot:
            continue
        cands = []
        while len(cands) < 8:
            c = Position(rng.uniform(-10, 10), rng.uniform(-10, 10))
            if c != pivot:
                cands.append(c)
        by_impl = sorted(cands, key=lambda c: ccw_angle((pivot, ref), (pivot, c)))
        by_oracle = sorted(cands, key=lambda c: _polar_oracle(pivot, ref, c))
        assert by_impl == by_oracle


def test_ccw_angle_strict_total_order_non_collinear():
    # Distinct directions get distinct sweeps (the right-hand rule relies on
    # the ordering being strict).
    pivot = Position(0, 0)
    ref = Position(-1, 0)
    angles = [ccw_angle((pivot, ref), (pivot, Position(math.cos(a), math.sin(a))))
              for a in [0.1 * k for k in range(1, 60)]]
    assert len(set(angles)) == len(angles)


def test_sweep_from_ray_is_pi_shifted():
    pivot = Position(0, 0)
    toward = Position(-1, 0)  # previous hop due west
    north = Position(0, 1)
    # From the ray pointing at the previous hop (west), north is a quarter
    # turn clockwise, i.e. three quarters counterclockwise.
    assert sweep_from_ray(pivot, toward, north) == pytest.approx(3 * math.pi / 2)
