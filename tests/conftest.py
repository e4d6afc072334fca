"""Shared fixtures and independent oracles.

The oracles here (BFS hop counts, centralized Gabriel graph, segment
intersection) are deliberately written from scratch against the math, not by
calling the code under test, so route/planarization checks compare two
independent computations.
"""

import json
import math
import os
import random
import subprocess
import sys
from collections import deque
from pathlib import Path

import pytest

from manet_lab.core import us
from manet_lab.engine import Engine
from manet_lab.geometry import Position
from manet_lab.metrics import CSV_COLUMNS
from manet_lab.mobility import Leg, WaypointTrace
from manet_lab.scenario import Scenario
from manet_lab.traffic import CbrStream

RANGE = 250.0
SRC = Path(__file__).resolve().parent.parent / "src"


# -- graph oracles -------------------------------------------------------

def unit_disk_adj(positions: dict[int, Position], radio_range: float = RANGE):
    """Adjacency sets of the boundary-inclusive unit-disk graph."""
    adj = {n: set() for n in positions}
    nodes = sorted(positions)
    for i, a in enumerate(nodes):
        for b in nodes[i + 1:]:
            if math.dist((positions[a].x, positions[a].y),
                         (positions[b].x, positions[b].y)) <= radio_range:
                adj[a].add(b)
                adj[b].add(a)
    return adj


def bfs_hops(adj, src: int, dst: int) -> int | None:
    """Shortest hop count by breadth-first search; None if unreachable."""
    if src == dst:
        return 0
    seen = {src}
    frontier = deque([(src, 0)])
    while frontier:
        node, depth = frontier.popleft()
        for nxt in sorted(adj[node]):
            if nxt in seen:
                continue
            if nxt == dst:
                return depth + 1
            seen.add(nxt)
            frontier.append((nxt, depth + 1))
    return None


def is_connected(adj) -> bool:
    nodes = list(adj)
    seen = {nodes[0]}
    frontier = deque([nodes[0]])
    while frontier:
        node = frontier.popleft()
        for nxt in adj[node]:
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return len(seen) == len(nodes)


def gabriel_edges(positions: dict[int, Position], radio_range: float = RANGE):
    """Centralized Gabriel graph restricted to unit-disk edges: the edge
    (u, v) survives unless some node w has angle(u, w, v) > 90 degrees,
    i.e. lies strictly inside the circle with diameter (u, v)."""
    adj = unit_disk_adj(positions, radio_range)
    edges = set()
    for u in positions:
        for v in adj[u]:
            if u >= v:
                continue
            uu, vv = positions[u], positions[v]
            d_uv = (uu.x - vv.x) ** 2 + (uu.y - vv.y) ** 2
            blocked = False
            for w, ww in positions.items():
                if w in (u, v):
                    continue
                d_uw = (uu.x - ww.x) ** 2 + (uu.y - ww.y) ** 2
                d_wv = (ww.x - vv.x) ** 2 + (ww.y - vv.y) ** 2
                if d_uw + d_wv < d_uv:
                    blocked = True
                    break
            if not blocked:
                edges.add((u, v))
    return edges


def segments_properly_cross(p1, p2, p3, p4) -> bool:
    """True when open segments (p1,p2) and (p3,p4) intersect at an interior
    point of both; shared endpoints do not count."""

    def orient(a, b, c):
        v = (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)
        if v > 0:
            return 1
        if v < 0:
            return -1
        return 0

    o1 = orient(p1, p2, p3)
    o2 = orient(p1, p2, p4)
    o3 = orient(p3, p4, p1)
    o4 = orient(p3, p4, p2)
    return o1 != o2 and o3 != o4 and 0 not in (o1, o2, o3, o4)


def random_positions(rng: random.Random, n: int, width=1000.0, height=1000.0):
    return {i: Position(rng.uniform(0, width), rng.uniform(0, height))
            for i in range(n)}


def connected_random_positions(rng: random.Random, n: int, width=1000.0,
                               height=1000.0, radio_range: float = RANGE):
    """Rejection-sample placements until the unit-disk graph is connected."""
    while True:
        positions = random_positions(rng, n, width, height)
        if is_connected(unit_disk_adj(positions, radio_range)):
            return positions


def fresh_python(code: str):
    """Run `code` in a new interpreter that imports manet_lab from src/ and
    return the JSON it prints."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def assert_float_columns_exact(row, line: str) -> None:
    """Each float column of a results line parses back to the row's value
    bit for bit (`repr` output); an absent mean delay is an empty field."""
    fields = dict(zip(CSV_COLUMNS, line.split(",")))
    for col in ("pause_s", "rate_pps", "delivery_ratio", "mean_delay_ms"):
        value = getattr(row, col)
        if value is None:
            assert fields[col] == ""
        else:
            assert float(fields[col]) == value


# -- engine builders -----------------------------------------------------

def static_traces(positions: dict[int, Position], duration_s: float):
    duration = us(duration_s)
    traces = []
    for node in sorted(positions):
        p = positions[node]
        traces.append(WaypointTrace(duration, [Leg(0, p, p, 0)]))
    return traces


def static_engine(positions: dict[int, Position], protocol: str,
                  duration_s: float, streams: list[CbrStream],
                  seed: int = 1, record_hops: bool = True,
                  **overrides) -> Engine:
    sc = Scenario(
        n_nodes=len(positions), protocol=protocol, duration_s=duration_s,
        seed=seed, pause_s=duration_s, n_streams=max(1, len(streams)),
        **overrides)
    return Engine(sc, traces=static_traces(positions, duration_s),
                  streams=streams, record_hops=record_hops)


def trace_from_waypoints(duration_s: float,
                         waypoints: list[tuple[float, Position]]) -> WaypointTrace:
    """Trace visiting (time_s, position) waypoints, moving in straight lines
    between them and resting at the last one until the end of the run."""
    duration = us(duration_s)
    legs = []
    for (t0, p0), (t1, p1) in zip(waypoints, waypoints[1:]):
        # a waypoint repeated in place is a rest until the next one
        arrive = us(t0) if p0 == p1 else us(t1)
        legs.append(Leg(us(t0), p0, p1, arrive))
    last_t, last_p = waypoints[-1]
    legs.append(Leg(us(last_t), last_p, last_p, us(last_t)))
    return WaypointTrace(duration, legs)


def one_shot_stream(src: int, dst: int, at_s: float, size: int = 512) -> CbrStream:
    t = us(at_s)
    return CbrStream(src=src, dst=dst, packet_size=size, interval=1,
                     start_at=t, stop_at=t)


def cbr(src: int, dst: int, start_s: float, interval_s: float, stop_s: float,
        size: int = 512) -> CbrStream:
    return CbrStream(src=src, dst=dst, packet_size=size,
                     interval=us(interval_s), start_at=us(start_s),
                     stop_at=us(stop_s))


# -- the constructed void topology ----------------------------------------
#
# A source chain runs into node X, which borders an empty zone: X has no
# neighbor closer to the destination D, but a relay arc curves around the
# zone. A six-node tail hangs behind the source so a discovery flooded from
# the source touches more of the network than one anchored at X when the
# request TTL is tight.
#
#   S(0) - s1(1) - X(2)   ... void ...   D(7)
#    |               \ u1(3) - u2(4) - u3(5) - u4(6) - D
#   t1(8) - t2(9) - t3(10) - t4(11) - t5(12) - t6(13)

VOID_S, VOID_S1, VOID_X = 0, 1, 2
VOID_U1, VOID_U2, VOID_U3, VOID_U4 = 3, 4, 5, 6
VOID_D = 7

VOID_POSITIONS = {
    VOID_S: Position(100.0, 500.0),
    VOID_S1: Position(300.0, 500.0),
    VOID_X: Position(500.0, 500.0),
    VOID_U1: Position(460.0, 710.0),
    VOID_U2: Position(600.0, 850.0),
    VOID_U3: Position(800.0, 800.0),
    VOID_U4: Position(870.0, 650.0),
    VOID_D: Position(900.0, 500.0),
    8: Position(100.0, 300.0),
    9: Position(100.0, 100.0),
    10: Position(300.0, 100.0),
    11: Position(500.0, 100.0),
    12: Position(700.0, 100.0),
    13: Position(900.0, 100.0),
}


@pytest.fixture(scope="session")
def void_positions():
    return dict(VOID_POSITIONS)
