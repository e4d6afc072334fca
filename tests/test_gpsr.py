"""Greedy choice, planarization, the perimeter walk, and beacon upkeep."""

import random

import manet_lab.gpsr as gpsr_mod
from manet_lab.core import us
from manet_lab.engine import Engine
from manet_lab.geometry import TWO_PI, Position, dist
from manet_lab.gpsr import (NeighborEntry, NeighborTable, greedy_next_hop,
                            perimeter_next_hop, planarize_gg)
from manet_lab.scenario import Scenario

import reference_geometry as reference
from conftest import (VOID_D, VOID_S, cbr, gabriel_edges, one_shot_stream,
                      random_positions, segments_properly_cross,
                      static_engine, trace_from_waypoints, unit_disk_adj)


def entries(*pairs):
    return [NeighborEntry(n, pos, last_heard=0) for n, pos in pairs]


def brute_force_greedy(self_pos, neighbor_list, dst_pos):
    own = dist(self_pos, dst_pos)
    candidates = [(dist(e.pos, dst_pos), e.neighbor) for e in neighbor_list
                  if dist(e.pos, dst_pos) < own]
    return min(candidates)[1] if candidates else None


def test_greedy_picks_geometrically_closest():
    self_pos = Position(0, 0)
    dst = Position(10, 0)
    nbrs = entries((1, Position(4, 0)), (2, Position(2, 3)))
    # oracle: dist((4,0),(10,0)) = 6 beats dist((2,3),(10,0)) = sqrt(73)
    assert brute_force_greedy(self_pos, nbrs, dst) == 1
    assert greedy_next_hop(self_pos, nbrs, dst) == 1


def test_greedy_random_agrees_with_brute_force():
    rng = random.Random(31)
    for _ in range(300):
        self_pos = Position(rng.uniform(0, 100), rng.uniform(0, 100))
        dst = Position(rng.uniform(0, 100), rng.uniform(0, 100))
        nbrs = entries(*[(i, Position(rng.uniform(0, 100), rng.uniform(0, 100)))
                         for i in range(6)])
        assert greedy_next_hop(self_pos, nbrs, dst) == \
            brute_force_greedy(self_pos, nbrs, dst)


def test_greedy_local_maximum_and_empty():
    self_pos = Position(0, 0)
    dst = Position(10, 0)
    far = entries((1, Position(-5, 0)), (2, Position(0, 12)))
    assert greedy_next_hop(self_pos, far, dst) is None
    assert greedy_next_hop(self_pos, [], dst) is None


def test_greedy_tie_breaks_to_lower_id():
    self_pos = Position(0, 0)
    dst = Position(10, 0)
    nbrs = entries((7, Position(5, 1)), (3, Position(5, -1)))  # equidistant
    assert greedy_next_hop(self_pos, nbrs, dst) == 3


def test_gg_collinear_witness_removes_edge():
    self_pos = Position(0, 0)
    nbrs = entries((1, Position(10, 0)), (2, Position(5, 0)))
    kept = {e.neighbor for e in planarize_gg(self_pos, nbrs)}
    assert kept == {2}, "witness at the circle center must cut the long edge"


def test_gg_witness_on_circle_keeps_edge():
    self_pos = Position(0, 0)
    nbrs = entries((1, Position(10, 0)), (2, Position(5, 5)))  # exactly on circle
    kept = {e.neighbor for e in planarize_gg(self_pos, nbrs)}
    assert kept == {1, 2}, "the interior test is strict"


def test_gg_matches_centralized_oracle_subset_and_planarity():
    rng = random.Random(57)
    for case in range(30):
        positions = random_positions(rng, 20)
        adj = unit_disk_adj(positions)
        oracle = gabriel_edges(positions)
        local_edges = set()
        for node, pos in positions.items():
            nbrs = entries(*[(v, positions[v]) for v in sorted(adj[node])])
            for e in planarize_gg(pos, nbrs):
                local_edges.add((min(node, e.neighbor), max(node, e.neighbor)))
        assert local_edges == oracle, f"case {case}: local view != oracle"
        undirected_udg = {(min(u, v), max(u, v)) for u in adj for v in adj[u]}
        assert local_edges <= undirected_udg
        edges = sorted(local_edges)
        for i, (a, b) in enumerate(edges):
            for c, d in edges[i + 1:]:
                if len({a, b, c, d}) == 4:
                    assert not segments_properly_cross(
                        positions[a], positions[b], positions[c], positions[d]), \
                        f"case {case}: {a, b} crosses {c, d}"


def test_perimeter_square_walk_follows_right_hand_rule():
    # Square face, destination ray pointing into it: the walk must go around
    # one way consistently. Hand trace: entering at A toward a point east,
    # the first edge counterclockwise from the ray is the northern one.
    a, b, c, d = Position(0, 0), Position(200, 0), Position(200, 200), Position(0, 200)
    dst = Position(400, 100)
    # at A, planar neighbors B (east) and D (north)
    nxt = perimeter_next_hop(a, entries((1, b), (3, d)), dst, None)
    assert nxt == 3, "entry sweeps counterclockwise from the destination ray"
    # arrived at D from A: candidates A (back) and C (east): continue to C
    nxt = perimeter_next_hop(d, entries((0, a), (2, c)), a, 0)
    assert nxt == 2
    # arrived at C from D: candidates D (back) and B (south): continue to B
    nxt = perimeter_next_hop(c, entries((3, d), (1, b)), d, 3)
    assert nxt == 1


def test_perimeter_single_neighbor_sends_back():
    a = Position(0, 0)
    nxt = perimeter_next_hop(a, entries((5, Position(100, 0))),
                             Position(100, 0), arrived_from=5)
    assert nxt == 5, "degenerate single-edge face bounces the packet back"


def test_perimeter_none_without_planar_neighbors():
    assert perimeter_next_hop(Position(0, 0), [], Position(1, 1), None) is None


def test_two_node_dead_end_drops_on_first_edge_repeat():
    # A - B with the destination unreachable: the walk is A->B->A and the
    # next choice would retrace the first edge, so the packet is dropped.
    positions = {0: Position(0, 0), 1: Position(200, 0), 2: Position(900, 900)}
    engine = static_engine(positions, "gpsr", duration_s=8.0,
                           streams=[one_shot_stream(0, 2, at_s=5.0)])
    row = engine.run()
    assert row.delivered == 0
    assert row.drops["perimeter_exhausted"] == 1
    tags = [tag for (_, _, tag) in engine.hop_log[next(iter(engine.hop_log))]]
    assert tags.count("perimeter") == 2  # out and back


def test_void_walk_delivers_and_greedy_only_drops(void_positions):
    streams = [cbr(VOID_S, VOID_D, start_s=5.0, interval_s=0.5, stop_s=9.5)]
    full = static_engine(void_positions, "gpsr", duration_s=15.0, streams=streams)
    row = full.run()
    assert row.delivered == row.sent == 10
    # hand-traced hop sequence around the empty zone
    first_uid = min(full.hop_log)
    visited = [n for (n, _, tag) in full.hop_log[first_uid]
               if tag not in ("originated",)]
    assert visited == [0, 1, 2, 3, 4, 5, 6, 7]
    tags = [tag for (_, _, tag) in full.hop_log[first_uid]]
    assert tags[1:] == ["greedy", "greedy", "perimeter", "perimeter",
                        "perimeter", "greedy", "greedy", "delivered"]

    greedy_only = static_engine(void_positions, "gpsr_greedy_only",
                                duration_s=15.0, streams=streams)
    row2 = greedy_only.run()
    assert row2.delivered == 0
    assert row2.drops["perimeter_exhausted"] == row2.sent == 10


def test_greedy_monotonic_distance_per_hop(void_positions):
    engine = static_engine(void_positions, "gpsr", duration_s=12.0,
                           streams=[one_shot_stream(VOID_S, VOID_D, at_s=5.0)])
    engine.run()
    dst_pos = void_positions[VOID_D]
    for uid, hops in engine.hop_log.items():
        greedy_nodes = [n for (n, _, tag) in hops if tag == "greedy"]
        dists = [dist(void_positions[n], dst_pos) for n in greedy_nodes]
        assert all(a > b for a, b in zip(dists, dists[1:])), \
            f"uid {uid}: greedy distances not strictly decreasing: {dists}"


def test_perimeter_reverts_to_greedy_when_closer_than_entry(void_positions):
    engine = static_engine(void_positions, "gpsr", duration_s=12.0,
                           streams=[one_shot_stream(VOID_S, VOID_D, at_s=5.0)])
    engine.run()
    (uid, hops), = engine.hop_log.items()
    modes = {n: tag for (n, _, tag) in hops}
    assert modes[5] == "greedy", "node closer than the walk entry resumes greedy"
    assert modes[2] == "perimeter"


def test_neighbor_eviction_after_timeout():
    table = NeighborTable(us(4.5))
    table.update(1, Position(0, 0), now=0)
    assert [e.neighbor for e in table.fresh(us(4.4))] == [1]
    assert table.fresh(us(4.5) + 1) == []


def test_beacons_update_tables_and_count_as_overhead():
    positions = {0: Position(0, 0), 1: Position(100, 0)}
    engine = static_engine(positions, "gpsr", duration_s=5.0, streams=[])
    engine.run()
    assert engine.metrics.transmissions_total == \
        engine.metrics.transmissions_by_kind["beacon"]
    assert engine.metrics.transmissions_by_kind["beacon"] >= 8
    e = engine.protocols[0].nbrs.entries[1]
    assert e.pos == positions[1]
    assert e.last_heard > 0


def test_forwarding_state_is_traffic_independent():
    # Stateless forwarding: after a busy run a node holds nothing beyond its
    # neighbor table and beacon bookkeeping.
    positions = {0: Position(0, 0), 1: Position(200, 0), 2: Position(400, 0)}
    engine = static_engine(positions, "gpsr", duration_s=10.0,
                           streams=[cbr(0, 2, start_s=2.0, interval_s=0.1,
                                        stop_s=9.0)])
    engine.run()
    proto = engine.protocols[1]
    state_keys = set(vars(proto))
    assert "table" not in state_keys and "pending" not in state_keys
    assert len(proto.nbrs.entries) <= len(positions) - 1


def test_greedy_link_failure_evicts_and_retries_once():
    # m2 carries the greedy path and walks off; m1 retries through m1b.
    positions = {0: Position(0, 0), 1: Position(200, 0), 2: Position(400, 0),
                 3: Position(400, 150), 4: Position(600, 0)}
    duration = 20.0
    traces = [trace_from_waypoints(duration, [(0.0, positions[n])])
              for n in range(5)]
    traces[2] = trace_from_waypoints(duration,
                                     [(0.0, positions[2]), (6.2, positions[2]),
                                      (6.3, Position(400, 900))])
    sc = Scenario(n_nodes=5, protocol="gpsr", duration_s=duration, seed=9,
                  pause_s=duration, n_streams=1)
    engine = Engine(sc, traces=traces,
                    streams=[cbr(0, 4, start_s=5.0, interval_s=0.5, stop_s=12.0)],
                    record_hops=True)
    row = engine.run()
    assert row.delivered == row.sent, "retry through the alternate neighbor"
    assert row.drops["link_failure"] == 0
    routes = set()
    for hops in engine.hop_log.values():
        routes.add(tuple(n for (n, _, tag) in hops if tag == "greedy"))
    assert (0, 1, 2) in routes and (0, 1, 3) in routes


def test_failed_perimeter_entry_redecides_from_greedy():
    # A is a local maximum for the unreachable D. The face walk would enter
    # on edge A-P, the first counterclockwise from the ray toward D, but P
    # has walked out of range since its last beacon, so that send fails.
    # The retry decides again from greedy and enters on A-Q, so the walk
    # A -> Q -> A ends at the retrace of its first edge. Had the failed
    # entry edge stayed first, no edge would end the walk before the TTL.
    a, p, q, d = 0, 1, 2, 3
    duration = 10.0
    traces = [trace_from_waypoints(duration, [(0.0, Position(0, 0))]),
              trace_from_waypoints(duration, [(0.0, Position(-100, 200)),
                                              (6.2, Position(-100, 200)),
                                              (6.3, Position(-100, 2000))]),
              trace_from_waypoints(duration, [(0.0, Position(-100, -200))]),
              trace_from_waypoints(duration, [(0.0, Position(2000, 0))])]
    sc = Scenario(n_nodes=4, protocol="gpsr", duration_s=duration, seed=5,
                  pause_s=duration, n_streams=1)
    engine = Engine(sc, traces=traces,
                    streams=[one_shot_stream(a, d, at_s=6.5)], record_hops=True)
    row = engine.run()
    assert row.delivered == 0
    assert row.drops["perimeter_exhausted"] == 1 and row.drops["ttl"] == 0
    (hops,) = engine.hop_log.values()
    assert [(n, tag) for (n, _, tag) in hops] == [
        (a, "originated"), (a, "perimeter"), (q, "perimeter"),
        (-1, "dropped:perimeter_exhausted")]
    # the failed send to P, then A -> Q and Q -> A; P is forgotten
    assert engine.metrics.transmissions_by_kind["data"] == 3
    assert p not in engine.protocols[a].nbrs.entries


# -- the per-node caches and the inlined sweep against uncached references --

class UncachedTable:
    """NeighborTable without the kept list: every fresh() purges and sorts."""

    def __init__(self, timeout_us):
        self.timeout_us = timeout_us
        self.entries = {}

    def update(self, neighbor, pos, now):
        e = self.entries.get(neighbor)
        if e is None:
            self.entries[neighbor] = NeighborEntry(neighbor, pos, now)
        else:
            e.pos = pos
            e.last_heard = now

    def evict(self, neighbor):
        self.entries.pop(neighbor, None)

    def fresh(self, now):
        horizon = now - self.timeout_us
        for n in [n for n, e in self.entries.items() if e.last_heard < horizon]:
            del self.entries[n]
        return [self.entries[n] for n in sorted(self.entries)]


def random_table_step(rng, tables, now, n_ids=8):
    """Apply one random update, eviction or clock advance to every table in
    `tables` alike (the first one is the reference) and return the new now.
    A heard neighbor is new, repeats its position or has moved; the clock
    lands on an entry's timeout deadline, one microsecond past it, or
    anywhere in the next 1.5 s."""
    ref = tables[0]
    n = rng.randrange(n_ids)
    op = rng.random()
    if op < 0.4:
        old = ref.entries.get(n)
        if old is not None and rng.random() < 0.5:
            pos = Position(old.pos.x, old.pos.y)
        else:
            pos = Position(rng.uniform(0, 500), rng.uniform(0, 500))
        for t in tables:
            t.update(n, pos, now)
    elif op < 0.55:
        for t in tables:
            t.evict(n)
    else:
        deadlines = [e.last_heard + ref.timeout_us for e in ref.entries.values()
                     if e.last_heard + ref.timeout_us >= now]
        pick = rng.random()
        if deadlines and pick < 0.3:
            now = rng.choice(deadlines)
        elif deadlines and pick < 0.6:
            now = rng.choice(deadlines) + 1
        else:
            now += rng.randrange(us(1.5))
    return now


def test_fresh_cache_matches_uncached_table():
    rng = random.Random(8)
    for _ in range(20):
        ref, table = UncachedTable(us(4.5)), NeighborTable(us(4.5))
        now = 0
        for _ in range(400):
            now = random_table_step(rng, (ref, table), now)
            if rng.random() < 0.8:  # purges are lazy, so also skip some reads
                assert table.fresh(now) == ref.fresh(now)
                assert table.entries == ref.entries


def test_planar_cache_matches_planarize_gg(monkeypatch):
    rng = random.Random(13)
    engine = static_engine({0: Position(0, 0), 1: Position(100, 0)}, "gpsr",
                           duration_s=1.0, streams=[])
    node = engine.protocols[0]
    node.nbrs = NeighborTable(us(4.5))
    misses = []

    def counted(self_pos, neighbors):
        misses.append(1)
        return planarize_gg(self_pos, neighbors)

    monkeypatch.setattr(gpsr_mod, "planarize_gg", counted)
    self_pos = Position(250, 250)
    now = calls = 0
    for _ in range(3000):
        now = random_table_step(rng, (node.nbrs,), now)
        if rng.random() < 0.1:
            self_pos = Position(rng.uniform(0, 500), rng.uniform(0, 500))
        elif rng.random() < 0.1:
            self_pos = Position(self_pos.x, self_pos.y)  # same floats, new object
        fresh = node.nbrs.fresh(now)
        assert node.planar_view(self_pos, fresh) == planarize_gg(self_pos, list(fresh))
        calls += 1
    assert 0 < len(misses) < calls, "both the hit and the miss path ran"


def reference_perimeter(self_pos, planar, ref_pos, arrived_from):
    keys = []
    for e in planar:
        if e.pos == self_pos:
            continue
        if e.neighbor == arrived_from:
            sweep = TWO_PI
        elif ref_pos == self_pos:
            sweep = 0.0
        else:
            sweep = reference.sweep_from_ray(self_pos, ref_pos, e.pos)
        keys.append((sweep, e.neighbor))
    return min(keys)[1] if keys else None


def test_perimeter_matches_sweep_from_ray_argmin():
    rng = random.Random(21)

    def point():
        # grid points give collinear candidates, equal sweeps and
        # coincident positions; uniform ones give general angles
        if rng.random() < 0.5:
            return Position(rng.randint(-3, 3) * 50.0, rng.randint(-3, 3) * 50.0)
        return Position(rng.uniform(-150, 150), rng.uniform(-150, 150))

    for _ in range(3000):
        self_pos = point()
        planar = entries(*[(i, point()) for i in rng.sample(range(20), rng.randint(0, 7))])
        pick = rng.random()
        if pick < 0.2:
            ref_pos = self_pos
        elif pick < 0.6 and planar:
            ref_pos = rng.choice(planar).pos
        else:
            ref_pos = point()
        ids = [e.neighbor for e in planar]
        arrived_from = rng.choice([None, 99] + ids)
        assert perimeter_next_hop(self_pos, planar, ref_pos, arrived_from) == \
            reference_perimeter(self_pos, planar, ref_pos, arrived_from)


# -- the float-unpacking hop functions against their Position-based bodies --

# Offsets of exactly 250 m (3-4-5 triangles scaled by 50, and the axes).
AT_RANGE = [(250.0, 0.0), (0.0, 250.0), (-250.0, 0.0), (0.0, -250.0),
            (150.0, 200.0), (-200.0, 150.0), (-150.0, -200.0), (200.0, -150.0)]


def hop_case(rng):
    """Self, destination and a neighbor list with ids in random order. The
    points mix grid points (equal distances and sweeps, collinear triples),
    points exactly 250 m from self, points on one line through self, the
    mirror image of another point across the line from self to the
    destination (equidistant to it), self's own position and uniform ones."""
    self_pos = Position(rng.randint(-2, 2) * 50.0, rng.randint(-2, 2) * 50.0)
    if rng.random() < 0.5:
        dst_pos = Position(self_pos.x + rng.choice([-1, 1]) * rng.randint(1, 8) * 100.0,
                           self_pos.y)
    else:
        dst_pos = Position(rng.uniform(-600, 600), rng.uniform(-600, 600))
    points = []
    for _ in range(rng.randint(0, 9)):
        pick = rng.random()
        if pick < 0.25:
            p = Position(rng.randint(-5, 5) * 50.0, rng.randint(-5, 5) * 50.0)
        elif pick < 0.4:
            ox, oy = rng.choice(AT_RANGE)
            p = Position(self_pos.x + ox, self_pos.y + oy)
        elif pick < 0.5:
            k = rng.choice([0.5, 1.0, 2.0, 3.0])
            p = Position(self_pos.x + k * 40.0, self_pos.y + k * 30.0)
        elif pick < 0.65 and points and dst_pos.y == self_pos.y:
            q = rng.choice(points)
            p = Position(q.x, 2 * self_pos.y - q.y)
        elif pick < 0.72:
            p = Position(self_pos.x, self_pos.y)
        else:
            p = Position(rng.uniform(-250, 250), rng.uniform(-250, 250))
        points.append(p)
    ids = rng.sample(range(40), len(points))
    return self_pos, dst_pos, entries(*zip(ids, points))


def test_float_hops_match_position_references():
    rng = random.Random(2000)
    seen = {"greedy tie": 0, "at own position": 0, "degenerate ray": 0,
            "collinear triple": 0, "at 250 m": 0, "local maximum": 0}
    for _ in range(600):
        self_pos, dst_pos, nbrs = hop_case(rng)
        # forward passes its own coordinates as a plain (x, y) tuple
        here = tuple(self_pos) if rng.random() < 0.5 else self_pos

        nh = greedy_next_hop(here, nbrs, dst_pos)
        assert nh == reference.greedy_next_hop(self_pos, nbrs, dst_pos)
        own = dist(self_pos, dst_pos)
        closer = sorted(dist(e.pos, dst_pos) for e in nbrs if dist(e.pos, dst_pos) < own)
        seen["greedy tie"] += len(closer) > 1 and closer[0] == closer[1]
        seen["local maximum"] += nh is None and bool(nbrs)

        planar = planarize_gg(here, nbrs)
        want = reference.planarize_gg(self_pos, nbrs)
        assert [id(e) for e in planar] == [id(e) for e in want]

        refs = [self_pos, dst_pos] + [e.pos for e in nbrs]
        arrivals = [None, 99] + [e.neighbor for e in nbrs]
        for _ in range(4):
            ref_pos = rng.choice(refs)
            arrived_from = rng.choice(arrivals)
            assert perimeter_next_hop(here, planar, ref_pos, arrived_from) == \
                reference.perimeter_next_hop(self_pos, want, ref_pos, arrived_from)
            seen["degenerate ray"] += ref_pos == self_pos

        points = [e.pos for e in nbrs]
        seen["at own position"] += self_pos in points
        seen["at 250 m"] += any(dist(self_pos, p) == 250.0 for p in points)
        seen["collinear triple"] += any(
            (b.x - a.x) * (c.y - a.y) == (b.y - a.y) * (c.x - a.x)
            for i, a in enumerate(points) for j, b in enumerate(points[i + 1:], i + 1)
            for c in points[j + 1:] if a != b and b != c and a != c)
    assert all(n >= 20 for n in seen.values()), seen


def test_hop_tags_and_transmission_kinds_read_as_names(void_positions):
    streams = [cbr(VOID_S, VOID_D, start_s=5.0, interval_s=0.5, stop_s=9.5)]
    for protocol, tags, kinds in (
            ("gpsr", {"greedy", "perimeter"}, {"beacon", "data"}),
            ("crp", {"geo_greedy", "aodv_route"}, {"beacon", "data", "rreq", "rrep"})):
        engine = static_engine(void_positions, protocol, duration_s=15.0,
                               streams=streams)
        row = engine.run()
        assert row.delivered == row.sent == 10
        hop_tags = {tag for hops in engine.hop_log.values() for (_, _, tag) in hops}
        assert hop_tags == tags | {"originated", "delivered"}
        by_kind = engine.metrics.transmissions_by_kind
        assert set(by_kind) == kinds
        assert sum(by_kind.values()) == row.transmissions_total
        # without a hop log the run gives the same row
        plain = static_engine(void_positions, protocol, duration_s=15.0,
                              streams=streams, record_hops=False)
        assert plain.run() == row and plain.hop_log is None
