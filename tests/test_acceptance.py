"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`. The suite is heavier than
the unit tests (full-length runs and a 120-cell sweep); expect 10-20 minutes
on two cores.
"""

import math
import os
import random
import time
from collections import deque

import pytest

from manet_lab.core import us
from manet_lab.engine import run_one
from manet_lab.geometry import Position, dist
from manet_lab.gpsr import NeighborEntry, planarize_gg
from manet_lab.metrics import MetricsRow
from manet_lab.scenario import load_scenario
from manet_lab.sweep import SweepPlan, aggregate, render_table, run_sweep, write_csv

from conftest import (VOID_D, VOID_POSITIONS, VOID_S, VOID_X, bfs_hops, cbr,
                      connected_random_positions, gabriel_edges,
                      one_shot_stream, random_positions,
                      segments_properly_cross, static_engine, unit_disk_adj)
from reference_geometry import ccw_angle

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios")

# rows accumulated by criteria 1-5 and re-checked wholesale by criterion 7
_ROWS: list[MetricsRow] = []

_GRAPH_CACHE: list[dict[int, Position]] | None = None


def fifty_graphs() -> list[dict[int, Position]]:
    """The 50 random static connected 30-node placements (seeded)."""
    global _GRAPH_CACHE
    if _GRAPH_CACHE is None:
        rng = random.Random(20240809)
        _GRAPH_CACHE = [connected_random_positions(rng, 30) for _ in range(50)]
    return _GRAPH_CACHE


def check_identities(row: MetricsRow) -> None:
    assert row.delivered <= row.sent
    assert 0.0 <= row.delivery_ratio <= 1.0
    assert row.sent == row.delivered + sum(row.drops.values()) + row.in_flight
    assert row.transmissions_total >= row.delivered or row.sent == 0


def offered_streams(positions, case: int):
    pair_rng = random.Random(1000 + case)
    streams = []
    for _ in range(10):
        src, dst = pair_rng.sample(sorted(positions), 2)
        streams.append(cbr(src, dst, start_s=5.0, interval_s=0.25, stop_s=17.3))
    return streams


def test_criterion_1_determinism_and_runtime():
    base = load_scenario(os.path.join(SCENARIO_DIR, "stage1_load.scn"))
    times = {}
    import dataclasses
    for protocol in ("aodv", "gpsr", "crp"):
        sc = dataclasses.replace(base, protocol=protocol, seed=42)
        t0 = time.monotonic()
        first = run_one(sc)
        elapsed = time.monotonic() - t0
        second = run_one(sc)
        assert first.to_csv_row() == second.to_csv_row(), \
            f"{protocol}: repeated run differs"
        assert elapsed < 60.0, f"{protocol}: run took {elapsed:.1f} s"
        times[protocol] = elapsed
        _ROWS.extend([first, second])
    print(f"ACCEPTANCE 1 PASS - byte-identical rows; runtimes "
          + ", ".join(f"{p}={t:.1f}s" for p, t in times.items()))


def test_criterion_2_aodv_routes_equal_bfs():
    checked = 0
    pick = random.Random(7)
    for case, positions in enumerate(fifty_graphs()):
        adj = unit_disk_adj(positions)
        for pair_idx in range(2):
            src, dst = pick.sample(sorted(positions), 2)
            want = bfs_hops(adj, src, dst)
            engine = static_engine(positions, "aodv", duration_s=5.0,
                                   streams=[one_shot_stream(src, dst, at_s=0.5)],
                                   seed=case * 10 + pair_idx + 1)
            row = engine.run()
            assert row.delivered == 1, f"graph {case}: packet not delivered"
            got = engine.protocols[src].core.table.get(dst).hop_count
            assert got == want, f"graph {case} {src}->{dst}: {got} != BFS {want}"
            data_hops = [h for h in engine.hop_log[0] if h[2] == "aodv"]
            assert len(data_hops) == want
            _ROWS.append(row)
            checked += 1
    print(f"ACCEPTANCE 2 PASS - {checked} discoveries on 50 graphs match BFS exactly")


def test_criterion_3_static_delivery_guarantees():
    results = {"aodv": 0, "gpsr": 0, "crp": 0}
    for case, positions in enumerate(fifty_graphs()):
        streams = offered_streams(positions, case)
        for protocol in results:
            engine = static_engine(positions, protocol, duration_s=22.0,
                                   streams=streams, seed=case + 1,
                                   record_hops=False, data_ttl=64, rreq_ttl=64)
            row = engine.run()
            assert row.sent == 500, f"graph {case}: offered {row.sent} != 500"
            assert row.delivery_ratio == 1.0, \
                f"graph {case} {protocol}: ratio {row.delivery_ratio} " \
                f"drops={row.drops} in_flight={row.in_flight}"
            results[protocol] += row.delivered
            _ROWS.append(row)
    print("ACCEPTANCE 3 PASS - delivery 1.0 on 50 static graphs: "
          + ", ".join(f"{p}={n}/25000" for p, n in results.items()))


def test_criterion_4_void_regression():
    streams = [cbr(VOID_S, VOID_D, start_s=5.0, interval_s=0.5, stop_s=14.5)]

    greedy_only = static_engine(VOID_POSITIONS, "gpsr_greedy_only",
                                duration_s=20.0, streams=streams)
    row_greedy = greedy_only.run()
    assert row_greedy.sent == 20
    assert row_greedy.delivered == 0
    assert row_greedy.drops["perimeter_exhausted"] == row_greedy.sent, \
        "all greedy-only losses must be local-maximum drops"

    gpsr = static_engine(VOID_POSITIONS, "gpsr", duration_s=20.0, streams=streams)
    row_gpsr = gpsr.run()
    assert row_gpsr.delivery_ratio == 1.0

    crp = static_engine(VOID_POSITIONS, "crp", duration_s=20.0, streams=streams)
    row_crp = crp.run()
    assert row_crp.delivery_ratio == 1.0
    anchors = [(o, d) for (o, d, _t) in crp.flood_log]
    assert len(anchors) >= 1
    assert all(a == (VOID_X, VOID_D) for a in anchors), \
        "every flood must anchor at the local-maximum node"
    assert crp.metrics.transmissions_by_kind["rerr"] == 0

    _ROWS.extend([row_greedy, row_gpsr, row_crp])
    print("ACCEPTANCE 4 PASS - greedy-only 0%, gpsr 100%, crp 100%, "
          f"{len(anchors)} flood(s) anchored at the stuck node, zero rerr")


def flood_tx_oracle(positions, origin: int, skip: int, ttl: int) -> int:
    """Independent count of flood transmissions: the origin plus every node
    within ttl-1 hops that is neither the origin nor the replying target."""
    adj = unit_disk_adj(positions)
    depth = {origin: 0}
    frontier = deque([origin])
    while frontier:
        u = frontier.popleft()
        for v in adj[u]:
            if v not in depth:
                depth[v] = depth[u] + 1
                frontier.append(v)
    relays = [v for v, d in depth.items()
              if v not in (origin, skip) and d <= ttl - 1]
    return 1 + len(relays)


def test_criterion_5_flood_anchoring_advantage():
    # The constructed topology puts the local maximum strictly closer to the
    # destination than the source.
    assert dist(VOID_POSITIONS[VOID_X], VOID_POSITIONS[VOID_D]) < \
        dist(VOID_POSITIONS[VOID_S], VOID_POSITIONS[VOID_D])

    counts = {}
    for label, ttl in (("wide", 32), ("tight", 7)):
        aodv = static_engine(VOID_POSITIONS, "aodv", duration_s=20.0,
                             streams=[one_shot_stream(VOID_S, VOID_D, at_s=5.0)],
                             rreq_ttl=ttl, data_ttl=32)
        row_a = aodv.run()
        assert row_a.delivered == 1
        crp = static_engine(VOID_POSITIONS, "crp", duration_s=20.0,
                            streams=[one_shot_stream(VOID_S, VOID_D, at_s=5.0)],
                            rreq_ttl=ttl, data_ttl=32)
        row_c = crp.run()
        assert row_c.delivered == 1
        a_tx = aodv.metrics.transmissions_by_kind["rreq"]
        c_tx = crp.metrics.transmissions_by_kind["rreq"]
        # derived expectations from the BFS depth oracle
        assert a_tx == flood_tx_oracle(VOID_POSITIONS, VOID_S, VOID_D, ttl)
        assert c_tx == flood_tx_oracle(VOID_POSITIONS, VOID_X, VOID_D, ttl)
        assert c_tx <= a_tx, f"{label}: anchored flood larger ({c_tx} > {a_tx})"
        counts[label] = (c_tx, a_tx)
        _ROWS.extend([row_a, row_c])
    assert counts["tight"][0] < counts["tight"][1], \
        "tight ttl must show a strictly smaller anchored flood"
    print("ACCEPTANCE 5 PASS - rreq counts (crp vs aodv): "
          f"wide ttl {counts['wide'][0]} <= {counts['wide'][1]}, "
          f"tight ttl {counts['tight'][0]} < {counts['tight'][1]}")


def test_criterion_6_geometric_property_suites():
    # (a) greedy monotonicity over >= 1000 delivered packets on static runs
    checked_packets = 0
    for case, positions in enumerate(fifty_graphs()[:10]):
        for protocol, tag in (("gpsr", "greedy"), ("crp", "geo_greedy")):
            engine = static_engine(positions, protocol, duration_s=22.0,
                                   streams=offered_streams(positions, case),
                                   seed=case + 1, data_ttl=64, rreq_ttl=64)
            engine.run()
            for uid, hops in engine.hop_log.items():
                if hops[-1][2] != "delivered":
                    continue
                nodes = [n for (n, _, t) in hops if t == tag]
                # destination position comes from the delivery record
                dst_node = [n for (n, _, t) in hops if t == "delivered"][0]
                dd = [dist(positions[n], positions[dst_node]) for n in nodes]
                assert all(a > b for a, b in zip(dd, dd[1:])), \
                    f"{protocol} uid {uid}: non-monotone greedy distances {dd}"
                checked_packets += 1
    assert checked_packets >= 1000

    # (b, c) local planarization equals the centralized oracle, stays inside
    # the unit-disk graph, and produces no crossing edges
    rng = random.Random(606)
    edge_decisions = 0
    for _ in range(50):
        positions = random_positions(rng, 20)
        adj = unit_disk_adj(positions)
        oracle = gabriel_edges(positions)
        local = set()
        for node, pos in positions.items():
            nbrs = [NeighborEntry(v, positions[v], 0) for v in sorted(adj[node])]
            for e in planarize_gg(pos, nbrs):
                local.add((min(node, e.neighbor), max(node, e.neighbor)))
            edge_decisions += len(nbrs)
        assert local == oracle
        assert local <= {(min(u, v), max(u, v)) for u in adj for v in adj[u]}
        edges = sorted(local)
        for i, (a, b) in enumerate(edges):
            for c, d in edges[i + 1:]:
                if len({a, b, c, d}) == 4:
                    assert not segments_properly_cross(
                        positions[a], positions[b], positions[c], positions[d])
    assert edge_decisions >= 1000

    # (d) angle ordering against the polar-angle oracle
    def polar_oracle(pivot, ref, cand):
        zero = math.atan2(pivot.y - ref.y, pivot.x - ref.x)
        return (math.atan2(cand.y - pivot.y, cand.x - pivot.x) - zero) % (2 * math.pi)

    arng = random.Random(99)
    for _ in range(1000):
        pivot = Position(arng.uniform(-50, 50), arng.uniform(-50, 50))
        ref = Position(arng.uniform(-50, 50), arng.uniform(-50, 50))
        cands = [Position(arng.uniform(-50, 50), arng.uniform(-50, 50))
                 for _ in range(6)]
        if ref == pivot or any(c == pivot for c in cands):
            continue
        impl = sorted(cands, key=lambda c: ccw_angle((pivot, ref), (pivot, c)))
        want = sorted(cands, key=lambda c: polar_oracle(pivot, ref, c))
        assert impl == want
    print(f"ACCEPTANCE 6 PASS - monotonicity on {checked_packets} packets, "
          f"{edge_decisions} planarization decisions, 1000 angle orderings")


def test_criterion_7_accounting_identities():
    assert _ROWS, "criteria 1-5 populate the row pool"
    for row in _ROWS:
        check_identities(row)

    # broadcast-counted-once: every flood rebroadcast appears exactly once
    # per relaying node
    engine = static_engine(VOID_POSITIONS, "crp", duration_s=15.0,
                           streams=[cbr(VOID_S, VOID_D, start_s=5.0,
                                        interval_s=0.5, stop_s=9.0)])
    row = engine.run()
    relays = engine.metrics.transmissions_by_kind["rreq"]
    assert relays == flood_tx_oracle(VOID_POSITIONS, VOID_X, VOID_D, 32)
    check_identities(row)
    print(f"ACCEPTANCE 7 PASS - identities hold on {len(_ROWS)} rows; "
          f"{relays} flood transmissions, one per relaying node")


def test_criterion_8_desk_scale_mobility_study(tmp_path):
    base = load_scenario(os.path.join(SCENARIO_DIR, "stage2_mobility.scn"))
    plan = SweepPlan(base=base, axis="pause", values=[0, 10, 20, 40],
                     replications=10, protocols=["aodv", "gpsr", "crp"])
    jobs = min(2, os.cpu_count() or 1)
    t0 = time.monotonic()
    rows, failures = run_sweep(plan, jobs=jobs)
    elapsed = time.monotonic() - t0
    assert failures == []
    assert len(rows) == 120
    assert elapsed < 1800.0, f"sweep took {elapsed:.0f} s"
    for row in rows:
        check_identities(row)
    table = aggregate(rows)
    assert len(table) == 12  # 4 pause levels x 3 protocols
    write_csv(rows, tmp_path / "stage2_results.csv")
    text = render_table(table)
    (tmp_path / "stage2_table.txt").write_text(text)
    # The protocol ranking is REPORTED, not asserted: no published numbers
    # exist to compare against.
    print(f"ACCEPTANCE 8 PASS - 120 rows in {elapsed:.0f} s ({jobs} jobs); "
          "aggregate table follows")
    print(text)
    ranking = {}
    for (cell, proto), stats in table.items():
        ranking.setdefault(cell, []).append((stats["delivery_ratio"][0], proto))
    for cell in sorted(ranking):
        order = sorted(ranking[cell], reverse=True)
        pretty = " > ".join(f"{p}({r:.3f})" for r, p in order)
        print(f"  reported delivery ranking {cell}: {pretty}")
