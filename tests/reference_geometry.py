"""Reference geometry that the forwarding code is checked against.

`greedy_next_hop`, `planarize_gg` and `perimeter_next_hop` are the
Position-based bodies that `manet_lab.gpsr` had before it unpacked
coordinates into floats; the package versions must return exactly what
these return. `ccw_angle` and `sweep_from_ray` give the angular sweep that
the perimeter walk inlines.
"""

import math

from manet_lab.errors import ManetLabError
from manet_lab.geometry import TWO_PI, Position, dist


class DegenerateEdge(ManetLabError):
    """An angle was requested for an edge of zero length."""


def dist_sq(a: Position, b: Position) -> float:
    dx = a.x - b.x
    dy = a.y - b.y
    return dx * dx + dy * dy


def ccw_angle(reference_edge: tuple[Position, Position],
              candidate_edge: tuple[Position, Position]) -> float:
    """Counterclockwise sweep from the reversed reference edge to the candidate.

    Both edges are (pivot, endpoint) pairs sharing the pivot vertex. The
    reference edge points at the node a packet arrived from, so its reversal
    through the pivot is the continuation of travel; that direction is the
    zero of the sweep. Result is in [0, 2*pi).
    """
    pivot, ref = reference_edge
    pivot2, cand = candidate_edge
    if pivot != pivot2:
        raise ValueError("edges do not share a pivot vertex")
    rx, ry = pivot.x - ref.x, pivot.y - ref.y  # reversed reference direction
    cx, cy = cand.x - pivot.x, cand.y - pivot.y
    if rx == 0.0 and ry == 0.0:
        raise DegenerateEdge("reference edge has zero length")
    if cx == 0.0 and cy == 0.0:
        raise DegenerateEdge("candidate edge has zero length")
    return (math.atan2(cy, cx) - math.atan2(ry, rx)) % TWO_PI


def sweep_from_ray(pivot: Position, toward: Position, cand: Position) -> float:
    """CCW sweep measured from the ray pivot->toward instead of its reversal.

    This is the ordering the right-hand rule needs: the next face edge is the
    first one counterclockwise about the pivot from the edge pointing back at
    the previous hop (or toward the destination on face entry).
    """
    return (ccw_angle((pivot, toward), (pivot, cand)) + math.pi) % TWO_PI


def greedy_next_hop(self_pos, neighbors, dst_pos):
    own = dist(self_pos, dst_pos)
    best = None
    best_key = None
    for e in neighbors:
        d = dist(e.pos, dst_pos)
        if d < own:
            key = (d, e.neighbor)
            if best_key is None or key < best_key:
                best_key = key
                best = e.neighbor
    return best


def planarize_gg(self_pos, neighbors):
    to_self = [dist_sq(self_pos, w.pos) for w in neighbors]
    kept = []
    for v, sv in zip(neighbors, to_self):
        ok = True
        for w, sw in zip(neighbors, to_self):
            if w.neighbor == v.neighbor:
                continue
            if sw + dist_sq(w.pos, v.pos) < sv:
                ok = False
                break
        if ok:
            kept.append(v)
    return kept


def perimeter_next_hop(self_pos, planar, ref_pos, arrived_from):
    sx, sy = self_pos.x, self_pos.y
    degenerate_ref = ref_pos == self_pos
    if not degenerate_ref:
        ref_angle = math.atan2(sy - ref_pos.y, sx - ref_pos.x)
    best = None
    best_key = None
    for e in planar:
        if e.pos == self_pos:
            continue
        if e.neighbor == arrived_from:
            sweep = TWO_PI
        elif degenerate_ref:
            sweep = 0.0
        else:
            p = e.pos
            sweep = ((math.atan2(p.y - sy, p.x - sx) - ref_angle) % TWO_PI
                     + math.pi) % TWO_PI
        key = (sweep, e.neighbor)
        if best_key is None or key < best_key:
            best_key = key
            best = e.neighbor
    return best
