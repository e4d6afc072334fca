"""Planar geometry primitives used by forwarding decisions."""

import math
from dataclasses import dataclass

from .errors import DegenerateEdge

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class Position:
    x: float
    y: float


def dist(a: Position, b: Position) -> float:
    """Euclidean distance in meters."""
    return math.hypot(a.x - b.x, a.y - b.y)


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
    sweep = (math.atan2(cy, cx) - math.atan2(ry, rx)) % TWO_PI
    return sweep


def sweep_from_ray(pivot: Position, toward: Position, cand: Position) -> float:
    """CCW sweep measured from the ray pivot->toward instead of its reversal.

    This is the ordering the right-hand rule needs: the next face edge is the
    first one counterclockwise about the pivot from the edge pointing back at
    the previous hop (or toward the destination on face entry).
    `gpsr.perimeter_next_hop` inlines this formula, with the reference ray's
    angle taken once per call; this function is the reference it is tested
    against.
    """
    return (ccw_angle((pivot, toward), (pivot, cand)) + math.pi) % TWO_PI
