"""Planar geometry primitives used by forwarding decisions."""

import math
from typing import NamedTuple

TWO_PI = 2.0 * math.pi


class Position(NamedTuple):
    """A point in meters. A tuple, so `x, y = pos` unpacks it and `==`
    compares the two floats."""

    x: float
    y: float


def dist(a: Position, b: Position) -> float:
    """Euclidean distance in meters."""
    return math.hypot(a.x - b.x, a.y - b.y)
