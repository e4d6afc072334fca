"""Random-waypoint motion stored as piecewise-linear traces.

Traces are generated once per run and queried lazily at transmission times,
which is exact for straight-line legs and keeps the event queue free of
per-step movement events. Simulation time only moves forward, so each trace
keeps a cursor on the leg its last query fell on; a query outside that leg
finds its leg by binary search. `WaypointTrace.coords_at` returns raw
(x, y) floats for callers that fill flat coordinate lists, and
`position_at` wraps the same computation in a `Position`. `phase_at`
tells whether a node rests at t, until when, and on which leg, so the
radio can keep a resting node's coordinates for the whole rest and
interpolate a moving node from its stored leg.
"""

import random
from bisect import bisect_right
from dataclasses import dataclass

from .core import SimTime, us
from .errors import OutOfTraceRange
from .geometry import Position, dist


@dataclass(frozen=True)
class Leg:
    """One straight movement; the node then rests at `end` until the next
    leg departs (or the trace ends)."""

    depart_at: SimTime
    start: Position
    end: Position
    arrive_at: SimTime


class WaypointTrace:
    """Time-contiguous legs covering [0, duration] for one node."""

    def __init__(self, duration: SimTime, legs: list[Leg]):
        self.duration = duration
        self.legs = legs
        self._departs = [leg.depart_at for leg in legs]
        # Cursor: the fields of the leg the last query fell on, and the span
        # [_lo, _hi) of times that leg answers. Empty until the first query.
        self._cursor: tuple = ()
        self._lo: SimTime = 0
        self._hi: SimTime = 0

    def coords_at(self, t: SimTime) -> tuple[float, float]:
        """(x, y) at integer time t: linear on a leg, the endpoint during pauses."""
        if not self._lo <= t < self._hi:
            self._seek(t)
        depart, arrive, sx, sy, ex, ey = self._cursor
        if t >= arrive:
            return ex, ey
        frac = (t - depart) / (arrive - depart)
        return sx + frac * (ex - sx), sy + frac * (ey - sy)

    def phase_at(self, t: SimTime) -> tuple[bool, SimTime, tuple]:
        """(rests, until, leg): whether the node rests at t, which is when
        `coords_at` returns its leg's end point, the first instant after t
        at which that or the leg may change (the leg's arrival while it
        moves, the next departure, or duration + 1 on the last leg, while
        it rests), and the leg `coords_at` reads over [t, until), as
        `(depart, arrive, sx, sy, ex, ey)`."""
        if not self._lo <= t < self._hi:
            self._seek(t)
        leg = self._cursor
        arrive = leg[1]
        if t >= arrive:
            return True, self._hi, leg
        return False, min(arrive, self._hi), leg

    def _seek(self, t: SimTime) -> None:
        """Point the cursor at the last leg departing at or before t."""
        if t < 0 or t > self.duration:
            raise OutOfTraceRange(f"t={t} outside [0, {self.duration}]")
        departs = self._departs
        idx = bisect_right(departs, t) - 1
        if idx < 0:
            idx = 0
        leg = self.legs[idx]
        self._cursor = (leg.depart_at, leg.arrive_at,
                        leg.start.x, leg.start.y, leg.end.x, leg.end.y)
        self._lo = departs[idx]
        self._hi = departs[idx + 1] if idx + 1 < len(departs) else self.duration + 1


def random_waypoint_trace(area_width: float, area_height: float, speed: float,
                          pause_s: float, duration_s: float,
                          rng: random.Random) -> WaypointTrace:
    """Build a trace: uniform waypoints, fixed speed, fixed pause at each stop.

    The node starts paused at a uniform initial position, then repeatedly
    travels to a fresh uniform waypoint at `speed`, pausing `pause_s` seconds
    on arrival, until the trace covers the full duration.
    """
    if area_width <= 0 or area_height <= 0:
        raise ValueError("area dimensions must be positive")
    if duration_s <= 0:
        raise ValueError("duration must be positive")
    if speed <= 0:
        raise ValueError("speed must be positive")
    duration = us(duration_s)
    pause = us(pause_s)
    legs: list[Leg] = []
    here = Position(rng.uniform(0.0, area_width), rng.uniform(0.0, area_height))
    t: SimTime = 0
    if pause > 0:  # initial rest at the starting position
        legs.append(Leg(t, here, here, t))
        t += pause
    while t < duration:
        target = Position(rng.uniform(0.0, area_width), rng.uniform(0.0, area_height))
        travel = us(dist(here, target) / speed)
        legs.append(Leg(t, here, target, t + travel))
        t += travel + pause
        here = target
    if not legs:  # duration shorter than the initial pause resolution
        legs.append(Leg(0, here, here, 0))
    return WaypointTrace(duration, legs)


def position_at(trace: WaypointTrace, t: SimTime) -> Position:
    """Position along the trace: linear on a leg, the endpoint during pauses."""
    return Position(*trace.coords_at(t))
