"""Deterministic event-driven simulation kernel.

Simulation time is an integer count of microseconds, so event ordering never
depends on floating-point rounding. Events firing at the same instant are
dispatched in insertion order, which makes a whole run a pure function of its
inputs (scenario plus seed).
"""

import heapq
import random
from enum import Enum
from typing import Any, Callable, NamedTuple

from .errors import SchedulingInPast

SimTime = int  # microseconds since simulation start

US_PER_S = 1_000_000


def us(seconds: float) -> SimTime:
    """Convert seconds to integer microseconds."""
    return round(seconds * US_PER_S)


def to_seconds(t: SimTime) -> float:
    return t / US_PER_S


class EventKind(Enum):
    PACKET_ARRIVAL = "packet_arrival"
    TIMER_EXPIRY = "timer_expiry"
    TRAFFIC_EMIT = "traffic_emit"


# Enum members as module names for the hot paths: on Python 3.11 a read
# through the class (`EventKind.PACKET_ARRIVAL`) goes through
# `EnumType.__getattr__` and costs about ten times a module-name read.
PACKET_ARRIVAL = EventKind.PACKET_ARRIVAL
TIMER_EXPIRY = EventKind.TIMER_EXPIRY
TRAFFIC_EMIT = EventKind.TRAFFIC_EMIT


class Event(NamedTuple):
    """A queued occurrence and its own heap entry: `seq` is unique, so
    heap comparisons never get past it to `kind`."""

    fire_at: SimTime
    seq: int
    kind: EventKind
    payload: Any = None


class Simulator:
    """Single-threaded event loop over a (fire_at, seq) ordered heap.
    Nothing cancels an event: a handler that no longer wants it returns."""

    def __init__(self):
        self.now: SimTime = 0
        self.handler: Callable[[Event], None] | None = None
        self._heap: list[Event] = []
        self._seq = 0

    def schedule(self, fire_at: SimTime, kind: EventKind, payload: Any = None) -> None:
        if fire_at < self.now:
            raise SchedulingInPast(f"fire_at={fire_at} < now={self.now}")
        heapq.heappush(self._heap, Event(fire_at, self._seq, kind, payload))
        self._seq += 1

    def run_until(self, t_end: SimTime) -> int:
        """Dispatch every pending event with fire_at <= t_end, in order.

        Events scheduled by handlers inside the window are dispatched in the
        same call. Returns the number of dispatched events and leaves the clock
        at t_end.
        """
        if t_end < self.now:
            raise ValueError(f"t_end={t_end} is in the past (now={self.now})")
        dispatched = 0
        heap = self._heap
        while heap and heap[0].fire_at <= t_end:
            ev = heapq.heappop(heap)
            self.now = ev.fire_at
            dispatched += 1
            self.handler(ev)
        self.now = t_end
        return dispatched


# SHA-256 from the interpreter's built-in module (`_sha256` up to Python
# 3.11, `_sha2` from 3.12), as `random` takes its sha512: `hashlib` loads
# OpenSSL, a few MB that a run would spend on hashing six short labels.
try:
    from _sha256 import sha256 as _sha256
except ImportError:
    try:
        from _sha2 import sha256 as _sha256
    except ImportError:
        from hashlib import sha256 as _sha256


def _derive_seed(seed: int, label: str) -> int:
    digest = _sha256(f"{seed}|{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def rng_stream(seed: int, label: str) -> random.Random:
    """Seeded substream named after the stochastic concern it feeds.

    The same (seed, label) pair yields the same draw sequence on every
    platform; distinct labels give independent substreams, so changing one
    knob (say, jitter) never perturbs draws consumed elsewhere.
    """
    return random.Random(_derive_seed(seed, label))
