"""Unit-disk radio with deterministic delays and send-time link verdicts.

The channel is ideal: no collisions, no interference, no queueing loss. The
only loss mechanisms in the model are route breakage and TTL expiry, so a
unicast either schedules exactly one arrival or reports a link failure
synchronously to the sender (the MAC-level callback the hybrid protocol
relies on). The verdict is decided by node positions at send time: a
unicast reads its two nodes' mobility traces, and a broadcast reads the
per-instant snapshot, one `(x, y)` point per node, which alone keeps phase
state: each node's current leg and whether it rests on it.

A transmission schedules one `PACKET_ARRIVAL` whose payload is
`(pkt, sender, receivers)`: a broadcast without jitter carries every
receiver in id order, while a jittered broadcast and a unicast carry one
receiver per event. The engine hands a broadcast arrival's receivers to
the protocol in one call, and a unicast's one receiver to its
`on_packet`. Broadcast receivers share the one packet read-only,
and a unicast hands its packet over to the receiver; code that changes a
received broadcast copies it first with `clone`, which this module exports
beside that rule.
"""

import random
from dataclasses import dataclass
from enum import Enum
from math import dist, inf

from .core import PACKET_ARRIVAL, SimTime, Simulator, us
from .mobility import WaypointTrace
from .packets import Packet, clone
from .scenario import Scenario


class TxStatus(Enum):
    DELIVERED = "delivered"
    LINK_FAILURE = "link_failure"


@dataclass(frozen=True)
class TxOutcome:
    status: TxStatus


# `unicast` returns one of these two, so callers test it by identity
# (`outcome is LINK_FAILURE`), with no Enum read.
DELIVERED = TxOutcome(TxStatus.DELIVERED)
LINK_FAILURE = TxOutcome(TxStatus.LINK_FAILURE)


class Radio:
    """Broadcast/unicast primitives over the instantaneous connectivity graph.

    The scenario gives `radio_range`, `bandwidth_bps`, `processing_delay_s`
    and `jitter_max_s` (per-receiver uniform jitter in [0, jitter_max_s]).
    `traces[node]` gives each node's motion: a unicast reads the traces of
    the two nodes it joins, and a broadcast reads every node through the
    snapshot `coords_at`, one `(x, y)` point per node.

    Only the snapshot keeps phase state: per node, the leg it is on and
    whether it rests, re-read from its trace when that phase ends. A
    resting node's point is its leg's end point, written once per rest,
    and the per-instant refresh interpolates each moving node on its
    stored leg with the trace's own arithmetic, so every point is the
    floats `WaypointTrace.coords_at` returns. A resting sender keeps the
    sorted list of its resting neighbors until any node starts or ends a
    rest, and scans only the moving nodes on top. Every verdict is
    `math.dist(here, p) <= range`, the same float as `geometry.dist`
    (`hypot` of the differences) on the same points as a scan of all nodes.
    """

    def __init__(self, scenario: Scenario, traces: list[WaypointTrace],
                 sim: Simulator, metrics, jitter_rng: random.Random):
        self._range = scenario.radio_range
        self._bandwidth = scenario.bandwidth_bps
        self._jitter_max_s = scenario.jitter_max_s
        self._traces = traces
        self._sim = sim
        self._metrics = metrics
        self._jitter = jitter_rng
        self._proc_us = us(scenario.processing_delay_s)
        self._jitter_us = us(scenario.jitter_max_s)
        self._delay_cache: dict[int, int] = {}
        n = len(traces)
        self._coords_t: SimTime = -1
        self._points: list[tuple[float, float]] = [(0.0, 0.0)] * n
        # Phase state, O(n): per node whether it rests, until when that
        # holds and the leg it is on (`WaypointTrace.phase_at`). It all
        # holds for every t in [_phase_from, _phase_until); empty until the
        # first query.
        self._rests = [False] * n
        self._until = [0] * n
        self._legs: list[tuple] = [()] * n
        self._phase_from: SimTime | float = inf
        self._phase_until: SimTime | float = inf
        self._resting: list[int] = []
        self._moving: list[tuple[int, tuple]] = []  # (node, leg), id order
        # Per resting node, its resting neighbors in id order, or None until
        # asked; cleared whenever a node starts or ends a rest.
        self._near: list[list[int] | None] = [None] * n

    def tx_delay_us(self, size_bytes: int) -> SimTime:
        """Serialization delay, size * 8 / bandwidth, in microseconds."""
        cached = self._delay_cache.get(size_bytes)
        if cached is None:
            cached = us(size_bytes * 8 / self._bandwidth)
            self._delay_cache[size_bytes] = cached
        return cached

    def _track_phases(self, t: SimTime) -> None:
        """Bring the phase state to t. Going forward, only the nodes whose
        phase has ended by t are read again; going back, every node is."""
        back = t < self._phase_from
        # An error part way (t outside the traces) leaves the state empty;
        # rest points written for t void the snapshot of another instant.
        self._phase_from = self._phase_until = inf
        self._coords_t = -1
        rests, until, legs, points = self._rests, self._until, self._legs, self._points
        changed = back
        for node, trace in enumerate(self._traces):
            if back or until[node] <= t:
                resting, until[node], leg = trace.phase_at(t)
                # A moving node may go straight onto another leg (no pause,
                # or a jump), so its leg is stored whatever its rest does.
                legs[node] = leg
                if resting or rests[node]:  # a rest starts, ends or jumps
                    changed = True
                    rests[node] = resting
                    if resting:
                        points[node] = (leg[4], leg[5])
        n = len(legs)
        if changed:
            self._resting = [node for node in range(n) if rests[node]]
            self._near = [None] * n
        self._moving = [(node, legs[node]) for node in range(n) if not rests[node]]
        self._phase_from = t
        self._phase_until = min(until, default=inf)

    def coords_at(self, t: SimTime) -> list[tuple[float, float]]:
        """Every node's (x, y) at t in a list indexed by node, filled once
        per instant: all broadcasts at one instant share it."""
        if t != self._coords_t:
            if not self._phase_from <= t < self._phase_until:
                self._track_phases(t)
            points = self._points
            # WaypointTrace.coords_at on a leg it moves along, written out
            for node, (depart, arrive, sx, sy, ex, ey) in self._moving:
                frac = (t - depart) / (arrive - depart)
                points[node] = (sx + frac * (ex - sx), sy + frac * (ey - sy))
            self._coords_t = t
        return self._points

    def neighbors(self, node: int, t: SimTime) -> list[int]:
        """Node ids within radio range at time t, boundary inclusive, sorted."""
        points = self.coords_at(t)
        here = points[node]
        rng = self._range
        # dist(here, p) is exactly geometry.dist(here, p).
        if self._rests[node]:
            near = self._near[node]
            if near is None:
                near = [other for other in self._resting
                        if dist(here, points[other]) <= rng and other != node]
                self._near[node] = near
            # two sorted runs: sorted() merges them in one pass
            return sorted(near + [other for other, _ in self._moving
                                  if dist(here, points[other]) <= rng])
        return [other for other, p in enumerate(points)
                if dist(here, p) <= rng and other != node]

    def _jitter_draw(self) -> SimTime:
        return us(self._jitter.uniform(0.0, self._jitter_max_s))

    def broadcast(self, sender: int, pkt: Packet) -> list[int]:
        """Deliver pkt to every current neighbor; one transmission regardless.
        Returns the receivers."""
        t = self._sim.now
        self._metrics.record_transmission(pkt.kind)
        rt = t + self.tx_delay_us(pkt.size_bytes) + self._proc_us
        receivers = self.neighbors(sender, t)
        schedule = self._sim.schedule
        if self._jitter_us > 0:
            for receiver in receivers:
                schedule(rt + self._jitter_draw(), PACKET_ARRIVAL,
                         (pkt, sender, (receiver,)))
        elif receivers:
            # One event in place of one per receiver at consecutive seq
            # values: the dispatch order is the same.
            schedule(rt, PACKET_ARRIVAL, (pkt, sender, tuple(receivers)))
        return receivers

    def unicast(self, sender: int, next_hop: int, pkt: Packet) -> TxOutcome:
        """Send to one neighbor; out-of-range reports LinkFailure synchronously."""
        t = self._sim.now
        self._metrics.record_transmission(pkt.kind)
        traces = self._traces
        # dist(sender, receiver) is exactly geometry.dist(sender, receiver).
        if dist(traces[sender].coords_at(t),
                traces[next_hop].coords_at(t)) > self._range:
            return LINK_FAILURE
        rt = t + self.tx_delay_us(pkt.size_bytes) + self._proc_us
        if self._jitter_us > 0:
            rt += self._jitter_draw()
        self._sim.schedule(rt, PACKET_ARRIVAL, (pkt, sender, (next_hop,)))
        return DELIVERED
