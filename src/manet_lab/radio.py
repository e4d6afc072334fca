"""Unit-disk radio with deterministic delays and send-time link verdicts.

The channel is ideal: no collisions, no interference, no queueing loss. The
only loss mechanisms in the model are route breakage and TTL expiry, so a
unicast either schedules exactly one arrival or reports a link failure
synchronously to the sender (the MAC-level callback the hybrid protocol
relies on). The verdict is decided by node positions at send time: a
unicast reads its two nodes' mobility traces, and a broadcast reads the
per-instant snapshot of every node, which alone keeps the rest state.

A transmission schedules one `PACKET_ARRIVAL` whose payload is
`(pkt, sender, receivers)`: a broadcast without jitter carries every
receiver in id order, while a jittered broadcast and a unicast carry one
receiver per event. Broadcast receivers share the one packet read-only,
and a unicast hands its packet over to the receiver; code that changes a
received broadcast copies it first with `clone`, which this module exports
beside that rule.
"""

import random
from dataclasses import dataclass
from enum import Enum
from math import hypot, inf

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
    snapshot `coords_at`.

    Only the snapshot tracks which nodes rest. A resting node's coordinates
    are its leg's end point, the floats its trace returns for the whole
    rest, so they are written once per rest and the per-instant refresh
    reads only the moving traces. A resting sender keeps the sorted list of
    its resting neighbors until any node starts or ends a rest, and scans
    only the moving nodes on top. Every verdict is the same
    `hypot(...) <= range` on the same floats as a scan of all nodes.
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
        self._xs = [0.0] * n
        self._ys = [0.0] * n
        # Rest state, O(n): per node whether it rests and until when that
        # holds (`WaypointTrace.phase_at`). It all holds for every t in
        # [_phase_from, _phase_until); empty until the first query.
        self._rests = [False] * n
        self._until = [0] * n
        self._phase_from: SimTime | float = inf
        self._phase_until: SimTime | float = inf
        self._resting: list[int] = []
        self._moving: list[tuple[int, WaypointTrace]] = []
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
        """Bring the rest state to t. Going forward, only the nodes whose
        phase has ended by t are read again; going back, every node is."""
        back = t < self._phase_from
        # An error part way (t outside the traces) leaves the state empty;
        # rest coordinates written for t void the snapshot of another instant.
        self._phase_from = self._phase_until = inf
        self._coords_t = -1
        rests, until, xs, ys = self._rests, self._until, self._xs, self._ys
        changed = back
        for node, trace in enumerate(self._traces):
            if back or until[node] <= t:
                resting, until[node] = trace.phase_at(t)
                if resting or rests[node]:  # a rest starts, ends or jumps
                    changed = True
                    rests[node] = resting
                    if resting:
                        xs[node], ys[node] = trace.coords_at(t)
        if changed:
            traces = self._traces
            self._resting = [node for node in range(len(traces)) if rests[node]]
            self._moving = [(node, trace) for node, trace in enumerate(traces)
                            if not rests[node]]
            self._near = [None] * len(traces)
        self._phase_from = t
        self._phase_until = min(until, default=inf)

    def coords_at(self, t: SimTime) -> tuple[list[float], list[float]]:
        """Every node's coordinates at t as flat x and y lists indexed by node,
        filled once per instant: all broadcasts at one instant share them."""
        if t != self._coords_t:
            if not self._phase_from <= t < self._phase_until:
                self._track_phases(t)
            xs, ys = self._xs, self._ys
            for node, trace in self._moving:
                xs[node], ys[node] = trace.coords_at(t)
            self._coords_t = t
        return self._xs, self._ys

    def neighbors(self, node: int, t: SimTime) -> list[int]:
        """Node ids within radio range at time t, boundary inclusive, sorted."""
        xs, ys = self.coords_at(t)
        hx = xs[node]
        hy = ys[node]
        rng = self._range
        # hypot(here - other) is exactly geometry.dist(here, other).
        if self._rests[node]:
            near = self._near[node]
            if near is None:
                near = [other for other in self._resting
                        if hypot(hx - xs[other], hy - ys[other]) <= rng
                        and other != node]
                self._near[node] = near
            # two sorted runs: sorted() merges them in one pass
            return sorted(near + [other for other, _ in self._moving
                                  if hypot(hx - xs[other], hy - ys[other]) <= rng])
        return [other for other, (x, y) in enumerate(zip(xs, ys))
                if hypot(hx - x, hy - y) <= rng and other != node]

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
                schedule(rt + self._jitter_draw(), PACKET_ARRIVAL, None,
                         (pkt, sender, (receiver,)))
        elif receivers:
            # One event in place of one per receiver at consecutive seq
            # values: the dispatch order is the same.
            schedule(rt, PACKET_ARRIVAL, None, (pkt, sender, tuple(receivers)))
        return receivers

    def unicast(self, sender: int, next_hop: int, pkt: Packet) -> TxOutcome:
        """Send to one neighbor; out-of-range reports LinkFailure synchronously."""
        t = self._sim.now
        self._metrics.record_transmission(pkt.kind)
        traces = self._traces
        sx, sy = traces[sender].coords_at(t)
        rx, ry = traces[next_hop].coords_at(t)
        # hypot(sender - receiver) is exactly geometry.dist(sender, receiver).
        if hypot(sx - rx, sy - ry) > self._range:
            return LINK_FAILURE
        rt = t + self.tx_delay_us(pkt.size_bytes) + self._proc_us
        if self._jitter_us > 0:
            rt += self._jitter_draw()
        self._sim.schedule(rt, PACKET_ARRIVAL, None, (pkt, sender, (next_hop,)))
        return DELIVERED
