"""Greedy geographic forwarding with perimeter bypass around voids.

Nodes learn neighbor positions from periodic beacons and forward each data
packet to the neighbor closest to the destination coordinates carried in the
header. At a local maximum (no neighbor strictly closer), the packet walks
the boundary of the void by the right-hand rule over a locally planarized
(Gabriel) subgraph until it reaches a node closer to the destination than
where the walk began, then goes greedy again.
"""

from dataclasses import dataclass
from math import atan2, hypot, pi

from .core import SimTime, us
from .geometry import TWO_PI, Position
from .metrics import DropCause
from .packets import BEACON, DATA, GREEDY, PERIMETER, GeoHeader, Packet
from .radio import DELIVERED


@dataclass
class NeighborEntry:
    neighbor: int
    pos: Position
    last_heard: SimTime


class NeighborTable:
    """Beacon-fed neighbor positions. `fresh` keeps its sorted survivor list
    until an entry is inserted or evicted, or until the earliest cached
    entry times out; refreshing a known neighbor mutates its entry in place
    and so leaves the list valid."""

    def __init__(self, timeout_us: SimTime):
        self.timeout_us = timeout_us
        self.entries: dict[int, NeighborEntry] = {}
        self._fresh: list[NeighborEntry] | None = None
        # _fresh stays valid through this instant, the earliest
        # last_heard + timeout_us among its entries; a refresh only moves
        # an entry's own deadline later
        self._fresh_until: SimTime = 0

    def update(self, neighbor: int, pos: Position, now: SimTime) -> None:
        e = self.entries.get(neighbor)
        if e is None:
            self.entries[neighbor] = NeighborEntry(neighbor, pos, now)
            self._fresh = None
        else:
            e.pos = pos
            e.last_heard = now

    def evict(self, neighbor: int) -> None:
        if self.entries.pop(neighbor, None) is not None:
            self._fresh = None

    def fresh(self, now: SimTime) -> list[NeighborEntry]:
        """Drop timed-out entries, then return the survivors sorted by id.
        The list is shared between calls: callers must not modify it."""
        if self._fresh is not None and now <= self._fresh_until:
            return self._fresh
        horizon = now - self.timeout_us
        stale = [n for n, e in self.entries.items() if e.last_heard < horizon]
        for n in stale:
            del self.entries[n]
        survivors = [self.entries[n] for n in sorted(self.entries)]
        self._fresh = survivors
        self._fresh_until = (min(e.last_heard for e in survivors) + self.timeout_us
                             if survivors else now)
        return survivors


def greedy_next_hop(self_pos: Position, neighbors: list[NeighborEntry],
                    dst_pos: Position) -> int | None:
    """Neighbor closest to the destination among those strictly closer than
    self; None marks a local maximum. Distance ties go to the lower id.

    Positions are unpacked once and `hypot(ax - bx, ay - by)` is
    `geometry.dist(a, b)` written out, so every distance is the same float."""
    sx, sy = self_pos
    dx, dy = dst_pos
    best = None
    best_d = hypot(sx - dx, sy - dy)  # a candidate must beat self
    for e in neighbors:
        ex, ey = e.pos
        d = hypot(ex - dx, ey - dy)
        if d < best_d or (d == best_d and best is not None and e.neighbor < best):
            best_d = d
            best = e.neighbor
    return best


def planarize_gg(self_pos: Position,
                 neighbors: list[NeighborEntry]) -> list[NeighborEntry]:
    """Gabriel rule over the local view: keep the edge to v unless some other
    neighbor w sits strictly inside the circle whose diameter is (self, v),
    that is |self w|^2 + |w v|^2 < |self v|^2. Squared distances are
    `dx * dx + dy * dy` of the coordinate differences. A w no nearer to self
    than v cannot pass, since adding |w v|^2 >= 0 never lowers a float."""
    sx, sy = self_pos
    flat = []
    for w in neighbors:
        wx, wy = w.pos
        dx = sx - wx
        dy = sy - wy
        flat.append((w.neighbor, wx, wy, dx * dx + dy * dy))
    kept = []
    for v, (vn, vx, vy, sv) in zip(neighbors, flat):
        for wn, wx, wy, sw in flat:
            if sw < sv and wn != vn:
                dx = wx - vx
                dy = wy - vy
                if sw + (dx * dx + dy * dy) < sv:
                    break
        else:
            kept.append(v)
    return kept


def perimeter_next_hop(self_pos: Position, planar: list[NeighborEntry],
                       ref_pos: Position, arrived_from: int | None) -> int | None:
    """Right-hand-rule choice: first planar edge counterclockwise about self
    from the ray toward ref_pos (the previous hop, or the destination when
    the walk starts here). The arrival edge itself is the last resort, which
    handles degenerate single-edge faces by sending the packet back.

    The sweep of an edge is `(atan2(cand - self) - atan2(self - ref)) mod
    2 pi`, turned by pi so that it is measured from the ray toward ref, with
    the reference ray's angle taken once per call."""
    sx, sy = self_pos
    rx, ry = ref_pos
    degenerate_ref = rx == sx and ry == sy  # coincident points define no ray
    if not degenerate_ref:
        # angle of the reversed reference ray
        ref_angle = atan2(sy - ry, sx - rx)
    best = None
    best_sweep = 0.0
    for e in planar:
        ex, ey = e.pos
        if ex == sx and ey == sy:
            continue
        n = e.neighbor
        if n == arrived_from:
            sweep = TWO_PI
        elif degenerate_ref:
            sweep = 0.0
        else:
            sweep = ((atan2(ey - sy, ex - sx) - ref_angle) % TWO_PI + pi) % TWO_PI
        if best is None or sweep < best_sweep or (sweep == best_sweep and n < best):
            best_sweep = sweep
            best = n
    return best


def _resume_greedy(g: GeoHeader) -> None:
    """Leave perimeter mode, forgetting where the walk began."""
    g.mode = GREEDY
    g.loc_entry = g.first_edge = None


class BeaconMixin:
    """Periodic position beaconing, shared by the geographic protocols:
    `start` schedules the first `on_beacon_tick` of this node, and each
    tick schedules the next."""

    def _init_beacons(self, engine):
        cfg = engine.scenario
        self._beacon_interval = us(cfg.beacon_interval_s)
        self._beacon_jitter = us(cfg.beacon_jitter_s)
        self._beacon_size = cfg.beacon_size_bytes
        self.nbrs = NeighborTable(us(cfg.neighbor_timeout_s))

    def start(self):
        first = round(self.engine.rng_beacon.uniform(0, self._beacon_interval))
        self.engine.schedule_timer(first, BeaconMixin.on_beacon_tick, self)

    def on_beacon_tick(self):
        engine = self.engine
        pkt = engine.packet(BEACON, self.node, -1, 1, self._beacon_size,
                            src_pos=engine.position(self.node))
        engine.radio.broadcast(self.node, pkt)
        gap = self._beacon_interval
        if self._beacon_jitter > 0:
            gap += round(engine.rng_beacon.uniform(-self._beacon_jitter,
                                                   self._beacon_jitter))
        engine.schedule_timer(max(1, gap), BeaconMixin.on_beacon_tick, self)


class GpsrNode(BeaconMixin):
    """Per-node forwarding state: the beacon-fed neighbor table and the last
    Gabriel planarization of it."""

    def __init__(self, engine, node: int):
        self.engine = engine
        self.node = node
        self.perimeter_enabled = engine.scenario.protocol != "gpsr_greedy_only"
        self._init_beacons(engine)
        self._planar_key = None
        self._planar: list[NeighborEntry] = []

    def planar_view(self, self_pos: Position,
                    neighbors: list[NeighborEntry]) -> list[NeighborEntry]:
        """planarize_gg(self_pos, neighbors), recomputed only when self_pos,
        a neighbor entry or its coordinates differ from the last call. The
        Gabriel rule reads nothing else. A beacon refreshes its entry in
        place, so a paused node whose neighbors repeat their coordinates
        reuses its last result; an entry made anew after an eviction or a
        timeout misses, so the result holds the table's current entries."""
        key = (self_pos, [(e, e.pos) for e in neighbors])
        if key != self._planar_key:
            self._planar_key = key
            self._planar = planarize_gg(self_pos, neighbors)
        return self._planar

    def originate(self, pkt: Packet) -> None:
        pkt.geo = GeoHeader(dst_pos=self.engine.position(pkt.final_dst))
        self.forward(pkt, arrived_from=None)

    def on_packet(self, pkt: Packet, sender: int) -> None:
        if pkt.kind is BEACON:
            self.nbrs.update(sender, pkt.src_pos, self.engine.sim.now)
        elif pkt.kind is DATA:
            self.forward(pkt, arrived_from=sender)

    def forward(self, pkt: Packet, arrived_from: int | None) -> None:
        engine = self.engine
        node = self.node
        g = pkt.geo
        now = engine.sim.now
        # (x, y) floats, as in a Position: the hop decisions unpack them
        self_pos = engine.traces[node].coords_at(now)
        if g.mode is PERIMETER:
            sx, sy = self_pos
            dx, dy = g.dst_pos
            lx, ly = g.loc_entry
            if hypot(sx - dx, sy - dy) < hypot(lx - dx, ly - dy):
                # strictly closer than where the walk began
                _resume_greedy(g)
        if pkt.ttl < 1:
            engine.drop(pkt, DropCause.TTL)
            return
        pkt.ttl -= 1
        for attempt in (0, 1):  # one retry after a link failure
            neighbors = self.nbrs.fresh(now)
            if g.mode is GREEDY:
                nh = greedy_next_hop(self_pos, neighbors, g.dst_pos)
                if nh is None and self.perimeter_enabled:
                    planar = self.planar_view(self_pos, neighbors)
                    nh = perimeter_next_hop(self_pos, planar, g.dst_pos, None)
                    if nh is not None:
                        g.mode = PERIMETER
                        g.loc_entry = self_pos
                        g.first_edge = (node, nh)
            else:
                planar = self.planar_view(self_pos, neighbors)
                ref = g.dst_pos
                if arrived_from is not None:
                    e = self.nbrs.entries.get(arrived_from)
                    if e is not None:
                        ref = e.pos
                nh = perimeter_next_hop(self_pos, planar, ref, arrived_from)
                if (node, nh) == g.first_edge:
                    # retracing the first perimeter edge: the face walk is
                    # exhausted and the destination unreachable
                    nh = None
            if nh is None:
                engine.drop(pkt, DropCause.PERIMETER)
                return
            if engine.radio.unicast(node, nh, pkt) is DELIVERED:
                if engine.hop_log is not None:
                    engine.note_hop(pkt, node, g.mode.value)
                return
            self.nbrs.evict(nh)
            if g.first_edge == (node, nh):  # the entry edge failed: re-decide
                _resume_greedy(g)
        engine.drop(pkt, DropCause.LINK_FAILURE)
