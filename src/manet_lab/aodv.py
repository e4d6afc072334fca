"""On-demand route discovery with sequence-numbered hop-by-hop tables.

A node that needs a route floods a route request; relays install reverse-path
entries toward the requester as the flood passes, and the destination (or a
relay holding a sufficiently fresh route) answers with a route reply that
walks back along the reverse path installing forward entries. Broken links
invalidate entries and are announced with route-error packets so affected
sources can rediscover.

`ReactiveCore` holds the table and flood state for one node. The standalone
protocol (`AodvNode`) drives it directly; the hybrid protocol reuses it for
escape-route discoveries anchored at stuck nodes.
"""

from collections import deque
from dataclasses import dataclass

from .core import SimTime, us
from .metrics import DropCause
from .packets import DATA, HELLO, RERR, RREP, RREQ, AodvHeader, Packet
from .radio import LINK_FAILURE, clone

DISCOVERY_TIMEOUT_FLOOR_S = 0.1


@dataclass
class RouteEntry:
    dst: int
    next_hop: int
    hop_count: int
    dst_seq: int
    expires_at: SimTime
    active: bool = True


class RouteTable:
    """Per-destination next-hop entries guarded by the freshness rule:
    an entry is replaced only by a strictly greater sequence number, or an
    equal one with strictly fewer hops. Every route dies by `invalidate`."""

    def __init__(self, lifetime_us: SimTime):
        self.lifetime_us = lifetime_us
        self.entries: dict[int, RouteEntry] = {}

    def get(self, dst: int) -> RouteEntry | None:
        return self.entries.get(dst)

    def lookup_active(self, dst: int, now: SimTime) -> RouteEntry | None:
        e = self.entries.get(dst)
        if e is None or not e.active:
            return None
        if now >= e.expires_at:
            # Lazy expiry. Bumping the sequence number here keeps stale
            # caches elsewhere from answering the rediscovery this triggers.
            self.invalidate(e)
            return None
        return e

    def accept(self, dst: int, next_hop: int, hop_count: int, dst_seq: int,
               now: SimTime) -> bool:
        e = self.entries.get(dst)
        if e is not None:
            better = dst_seq > e.dst_seq or (dst_seq == e.dst_seq
                                             and hop_count < e.hop_count)
            if not better:
                if (e.active and dst_seq == e.dst_seq
                        and hop_count == e.hop_count and next_hop == e.next_hop):
                    self.refresh(e, now)  # same route re-learned
                return False
        self.entries[dst] = RouteEntry(dst, next_hop, hop_count, dst_seq,
                                       now + self.lifetime_us)
        return True

    def refresh(self, entry: RouteEntry, now: SimTime) -> None:
        entry.expires_at = max(entry.expires_at, now + self.lifetime_us)

    @staticmethod
    def invalidate(e: RouteEntry, seq: int = 0) -> None:
        """Mark a route invalid and advance its sequence number to one past
        its own, or to a route error's newer `seq` (RFC 3561 6.11)."""
        e.active = False
        e.dst_seq = max(e.dst_seq + 1, seq)

    def invalidate_via(self, next_hop: int) -> list[tuple[int, int]]:
        """Invalidate every active entry using next_hop; returns the affected
        (dst, new_seq) pairs for route-error reporting."""
        affected = []
        for e in self.entries.values():
            if e.active and e.next_hop == next_hop:
                self.invalidate(e)
                affected.append((e.dst, e.dst_seq))
        return affected


class _Discovery:
    __slots__ = ("dst", "buffer", "retries_left")

    def __init__(self, dst: int, retries: int):
        self.dst = dst
        self.buffer: deque[Packet] = deque()
        self.retries_left = retries


class ReactiveCore:
    """Flood/reply machinery bound to one node.

    The owner supplies three hooks: `send_on_route(pkt, entry)` sends a
    packet along a ready route (the core calls it for each buffered packet
    once discovery succeeds), `on_link_failure(next_hop, pkt)` handles a
    dead link (the core calls it when a route hop or a route reply fails),
    and `on_timer(d)` only passes a discovery's timeout on to
    `on_discovery_timeout`: perfbench's tracer times it by that name.
    """

    def __init__(self, engine, node: int, owner):
        self.engine = engine
        self.node = node
        self.owner = owner
        cfg = engine.scenario
        self.table = RouteTable(us(cfg.route_lifetime_s))
        self.seq = 0
        self.next_rreq_id = 0
        self.seen: dict[tuple[int, int], SimTime] = {}
        self.pending: dict[int, _Discovery] = {}
        self._rreq_ttl = cfg.rreq_ttl
        self._control_size = cfg.control_size_bytes
        self._retries = cfg.discovery_retries
        self._buffer_cap = cfg.buffer_cap
        per_hop = engine.radio.tx_delay_us(self._control_size) \
            + us(cfg.processing_delay_s)
        self._discovery_timeout = max(us(DISCOVERY_TIMEOUT_FLOOR_S),
                                      2 * self._rreq_ttl * per_hop)
        # A flood crosses at most rreq_ttl hops, each taking at most per_hop
        # plus the largest jitter, so its last copy arrives within this
        # window of its start, and so of any node's first sight of it.
        self._seen_window = self._rreq_ttl * (per_hop + us(cfg.jitter_max_s))

    # -- forwarding ------------------------------------------------------

    def forward(self, pkt: Packet, entry: RouteEntry, tag: str) -> None:
        """One hop along a route: refresh its lifetime, then unicast to the
        next hop; `tag` labels the hop in the engine's hop log."""
        engine = self.engine
        if pkt.ttl < 1:
            engine.drop(pkt, DropCause.TTL)
            return
        pkt.ttl -= 1
        self.table.refresh(entry, engine.sim.now)
        if self._send(entry.next_hop, pkt):
            engine.note_hop(pkt, self.node, tag)

    def _send(self, next_hop: int, pkt: Packet) -> bool:
        """Unicast pkt one hop; a dead link goes to the owner's
        `on_link_failure`, and a lost control packet is also noted as a
        diagnostic. True if the hop was sent."""
        if self.engine.radio.unicast(self.node, next_hop, pkt) is LINK_FAILURE:
            if pkt.kind is not DATA:
                self.engine.metrics.note_diagnostic("control_link_failure")
            self.owner.on_link_failure(next_hop, pkt)
            return False
        return True

    # -- discovery -----------------------------------------------------

    def buffer_and_discover(self, dst: int, pkt: Packet) -> None:
        d = self.pending.get(dst)
        if d is None:
            d = _Discovery(dst, self._retries)
            self.pending[dst] = d
            d.buffer.append(pkt)
            self._flood(d)
            return
        d.buffer.append(pkt)
        if len(d.buffer) > self._buffer_cap:
            oldest = d.buffer.popleft()
            self.engine.drop(oldest, DropCause.BUFFER)

    def _flood(self, d: _Discovery) -> None:
        self.seq += 1
        self.next_rreq_id += 1
        known = self.table.get(d.dst)
        pkt = self.engine.packet(
            RREQ, self.node, d.dst, self._rreq_ttl, self._control_size,
            aodv=AodvHeader(rreq_id=self.next_rreq_id, origin_seq=self.seq,
                            dst_seq=known.dst_seq if known else 0, hop_count=0),
        )
        self._mark_seen((self.node, self.next_rreq_id), pkt.created_at)
        self.engine.note_flood(self.node, d.dst)
        self.engine.radio.broadcast(self.node, pkt)
        self.engine.schedule_timer(self._discovery_timeout, self.owner.on_timer, d)

    def on_discovery_timeout(self, d: _Discovery) -> None:
        dst = d.dst
        # A flushed discovery's timer still fires, and does nothing. Retries
        # are scheduled only from here, so a pending d has one live timer.
        if self.pending.get(dst) is not d:
            return
        if self.table.lookup_active(dst, self.engine.sim.now) is not None:
            self._flush(d)  # route showed up from another reply
            return
        if d.retries_left > 0:
            d.retries_left -= 1
            self._flood(d)
            return
        del self.pending[dst]
        for pkt in d.buffer:
            self.engine.drop(pkt, DropCause.DISCOVERY_TIMEOUT)

    def _flush(self, d: _Discovery) -> None:
        dst = d.dst
        del self.pending[dst]
        while d.buffer:
            pkt = d.buffer.popleft()
            entry = self.table.lookup_active(dst, self.engine.sim.now)
            if entry is None:  # route died while flushing
                self.buffer_and_discover(dst, pkt)
                continue
            self.owner.send_on_route(pkt, entry)

    # -- flood handling ------------------------------------------------

    def on_rreq(self, pkt: Packet, sender: int) -> None:
        """A received flood copy. Most are repeats: only a first sight
        reaches `handle_rreq`, since an origin marks its own flood seen and
        the seen window outlasts every copy."""
        if (pkt.origin, pkt.aodv.rreq_id) not in self.seen:
            self.handle_rreq(pkt, sender)

    def handle_rreq(self, pkt: Packet, sender: int) -> None:
        hdr = pkt.aodv
        now = self.engine.sim.now
        self._mark_seen((pkt.origin, hdr.rreq_id), now)
        # reverse path toward the flood's origin
        self.table.accept(pkt.origin, sender, hdr.hop_count + 1, hdr.origin_seq, now)
        if self.node == pkt.final_dst:
            self.seq = max(self.seq, hdr.dst_seq) + 1
            self._send_rrep(subject=self.node, discovery_origin=pkt.origin,
                            to=sender, hop_count=0, dst_seq=self.seq)
            return
        cached = self.table.lookup_active(pkt.final_dst, now)
        if cached is not None and cached.dst_seq >= hdr.dst_seq:
            self._send_rrep(subject=pkt.final_dst, discovery_origin=pkt.origin,
                            to=sender, hop_count=cached.hop_count,
                            dst_seq=cached.dst_seq)
            return
        if pkt.ttl > 1:
            # Every receiver of the flood shares pkt: change a copy.
            fwd = clone(pkt)
            fwd.ttl -= 1
            fwd.aodv.hop_count += 1
            self.engine.radio.broadcast(self.node, fwd)

    def _mark_seen(self, key: tuple[int, int], now: SimTime) -> None:
        """Remember a flood, first forgetting those no copy of which can
        still arrive: a stamp older than now by more than the window. Stamps
        are recorded in time order and never change, so the oldest come
        first."""
        seen = self.seen
        cutoff = now - self._seen_window
        while seen:
            oldest = next(iter(seen))
            if seen[oldest] >= cutoff:
                break
            del seen[oldest]
        seen[key] = now

    def _send_rrep(self, subject: int, discovery_origin: int, to: int,
                   hop_count: int, dst_seq: int) -> None:
        pkt = self.engine.packet(
            RREP, subject, discovery_origin, self._rreq_ttl, self._control_size,
            aodv=AodvHeader(rreq_id=0, origin_seq=0, dst_seq=dst_seq,
                            hop_count=hop_count),
        )
        self._send(to, pkt)

    def handle_rrep(self, pkt: Packet, sender: int) -> None:
        hdr = pkt.aodv
        subject = pkt.origin            # the node the route leads to
        discovery_origin = pkt.final_dst
        now = self.engine.sim.now
        self.table.accept(subject, sender, hdr.hop_count + 1, hdr.dst_seq, now)
        if self.node == discovery_origin:
            d = self.pending.get(subject)
            if d is not None and self.table.lookup_active(subject, now) is not None:
                self._flush(d)
            return
        back = self.table.lookup_active(discovery_origin, now)
        if back is None:
            self.engine.metrics.note_diagnostic("rrep_no_reverse_path")
            return
        pkt.ttl -= 1
        if pkt.ttl < 1:
            self.engine.metrics.note_diagnostic("rrep_ttl_expired")
            return
        hdr.hop_count += 1
        self.table.refresh(back, now)
        self._send(back.next_hop, pkt)


class AodvNode:
    """Full reactive protocol state machine for one node.

    Link liveness comes from the MAC-level unicast callback by default; the
    optional hello mode broadcasts periodic hellos instead and declares a
    link dead after two silent intervals.
    """

    def __init__(self, engine, node: int):
        self.engine = engine
        self.node = node
        self.core = ReactiveCore(engine, node, owner=self)
        cfg = engine.scenario
        self._hello_enabled = cfg.aodv_hello
        self._hello_interval = us(cfg.hello_interval_s)
        self._hello_size = cfg.hello_size_bytes
        self._hello_heard: dict[int, SimTime] = {}

    # -- lifecycle -------------------------------------------------------

    def start(self) -> None:
        if self._hello_enabled:
            first = round(self.engine.rng_hello.uniform(0, self._hello_interval))
            self.engine.schedule_timer(first, AodvNode._hello_tick, self)

    def on_timer(self, discovery) -> None:
        self.core.on_discovery_timeout(discovery)

    # -- data plane --------------------------------------------------------

    def originate(self, pkt: Packet) -> None:
        entry = self.core.table.lookup_active(pkt.final_dst, self.engine.sim.now)
        if entry is not None:
            self.send_on_route(pkt, entry)
        else:
            self.core.buffer_and_discover(pkt.final_dst, pkt)

    def send_on_route(self, pkt: Packet, entry: RouteEntry) -> None:
        self.core.forward(pkt, entry, "aodv")

    def on_packet(self, pkt: Packet, sender: int) -> None:
        kind = pkt.kind
        if kind is DATA:
            self._handle_data(pkt, sender)
        elif kind is RREQ:
            self.core.on_rreq(pkt, sender)
        elif kind is RREP:
            self.core.handle_rrep(pkt, sender)
        elif kind is RERR:
            self._handle_rerr(pkt, sender)
        elif kind is HELLO:
            self._hello_heard[sender] = self.engine.sim.now

    def _handle_data(self, pkt: Packet, sender: int) -> None:
        entry = self.core.table.lookup_active(pkt.final_dst, self.engine.sim.now)
        if entry is None:
            # Transit packet with no live route: report the break upstream.
            e = self.core.table.get(pkt.final_dst)
            self._emit_rerr([(pkt.final_dst, e.dst_seq if e else 0)])
            self.engine.drop(pkt, DropCause.LINK_FAILURE)
            return
        self.send_on_route(pkt, entry)

    # -- failure handling ----------------------------------------------

    def on_link_failure(self, next_hop: int, pkt: Packet) -> None:
        self._lose_link(next_hop)
        if pkt.kind is not DATA:
            return
        if pkt.origin == self.node:
            # The source re-enters discovery with the packet re-buffered.
            self.core.buffer_and_discover(pkt.final_dst, pkt)
        else:
            self.engine.drop(pkt, DropCause.LINK_FAILURE)

    def _lose_link(self, nbr: int) -> None:
        """Invalidate the routes through nbr and report them in a RERR."""
        affected = self.core.table.invalidate_via(nbr)
        if affected:
            self._emit_rerr(affected)

    def _emit_rerr(self, affected: list[tuple[int, int]], ttl: int | None = None) -> None:
        cfg = self.engine.scenario
        pkt = self.engine.packet(
            RERR, self.node, -1, cfg.rreq_ttl if ttl is None else ttl,
            cfg.control_size_bytes, rerr_dsts=tuple(affected),
        )
        self.engine.radio.broadcast(self.node, pkt)

    def _handle_rerr(self, pkt: Packet, sender: int) -> None:
        hit = []
        for dst, seq in pkt.rerr_dsts:
            e = self.core.table.get(dst)
            if e is not None and e.active and e.next_hop == sender:
                self.core.table.invalidate(e, seq)
                hit.append((dst, e.dst_seq))
        if hit and pkt.ttl - 1 >= 1:
            self._emit_rerr(hit, ttl=pkt.ttl - 1)

    # -- optional hello mode ---------------------------------------------

    def _hello_tick(self) -> None:
        now = self.engine.sim.now
        lost = [nbr for nbr, heard in self._hello_heard.items()
                if now - heard > 2 * self._hello_interval]
        for nbr in lost:
            del self._hello_heard[nbr]
            self._lose_link(nbr)
        pkt = self.engine.packet(HELLO, self.node, -1, 1, self._hello_size)
        self.engine.radio.broadcast(self.node, pkt)
        self.engine.schedule_timer(self._hello_interval, AodvNode._hello_tick, self)
