"""Combined routing: greedy geographic forwarding with reactive escape routes.

Packets travel greedily toward the destination's coordinates whenever a
closer neighbor exists. A node with no closer neighbor does not walk the
void's perimeter; instead it runs a cut-down reactive discovery anchored at
itself (not at the packet's original source) and pushes the packet along the
discovered route. Once a packet rides a discovered route it never returns to
greedy mode. A stuck node and every relay of a route-mode packet follow
ReactiveCore's one send rule, `send_or_discover`: ride a live route, else
discover one from here, so a relay whose route evaporated is the new anchor.
The cut-down discovery differs from the standalone reactive protocol in two
ways: a broken route is never repaired (the in-flight packet is lost, no
error packets are sent, and later packets simply re-anchor a new discovery
where they get stuck), and link liveness comes purely from the MAC-level
unicast callback, with no hello traffic. Position beacons stay on because
greedy mode cannot work without neighbor coordinates.
"""

from .aodv import ReactiveCore, RouteEntry, hear_rreq
from .gpsr import BeaconMixin, greedy_next_hop, hear_beacon
from .metrics import DropCause
from .packets import BEACON, DATA, GREEDY, ROUTE, GeoHeader, Packet
from .radio import DELIVERED


class CrpNode(BeaconMixin):
    def __init__(self, engine, node: int):
        self.engine = engine
        self.node = node
        self.core = ReactiveCore(engine, node, owner=self)
        self._init_beacons(engine)

    def on_timer(self, discovery) -> None:
        self.core.on_discovery_timeout(discovery)

    # -- data plane ------------------------------------------------------

    def originate(self, pkt: Packet) -> None:
        pkt.geo = GeoHeader(dst_pos=self.engine.position(pkt.final_dst))
        self.forward(pkt)

    def on_packet(self, pkt: Packet, sender: int) -> None:
        """A unicast arrival: data or a route reply."""
        if pkt.kind is DATA:
            self.forward(pkt)
        else:
            self.core.handle_rrep(pkt, sender)

    @staticmethod
    def hear(engine, pkt: Packet, sender: int, receivers) -> None:
        """A broadcast arrival, a beacon or a flood copy, heard by each
        receiver in id order. crp sends no RERR and no hello."""
        if pkt.kind is BEACON:
            hear_beacon(engine, pkt, sender, receivers)
        else:
            hear_rreq(engine, pkt, sender, receivers)

    def forward(self, pkt: Packet) -> None:
        if pkt.ttl < 1:
            self.engine.drop(pkt, DropCause.TTL)
            return
        if pkt.geo.mode is GREEDY:
            self._forward_greedy(pkt)
        else:
            # A relay whose route has evaporated becomes the new anchor.
            self.core.send_or_discover(pkt)

    def _forward_greedy(self, pkt: Packet) -> None:
        engine = self.engine
        now = engine.sim.now
        # (x, y) floats, as in a Position: greedy_next_hop unpacks them
        self_pos = engine.traces[self.node].coords_at(now)
        dst_pos = pkt.geo.dst_pos
        for attempt in (0, 1):  # one retry after a link failure
            neighbors = self.nbrs.fresh(now)
            nh = greedy_next_hop(self_pos, neighbors, dst_pos)
            if nh is None:
                self.on_local_maximum(pkt)
                return
            pkt.ttl -= 1
            if engine.radio.unicast(self.node, nh, pkt) is DELIVERED:
                engine.note_hop(pkt, self.node, "geo_greedy")
                return
            pkt.ttl += 1  # the hop did not happen
            self._forget_link(nh)
        engine.drop(pkt, DropCause.LINK_FAILURE)

    def on_local_maximum(self, pkt: Packet) -> None:
        """Greedy has no closer neighbor here: ride a cached escape route if
        one is fresh, otherwise buffer and flood a discovery from this node."""
        self.core.send_or_discover(pkt)

    def _switch_to_route(self, pkt: Packet) -> None:
        pkt.geo.mode = ROUTE

    def _forget_link(self, next_hop: int) -> None:
        self.nbrs.evict(next_hop)
        self.core.table.invalidate_via(next_hop)

    # -- ReactiveCore owner hooks ----------------------------------------

    def send_on_route(self, pkt: Packet, entry: RouteEntry) -> None:
        self._switch_to_route(pkt)
        self.core.forward(pkt, entry, "aodv_route")

    def on_link_failure(self, next_hop: int, pkt: Packet) -> None:
        # No recovery: invalidate quietly and send no RERR; data is lost.
        self._forget_link(next_hop)
        if pkt.kind is DATA:
            self.engine.drop(pkt, DropCause.LINK_FAILURE)
