"""Wire-level packet and routing-header records shared by all protocols."""

from dataclasses import dataclass
from enum import Enum

from .core import SimTime
from .geometry import Position


class PacketKind(Enum):
    DATA = "data"
    RREQ = "rreq"
    RREP = "rrep"
    RERR = "rerr"
    BEACON = "beacon"
    HELLO = "hello"


class GeoMode(Enum):
    GREEDY = "greedy"
    PERIMETER = "perimeter"  # gpsr: walking the face around a void
    ROUTE = "route"          # crp: riding a discovered escape route


# The members as module names for the per-packet paths; see core.py.
DATA = PacketKind.DATA
RREQ = PacketKind.RREQ
RREP = PacketKind.RREP
RERR = PacketKind.RERR
BEACON = PacketKind.BEACON
HELLO = PacketKind.HELLO
GREEDY = GeoMode.GREEDY
PERIMETER = GeoMode.PERIMETER
ROUTE = GeoMode.ROUTE


@dataclass
class AodvHeader:
    rreq_id: int      # per-origin flood identifier
    origin_seq: int
    dst_seq: int      # last known destination sequence number, 0 = unknown
    hop_count: int


@dataclass
class GeoHeader:
    dst_pos: Position  # omniscient location service at origination; never updated
    mode: GeoMode = GeoMode.GREEDY
    loc_entry: tuple[float, float] | None = None  # (x, y) where perimeter mode began
    first_edge: tuple[int, int] | None = None  # first perimeter edge taken


@dataclass
class Packet:
    uid: int
    kind: PacketKind
    origin: int
    final_dst: int
    created_at: SimTime
    ttl: int
    size_bytes: int
    aodv: AodvHeader | None = None
    geo: GeoHeader | None = None
    src_pos: Position | None = None  # beacon payload: advertised sender position
    rerr_dsts: tuple[tuple[int, int], ...] | None = None  # (dst, seq) pairs


def clone(pkt: Packet) -> Packet:
    """Copy with its own aodv header, so changing it leaves pkt untouched.

    Every receiver of a broadcast gets the same packet object, so code that
    changes a received broadcast (an RREQ relayed with a lower ttl) must
    change a clone. No broadcast carries geo, since DATA is only unicast; a
    unicast's receiver owns the packet and needs no copy.
    """
    a = pkt.aodv
    if a is not None:
        a = AodvHeader(a.rreq_id, a.origin_seq, a.dst_seq, a.hop_count)
    return Packet(pkt.uid, pkt.kind, pkt.origin, pkt.final_dst, pkt.created_at,
                  pkt.ttl, pkt.size_bytes, a, pkt.geo, pkt.src_pos, pkt.rerr_dsts)
