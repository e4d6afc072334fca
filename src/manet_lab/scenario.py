"""Flat `key = value` scenario files and their validated in-memory form."""

import dataclasses
import sys
from dataclasses import dataclass
from math import hypot, isfinite
from pathlib import Path

from .core import US_PER_S, us
from .errors import ParseError, ValidationError

PROTOCOLS = ("aodv", "gpsr", "crp", "gpsr_greedy_only")

# Upper bound on the estimated random-waypoint legs over all traces.
MAX_TRACE_LEGS = 1_000_000
# Upper bound on the data packets all streams emit, n_streams * rate_pps *
# duration_s, and on the beacons or hellos all nodes send. The largest sweep
# in scenarios/ emits 250,000 data packets (25 pkt/s, 500 s) and sends
# 50,000 beacons (100 nodes, 500 s).
MAX_PACKETS = 10_000_000
# Upper bound on the data hops, n_streams * rate_pps * duration_s * data_ttl:
# each hop spends one unit of a packet's data_ttl. With hops of 0 us, a
# perimeter loop would otherwise go on at one instant until a huge data_ttl
# runs out. The bound is MAX_PACKETS packets at the default data_ttl of 32,
# so it binds only where data_ttl is raised; the largest sweep in
# scenarios/ needs 250,000 * 32 = 8e6.
MAX_DATA_HOPS = 320_000_000
# Upper bound on the node pairs the radio compares for the streams' first
# route discoveries, n_nodes**2 * (1 + discovery_retries) each, plus n_nodes
# per beacon or hello: every broadcast compares its sender with every node,
# and every node relays each flood once. Each stream's source starts its
# discovery at once, and a source floods once per destination, so there is
# one discovery per stream, at most one per ordered node pair. One flood
# among 4,000 nodes, 1.6e7 pairs, takes about 3 s of CPU with Python 3.11 on
# a 2-core host, so the bound is a few minutes of scans. The largest sweep
# in scenarios/ needs 100**2 * 3 * 20 + 100 * 50,000 = 5.6e6.
MAX_RADIO_SCANS = 1_000_000_000

_TRUE = {"on", "true", "yes", "1"}
_FALSE = {"off", "false", "no", "0"}


@dataclass(frozen=True)
class Scenario:
    """One experiment description; every field has a documented default.
    Frozen, and validated whenever one is made (constructed, parsed or
    `dataclasses.replace`d), so an invalid one raises ValidationError."""

    name: str = "scenario"
    n_nodes: int = 30
    area_width: float = 1000.0
    area_height: float = 1000.0
    protocol: str = "aodv"
    duration_s: float = 500.0
    seed: int = 1
    # radio
    radio_range: float = 250.0
    bandwidth_bps: float = 2_000_000.0
    processing_delay_s: float = 0.001
    jitter_max_s: float = 0.0
    # mobility (random waypoint)
    speed_mps: float = 20.0
    pause_s: float = 40.0
    # traffic
    n_streams: int = 20
    rate_pps: float = 4.0
    packet_size_bytes: int = 512
    traffic_start_window_s: float = 10.0
    # shared protocol knobs
    data_ttl: int = 32
    rreq_ttl: int = 32
    route_lifetime_s: float = 10.0
    discovery_retries: int = 2
    buffer_cap: int = 64
    control_size_bytes: int = 64
    hello_size_bytes: int = 32
    beacon_size_bytes: int = 32
    # protocol-specific toggles
    aodv_hello: bool = False
    hello_interval_s: float = 1.0
    beacon_interval_s: float = 1.0
    beacon_jitter_s: float = 0.25
    neighbor_timeout_s: float = 4.5

    def __post_init__(self):
        validate_scenario(self)


_FIELDS = {f.name: f for f in dataclasses.fields(Scenario)}
_NUMBERS = [name for name, f in _FIELDS.items() if f.type in (int, float)]
_SECONDS = [name for name in _NUMBERS if name.endswith("_s")]
_FLOAT_MAX = sys.float_info.max

# The numbers that must be positive; every other number must not be negative.
_POSITIVE = {
    "n_nodes", "area_width", "area_height", "radio_range",
    "bandwidth_bps", "speed_mps", "n_streams", "rate_pps",
    "packet_size_bytes", "data_ttl", "rreq_ttl", "route_lifetime_s",
    "buffer_cap", "control_size_bytes", "hello_size_bytes",
    "beacon_size_bytes", "hello_interval_s", "beacon_interval_s",
    "neighbor_timeout_s",
}


def _convert(field_name: str, raw: str, line: int | None = None):
    """Parse one field's text value; a bad value raises a ParseError that
    names the field."""
    ftype = _FIELDS[field_name].type
    raw = raw.strip()
    try:
        if ftype is bool:
            low = raw.lower()
            if low in _TRUE:
                return True
            if low in _FALSE:
                return False
            raise ValueError(f"not a boolean: {raw!r}")
        if ftype in (int, float):
            return ftype(raw)
        return raw
    except ValueError as exc:
        raise ParseError(f"{field_name}: {exc}", line=line) from None


def parse_scenario(text: str, name: str | None = None) -> Scenario:
    """Parse into a Scenario; unknown or repeated keys and malformed lines
    are rejected with their line number, bad values with the field name."""
    values = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"expected 'key = value', got {raw_line!r}", line=lineno)
        key, _, raw_value = line.partition("=")
        key = key.strip()
        if key not in _FIELDS:
            raise ParseError(f"unknown key {key!r}", line=lineno)
        if key in values:
            raise ParseError(f"key {key!r} is set twice", line=lineno)
        values[key] = _convert(key, raw_value, lineno)
    if name is not None and "name" not in values:
        values["name"] = name
    return Scenario(**values)


def load_scenario(path: str | Path) -> Scenario:
    path = Path(path)
    return parse_scenario(path.read_text(), name=path.stem)


def validate_scenario(sc: Scenario) -> None:
    if sc.protocol not in PROTOCOLS:
        raise ValidationError(
            f"unsupported protocol {sc.protocol!r}; choose one of {', '.join(PROTOCOLS)}",
            field="protocol")
    if any(char in sc.name for char in ",\n\r"):
        raise ValidationError("must not contain a comma or a line break: it is "
                              "one field of a results CSV row", field="name")
    # NaN passes every sign check below, inf passes the lower bounds, and an
    # int past the float range breaks the float arithmetic below.
    for fname in _NUMBERS:
        if not -_FLOAT_MAX <= getattr(sc, fname) <= _FLOAT_MAX:
            raise ValidationError("must be a finite number", field=fname)
    for fname in _NUMBERS:
        value = getattr(sc, fname)
        if fname in _POSITIVE:
            if value <= 0:
                raise ValidationError("must be positive", field=fname)
        elif value < 0:
            raise ValidationError("must not be negative", field=fname)
    if sc.n_nodes < 2:
        raise ValidationError("need at least two nodes", field="n_nodes")
    # Every time the run converts to integer microseconds must stay finite
    # in microseconds, or us() raises OverflowError mid-run. Finite inputs
    # can still overflow: rate_pps = 1e-303 or bandwidth_bps = 1e-300.
    interval_s = 1.0 / sc.rate_pps
    diagonal_s = hypot(sc.area_width, sc.area_height) / sc.speed_mps
    largest = max(sc.packet_size_bytes, sc.control_size_bytes,
                  sc.hello_size_bytes, sc.beacon_size_bytes)
    times = [(fname, getattr(sc, fname), "the value") for fname in _SECONDS] + [
        ("rate_pps", interval_s, "the packet interval 1/rate_pps"),
        ("speed_mps", diagonal_s, "a leg across the whole area"),
        ("bandwidth_bps", largest * 8 / sc.bandwidth_bps,
         "the on-air time of the largest packet"),
    ]
    for fname, seconds, what in times:
        if not isfinite(seconds * US_PER_S):
            raise ValidationError(f"{what} overflows when converted to "
                                  "microseconds", field=fname)
    # Periods that round to 0 us would re-fire at the same instant forever.
    if us(interval_s) == 0:
        raise ValidationError("packet interval 1/rate_pps rounds to 0 us",
                              field="rate_pps")
    if us(sc.hello_interval_s) == 0:
        raise ValidationError("rounds to 0 us", field="hello_interval_s")
    # With no pause and no leg longer than 0 us, trace generation never
    # reaches the end of the run.
    if us(sc.pause_s) == 0 and us(diagonal_s) == 0:
        raise ValidationError("even a leg across the whole area takes 0 us "
                              "and pause_s rounds to 0 us", field="speed_mps")
    # Bound the legs the traces need. The mean distance between two uniform
    # waypoints is at least the mean |dx| = width / 3 (and |dy| = height / 3),
    # so the estimate is not below the expected leg count, give or take the
    # first leg of each trace; and every trace has at least one leg. The
    # rule above keeps the divisor positive.
    leg_s = sc.pause_s + max(sc.area_width, sc.area_height) / sc.speed_mps / 3
    per_node = sc.duration_s / leg_s
    legs = sc.n_nodes * max(1.0, per_node)
    if legs > MAX_TRACE_LEGS:
        if per_node <= 1:
            raise ValidationError(
                "the mobility traces would need at least one leg per node, "
                f"{legs:.3g} legs, more than {MAX_TRACE_LEGS:,}; lower n_nodes",
                field="n_nodes")
        raise ValidationError(
            f"the mobility traces would need about {legs:.3g} legs, more "
            f"than {MAX_TRACE_LEGS:,}; shorten the run, lengthen pause_s or "
            "lower speed_mps", field="duration_s")
    # Bound the traffic too: the run handles every packet the streams emit,
    # and every stream emits its first packet, however short the run.
    per_stream = sc.rate_pps * sc.duration_s
    packets = sc.n_streams * max(1.0, per_stream)
    if packets > MAX_PACKETS:
        if per_stream <= 1:
            raise ValidationError(
                f"every stream emits at least one packet, {packets:.3g} in "
                f"all, more than {MAX_PACKETS:,}; lower n_streams",
                field="n_streams")
        raise ValidationError(
            f"the streams would emit about {packets:.3g} packets "
            f"(n_streams * rate_pps * duration_s), more than {MAX_PACKETS:,}; "
            "shorten the run, lower rate_pps or lower n_streams",
            field="duration_s")
    hops = packets * sc.data_ttl
    if hops > MAX_DATA_HOPS:
        raise ValidationError(
            f"the data packets could take about {hops:.3g} hops (n_streams * "
            f"rate_pps * duration_s * data_ttl), more than {MAX_DATA_HOPS:,}; "
            "lower data_ttl", field="data_ttl")
    # And the periodic timer, where one runs: each node sends about one
    # beacon or hello per interval. Beacon jitter is symmetric and max(1,
    # gap) only lengthens a gap, so only the interval's rounding to whole
    # microseconds can make this undercount.
    if sc.protocol == "aodv":
        timer = "hello_interval_s" if sc.aodv_hello else None
    else:
        timer = "beacon_interval_s"
    sends = 0.0
    if timer is not None:
        sends = sc.n_nodes * sc.duration_s / getattr(sc, timer)
        if sends > MAX_PACKETS:
            raise ValidationError(
                f"the nodes would send about {sends:.3g} periodic packets "
                f"(n_nodes * duration_s / {timer}), more than {MAX_PACKETS:,}; "
                f"shorten the run or lengthen {timer}", field=timer)
    # And the broadcasts' scans of all nodes, where a flood runs: aodv and
    # crp discover routes, one per stream, gpsr does not.
    floods = 0
    if sc.protocol in ("aodv", "crp"):
        discoveries = min(sc.n_streams, sc.n_nodes * (sc.n_nodes - 1))
        floods = discoveries * (1 + sc.discovery_retries)
    scans = sc.n_nodes * (sc.n_nodes * floods + sends)
    if scans > MAX_RADIO_SCANS:
        raise ValidationError(
            "the broadcasts of the streams' route discoveries and of the "
            f"periodic packets would compare about {scans:.3g} node pairs "
            "(n_nodes per broadcast, n_nodes * (1 + discovery_retries) "
            "broadcasts per discovery, one discovery per stream), more than "
            f"{MAX_RADIO_SCANS:,}; lower n_nodes or n_streams",
            field="n_nodes")


def format_scenario(sc: Scenario, comment: bool = False) -> str:
    """Render every resolved field as `key = value` lines (the output header
    echo); with comment=True each line is prefixed with '# '."""
    prefix = "# " if comment else ""
    lines = []
    for f in dataclasses.fields(Scenario):
        value = getattr(sc, f.name)
        if isinstance(value, bool):
            value = "on" if value else "off"
        lines.append(f"{prefix}{f.name} = {value}")
    return "\n".join(lines)
