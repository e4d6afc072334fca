"""Wires the clock, radio, mobility traces, traffic, and per-node protocols.

One Engine owns one run. All node state lives inside the single-threaded
event loop; runs with identical scenario and seed produce identical results,
so replications may execute in parallel processes but never share state.

The engine makes every packet (`Engine.packet` stamps its uid and birth
time) and delivers every data packet, at its emission for a self-addressed
stream and at its arrival at `final_dst` otherwise. Protocols only route.

A packet arrival, `(pkt, sender, receivers)`, of a unicast kind (DATA,
RREP) goes to its one receiver's `on_packet`. A broadcast arrival goes
whole to the node class's `hear(engine, pkt, sender, receivers)`, one
call that runs each receiver in id order to the end before the next.
Every other event carries the call it makes, `(fn, arg)`, and dispatch
calls `fn(arg)`: a stream's next packet is `(self._emit, index)`, a tick
`(BeaconMixin.on_beacon_tick, node)` or `(AodvNode._hello_tick, node)`, and
a discovery timeout `(owner.on_timer, discovery)`.
"""

import itertools

from .aodv import AodvNode
from .core import (PACKET_ARRIVAL, TIMER_EXPIRY, TRAFFIC_EMIT, SimTime, Simulator,
                   rng_stream, us)
from .crp import CrpNode
from .geometry import Position
from .gpsr import GpsrNode
from .metrics import DropCause, MetricsRow, RunMetrics
from .mobility import WaypointTrace, position_at, random_waypoint_trace
from .packets import DATA, RREP, Packet, PacketKind
from .radio import Radio
from .scenario import Scenario
from .traffic import CbrStream, make_streams

# gpsr_greedy_only is GpsrNode with its perimeter mode off.
NODE_CLASSES = {"aodv": AodvNode, "gpsr": GpsrNode,
                "gpsr_greedy_only": GpsrNode, "crp": CrpNode}


def build_traces(sc: Scenario) -> list[WaypointTrace]:
    """One trace per node; none for a run of 0 us, where nothing moves."""
    if us(sc.duration_s) == 0:
        return []
    rng = rng_stream(sc.seed, "mobility")
    return [
        random_waypoint_trace(sc.area_width, sc.area_height, sc.speed_mps,
                              sc.pause_s, sc.duration_s, rng)
        for _ in range(sc.n_nodes)
    ]


def build_streams(sc: Scenario) -> list[CbrStream]:
    return make_streams(
        sc.n_streams, sc.n_nodes, sc.packet_size_bytes,
        1.0 / sc.rate_pps, sc.duration_s,
        pair_rng=rng_stream(sc.seed, "pairs"),
        start_rng=rng_stream(sc.seed, "traffic"),
        start_window_s=sc.traffic_start_window_s,
    )


class Engine:
    def __init__(self, scenario: Scenario, *, traces: list[WaypointTrace] | None = None,
                 streams: list[CbrStream] | None = None, record_hops: bool = False):
        self.scenario = scenario
        self.sim = Simulator()
        self.sim.handler = self._dispatch
        self.metrics = RunMetrics()
        self.rng_jitter = rng_stream(scenario.seed, "jitter")
        self.rng_beacon = rng_stream(scenario.seed, "beacon")
        self.rng_hello = rng_stream(scenario.seed, "hello")
        self.duration: SimTime = us(scenario.duration_s)
        self.traces = traces if traces is not None else build_traces(scenario)
        self.streams = streams if streams is not None else build_streams(scenario)
        self.radio = Radio(scenario, self.traces, self.sim, self.metrics,
                           self.rng_jitter)
        self._uids = itertools.count()
        node_class = NODE_CLASSES[scenario.protocol]
        self.protocols = [node_class(self, i) for i in range(scenario.n_nodes)]
        self.hear = node_class.hear  # a broadcast arrival's one entry point
        self.flood_log: list[tuple[int, int, SimTime]] = []
        self.hop_log: dict[int, list[tuple[int, SimTime, str]]] | None = \
            {} if record_hops else None

    # -- services used by protocol state machines ------------------------

    def position_at_time(self, node: int, t: SimTime) -> Position:
        # Each trace's leg cursor answers repeat queries at one instant.
        return position_at(self.traces[node], t)

    def position(self, node: int) -> Position:
        return self.position_at_time(node, self.sim.now)

    def packet(self, kind: PacketKind, origin: int, final_dst: int, ttl: int,
               size_bytes: int, **fields) -> Packet:
        """A new packet with the run's next uid, born now."""
        return Packet(next(self._uids), kind, origin, final_dst, self.sim.now,
                      ttl, size_bytes, **fields)

    def _deliver(self, node: int, pkt: Packet) -> None:
        self.metrics.record_delivery(pkt.uid, pkt.created_at, self.sim.now)
        self.note_hop(pkt, node, "delivered")

    def drop(self, pkt: Packet, cause: DropCause) -> None:
        """End a data packet; a control packet's uid is never in flight,
        so dropping one raises AccountingError."""
        self.metrics.record_drop(pkt.uid, cause)
        if self.hop_log is not None:
            self.note_hop(pkt, -1, f"dropped:{cause.value}")

    def schedule_timer(self, delay_us: SimTime, fn, arg) -> None:
        """Call fn(arg) after delay_us."""
        self.sim.schedule(self.sim.now + delay_us, TIMER_EXPIRY, (fn, arg))

    def note_flood(self, origin: int, dst: int) -> None:
        self.flood_log.append((origin, dst, self.sim.now))

    def note_hop(self, pkt: Packet, node: int, tag: str) -> None:
        if self.hop_log is not None:
            self.hop_log.setdefault(pkt.uid, []).append((node, self.sim.now, tag))

    # -- event dispatch ----------------------------------------------------

    def _dispatch(self, ev) -> None:
        if ev.kind is PACKET_ARRIVAL:
            pkt, sender, receivers = ev.payload
            kind = pkt.kind
            if kind is DATA or kind is RREP:
                (receiver,) = receivers  # a unicast
                if kind is DATA and receiver == pkt.final_dst:
                    self._deliver(receiver, pkt)
                else:
                    self.protocols[receiver].on_packet(pkt, sender)
            else:
                self.hear(self, pkt, sender, receivers)
        else:  # a timer or a stream's emission
            fn, arg = ev.payload
            fn(arg)

    def _emit(self, stream_idx: int) -> None:
        s = self.streams[stream_idx]
        pkt = self.packet(DATA, s.src, s.dst, self.scenario.data_ttl,
                          s.packet_size)
        self.metrics.record_origination(pkt.uid)
        self.note_hop(pkt, s.src, "originated")
        if s.dst == s.src:
            self._deliver(s.src, pkt)
        else:
            self.protocols[s.src].originate(pkt)
        nxt = self.sim.now + s.interval
        if nxt <= s.stop_at:
            self.sim.schedule(nxt, TRAFFIC_EMIT, (self._emit, stream_idx))

    # -- run ----------------------------------------------------------------

    def run(self) -> MetricsRow:
        if self.duration > 0:
            for proto in self.protocols:
                proto.start()
            for idx, s in enumerate(self.streams):
                if s.start_at <= self.duration:
                    self.sim.schedule(s.start_at, TRAFFIC_EMIT, (self._emit, idx))
        self.sim.run_until(self.duration)
        sc = self.scenario
        return self.metrics.finalize(
            protocol=sc.protocol, scenario_id=sc.name, seed=sc.seed,
            n_nodes=sc.n_nodes, pause_s=sc.pause_s, rate_pps=sc.rate_pps)


def run_one(scenario: Scenario) -> MetricsRow:
    """Build the world, run the loop to the scenario horizon, report one row.

    Identical (scenario, seed) pairs give byte-identical rows.
    """
    return Engine(scenario).run()
