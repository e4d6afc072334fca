"""Outside-in layer tracing: timing wrappers around each module's entry points.

Nothing in the simulator is edited. `Tracer.installed()` replaces functions
and methods where callers look them up (several modules import by name, so
a function can have more than one lookup site), records one span per call
and restores every original on exit, even when the run raises.

A span's self time is its duration minus the time covered by the spans it
encloses; layers.py reports self time unless a name says otherwise.
"""

import importlib
import time
from collections import Counter
from contextlib import contextmanager

from manet_lab.core import EventKind
from manet_lab.radio import TxStatus

# (module, attribute path, span name); the span's layer is the name's first
# part. Sites are named rather than imported so that a refactor which
# removes one (BeaconMixin, say) leaves it untraced instead of breaking the
# trace; `Tracer.untraced` lists such sites.
TIMED_SITES = [
    ("core", "Simulator.schedule", "core.schedule"),
    ("engine", "Engine.position_at_time", "engine.position_at_time"),
    ("engine", "position_at", "mobility.position_at"),
    ("engine", "random_waypoint_trace", "mobility.random_waypoint_trace"),
    ("radio", "Radio.neighbors", "radio.neighbors"),
    ("radio", "clone", "packets.clone"),
    ("gpsr", "NeighborTable.fresh", "gpsr.fresh"),
    ("gpsr", "perimeter_next_hop", "gpsr.perimeter_next_hop"),
    ("gpsr", "GpsrNode.on_packet", "gpsr.on_packet"),
    ("gpsr", "GpsrNode.originate", "gpsr.originate"),
    ("gpsr", "BeaconMixin.on_beacon_tick", "gpsr.on_beacon_tick"),
    ("aodv", "RouteTable.lookup_active", "aodv.lookup_active"),
    ("aodv", "AodvNode.on_packet", "aodv.on_packet"),
    ("aodv", "AodvNode.originate", "aodv.originate"),
    ("aodv", "AodvNode.on_timer", "aodv.on_timer"),
    ("crp", "CrpNode.on_packet", "crp.on_packet"),
    ("crp", "CrpNode.originate", "crp.originate"),
    ("crp", "CrpNode.on_timer", "crp.on_timer"),
    ("crp", "CrpNode._switch_to_route", "crp.switch_to_route"),
]

# Sites whose wrappers also take counts; see Tracer._counting_wrappers.
COUNTING_SITES = [
    ("core", "Simulator.run_until"),
    ("engine", "Engine.run"),
    ("radio", "Radio.broadcast"),
    ("radio", "Radio.unicast"),
    ("gpsr", "greedy_next_hop"),
    ("crp", "greedy_next_hop"),
    ("gpsr", "planarize_gg"),
    ("aodv", "ReactiveCore.handle_rreq"),
    ("crp", "CrpNode.on_local_maximum"),
    ("sweep", "run_one"),
]


def resolve(module: str, path: str):
    """(owner, attribute) for a site, or None if the code no longer has it."""
    owner = importlib.import_module(f"manet_lab.{module}")
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
    if owner is None or attr not in vars(owner):
        return None
    return owner, attr


def patch_sites() -> list[tuple]:
    """Every (owner, attribute) the tracer replaces at this commit."""
    sites = [resolve(m, p) for m, p, _ in TIMED_SITES]
    sites += [resolve(m, p) for m, p in COUNTING_SITES]
    return [site for site in sites if site is not None]


class Tracer:
    """Per-span call counts and times, plus counters taken at the same calls."""

    def __init__(self):
        self.calls = Counter()
        self.incl = Counter()
        self.own = Counter()
        self.counts = Counter()
        self._stack = [0.0]
        self._patches = []
        self.untraced: list[str] = []

    def timed(self, name, fn):
        calls, incl, own, stack = self.calls, self.incl, self.own, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                inner = stack.pop()
                stack[-1] += dt
                calls[name] += 1
                incl[name] += dt
                own[name] += dt - inner

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every site for the duration of the block."""
        wrappers = self._counting_wrappers()
        sites = [(m, p, lambda fn, name=name: self.timed(name, fn))
                 for m, p, name in TIMED_SITES]
        sites += [(m, p, wrappers[p.rsplit(".", 1)[-1]]) for m, p in COUNTING_SITES]
        try:
            for module, path, make in sites:
                site = resolve(module, path)
                if site is None:
                    self.untraced.append(f"{module}.{path}")
                    continue
                owner, attr = site
                original = vars(owner)[attr]
                self._patches.append((owner, attr, original))
                setattr(owner, attr, make(original))
            yield self
        finally:
            while self._patches:
                owner, attr, original = self._patches.pop()
                setattr(owner, attr, original)

    def _counting_wrappers(self):
        counts, calls, timed = self.counts, self.calls, self.timed
        kinds = {k: f"engine.dispatch.{k.value}" for k in EventKind}

        def run_until(fn):
            inner = timed("core.run_until", fn)

            def run_until(sim, t_end):
                dispatched = inner(sim, t_end)
                counts["core.events"] += dispatched
                return dispatched
            return run_until

        def run(fn):
            inner = timed("engine.run", fn)

            def run(eng):
                handler = eng.sim.handler
                per_kind = {k: timed(name, handler) for k, name in kinds.items()}
                eng.sim.handler = lambda ev: per_kind[ev.kind](ev)
                try:
                    return inner(eng)
                finally:
                    eng.sim.handler = handler
                    counts["aodv.floods"] += len(eng.flood_log)
                    counts["aodv.seen_entries"] += sum(
                        len(p.core.seen) for p in eng.protocols if hasattr(p, "core"))
                    for kind, n in eng.metrics.transmissions_by_kind.items():
                        counts[f"metrics.tx.{kind}"] += n
            return run

        def broadcast(fn):
            inner = timed("radio.broadcast", fn)

            def broadcast(radio_, sender, pkt):
                deliveries = inner(radio_, sender, pkt)
                counts["radio.arrivals"] += len(deliveries)
                return deliveries
            return broadcast

        def unicast(fn):
            inner = timed("radio.unicast", fn)

            def unicast(radio_, sender, next_hop, pkt):
                outcome = inner(radio_, sender, next_hop, pkt)
                if outcome.status is TxStatus.LINK_FAILURE:
                    counts["radio.unicast_fail"] += 1
                return outcome
            return unicast

        def greedy_next_hop(fn):
            inner = timed("gpsr.greedy_next_hop", fn)

            def greedy_next_hop(self_pos, neighbors, dst_pos):
                nh = inner(self_pos, neighbors, dst_pos)
                if nh is None:
                    counts["gpsr.local_max"] += 1
                return nh
            return greedy_next_hop

        def planarize_gg(fn):
            inner = timed("gpsr.planarize_gg", fn)

            def planarize_gg(self_pos, neighbors):
                counts["gpsr.planarize_in"] += len(neighbors)
                return inner(self_pos, neighbors)
            return planarize_gg

        def handle_rreq(fn):
            inner = timed("aodv.handle_rreq", fn)

            def handle_rreq(core_, pkt, sender):
                if (pkt.origin, pkt.aodv.rreq_id) in core_.seen:
                    counts["aodv.rreq_dup"] += 1
                return inner(core_, pkt, sender)
            return handle_rreq

        def on_local_maximum(fn):
            inner = timed("crp.on_local_maximum", fn)

            def on_local_maximum(node, pkt):
                # An escape hit switches the packet onto a cached route
                # before returning; a miss only starts a discovery.
                before = calls["crp.switch_to_route"]
                inner(node, pkt)
                if calls["crp.switch_to_route"] > before:
                    counts["crp.escape_hit"] += 1
            return on_local_maximum

        def run_one(fn):
            inner = timed("sweep.run_one", fn)

            def run_one(scenario):
                # Pool workers fork with these wrappers in place; each cell
                # ships what its own run added back on its row.
                before = self.snapshot()
                row = inner(scenario)
                row.bench_trace = _difference(self.snapshot(), before)
                return row
            return run_one

        return {"run_until": run_until, "run": run,
                "broadcast": broadcast, "unicast": unicast,
                "greedy_next_hop": greedy_next_hop, "planarize_gg": planarize_gg,
                "handle_rreq": handle_rreq, "on_local_maximum": on_local_maximum,
                "run_one": run_one}

    def snapshot(self) -> dict:
        return {"calls": dict(self.calls), "incl": dict(self.incl),
                "own": dict(self.own), "counts": dict(self.counts)}


def _difference(after: dict, before: dict) -> dict:
    return {key: {name: value - before[key].get(name, 0)
                  for name, value in counter.items()}
            for key, counter in after.items()}
