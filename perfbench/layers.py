"""Per-layer metrics from the spans and counts that tracer.py records.

The metric set is fixed here rather than read from the simulator, so it
stays the same when a change removes an event kind or a packet kind; a
metric whose code is gone reads 0.
"""

from collections import Counter

LAYERS = ("core", "engine", "mobility", "radio", "packets", "gpsr", "aodv", "crp")
EVENT_KINDS = ("packet_arrival", "timer_expiry", "traffic_emit", "beacon_tick",
               "mobility_checkpoint")
TX_KINDS = ("data", "rreq", "rrep", "rerr", "beacon", "hello")


def merge(snapshots: list[dict]) -> dict:
    total = {"calls": Counter(), "incl": Counter(), "own": Counter(),
             "counts": Counter()}
    for snap in snapshots:
        for key, counter in total.items():
            counter.update(snap[key])
    return total


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(snap: dict) -> dict[str, float]:
    """Flatten merged span data into the benchmark's per-layer metrics."""
    calls, incl, own, counts = (snap[k] for k in ("calls", "incl", "own", "counts"))
    m = {
        "core.events": counts["core.events"],
        "core.schedule_calls": calls["core.schedule"],
        "core.schedule_s": own["core.schedule"],
        "core.loop_self_s": own["core.run_until"],
    }
    for kind in EVENT_KINDS:
        m[f"engine.dispatch_calls.{kind}"] = calls[f"engine.dispatch.{kind}"]
        m[f"engine.dispatch_s.{kind}"] = incl[f"engine.dispatch.{kind}"]
    m["engine.position_at_time_calls"] = calls["engine.position_at_time"]
    m["engine.position_hit_ratio"] = (
        1.0 - _ratio(calls["mobility.position_at"], calls["engine.position_at_time"])
        if calls["engine.position_at_time"] else 0.0)
    m["mobility.position_at_calls"] = calls["mobility.position_at"]
    m["mobility.position_at_s"] = own["mobility.position_at"]
    m["mobility.trace_build_s"] = incl["mobility.random_waypoint_trace"]
    for fn in ("broadcast", "neighbors", "unicast"):
        m[f"radio.{fn}_calls"] = calls[f"radio.{fn}"]
        m[f"radio.{fn}_s"] = own[f"radio.{fn}"]
    m["radio.fanout"] = _ratio(counts["radio.arrivals"], calls["radio.broadcast"])
    m["radio.unicast_fail_ratio"] = _ratio(counts["radio.unicast_fail"],
                                           calls["radio.unicast"])
    m["packets.clone_calls"] = calls["packets.clone"]
    m["packets.clone_s"] = own["packets.clone"]
    for fn in ("fresh", "greedy_next_hop", "planarize_gg", "perimeter_next_hop"):
        m[f"gpsr.{fn}_calls"] = calls[f"gpsr.{fn}"]
        m[f"gpsr.{fn}_s"] = own[f"gpsr.{fn}"]
    m["gpsr.local_max_ratio"] = _ratio(counts["gpsr.local_max"],
                                       calls["gpsr.greedy_next_hop"])
    m["gpsr.planarize_degree"] = _ratio(counts["gpsr.planarize_in"],
                                        calls["gpsr.planarize_gg"])
    m["aodv.floods"] = counts["aodv.floods"]
    m["aodv.handle_rreq_calls"] = calls["aodv.handle_rreq"]
    m["aodv.handle_rreq_s"] = own["aodv.handle_rreq"]
    m["aodv.rreq_dup_ratio"] = _ratio(counts["aodv.rreq_dup"],
                                      calls["aodv.handle_rreq"])
    m["aodv.lookup_active_calls"] = calls["aodv.lookup_active"]
    m["aodv.lookup_active_s"] = own["aodv.lookup_active"]
    m["aodv.seen_entries"] = counts["aodv.seen_entries"]
    m["crp.local_max_calls"] = calls["crp.on_local_maximum"]
    m["crp.escape_hit_ratio"] = _ratio(counts["crp.escape_hit"],
                                       calls["crp.on_local_maximum"])
    for kind in TX_KINDS:
        m[f"metrics.tx.{kind}"] = counts[f"metrics.tx.{kind}"]
    layer_self = Counter()
    for name, t in own.items():
        layer_self[name.split(".", 1)[0]] += t
    total_self = sum(layer_self.values())
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer]
        m[f"{layer}.share"] = _ratio(layer_self[layer], total_self)
    return m
