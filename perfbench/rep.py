"""One benchmark request, run in a fresh process.

    python3 perfbench/rep.py WORKLOAD SCENARIO_SEED TRACE

Builds the workload's world for one scenario seed, runs it, and prints one
JSON object: the result rows, the monotonic clock reading when the run
began (so the parent can take set-up time from its own spawn time), the run's
host seconds, peak resident memory and, with TRACE=1, the layer trace.
"""

import json
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import ROOT, lookup  # noqa: E402


def _peak_rss_mb(study: bool) -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if study:  # pool workers have been joined, so they count as children
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


def run_request(name: str, seed: int, trace: bool) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    import dataclasses

    from manet_lab.engine import Engine
    from manet_lab.scenario import load_scenario, validate_scenario
    from manet_lab.sweep import SweepPlan, run_sweep

    wl = lookup(name)
    sc = load_scenario(ROOT / "scenarios" / wl.scenario)
    sc = dataclasses.replace(sc, **wl.overrides, seed=seed)
    validate_scenario(sc)
    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
    with tracer.installed() if tracer else nullcontext():
        if wl.study:
            st = wl.study
            plan = SweepPlan(base=sc, axis=st.axis, values=list(st.values),
                             replications=st.replications,
                             protocols=list(st.protocols))
            begin = time.monotonic()
            rows, failures = run_sweep(plan, jobs=st.jobs)
            end = time.monotonic()
            if failures:
                raise RuntimeError("; ".join(failures))
        else:
            engine = Engine(sc)
            begin = time.monotonic()
            rows = [engine.run()]
            end = time.monotonic()
    out = {
        "rows": [row.to_csv_row() for row in rows],
        "tx": sum(row.transmissions_total for row in rows),
        "begin": begin,
        "wall_s": end - begin,
        "peak_rss_mb": _peak_rss_mb(wl.study is not None),
    }
    if tracer:
        from layers import merge
        snaps = ([row.bench_trace for row in rows] if wl.study
                 else [tracer.snapshot()])
        out["trace"] = merge(snaps)
        out["untraced"] = tracer.untraced
    return out


if __name__ == "__main__":
    name, seed, trace = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1"
    print(json.dumps(run_request(name, seed, trace)))
