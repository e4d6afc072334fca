"""Host-time benchmark for manet-lab.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs a closed loop of requests for one workload (see workloads.py), each in
a fresh child process with a wall-clock timeout, and checks every result row
byte for byte against the rows recorded under perfbench/expected/. A request
fails if it raises, times out or gives a different row; any failure makes
the run exit 1.

With --trace 0 the loop keeps starting requests until the next one would end
after S seconds, and the run reports the end-to-end metrics:

    tx_per_s     transmissions simulated per host second of Engine.run()
                 (of run_sweep() for a study), summed over the requests
    setup_s      median host seconds from spawning a request's process to
                 the start of its run: interpreter start, the manet_lab
                 import, load_scenario and Engine(...) or the sweep plan
    peak_rss_mb  median peak resident memory of a request's processes

With --trace 1 the run simulates the workload's first `trace_requests`
scenarios twice each, untraced and traced, and reports the per-layer
metrics of tracer.py plus the tracing overhead. The last line of standard
output is one JSON object with the keys correct, attempted, failed, metrics.
"""

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from layers import layer_metrics, merge  # noqa: E402
from workloads import (BENCH_DIR, ROOT, WORKLOADS, describe, load_expected,  # noqa: E402
                       request_seeds)

REQUEST_TIMEOUT_S = 120.0
RUN_CAP_S = 170.0  # no request may run past this point of the run

E2E_UNITS = {"tx_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


def run_child(name: str, seed: int, trace: bool, timeout: float):
    """Run one request in its own process group; returns (result, error)."""
    cmd = [sys.executable, str(BENCH_DIR / "rep.py"), name, str(seed),
           "1" if trace else "0"]
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"timed out after {timeout:.0f} s"
    finally:
        _end_group(proc)
    if proc.returncode != 0:
        lines = err.strip().splitlines()
        return None, lines[-1] if lines else f"exit code {proc.returncode}"
    result = json.loads(out.strip().splitlines()[-1])
    result["setup_s"] = result["begin"] - spawned
    return result, None


def _end_group(proc: subprocess.Popen) -> None:
    """Kill whatever the request left running (pool workers of a hung
    sweep, say) and wait until its process group is gone."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.communicate()
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.02)


class Run:
    """Requests of one run, checked against the recorded rows."""

    def __init__(self, name: str):
        self.name = name
        self.expected = load_expected(name)
        self.start = time.monotonic()
        self.attempted = 0
        self.failures: list[str] = []
        self._lock = threading.Lock()

    def elapsed(self) -> float:
        return time.monotonic() - self.start

    def request(self, seed: int, trace: bool):
        """One checked request; returns its result, or None if it failed."""
        with self._lock:
            self.attempted += 1
        timeout = max(5.0, min(REQUEST_TIMEOUT_S, RUN_CAP_S - self.elapsed()))
        result, err = run_child(self.name, seed, trace, timeout)
        if err is None and result["rows"] != self.expected[seed]:
            err = (f"rows differ from the recorded rows: got {result['rows']}, "
                   f"expected {self.expected[seed]}")
        if err is not None:
            kind = "traced" if trace else "untraced"
            with self._lock:
                self.failures.append(f"scenario seed {seed} ({kind}): {err}")
            return None
        return result


def measure(run: Run, seed: int, seconds: float) -> tuple[dict, list[dict]]:
    """Keep `lanes` requests in flight until the next one would end late."""
    seeds = iter(request_seeds(seed, run.expected))
    lock = threading.Lock()
    results: list[dict] = []
    durations: list[float] = []

    def lane():
        while True:
            with lock:
                if durations and run.elapsed() + statistics.median(durations) > seconds:
                    return
                s = next(seeds, None)
            if s is None:
                return
            t0 = time.monotonic()
            result = run.request(s, trace=False)
            with lock:
                durations.append(time.monotonic() - t0)
                if result is not None:
                    results.append(result)

    lanes = [threading.Thread(target=lane) for _ in range(WORKLOADS[run.name].lanes)]
    for t in lanes:
        t.start()
    for t in lanes:
        t.join()
    if not results:
        return {}, results
    metrics = {
        "tx_per_s": sum(r["tx"] for r in results) / sum(r["wall_s"] for r in results),
        "setup_s": statistics.median(r["setup_s"] for r in results),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
    }
    return {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in metrics.items()}, results


def measure_traced(run: Run, seed: int) -> tuple[dict, list[dict]]:
    wl = WORKLOADS[run.name]
    plain, traced = [], []
    for s in request_seeds(seed, run.expected)[:wl.trace_requests]:
        base = run.request(s, trace=False)
        with_trace = run.request(s, trace=True)
        if base is not None and with_trace is not None:
            plain.append(base)
            traced.append(with_trace)
    if not traced:
        return {}, plain
    for site in traced[0]["untraced"]:
        print(f"not traced (no longer in the code): {site}")
    snap = merge([r["trace"] for r in traced])
    m = layer_metrics(snap)
    plain_wall = sum(r["wall_s"] for r in plain)
    traced_wall = sum(r["wall_s"] for r in traced)
    m["core.events_per_s"] = m["core.events"] / plain_wall
    m["sweep.cells"] = snap["calls"]["sweep.run_one"]
    m["sweep.cell_wall_s"] = snap["incl"]["sweep.run_one"]
    m["sweep.parallel_efficiency"] = (
        m["sweep.cell_wall_s"] / (wl.study.jobs * traced_wall) if wl.study else 0.0)
    m["trace.overhead_ratio"] = traced_wall / plain_wall
    return {k: {"value": v, "unit": unit_of(k)} for k, v in sorted(m.items())}, plain


def unit_of(metric: str) -> str:
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith("_s") or ".dispatch_s." in metric:
        return "s"
    if metric.endswith(("_ratio", ".share", "_efficiency")):
        return "ratio"
    return "count"


def stamp() -> dict:
    """Interpreter, core count and the code measured."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "commit": _git_commit(), "src_sha256": digest.hexdigest()}


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"{values[0]:.3f}"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"median {q2:.3f}, quartiles {q1:.3f} .. {q3:.3f}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "manet_lab" / "__init__.py").is_file():
        print(f"benchmark: no manet_lab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    run = Run(args.workload)
    if args.trace:
        metrics, results = measure_traced(run, args.seed)
    else:
        metrics, results = measure(run, args.seed, args.seconds)

    print("stamp " + json.dumps(stamp()))
    failed = len(run.failures)
    print(f"workload {args.workload} {json.dumps(describe(WORKLOADS[args.workload]))}")
    print(f"seed {args.seed}: "
          f"{run.attempted} requests, {failed} failed, "
          f"failed_ratio {failed / run.attempted:.3f}")
    for failure in run.failures:
        print(f"FAILED {failure}")
    if results:
        print(f"wall_s per request: {_quartiles([r['wall_s'] for r in results])} "
              f"(n={len(results)})")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": run.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
