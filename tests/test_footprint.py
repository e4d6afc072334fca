"""A single run loads only the modules it executes.

Each check starts a fresh interpreter, since this test process has already
imported whatever the rest of the suite needed. The process pool
(`multiprocessing`, `concurrent.futures.process`) belongs to parallel
sweeps, `statistics` to the table output, and OpenSSL (`_hashlib`) to
nothing the simulator does: the seed hash comes from the interpreter's
built-in SHA-256 module.
"""

from conftest import SRC, fresh_python

STAGE1 = SRC.parent / "scenarios" / "stage1_load.scn"

SINGLE_RUN = f"""
import dataclasses, json, sys
import manet_lab, manet_lab.sweep
from manet_lab.engine import Engine
from manet_lab.scenario import load_scenario
sc = load_scenario({str(STAGE1)!r})
Engine(dataclasses.replace(sc, duration_s=5.0, protocol="aodv")).run()
builtin_sha = False
for name in ("_sha256", "_sha2"):
    try:
        __import__(name)
        builtin_sha = True
    except ImportError:
        pass
print(json.dumps({{"builtin_sha": builtin_sha, "modules": sorted(sys.modules)}}))
"""

SWEEP = """
import json, sys
from manet_lab.scenario import Scenario
from manet_lab.sweep import SweepPlan, run_sweep
plan = SweepPlan(base=Scenario(n_nodes=10, duration_s=10.0, n_streams=3, seed=5),
                 axis="pause", values=[0, 40], replications=1,
                 protocols=["aodv", "gpsr", "crp"])
serial, serial_failures = run_sweep(plan, jobs=1)
pool_loaded_before = "concurrent.futures.process" in sys.modules
parallel, parallel_failures = run_sweep(plan, jobs=2)
print(json.dumps({
    "pool_loaded_before": pool_loaded_before,
    "failures": serial_failures + parallel_failures,
    "serial": [row.to_csv_row() for row in serial],
    "parallel": [row.to_csv_row() for row in parallel],
}))
"""


def test_single_run_loads_no_pool_statistics_or_openssl():
    out = fresh_python(SINGLE_RUN)
    modules = set(out["modules"])
    assert "manet_lab.sweep" in modules
    for name in ("multiprocessing", "concurrent.futures.process", "statistics"):
        assert name not in modules, f"a single run imported {name}"
    if out["builtin_sha"]:
        assert "_hashlib" not in modules, "a single run loaded OpenSSL"


def test_parallel_sweep_in_fresh_process_matches_serial():
    out = fresh_python(SWEEP)
    assert not out["pool_loaded_before"]
    assert out["failures"] == []
    assert len(out["serial"]) == 6
    assert out["parallel"] == out["serial"]
