"""Checks of the benchmark harness itself (the simulator has its own suite).

They run the benchmark command the way a user does, at a one-second run
length, and take about a minute on two cores, half of it the 500 s
reference rows.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import rep  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, root=ROOT, timeout=300):
    return subprocess.run([sys.executable, str(root / "perfbench" / "run.py"), *args],
                          cwd=root, capture_output=True, text=True, timeout=timeout)


def result_of(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def copy_checkout(dest: Path, with_program: bool = True) -> Path:
    skip = shutil.ignore_patterns("__pycache__")
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    shutil.copytree(BENCH, dest / "perfbench", ignore=skip)
    if with_program:
        shutil.copytree(ROOT / "src", dest / "src", ignore=skip)
        shutil.copytree(ROOT / "scenarios", dest / "scenarios")
    return dest


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_short_run_of_each_workload(workload):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = result_of(proc)
    assert result["correct"] and result["failed"] == 0
    assert 1 <= result["attempted"] <= WORKLOADS[workload].lanes
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def _is_timing(name: str, unit: str) -> bool:
    return unit in ("s", "1/s") or name.endswith(
        (".share", "overhead_ratio", "parallel_efficiency"))


def test_traced_counts_repeat_exactly():
    args = ("--workload", "dense-crp", "--seed", "7", "--seconds", "1", "--trace", "1")
    first, second = bench(*args), bench(*args)
    assert first.returncode == 0, first.stdout + first.stderr
    assert second.returncode == 0, second.stdout + second.stderr
    m1, m2 = result_of(first)["metrics"], result_of(second)["metrics"]
    assert set(m1) == {m["name"] for m in SPEC["per_layer"]}
    counts = {k for k, m in m1.items() if not _is_timing(k, m["unit"])}
    assert {k: m1[k]["value"] for k in counts} == {k: m2[k]["value"] for k in counts}
    # the radio leads on the dense workload, as the profile shows
    shares = {layer: m1[f"{layer}.share"]["value"] for layer in layers.LAYERS}
    assert max(shares, key=shares.get) == "radio"
    assert m1["gpsr.fresh_calls"]["value"] > 0 and m1["aodv.lookup_active_calls"]["value"] > 0


def test_tracing_restores_every_wrapped_site():
    sites = tracer.patch_sites()
    assert len(sites) == len(tracer.TIMED_SITES) + len(tracer.COUNTING_SITES)
    originals = [(owner, attr, vars(owner)[attr]) for owner, attr in sites]
    result = rep.run_request("dense-crp", 0, trace=True)
    assert result["trace"]["calls"]["engine.run"] == 1 and result["untraced"] == []
    assert all(vars(owner)[attr] is fn for owner, attr, fn in originals)
    with pytest.raises(RuntimeError):
        with tracer.Tracer().installed():
            assert all(vars(owner)[attr] is not fn for owner, attr, fn in originals)
            raise RuntimeError("run died mid-trace")
    assert all(vars(owner)[attr] is fn for owner, attr, fn in originals)


def test_tampered_expected_row_fails_the_run(tmp_path):
    root = copy_checkout(tmp_path)
    seed = 5  # a run with --seed 5 starts with scenario seed 5
    path = root / "perfbench" / "expected" / "dense-crp.json"
    data = json.loads(path.read_text())
    row = data["rows"][str(seed)][0].split(",")
    row[7] = str(int(row[7]) + 1)  # one more delivered packet
    data["rows"][str(seed)][0] = ",".join(row)
    path.write_text(json.dumps(data))
    proc = bench("--workload", "dense-crp", "--seed", "5", "--seconds", "1", root=root)
    assert proc.returncode == 1
    result = result_of(proc)
    assert not result["correct"] and result["failed"] == 1


def test_without_the_program_the_run_fails_without_a_result(tmp_path):
    root = copy_checkout(tmp_path, with_program=False)
    proc = bench("--workload", "stage1-aodv", "--seed", "1", "--seconds", "1", root=root,
                 timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_roadmap_reference_rows():
    proc = subprocess.run([sys.executable, str(BENCH / "reference.py")], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.count("ok reference-") == 3
