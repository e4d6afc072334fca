"""Sweep expansion, fairness across protocols, aggregation, and emission."""

import pytest

from manet_lab.engine import Engine, build_streams, build_traces, run_one
from manet_lab.errors import ValidationError
from manet_lab.metrics import MetricsRow
from manet_lab.scenario import Scenario
from manet_lab.sweep import (SweepPlan, aggregate, plan_cells, render_table,
                             resolve_jobs, run_sweep, write_csv)

from conftest import assert_float_columns_exact

BASE = Scenario(n_nodes=10, duration_s=10.0, n_streams=3, seed=5)


def csv_text(rows):
    return "\n".join([MetricsRow.csv_header()] + [r.to_csv_row() for r in rows]) + "\n"


def test_degenerate_sweep_equals_run_one():
    plan = SweepPlan(base=BASE, axis="rate", values=[4], replications=1)
    rows, failures = run_sweep(plan)
    assert failures == []
    assert len(rows) == 1
    import dataclasses
    direct = run_one(dataclasses.replace(BASE, rate_pps=4.0, name="rate=4.0"))
    assert rows[0] == direct


def test_cell_expansion_and_seeds():
    plan = SweepPlan(base=BASE, axis="pause", values=[0, 10],
                     replications=3, protocols=["aodv", "gpsr"])
    cells = plan_cells(plan)
    assert len(cells) == 2 * 2 * 3
    seeds = {(c.name, c.protocol): [] for c in cells}
    for c in cells:
        seeds[(c.name, c.protocol)].append(c.seed)
    for got in seeds.values():
        assert got == [5, 6, 7]  # base.seed + replication index


def test_string_values_convert_like_scenario_text():
    # The CLI passes axis values as strings; numbers give the same cells.
    from_text = plan_cells(SweepPlan(base=BASE, axis="pause",
                                     values=["0", "40"], replications=1))
    from_numbers = plan_cells(SweepPlan(base=BASE, axis="pause",
                                        values=[0, 40], replications=1))
    assert from_text == from_numbers
    assert [(c.name, c.pause_s) for c in from_text] == [("pause=0.0", 0.0),
                                                        ("pause=40.0", 40.0)]
    n_cells = plan_cells(SweepPlan(base=BASE, axis="n_nodes",
                                   values=["12"], replications=1))
    assert n_cells[0].n_nodes == 12 and n_cells[0].name == "n_nodes=12"


def test_protocol_axis_ignores_protocol_list():
    plan = SweepPlan(base=BASE, axis="protocol",
                     values=["aodv", "gpsr", "crp"], replications=2)
    cells = plan_cells(plan)
    assert len(cells) == 6
    assert {c.protocol for c in cells} == {"aodv", "gpsr", "crp"}


def test_unknown_axis_rejected():
    with pytest.raises(ValidationError):
        SweepPlan(base=BASE, axis="weather", values=[1], replications=1)


@pytest.mark.parametrize("axis, values, protocols, field", [
    ("pause", [40, 40.0], None, "values"),
    ("pause", ["40", "40.0"], None, "values"),
    ("rate", ["4", " 4.0"], None, "values"),
    ("protocol", ["aodv", "crp", "aodv"], None, "values"),
    ("pause", [0, 40], ["aodv", "gpsr", "aodv"], "protocols"),
])
def test_repeated_cell_rejected(axis, values, protocols, field):
    # A repeat would run the same cell twice and count it twice in n.
    with pytest.raises(ValidationError) as err:
        SweepPlan(base=BASE, axis=axis, values=values, replications=2,
                  protocols=protocols)
    assert err.value.field == field


def test_protocol_fairness_same_traces_and_traffic():
    # Within one cell and replication every protocol sees identical mobility
    # and traffic; the RNG labels never mention the protocol.
    import dataclasses
    a = dataclasses.replace(BASE, protocol="aodv")
    b = dataclasses.replace(BASE, protocol="gpsr")
    c = dataclasses.replace(BASE, protocol="crp")
    legs = [[trace.legs for trace in build_traces(sc)] for sc in (a, b, c)]
    assert legs[0] == legs[1] == legs[2]
    assert build_streams(a) == build_streams(b) == build_streams(c)


def test_failed_cell_recorded_not_fatal(monkeypatch):
    plan = SweepPlan(base=BASE, axis="rate", values=[2, 4], replications=1)
    import manet_lab.sweep as sweep_mod

    real = sweep_mod.run_one

    def flaky(sc):
        if sc.rate_pps == 2.0:
            raise RuntimeError("boom")
        return real(sc)

    monkeypatch.setattr(sweep_mod, "run_one", flaky)
    rows, failures = run_sweep(plan)
    assert len(rows) == 1 and len(failures) == 1
    assert "boom" in failures[0]


def test_csv_round_trip_and_aggregate_identity(tmp_path):
    plan = SweepPlan(base=BASE, axis="pause", values=[0, 10], replications=2,
                     protocols=["gpsr", "crp"])
    rows, failures = run_sweep(plan)
    assert failures == []
    assert len(rows) == 8
    path = tmp_path / "results.csv"
    write_csv(rows, path)
    assert path.read_text() == csv_text(rows)
    for row, line in zip(rows, path.read_text().splitlines()[1:]):
        assert_float_columns_exact(row, line)


def test_empty_rows_emit_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    write_csv([], path)
    assert path.read_text() == MetricsRow.csv_header() + "\n"


def test_aggregate_mean_and_stddev():
    def row(ratio, delay, tx, seed):
        return MetricsRow(protocol="aodv", scenario_id="pause=0", seed=seed,
                          n_nodes=10, pause_s=0.0, rate_pps=4.0, sent=10,
                          delivered=int(10 * ratio), delivery_ratio=ratio,
                          mean_delay_ms=delay, transmissions_total=tx,
                          drops={k: 0 for k in
                                 ("ttl", "link_failure", "discovery_timeout",
                                  "buffer", "perimeter_exhausted")})

    table = aggregate([row(0.8, 10.0, 100, 1), row(0.6, 30.0, 140, 2)])
    stats = table[("pause=0", "aodv")]
    assert stats["n"] == 2
    assert stats["delivery_ratio"][0] == pytest.approx(0.7)
    # sample stddev of {0.8, 0.6}
    assert stats["delivery_ratio"][1] == pytest.approx(0.1414213562, rel=1e-6)
    assert stats["mean_delay_ms"][0] == pytest.approx(20.0)
    assert stats["transmissions"][0] == pytest.approx(120.0)
    text = render_table(table)
    assert "pause=0" in text and "aodv" in text


def test_parallel_jobs_match_serial():
    plan = SweepPlan(base=BASE, axis="rate", values=[2, 4], replications=2)
    serial_rows, _ = run_sweep(plan, jobs=1)
    parallel_rows, _ = run_sweep(plan, jobs=2)
    assert serial_rows == parallel_rows


def test_resolve_jobs_reads_and_checks_environment(monkeypatch):
    monkeypatch.delenv("MANET_LAB_JOBS", raising=False)
    assert resolve_jobs(None) == 1
    monkeypatch.setenv("MANET_LAB_JOBS", "3")
    assert resolve_jobs(None) == 3
    assert resolve_jobs(2) == 2  # an explicit count wins
    for bad in (0, -3):
        with pytest.raises(ValidationError) as err:
            resolve_jobs(bad)
        assert err.value.field == "jobs"
    for bad in ("two", "1.5", "0", "-4"):
        monkeypatch.setenv("MANET_LAB_JOBS", bad)
        with pytest.raises(ValidationError) as err:
            resolve_jobs(None)
        assert err.value.field == "MANET_LAB_JOBS"


def test_duration_zero_run_is_empty():
    import dataclasses
    row = run_one(dataclasses.replace(BASE, duration_s=0.0))
    assert row.sent == 0
    assert row.transmissions_total == 0
    assert row.delivery_ratio == 0.0


def test_event_logs_byte_identical_across_runs():
    # Replay determinism: every packet's hop log, the flood log and the
    # per-kind counters, not just the summary row, match between two runs
    # of the same scenario and seed.
    import dataclasses
    sc = dataclasses.replace(BASE, protocol="crp", duration_s=8.0)
    a = Engine(sc, record_hops=True)
    row_a = a.run()
    b = Engine(sc, record_hops=True)
    row_b = b.run()
    assert a.hop_log and a.flood_log
    assert repr(a.hop_log) == repr(b.hop_log)
    assert repr(a.flood_log) == repr(b.flood_log)
    assert a.metrics.transmissions_by_kind == b.metrics.transmissions_by_kind
    assert a.metrics.diagnostics == b.metrics.diagnostics
    assert row_a.to_csv_row() == row_b.to_csv_row()
