"""Entry-point behavior: exit codes, output files, and overrides."""

from pathlib import Path

import pytest

from manet_lab.cli import main
from manet_lab.metrics import MetricsRow


def write_scn(tmp_path, text, name="tiny.scn"):
    path = tmp_path / name
    path.write_text(text)
    return path


TINY = """\
n_nodes = 6
duration_s = 5
n_streams = 2
protocol = crp
seed = 3
"""


def test_validate_ok(tmp_path, capsys):
    path = write_scn(tmp_path, TINY)
    assert main(["validate", str(path)]) == 0
    out = capsys.readouterr().out
    assert "n_nodes = 6" in out
    assert "protocol = crp" in out


def test_validate_bad_protocol_exits_1(tmp_path, capsys):
    path = write_scn(tmp_path, "protocol = dsr\n")
    assert main(["validate", str(path)]) == 1
    assert "protocol" in capsys.readouterr().err


def test_validate_unknown_key_exits_1(tmp_path, capsys):
    path = write_scn(tmp_path, "warp_factor = 9\n")
    assert main(["validate", str(path)]) == 1
    assert "line 1" in capsys.readouterr().err


@pytest.mark.parametrize("text, field", [
    ("rate_pps = 3e6\n", "rate_pps"),
    ("aodv_hello = on\nhello_interval_s = 1e-7\n", "hello_interval_s"),
])
def test_validate_zero_us_period_exits_1(tmp_path, capsys, monkeypatch, text, field):
    import manet_lab.cli as cli_mod

    def no_engine(*args, **kwargs):
        raise AssertionError("validate must not start an engine")

    monkeypatch.setattr(cli_mod, "Engine", no_engine)
    path = write_scn(tmp_path, text)
    assert main(["validate", str(path)]) == 1
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("text, field", [
    ("rate_pps = nan\n", "rate_pps"),
    ("radio_range = nan\n", "radio_range"),
    ("speed_mps = nan\n", "speed_mps"),
    ("duration_s = inf\n", "duration_s"),
    ("area_width = inf\n", "area_width"),
    # finite values whose derived periods overflow to inf
    ("rate_pps = 1e-320\n", "rate_pps"),
    ("speed_mps = 5e-324\npause_s = 0\n", "speed_mps"),
    # finite values that overflow when converted to microseconds
    ("bandwidth_bps = 1e-300\n", "bandwidth_bps"),
    ("processing_delay_s = 1e303\n", "processing_delay_s"),
    ("beacon_interval_s = 1e303\n", "beacon_interval_s"),
    ("beacon_jitter_s = 1e303\n", "beacon_jitter_s"),
    ("neighbor_timeout_s = 1e303\n", "neighbor_timeout_s"),
    ("route_lifetime_s = 1e303\n", "route_lifetime_s"),
    ("jitter_max_s = 1e303\n", "jitter_max_s"),
    ("duration_s = 1e303\n", "duration_s"),
    ("pause_s = 1e303\n", "pause_s"),
    ("hello_interval_s = 1e303\n", "hello_interval_s"),
    ("rate_pps = 1e-303\n", "rate_pps"),
    ("speed_mps = 1e-302\npause_s = 0\n", "speed_mps"),
    ("traffic_start_window_s = 1e303\n", "traffic_start_window_s"),
    # an int past the float range
    pytest.param("packet_size_bytes = 1" + "0" * 400 + "\n", "packet_size_bytes",
                 id="packet_size_bytes = 10**400"),
    # finite values whose mobility traces would need too many legs
    ("duration_s = 1e300\n", "duration_s"),
    ("speed_mps = 1e9\npause_s = 0\n", "duration_s"),
    # a name that would split its CSV row into 17 fields
    ("name = a,b\n", "name"),
])
def test_validate_non_finite_exits_1(tmp_path, capsys, monkeypatch, text, field):
    import manet_lab.cli as cli_mod

    def no_engine(*args, **kwargs):
        raise AssertionError("validate must not start an engine")

    monkeypatch.setattr(cli_mod, "Engine", no_engine)
    path = write_scn(tmp_path, text)
    assert main(["validate", str(path)]) == 1
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("stem", ["a,b", "a\nb", "a\rb"])
def test_validate_file_stem_that_breaks_csv_row_exits_1(tmp_path, capsys, stem):
    # A file's stem names the scenario when no `name` key is given.
    path = write_scn(tmp_path, TINY, name=f"{stem}.scn")
    assert main(["validate", str(path)]) == 1
    assert "scenario error: name:" in capsys.readouterr().err
    assert main(["run", str(path)]) == 1


@pytest.mark.parametrize("text, code", [
    # ~30 trace legs, but about 8e303 packets over the 20 streams
    ("duration_s = 1e302\npause_s = 1e302\n", 1),
    ("rate_pps = 1e6\n", 1),
    ("n_streams = 1000000\n", 1),
    # 20 streams * 4 pkt/s * 125000 s is exactly the bound of 10,000,000
    ("duration_s = 125000\n", 0),
    ("duration_s = 125000.001\n", 1),
])
def test_validate_bounds_emitted_packets(tmp_path, capsys, text, code):
    path = write_scn(tmp_path, text)
    assert main(["validate", str(path)]) == code
    if code:
        err = capsys.readouterr().err
        assert "rate_pps" in err and "duration_s" in err


@pytest.mark.parametrize("text, code", [
    # 4e5 packets by rate_pps * duration_s, but every stream starts within
    # the run and emits its first packet: 1e8 of them
    ("n_streams = 100000000\nduration_s = 0.001\n", 1),
    ("n_streams = 10000000\nduration_s = 0.001\n", 0),
])
def test_validate_counts_a_packet_per_stream(tmp_path, capsys, text, code):
    path = write_scn(tmp_path, text)
    assert main(["validate", str(path)]) == code
    if code:
        assert "n_streams" in capsys.readouterr().err


@pytest.mark.parametrize("text, code, field", [
    ("protocol = gpsr\nbeacon_interval_s = 1e-7\nbeacon_jitter_s = 0\n", 1,
     "beacon_interval_s"),
    ("protocol = crp\nbeacon_interval_s = 1e-6\n", 1, "beacon_interval_s"),
    ("aodv_hello = on\nhello_interval_s = 1e-6\n", 1, "hello_interval_s"),
    # no hello timer runs with hellos off, and aodv sends no beacons
    ("hello_interval_s = 1e-6\n", 0, None),
    ("beacon_interval_s = 1e-6\n", 0, None),
    # 30 nodes * 500 s / 0.0015 s is exactly the bound of 10,000,000
    ("protocol = gpsr_greedy_only\nbeacon_interval_s = 0.0015\n", 0, None),
    ("protocol = gpsr_greedy_only\nbeacon_interval_s = 0.00149\n", 1,
     "beacon_interval_s"),
])
def test_validate_bounds_periodic_timers(tmp_path, capsys, text, code, field):
    path = write_scn(tmp_path, text)
    assert main(["validate", str(path)]) == code
    if code:
        assert f"scenario error: {field}:" in capsys.readouterr().err


STAGE1 = (Path(__file__).resolve().parent.parent / "scenarios"
          / "stage1_load.scn").read_text()


@pytest.mark.parametrize("text, code, field", [
    # 0 us hops: a perimeter loop would go on at one instant until its
    # data_ttl ran out (4.8e12 hops)
    (STAGE1 + "protocol = gpsr\nduration_s = 60\ndata_ttl = 1000000000\n"
     "processing_delay_s = 0\nbandwidth_bps = 1e12\n", 1, "data_ttl"),
    # 20 streams * 4 pkt/s * 62500 s * 64 hops is exactly the bound of
    # 320,000,000
    ("duration_s = 62500\ndata_ttl = 64\n", 0, None),
    ("duration_s = 62500.001\ndata_ttl = 64\n", 1, "data_ttl"),
    # every trace has at least one leg, however short the run
    (STAGE1 + "n_nodes = 100000000\nduration_s = 0.001\n", 1, "n_nodes"),
    # gpsr floods no discoveries, and its 1,000 beacons over 1 ms among
    # 1e6 nodes are exactly the radio-scan bound too
    ("protocol = gpsr\nn_nodes = 1000000\nduration_s = 0.001\n", 0, None),
    ("n_nodes = 1000001\nduration_s = 0.001\n", 1, "n_nodes"),
], ids=["data_ttl repro", "data_ttl at bound", "data_ttl past bound",
        "n_nodes repro", "n_nodes at bound", "n_nodes past bound"])
def test_validate_bounds_data_hops_and_one_leg_per_node(tmp_path, capsys, monkeypatch,
                                                        text, code, field):
    validate_without_engine(tmp_path, capsys, monkeypatch, text, code, field)


@pytest.mark.parametrize("text, code", [
    # one aodv flood among 1e6 nodes compares 1e12 node pairs
    ("n_nodes = 1000000\nduration_s = 10\nn_streams = 1\n", 1),
    # 10,000 nodes * 10,000 * (1 + 9 floods) is exactly the bound of 1e9
    ("discovery_retries = 9\nn_nodes = 10000\nn_streams = 1\n", 0),
    ("discovery_retries = 9\nn_nodes = 10001\nn_streams = 1\n", 1),
    # every stream starts a discovery: 100 streams * 1,000 nodes * 1,000 *
    # (1 + 9 floods) is exactly the bound
    ("discovery_retries = 9\nn_nodes = 1000\nn_streams = 100\n", 0),
    ("discovery_retries = 9\nn_nodes = 1000\nn_streams = 101\n", 1),
    # but no more discoveries than ordered node pairs: 40 nodes have 1,560,
    # 2.5e7 pairs compared, where 1e6 discoveries would compare 1.6e10
    ("discovery_retries = 9\nn_nodes = 40\nn_streams = 1000000\n"
     "duration_s = 0.001\n", 0),
    # gpsr floods nothing: 1,000 nodes * 1,000 s of 1 s beacons, each
    # compared with 1,000 nodes, is exactly the bound
    ("protocol = gpsr\nn_nodes = 1000\nduration_s = 1000\n", 0),
    ("protocol = gpsr\nn_nodes = 1000\nduration_s = 1000.001\n", 1),
    # the floods count where a protocol discovers routes
    ("protocol = gpsr\nn_nodes = 20000\nduration_s = 0.001\n", 0),
    ("protocol = crp\nn_nodes = 20000\nduration_s = 0.001\nn_streams = 1\n", 1),
    # the largest cell the scenario files document
    ("protocol = crp\nn_nodes = 100\nrate_pps = 25\n", 0),
], ids=["repro", "floods at bound", "floods past bound", "streams at bound",
        "streams past bound", "streams past node pairs", "beacons at bound",
        "beacons past bound", "gpsr floods none", "crp floods",
        "largest sweep cell"])
def test_validate_bounds_radio_scans(tmp_path, capsys, monkeypatch, text, code):
    validate_without_engine(tmp_path, capsys, monkeypatch, text, code, "n_nodes")


def validate_without_engine(tmp_path, capsys, monkeypatch, text, code, field):
    import manet_lab.cli as cli_mod

    def no_engine(*args, **kwargs):
        raise AssertionError("validate must not start an engine")

    monkeypatch.setattr(cli_mod, "Engine", no_engine)
    path = write_scn(tmp_path, text)
    assert main(["validate", str(path)]) == code
    if code:
        assert f"scenario error: {field}:" in capsys.readouterr().err


def test_run_prints_header_echo_and_row(tmp_path, capsys):
    path = write_scn(tmp_path, TINY)
    out_dir = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out_dir)]) == 0
    out = capsys.readouterr().out
    assert "# n_nodes = 6" in out, "resolved config echoed as comments"
    assert MetricsRow.csv_header() in out
    csv_text = (out_dir / "results.csv").read_text()
    assert csv_text.startswith(MetricsRow.csv_header())
    assert ",crp," not in csv_text.splitlines()[0]
    assert csv_text.splitlines()[1].startswith("crp,tiny,3,6,")


def test_run_seed_and_protocol_overrides(tmp_path, capsys):
    path = write_scn(tmp_path, TINY)
    assert main(["run", str(path), "--seed", "9", "--protocol", "gpsr"]) == 0
    out = capsys.readouterr().out
    row_line = [l for l in out.splitlines() if l.startswith("gpsr,")]
    assert row_line and ",9,6," in row_line[0]


def test_run_same_seed_identical_rows(tmp_path, capsys):
    path = write_scn(tmp_path, TINY)
    main(["run", str(path)])
    first = capsys.readouterr().out.splitlines()[-1]
    main(["run", str(path)])
    second = capsys.readouterr().out.splitlines()[-1]
    assert first == second


def test_dump_traces_csv(tmp_path, capsys):
    path = write_scn(tmp_path, TINY)
    dump = tmp_path / "traces.csv"
    assert main(["run", str(path), "--dump-traces", str(dump)]) == 0
    dumped_row = capsys.readouterr().out.splitlines()[-1]
    lines = dump.read_text().splitlines()
    assert lines[0] == "node,t,x,y"
    # 6 nodes sampled once per second over [0, 5]
    assert len(lines) - 1 == 6 * 6
    for line in lines[1:]:
        node, t, x, y = line.split(",")
        assert 0 <= float(x) <= 1000 and 0 <= float(y) <= 1000
    assert lines[-1].split(",")[1] == "5.0"
    # Dumping the traces must not change the run itself.
    assert main(["run", str(path)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == dumped_row


def test_sweep_writes_rows_and_table(tmp_path, capsys):
    path = write_scn(tmp_path, TINY)
    out_dir = tmp_path / "sweep_out"
    code = main(["sweep", str(path), "--axis", "pause", "--values", "0,10",
                 "--reps", "2", "--protocols", "gpsr,crp",
                 "--out", str(out_dir)])
    assert code == 0
    csv_lines = (out_dir / "results.csv").read_text().splitlines()
    assert len(csv_lines) == 1 + 2 * 2 * 2
    table = (out_dir / "results.txt").read_text()
    assert "delivery_ratio" in table and "pause=0.0" in table


def test_sweep_table_lists_cells_in_plan_order(tmp_path, capsys):
    path = write_scn(tmp_path, TINY)
    assert main(["sweep", str(path), "--axis", "pause", "--values", "5,10,0"]) == 0
    out = capsys.readouterr().out
    order = ["pause=5.0", "pause=10.0", "pause=0.0"]
    rows, table = out.split("\n\n", 1)
    assert [line.split(",")[1] for line in rows.splitlines()[1:]] == order
    blocks = table.strip().split("\n\n")
    assert len(blocks) == 4
    for block in blocks:
        assert [line.split()[0] for line in block.splitlines()[2:]] == order


def test_missing_file_is_runtime_failure(tmp_path, capsys):
    assert main(["run", str(tmp_path / "absent.scn")]) == 2


def test_sweep_with_failed_cell_exits_2(tmp_path, capsys, monkeypatch):
    import manet_lab.sweep as sweep_mod

    real = sweep_mod.run_one

    def flaky(sc):
        if sc.pause_s == 10.0:
            raise RuntimeError("boom")
        return real(sc)

    monkeypatch.setattr(sweep_mod, "run_one", flaky)
    path = write_scn(tmp_path, TINY)
    out_dir = tmp_path / "sweep_out"
    code = main(["sweep", str(path), "--axis", "pause", "--values", "0,10",
                 "--jobs", "1", "--out", str(out_dir)])
    assert code == 2
    captured = capsys.readouterr()
    assert "cell failed:" in captured.err and "boom" in captured.err
    rows = [l for l in captured.out.splitlines() if l.startswith("crp,")]
    assert len(rows) == 1 and ",0.0," in rows[0]
    assert "delivery_ratio" in captured.out and "pause=0.0" in captured.out
    n_block = captured.out.split("replications (n)\n")[1].splitlines()
    assert n_block[0].split() == ["crp"]
    assert n_block[1].split() == ["pause=0.0", "1"]
    assert len((out_dir / "results.csv").read_text().splitlines()) == 2


def test_malformed_jobs_variable_exits_1(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("MANET_LAB_JOBS", "two")
    path = write_scn(tmp_path, TINY)
    assert main(["sweep", str(path), "--axis", "pause", "--values", "0"]) == 1
    assert "MANET_LAB_JOBS" in capsys.readouterr().err
    assert main(["sweep", str(path), "--axis", "pause", "--values", "0",
                 "--jobs", "0"]) == 1


@pytest.mark.parametrize("axis, value, field", [
    ("rate", "abc", "rate_pps"),
    ("n_nodes", "30.5", "n_nodes"),
])
def test_sweep_bad_axis_value_exits_1(tmp_path, capsys, monkeypatch,
                                      axis, value, field):
    import manet_lab.sweep as sweep_mod

    def no_run(sc):
        raise AssertionError("a bad axis value must not start a run")

    monkeypatch.setattr(sweep_mod, "run_one", no_run)
    path = write_scn(tmp_path, TINY)
    assert main(["sweep", str(path), "--axis", axis, "--values", value]) == 1
    err = capsys.readouterr().err
    assert "scenario error" in err and field in err



@pytest.mark.parametrize("args, field", [
    (["--axis", "pause", "--values", "40,40.0"], "values"),
    (["--axis", "rate", "--values", "4,4.0", "--reps", "2"], "values"),
    (["--axis", "pause", "--values", "0", "--protocols", "aodv,aodv"],
     "protocols"),
])
def test_sweep_repeated_cell_exits_1(tmp_path, capsys, monkeypatch, args, field):
    import manet_lab.sweep as sweep_mod

    def no_run(sc):
        raise AssertionError("a repeated cell must not start a run")

    monkeypatch.setattr(sweep_mod, "run_one", no_run)
    path = write_scn(tmp_path, TINY)
    assert main(["sweep", str(path)] + args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "scenario error" in captured.err and f"{field}:" in captured.err
