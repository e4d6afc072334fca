"""Scenario parsing, validation, and the defaults contract."""

import dataclasses
import itertools
import re
from pathlib import Path

import pytest

from manet_lab.errors import ParseError, ValidationError
from manet_lab.scenario import (PROTOCOLS, Scenario, format_scenario,
                                parse_scenario, validate_scenario)

TABLE1_TEXT = """\
# stage 1 base: 30 nodes on a square kilometer
name = stage1_load
n_nodes = 30
area_width = 1000
area_height = 1000
packet_size_bytes = 512
rate_pps = 4          # 0.25 s between packets
duration_s = 500
pause_s = 40
n_streams = 20
protocol = aodv
"""


def test_stage1_base_parses():
    sc = parse_scenario(TABLE1_TEXT)
    assert sc.n_nodes == 30
    assert sc.area_width == 1000.0 and sc.area_height == 1000.0
    assert sc.packet_size_bytes == 512
    assert sc.rate_pps == 4.0
    assert sc.duration_s == 500.0
    assert sc.pause_s == 40.0
    assert sc.n_streams == 20
    assert sc.protocol == "aodv"


def test_unsupported_protocol_rejected():
    with pytest.raises(ValidationError) as err:
        parse_scenario("protocol = dsr\n")
    assert "protocol" in str(err.value)


def test_empty_file_gives_documented_defaults():
    sc = parse_scenario("")
    assert sc == Scenario()
    echoed = format_scenario(sc)
    assert "n_nodes = 30" in echoed
    assert "radio_range = 250.0" in echoed
    assert "rate_pps = 4.0" in echoed
    assert "aodv_hello = off" in echoed


def test_unknown_key_reports_line_number():
    # crp's former ablation switches are unknown keys like any other, and a
    # repeated key is refused at the repeat, not taken over the first value.
    for text, line, message in [
            ("n_nodes = 30\nshoe_size = 42\n", 2, "unknown key 'shoe_size'"),
            ("n_nodes = 30\nescape_cache = on\n", 2, "unknown key 'escape_cache'"),
            ("reanchor_on_route_loss = off\n", 1,
             "unknown key 'reanchor_on_route_loss'"),
            ("n_nodes = 30\n# again\nn_nodes = 50\n", 3, "'n_nodes' is set twice")]:
        with pytest.raises(ParseError) as err:
            parse_scenario(text)
        assert err.value.line == line
        assert message in str(err.value)


def test_malformed_line_reports_line_number():
    with pytest.raises(ParseError) as err:
        parse_scenario("# fine\nnot a key value line\n")
    assert err.value.line == 2


def test_bad_value_type_rejected():
    with pytest.raises(ParseError):
        parse_scenario("n_nodes = many\n")
    with pytest.raises(ParseError):
        parse_scenario("aodv_hello = maybe\n")


def test_boolean_spellings():
    assert parse_scenario("aodv_hello = on\n").aodv_hello is True
    assert parse_scenario("aodv_hello = FALSE\n").aodv_hello is False
    assert parse_scenario("aodv_hello = 1\n").aodv_hello is True
    assert parse_scenario("aodv_hello = 0\n").aodv_hello is False


def test_validation_names_offending_field():
    with pytest.raises(ValidationError) as err:
        validate_scenario(Scenario(speed_mps=-1))
    assert err.value.field == "speed_mps"
    with pytest.raises(ValidationError):
        validate_scenario(Scenario(n_nodes=1))
    with pytest.raises(ValidationError):
        validate_scenario(Scenario(rate_pps=0))
    # Making a Scenario validates it, however it is made, and a made one
    # cannot change: Engine and run_one never see an invalid one.
    for make, field in ((lambda: Scenario(rate_pps=3e6, duration_s=1.0), "rate_pps"),
                        (lambda: dataclasses.replace(Scenario(), n_nodes=1),
                         "n_nodes")):
        with pytest.raises(ValidationError) as err:
            make()
        assert err.value.field == field
    with pytest.raises(dataclasses.FrozenInstanceError):
        Scenario().rate_pps = 0
    from manet_lab.engine import NODE_CLASSES
    assert set(NODE_CLASSES) == set(PROTOCOLS)


NUMERIC_KEYS = [f.name for f in dataclasses.fields(Scenario)
                if f.type in (int, float)]


@pytest.mark.parametrize("key", NUMERIC_KEYS)
def test_every_numeric_key_rejects_a_negative_value(key):
    # A numeric key gets a sign check by default: one set to -1 is rejected
    # by name, whether it must be positive or only non-negative.
    with pytest.raises(ValidationError) as err:
        parse_scenario(f"{key} = -1\n")
    assert err.value.field == key


def test_comments_and_blank_lines_ignored():
    sc = parse_scenario("\n# comment only\n\nseed = 9   # trailing\n")
    assert sc.seed == 9


def test_format_round_trips_through_parser():
    sc = Scenario(protocol="crp", seed=123, rate_pps=8.0, aodv_hello=True)
    assert parse_scenario(format_scenario(sc)) == sc


def test_periods_rounding_to_zero_us_rejected():
    # A 0 us stream or hello period would re-fire at one instant forever.
    # us() rounds half to even, so every rate_pps >= 2e6 gives 0 us.
    for text, field in (("rate_pps = 3e6\n", "rate_pps"),
                        ("rate_pps = 2e6\n", "rate_pps"),
                        ("aodv_hello = on\nhello_interval_s = 1e-7\n",
                         "hello_interval_s")):
        with pytest.raises(ValidationError) as err:
            parse_scenario(text)
        assert err.value.field == field
    # The run is 1 ms long, so the traffic bound does not apply.
    assert parse_scenario("rate_pps = 1999999\nduration_s = 0.001\n").rate_pps == 1999999.0
    assert parse_scenario("hello_interval_s = 1e-6\n").hello_interval_s == 1e-6


def test_trace_generation_that_cannot_end_rejected():
    # With no pause and every leg under 0.5 us, random-waypoint generation
    # never advances the clock; only parsing happens here, no engine starts.
    endless = "speed_mps = 1e12\npause_s = 0\nduration_s = 5\n"
    with pytest.raises(ValidationError) as err:
        parse_scenario(endless)
    assert err.value.field == "speed_mps"
    with pytest.raises(ValidationError):
        parse_scenario("speed_mps = 1e12\npause_s = 1e-7\n")
    # A pause of 1 us, or a diagonal leg of 1 us, lets the clock advance.
    # The runs are 1 ms long, so the trace-size bound does not apply.
    short = "duration_s = 0.001\n"
    assert parse_scenario("speed_mps = 1e12\npause_s = 1e-6\n" + short).pause_s == 1e-6
    assert parse_scenario("speed_mps = 1e9\npause_s = 0\n" + short).speed_mps == 1e9


def test_readme_key_table_names_every_field():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    table = readme.split("| key | default | meaning |", 1)[1].split("\n\n", 1)[0]
    documented = []
    for row in table.splitlines()[2:]:
        documented += re.findall(r"`(\w+)`", row.split("|")[1])
    assert sorted(documented) == sorted(f.name for f in dataclasses.fields(Scenario))


def test_repo_scenarios_validate_across_their_sweep_grids():
    # The grids the scenario files document, under every protocol and with
    # hellos on; 25 pkt/s over 500 s is the most traffic any of them emits.
    scenario_dir = Path(__file__).resolve().parent.parent / "scenarios"
    grids = [("stage1_load.scn", "rate_pps", [1, 2, 4, 8, 16, 25]),
             ("stage2_mobility.scn", "pause_s", [0, 10, 20, 40]),
             ("stage2_mobility.scn", "n_nodes", [30, 50, 100])]
    for name, field, values in grids:
        base = parse_scenario((scenario_dir / name).read_text())
        for value, protocol in itertools.product(values, PROTOCOLS):
            sc = dataclasses.replace(base, **{field: value}, protocol=protocol,
                                     aodv_hello=True)
            assert getattr(sc, field) == value
