"""Pinned rows for paths that no benchmark or reference row covers.

The recorded rows elsewhere run full protocols with jitter off and aodv with
hello mode off. These rows pin jittered arrivals (one event per receiver)
and hello traffic, from `stage1_load.scn` with seed 3 for 60 s. A change
that means to keep behaviour must keep them byte for byte.

The geographic rows pin gpsr's per-node caches (the sorted fresh neighbor
list and the Gabriel planarization) from both sides: on `stage1_load.scn`
every node pauses for the first 40 s, so beacons repeat coordinates and the
caches hit; on `stage2_mobility.scn` (pause 0) every node keeps moving, so
they miss.

The mixed rows run `stage2_mobility.scn` at pause 10 and 20 s, where at any
instant some nodes rest and others move: they pin the radio's verdicts while
nodes start and end rests, under jitter, hello traffic, crp and gpsr.

A row pins only the total transmission count, so the first and the mixed
rows also pin its split by packet kind and the control-plane diagnostics: a
change that moves a transmission from one kind to another, or drops a
different control packet, can keep the row but not these.
"""

import dataclasses
import os

import pytest

from manet_lab.engine import Engine, run_one
from manet_lab.scenario import load_scenario

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios")

GOLDEN = [
    ("aodv", 0.002, False,
     "aodv,stage1_load,3,30,40.0,4.0,4388,4329,0.9865542388331814,"
     "12.766051513051512,17742,0,35,22,0,0"),
    ("aodv", 0.0, True,
     "aodv,stage1_load,3,30,40.0,4.0,4388,4340,0.9890610756608933,"
     "9.472481105990784,19096,0,25,22,0,0"),
    ("aodv", 0.002, True,
     "aodv,stage1_load,3,30,40.0,4.0,4388,4331,0.9870100273473108,"
     "12.958607019164164,19649,0,33,22,0,0"),
    ("crp", 0.002, False,
     "crp,stage1_load,3,30,40.0,4.0,4388,4344,0.9899726526891522,"
     "12.119248158379374,16891,6,17,19,0,0"),
    ("gpsr", 0.002, False,
     "gpsr,stage1_load,3,30,40.0,4.0,4388,4323,0.985186873290793,"
     "12.84525121443442,17024,41,12,0,0,10"),
]


# (transmissions_by_kind, diagnostics) per GOLDEN case
GOLDEN_SPLIT = {
    ("aodv", 0.002, False): (
        {"rreq": 3730, "rrep": 450, "data": 13288, "rerr": 274},
        {"rrep_no_reverse_path": 9}),
    ("aodv", 0.0, True): (
        {"hello": 1800, "rreq": 3454, "rrep": 423, "data": 13091, "rerr": 328},
        {"rrep_no_reverse_path": 9}),
    ("aodv", 0.002, True): (
        {"hello": 1800, "rreq": 3533, "rrep": 448, "data": 13525, "rerr": 343},
        {"rrep_no_reverse_path": 7}),
    ("crp", 0.002, False): (
        {"beacon": 1799, "rreq": 1639, "rrep": 114, "data": 13339}, {}),
    ("gpsr", 0.002, False): ({"beacon": 1799, "data": 15225}, {}),
}


def assert_run_matches(sc, row, split):
    engine = Engine(sc)
    assert engine.run().to_csv_row() == row
    by_kind, diagnostics = split
    assert dict(engine.metrics.transmissions_by_kind) == by_kind
    assert dict(engine.metrics.diagnostics) == diagnostics


@pytest.mark.parametrize("protocol, jitter, hello, row", GOLDEN)
def test_row_matches_pinned(protocol, jitter, hello, row):
    base = load_scenario(os.path.join(SCENARIO_DIR, "stage1_load.scn"))
    sc = dataclasses.replace(base, protocol=protocol, seed=3, duration_s=60.0,
                             jitter_max_s=jitter, aodv_hello=hello)
    assert_run_matches(sc, row, GOLDEN_SPLIT[protocol, jitter, hello])


GEO_GOLDEN = [
    ("stage1_load", "gpsr",
     "gpsr,stage1_load,3,30,40.0,4.0,4388,4324,0.9854147675478578,"
     "9.671267345050879,17026,40,12,0,0,11"),
    ("stage1_load", "gpsr_greedy_only",
     "gpsr_greedy_only,stage1_load,3,30,40.0,4.0,4388,4042,0.9211485870556062,"
     "8.736041563582384,13931,6,10,0,0,330"),
    ("stage1_load", "crp",
     "crp,stage1_load,3,30,40.0,4.0,4388,4346,0.9904284412032817,"
     "9.114511044638748,16828,6,15,19,0,0"),
    ("stage2_mobility", "gpsr",
     "gpsr,stage2_mobility,3,30,0.0,4.0,4388,3911,0.8912944393801276,"
     "9.17049757095372,24019,293,49,0,0,134"),
    ("stage2_mobility", "gpsr_greedy_only",
     "gpsr_greedy_only,stage2_mobility,3,30,0.0,4.0,4388,3646,0.8309024612579763,"
     "7.903398793198026,13288,21,44,0,0,677"),
    ("stage2_mobility", "crp",
     "crp,stage2_mobility,3,30,0.0,4.0,4388,4018,0.9156791248860529,"
     "9.38919387755102,22748,21,65,282,0,0"),
]


@pytest.mark.parametrize("scenario, protocol, row", GEO_GOLDEN)
def test_geographic_row_matches_pinned(scenario, protocol, row):
    base = load_scenario(os.path.join(SCENARIO_DIR, f"{scenario}.scn"))
    sc = dataclasses.replace(base, protocol=protocol, seed=3, duration_s=60.0)
    assert run_one(sc).to_csv_row() == row


MIXED_GOLDEN = [
    (10.0, "aodv", 0.002, False,
     "aodv,stage2_mobility,3,30,10.0,4.0,4388,3995,0.9104375569735643,"
     "13.042250813516896,23038,0,86,306,0,0"),
    (10.0, "aodv", 0.0, True,
     "aodv,stage2_mobility,3,30,10.0,4.0,4388,3979,0.9067912488605288,"
     "9.846751445086706,25394,0,85,324,0,0"),
    (10.0, "crp", 0.0, False,
     "crp,stage2_mobility,3,30,10.0,4.0,4388,4017,0.9154512306289881,"
     "8.451205875031118,19457,8,40,322,0,0"),
    (10.0, "gpsr", 0.0, False,
     "gpsr,stage2_mobility,3,30,10.0,4.0,4388,3980,0.9070191431175935,"
     "8.966327638190954,19620,159,30,0,0,219"),
    (20.0, "aodv", 0.002, False,
     "aodv,stage2_mobility,3,30,20.0,4.0,4388,4039,0.9204649042844121,"
     "15.103820747709829,22589,0,89,260,0,0"),
    (20.0, "aodv", 0.0, True,
     "aodv,stage2_mobility,3,30,20.0,4.0,4388,3971,0.904968094804011,"
     "11.35132712163183,25071,0,77,340,0,0"),
    (20.0, "crp", 0.0, False,
     "crp,stage2_mobility,3,30,20.0,4.0,4388,4081,0.9300364630811303,"
     "10.264064935064935,20258,12,52,242,0,0"),
    (20.0, "gpsr", 0.0, False,
     "gpsr,stage2_mobility,3,30,20.0,4.0,4388,4018,0.9156791248860529,"
     "13.005204579392732,23246,117,35,0,0,218"),
]


# (transmissions_by_kind, diagnostics) per MIXED_GOLDEN case
MIXED_SPLIT = {
    (10.0, "aodv", 0.002, False): (
        {"rreq": 9246, "rrep": 1029, "data": 12024, "rerr": 739},
        {"control_link_failure": 1, "rrep_no_reverse_path": 14}),
    (10.0, "aodv", 0.0, True): (
        {"hello": 1800, "rreq": 9467, "rrep": 1290, "data": 11881, "rerr": 956},
        {"rrep_no_reverse_path": 23}),
    (10.0, "crp", 0.0, False): (
        {"beacon": 1799, "data": 11306, "rreq": 5996, "rrep": 356},
        {"rrep_no_reverse_path": 5}),
    (10.0, "gpsr", 0.0, False): ({"beacon": 1799, "data": 17821}, {}),
    (20.0, "aodv", 0.002, False): (
        {"rreq": 6449, "rrep": 1705, "data": 13825, "rerr": 610},
        {"rrep_no_reverse_path": 25}),
    (20.0, "aodv", 0.0, True): (
        {"hello": 1800, "rreq": 6595, "rrep": 2418, "data": 13503, "rerr": 755},
        {"rrep_no_reverse_path": 27}),
    (20.0, "crp", 0.0, False): (
        {"beacon": 1799, "data": 13988, "rreq": 4026, "rrep": 445},
        {"rrep_no_reverse_path": 8}),
    (20.0, "gpsr", 0.0, False): ({"beacon": 1799, "data": 21447}, {}),
}


@pytest.mark.parametrize("pause, protocol, jitter, hello, row", MIXED_GOLDEN)
def test_mixed_rest_motion_row_matches_pinned(pause, protocol, jitter, hello, row):
    base = load_scenario(os.path.join(SCENARIO_DIR, "stage2_mobility.scn"))
    sc = dataclasses.replace(base, protocol=protocol, seed=3, duration_s=60.0,
                             pause_s=pause, jitter_max_s=jitter, aodv_hello=hello)
    assert_run_matches(sc, row, MIXED_SPLIT[pause, protocol, jitter, hello])
