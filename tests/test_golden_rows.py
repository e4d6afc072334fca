"""Pinned rows for paths that no benchmark or reference row covers.

The recorded rows elsewhere run full protocols with jitter off and aodv with
hello mode off. These rows pin jittered arrivals (one event per receiver)
and hello traffic, from `stage1_load.scn` with seed 3 for 60 s. A change
that means to keep behaviour must keep them byte for byte.
"""

import dataclasses
import os

import pytest

from manet_lab.engine import run_one
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


@pytest.mark.parametrize("protocol, jitter, hello, row", GOLDEN)
def test_row_matches_pinned(protocol, jitter, hello, row):
    base = load_scenario(os.path.join(SCENARIO_DIR, "stage1_load.scn"))
    sc = dataclasses.replace(base, protocol=protocol, seed=3, duration_s=60.0,
                             jitter_max_s=jitter, aodv_hello=hello)
    assert run_one(sc).to_csv_row() == row
