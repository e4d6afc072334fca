"""Deterministic discrete-event simulator for ad hoc routing comparison."""

from .core import Simulator, SimTime, rng_stream, us
from .engine import Engine, run_one
from .geometry import Position, dist
from .metrics import DropCause, MetricsRow
from .mobility import WaypointTrace, position_at, random_waypoint_trace
from .scenario import Scenario, load_scenario, parse_scenario
from .sweep import SweepPlan, run_sweep
from .traffic import CbrStream, make_streams

__version__ = "0.1.0"

__all__ = [
    "CbrStream", "DropCause", "Engine", "MetricsRow", "Position", "Scenario",
    "SimTime", "Simulator", "SweepPlan", "WaypointTrace", "dist",
    "load_scenario", "make_streams", "parse_scenario", "position_at",
    "random_waypoint_trace", "rng_stream", "run_one", "run_sweep", "us",
]
