"""Seeded fuzz: every scenario either fails validation or runs and balances.

A fixed-seed `random.Random` draws a few hundred scenarios. Each changes a
few fields of the defaults, picked from every field of `Scenario` (the TTLs
and `n_nodes` among them), to values at the edges: zero, negative, tiny,
huge and non-finite, beside ordinary ones. A drawn scenario must either
raise `ValidationError`, or run to a short horizon within an event budget
and account for every packet it sent: delivered, dropped with a cause, or
in flight at the end. The draws are test data: widen them when they find a
bug, never narrow them to hide one.
"""

import dataclasses
import random

import pytest

from manet_lab.engine import Engine
from manet_lab.errors import ValidationError
from manet_lab.scenario import PROTOCOLS, Scenario

N_SCENARIOS = 500
# Simulated seconds each valid scenario runs: long enough for traffic,
# discoveries and beacons to start, short enough for the whole draw to run
# in seconds.
HORIZON_S = 20.0
# Dispatched events allowed per run. A run that needs more is reported: at
# this horizon it would be a same-instant loop or a knob that validation
# should have bounded.
EVENT_BUDGET = 200_000

INF = float("inf")
NAN = float("nan")
FLOAT_EDGES = [0.0, -1.0, 5e-324, 1e-9, 1e-6, 1e-3, 1e9, 1e300, INF, -INF, NAN]
INT_EDGES = [0, -1, 1, 2, 3, 10**8, 10**12, 10**400, INF, NAN]


class EventBudgetExceeded(Exception):
    pass


def draw_value(rng: random.Random, field: dataclasses.Field):
    if field.type is bool:
        return rng.random() < 0.5
    if field.name == "protocol":
        return rng.choice(PROTOCOLS + ("olsr",))
    if field.name == "name":
        return rng.choice(["fuzz", "a,b", "a\nb"])
    if field.type is int:
        return rng.choice(INT_EDGES + [field.default, 2 * field.default])
    return rng.choice(FLOAT_EDGES + [field.default / 2, field.default * 2])


def draw_scenario(rng: random.Random) -> Scenario:
    fields = dataclasses.fields(Scenario)
    values = {"protocol": rng.choice(PROTOCOLS), "seed": rng.randrange(1000)}
    for field in rng.sample(fields, rng.randint(1, 4)):
        values[field.name] = draw_value(rng, field)
    return Scenario(**values)


def run_under_budget(sc: Scenario):
    engine = Engine(sc)
    handler = engine.sim.handler
    dispatched = 0

    def budgeted(ev):
        nonlocal dispatched
        dispatched += 1
        if dispatched > EVENT_BUDGET:
            raise EventBudgetExceeded(f"over {EVENT_BUDGET} events by "
                                      f"t={engine.sim.now} us")
        handler(ev)

    engine.sim.handler = budgeted
    return engine.run()


def test_drawn_scenarios_are_rejected_or_run_and_balance():
    rng = random.Random(2026)
    outcomes = {"rejected": 0, "ran": 0}
    for i in range(N_SCENARIOS):
        try:  # making a Scenario validates it
            sc = draw_scenario(rng)
        except ValidationError:
            outcomes["rejected"] += 1
            continue
        short = dataclasses.replace(sc, duration_s=min(sc.duration_s, HORIZON_S))
        try:
            row = run_under_budget(short)
        except Exception as exc:
            pytest.fail(f"draw {i}: {short} raised {exc!r}")
        outcomes["ran"] += 1
        assert row.sent == row.delivered + sum(row.drops.values()) + row.in_flight, \
            f"draw {i}: {short}"
    # Both branches get a fair share of the draws.
    assert outcomes["rejected"] > N_SCENARIOS // 5, outcomes
    assert outcomes["ran"] > N_SCENARIOS // 5, outcomes
