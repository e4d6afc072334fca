"""Replication sweeps over one scenario axis, with CSV and table writers."""

import dataclasses
from dataclasses import dataclass
from pathlib import Path

from .engine import run_one
from .errors import ValidationError
from .metrics import MetricsRow
from .scenario import PROTOCOLS, Scenario, _convert

AXIS_FIELDS = {
    "rate": "rate_pps",
    "pause": "pause_s",
    "n_nodes": "n_nodes",
    "protocol": "protocol",
}


@dataclass
class SweepPlan:
    base: Scenario
    axis: str
    values: list
    replications: int
    protocols: list[str] | None = None  # [base.protocol] off the protocol axis

    def __post_init__(self):
        if self.axis not in AXIS_FIELDS:
            raise ValidationError(
                f"unknown axis {self.axis!r}; one of {', '.join(AXIS_FIELDS)}",
                field="axis")
        if self.replications < 1:
            raise ValidationError("need at least one replication",
                                  field="replications")
        if not self.values:
            raise ValidationError("need at least one value", field="values")
        if self.axis == "protocol":
            if self.protocols is not None:  # it would go unused
                raise ValidationError("the protocol axis takes its protocols "
                                      "from values", field="protocols")
        elif self.protocols is None:
            self.protocols = [self.base.protocol]
        elif not self.protocols:
            raise ValidationError("need at least one protocol", field="protocols")
        # Values convert as scenario text does; a repeated cell would run
        # twice and count twice in the table's n.
        self.values = [_convert(AXIS_FIELDS[self.axis], str(v)) for v in self.values]
        for field, entries in (("values", self.values),
                               ("protocols", self.protocols or [])):
            repeats = [e for i, e in enumerate(entries) if e in entries[:i]]
            if repeats:
                raise ValidationError(f"{repeats[0]!r} is listed twice", field=field)


def plan_cells(plan: SweepPlan) -> list[Scenario]:
    """Expand the plan into concrete scenarios: every axis value, protocol,
    and replication; replication k runs with seed base.seed + k so all
    protocols in a cell share mobility and traffic."""
    field = AXIS_FIELDS[plan.axis]
    cells = []
    for value in plan.values:
        for proto in [value] if plan.axis == "protocol" else plan.protocols:
            for rep in range(plan.replications):
                cells.append(dataclasses.replace(plan.base, **{
                    "protocol": proto,
                    field: value,
                    "seed": plan.base.seed + rep,
                    "name": f"{plan.axis}={value}",
                }))
    return cells


def _run_cell(sc: Scenario):
    try:
        return run_one(sc), None
    except Exception as exc:  # failed cell is recorded, not fatal
        return None, f"{sc.name} protocol={sc.protocol} seed={sc.seed}: {exc!r}"


def run_sweep(plan: SweepPlan, jobs: int = 1
              ) -> tuple[list[MetricsRow], list[str]]:
    """Run every cell on `jobs` worker processes (1 runs them here);
    returns (rows, failure messages). Rows come back in plan order
    regardless of worker scheduling."""
    if jobs < 1:
        raise ValidationError(f"must be >= 1, got {jobs}", field="jobs")
    cells = plan_cells(plan)
    rows: list[MetricsRow] = []
    failures: list[str] = []
    if jobs > 1 and len(cells) > 1:
        # imported here: the pool's modules are a few MB a single run never uses
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_run_cell, cells))
    else:
        results = [_run_cell(sc) for sc in cells]
    for row, err in results:
        if err is not None:
            failures.append(err)
        else:
            rows.append(row)
    return rows, failures


def write_csv(rows: list[MetricsRow], path: str | Path) -> None:
    lines = [MetricsRow.csv_header()]
    lines += [row.to_csv_row() for row in rows]
    Path(path).write_text("\n".join(lines) + "\n")


def _mean_std(values: list[float]) -> tuple[float, float]:
    import statistics  # only the table output needs it

    mean = sum(values) / len(values)
    std = statistics.stdev(values) if len(values) > 1 else 0.0
    return mean, std


def aggregate(rows: list[MetricsRow]) -> dict:
    """Per-(scenario_id, protocol) mean and sample stddev of the three
    reported metrics, replications collapsed. The delay averages only the
    runs that delivered a packet; `delay_n` counts them."""
    groups: dict[tuple[str, str], list[MetricsRow]] = {}
    for row in rows:
        groups.setdefault((row.scenario_id, row.protocol), []).append(row)
    table = {}
    for key, members in groups.items():
        ratios = [m.delivery_ratio for m in members]
        delays = [m.mean_delay_ms for m in members if m.mean_delay_ms is not None]
        overhead = [float(m.transmissions_total) for m in members]
        table[key] = {
            "n": len(members),
            "delivery_ratio": _mean_std(ratios),
            "mean_delay_ms": _mean_std(delays) if delays else None,
            "delay_n": len(delays),
            "transmissions": _mean_std(overhead),
        }
    return table


def _entry(stats: dict | None, field: str, fmt: str) -> str:
    if stats is None or stats[field] is None:
        return "-"
    value = stats[field]
    if field == "n":
        return fmt.format(value)
    mean, std = value
    text = f"{fmt.format(mean)} ± {fmt.format(std)}"
    if field == "mean_delay_ms" and stats["delay_n"] < stats["n"]:
        text += f" (n={stats['delay_n']})"
    return text


def render_table(table: dict) -> str:
    """Aligned text: one block per metric, rows = scenario cells in plan
    order, columns = protocols. delivery_ratio is the count ratio also
    known as throughput. The last block gives the replications behind
    each mean, so a failed run shows as a smaller n; a delay over fewer
    runs, those that delivered, gives its own n."""
    cells = list(dict.fromkeys(k[0] for k in table))
    protocols = sorted({k[1] for k in table}, key=PROTOCOLS.index)
    metric_specs = [
        ("delivery_ratio (throughput)", "delivery_ratio", "{:.4f}"),
        ("mean_delay_ms", "mean_delay_ms", "{:.3f}"),
        ("transmissions_total", "transmissions", "{:.1f}"),
        ("replications (n)", "n", "{}"),
    ]
    entries = {(title, cell): [_entry(table.get((cell, proto)), field, fmt)
                               for proto in protocols]
               for title, field, fmt in metric_specs for cell in cells}
    # Two spaces at least between columns, however long an entry.
    width = max([14] + [len(p) + 18 for p in protocols]
                + [len(text) + 2 for row in entries.values() for text in row])
    label_w = max([10] + [len(c) for c in cells]) + 2
    blocks = []
    for title, _, _ in metric_specs:
        lines = [title, " " * label_w + "".join(p.ljust(width) for p in protocols)]
        for cell in cells:
            lines.append(cell.ljust(label_w) + "".join(
                text.ljust(width) for text in entries[title, cell]))
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"
