"""Run-level counters and the per-run results row.

Counting conventions: a broadcast is one transmission no matter how many
receivers it reaches, every forwarding hop is another transmission, and a
failed unicast still counts (the attempt consumed the channel). `sent` counts
originated data packets only; control traffic shows up solely in
transmissions_total. Every originated uid ends in exactly one bucket:
delivered, dropped with a cause, or in flight when the run ends.
"""

from collections import Counter
from dataclasses import dataclass
from enum import Enum

from .core import SimTime
from .errors import AccountingError, DuplicateDelivery
from .packets import PacketKind


class DropCause(Enum):
    # In the order of the drop columns that end CSV_COLUMNS.
    TTL = "ttl"
    LINK_FAILURE = "link_failure"
    DISCOVERY_TIMEOUT = "discovery_timeout"
    BUFFER = "buffer"
    PERIMETER = "perimeter_exhausted"


DROP_KEYS = [c.value for c in DropCause]

# Exact emission order of the results schema. delivery_ratio is the count
# ratio sometimes reported as "throughput".
CSV_COLUMNS = [
    "protocol", "scenario_id", "seed", "n_nodes", "pause_s", "rate_pps",
    "sent", "delivered", "delivery_ratio", "mean_delay_ms",
    "transmissions_total",
    "drop_ttl", "drop_link", "drop_timeout", "drop_buffer", "drop_perimeter",
]


@dataclass
class MetricsRow:
    protocol: str
    scenario_id: str
    seed: int
    n_nodes: int
    pause_s: float
    rate_pps: float
    sent: int
    delivered: int
    delivery_ratio: float
    mean_delay_ms: float | None
    transmissions_total: int
    drops: dict[str, int]
    in_flight: int = 0

    def to_csv_row(self) -> str:
        delay = "" if self.mean_delay_ms is None else repr(self.mean_delay_ms)
        fields = [
            self.protocol, self.scenario_id, str(self.seed), str(self.n_nodes),
            repr(self.pause_s), repr(self.rate_pps),
            str(self.sent), str(self.delivered), repr(self.delivery_ratio), delay,
            str(self.transmissions_total),
        ]
        fields += [str(self.drops[key]) for key in DROP_KEYS]
        return ",".join(fields)

    @staticmethod
    def csv_header() -> str:
        return ",".join(CSV_COLUMNS)


class RunMetrics:
    """Counters owned by one run's event loop."""

    def __init__(self):
        self.sent = 0
        self.delivered = 0
        self.transmissions_by_kind: Counter = Counter()
        self.drops: Counter = Counter()
        self.diagnostics: Counter = Counter()
        self._delay_sum_us = 0
        # Only in-flight uids are kept, so a run's memory follows its
        # in-flight packets, not its length.
        self._outstanding: set[int] = set()

    def record_origination(self, uid: int) -> None:
        self.sent += 1
        self._outstanding.add(uid)

    @property
    def transmissions_total(self) -> int:
        return sum(self.transmissions_by_kind.values())

    def record_transmission(self, kind: PacketKind) -> None:
        # _value_ is the member's plain attribute: .value is a Python-level
        # property, and keying by the member would call Enum.__hash__
        self.transmissions_by_kind[kind._value_] += 1

    def record_delivery(self, uid: int, created_at: SimTime, now: SimTime) -> None:
        if uid not in self._outstanding:
            raise DuplicateDelivery(f"delivery of uid {uid}, which is not in "
                                    "flight (never sent, or delivered or dropped before)")
        self._outstanding.discard(uid)
        self.delivered += 1
        self._delay_sum_us += now - created_at

    def record_drop(self, uid: int, cause: DropCause) -> None:
        if uid not in self._outstanding:
            raise AccountingError(f"drop of unknown or already-terminal uid {uid}")
        self._outstanding.discard(uid)
        self.drops[cause.value] += 1

    def note_diagnostic(self, label: str) -> None:
        """Control-plane oddities (dropped RREPs, failed control unicasts)."""
        self.diagnostics[label] += 1

    @property
    def in_flight(self) -> int:
        return len(self._outstanding)

    def mean_delay_ms(self) -> float | None:
        if self.delivered == 0:
            return None
        return self._delay_sum_us / self.delivered / 1000.0

    def finalize(self, protocol: str, scenario_id: str, seed: int,
                 n_nodes: int, pause_s: float, rate_pps: float) -> MetricsRow:
        ratio = self.delivered / self.sent if self.sent else 0.0
        drops = {key: self.drops.get(key, 0) for key in DROP_KEYS}
        return MetricsRow(
            protocol=protocol, scenario_id=scenario_id, seed=seed,
            n_nodes=n_nodes, pause_s=pause_s, rate_pps=rate_pps,
            sent=self.sent, delivered=self.delivered, delivery_ratio=ratio,
            mean_delay_ms=self.mean_delay_ms(),
            transmissions_total=self.transmissions_total,
            drops=drops, in_flight=self.in_flight,
        )
