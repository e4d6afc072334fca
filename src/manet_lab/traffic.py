"""Constant-rate traffic over randomly selected node pairs."""

import random
from dataclasses import dataclass

from .core import SimTime, us


@dataclass(frozen=True)
class CbrStream:
    src: int
    dst: int
    packet_size: int
    interval: SimTime   # microseconds between packets
    start_at: SimTime
    stop_at: SimTime


def make_streams(n_streams: int, n_nodes: int, packet_size: int,
                 interval_s: float, duration_s: float,
                 pair_rng: random.Random, start_rng: random.Random,
                 start_window_s: float = 10.0) -> list[CbrStream]:
    """Draw src/dst pairs uniformly (no self-pairs), staggering starts
    uniformly over the first `start_window_s` seconds."""
    if n_streams < 1:
        raise ValueError("need at least one stream")
    if n_nodes < 2:
        raise ValueError("need at least two nodes")
    if interval_s <= 0:
        raise ValueError("interval must be positive")
    window = min(start_window_s, duration_s)
    streams = []
    for _ in range(n_streams):
        src = pair_rng.randrange(n_nodes)
        dst = pair_rng.randrange(n_nodes - 1)
        if dst >= src:
            dst += 1
        start = us(start_rng.uniform(0.0, window))
        streams.append(CbrStream(
            src=src, dst=dst, packet_size=packet_size,
            interval=us(interval_s), start_at=start, stop_at=us(duration_s),
        ))
    return streams
