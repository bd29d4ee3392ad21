"""Per-stream FIFO buffer: a short local window backed by a long global window.

One buffer holds the newest lm + gm readings, oldest first: the global window
is its oldest gm, the local window its newest lm. Both windows are
index-based, not wall-clock-based: the buffer never reads a timestamp, and
`OnlineDetector` decides which readings come in order and what a hole
between two of them means.
"""

from __future__ import annotations

from collections import deque
from datetime import datetime
from typing import NamedTuple


class Reading(NamedTuple):
    """One timestamped real-power sample (kW)."""

    t: datetime
    power: float


class StreamState:
    """FIFO local/global memory for one household stream: `readings` holds
    the newest min(total_seen, lm + gm) readings, oldest first."""

    def __init__(self, lm: int, gm: int):
        if lm < 1 or gm < 1:
            raise ValueError("window lengths must be positive")
        if lm >= gm:
            raise ValueError(f"local window must be shorter than global (got lm={lm}, gm={gm})")
        self.lm = lm
        self.gm = gm
        self.readings: deque[Reading] = deque(maxlen=lm + gm)
        self.total_seen = 0

    @property
    def full(self) -> bool:
        """Whether both windows exist: lm + gm readings have been pushed."""
        return len(self.readings) == self.readings.maxlen

    def push(self, r: Reading) -> Reading | None:
        """Append a reading; returns the one it moves from the local into the
        global window, if more than lm are held."""
        buf = self.readings
        buf.append(r)
        self.total_seen += 1
        return buf[-self.lm - 1] if len(buf) > self.lm else None

    def restore(self, readings: list[Reading], total_seen: int) -> int:
        """Set the buffer as pushing `total_seen` readings ending in `readings`
        (oldest first) leaves it; returns how many are in the global window.

        A count other than min(total_seen, lm + gm), which pushes cannot leave,
        raises ValueError.
        """
        n, span = len(readings), self.readings.maxlen
        if type(total_seen) is not int or n != min(total_seen, span):
            raise ValueError(f"has {n} readings, not min(total_seen = {total_seen!r}, lm + gm = {span})")
        self.readings = deque(readings, maxlen=span)
        self.total_seen = total_seen
        return max(0, n - self.lm)

    def snapshot(self) -> tuple[list[Reading], list[Reading]] | None:
        """(local, global) windows, each oldest-to-newest, or None while
        warmup is incomplete."""
        if not self.full:
            return None
        held = list(self.readings)
        return held[self.gm :], held[: self.gm]
