"""Per-stream FIFO buffers: a short local window backed by a long global window.

New readings enter the local buffer; elements it evicts spill into the global
buffer, whose own evictions are discarded. Both windows are index-based, not
wall-clock-based, so timestamp gaps are tolerated (gap filling happens at
ingestion).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from datetime import datetime


class StreamOrderError(ValueError):
    """Raised when a reading arrives with a non-increasing timestamp."""


@dataclass(frozen=True)
class Reading:
    """One timestamped real-power sample (kW). `filled` marks gap-filled rows."""

    t: datetime
    power: float
    filled: bool = False


class StreamState:
    """FIFO local/global memory for one household stream.

    Invariants: the local buffer holds the newest `lm` readings, the global
    buffer the `gm` readings immediately before them; every global element is
    older than every local element.
    """

    def __init__(self, lm: int, gm: int):
        if lm < 1 or gm < 1:
            raise ValueError("window lengths must be positive")
        if lm >= gm:
            raise ValueError(f"local window must be shorter than global (got lm={lm}, gm={gm})")
        self.lm = lm
        self.gm = gm
        self.lm_buffer: deque[Reading] = deque()
        self.gm_buffer: deque[Reading] = deque()
        self.total_seen = 0

    def push(self, r: Reading) -> Reading | None:
        """Append a reading; returns the element spilled into the global buffer, if any."""
        if self.lm_buffer and r.t <= self.lm_buffer[-1].t:
            raise StreamOrderError(f"reading at {r.t} is not newer than {self.lm_buffer[-1].t}")
        self.lm_buffer.append(r)
        self.total_seen += 1
        spilled = None
        if len(self.lm_buffer) > self.lm:
            spilled = self.lm_buffer.popleft()
            self.gm_buffer.append(spilled)
            if len(self.gm_buffer) > self.gm:
                self.gm_buffer.popleft()
        return spilled

    def restore(self, readings: list[Reading], total_seen: int) -> int:
        """Set both windows as pushing `total_seen` readings ending in `readings`
        (oldest first) leaves them; returns how many went to the global window.

        Readings that pushes cannot leave raise ValueError: a count other than
        min(total_seen, lm + gm), or timestamps that do not strictly increase.
        """
        n, full = len(readings), self.lm + self.gm
        if type(total_seen) is not int or n != min(total_seen, full):
            raise ValueError(f"has {n} readings, not min(total_seen = {total_seen!r}, lm + gm = {full})")
        if any(a.t >= b.t for a, b in zip(readings, readings[1:])):
            raise StreamOrderError("timestamps are not strictly increasing")
        g = max(0, n - self.lm)
        self.gm_buffer = deque(readings[:g])
        self.lm_buffer = deque(readings[g:])
        self.total_seen = total_seen
        return g

    def snapshot(self) -> tuple[list[Reading], list[Reading]] | None:
        """Both windows oldest-to-newest, or None while warmup is incomplete."""
        if self.total_seen < self.lm + self.gm:
            return None
        return list(self.lm_buffer), list(self.gm_buffer)
