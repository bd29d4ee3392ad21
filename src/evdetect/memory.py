"""Per-stream window buffer: a short local window backed by a long global window.

The newest lm + gm readings, oldest first, are timestamps in a deque and
powers at the end of one float64 array of lm + gm entries, so a full stream's
windows are that array: the global window its oldest gm, the local its newest
lm. The buffer never reads a timestamp: `OnlineDetector` decides which
readings come in order and what a hole between two of them means.
"""

from __future__ import annotations

from collections import deque
from datetime import datetime
from typing import NamedTuple

import numpy as np


class Reading(NamedTuple):
    """One timestamped real-power sample (kW)."""

    t: datetime
    power: float


class StreamState:
    """Local/global memory for one household stream: `times` holds the newest
    min(total_seen, lm + gm) timestamps, oldest first, and their powers are
    the last len(times) entries of `power`; the entries before those are 0."""

    def __init__(self, lm: int, gm: int):
        if lm < 1 or gm < 1:
            raise ValueError("window lengths must be positive")
        if lm >= gm:
            raise ValueError(f"local window must be shorter than global (got lm={lm}, gm={gm})")
        self.lm = lm
        self.gm = gm
        self.times: deque[datetime] = deque(maxlen=lm + gm)
        self.power = np.zeros(lm + gm)
        self.total_seen = 0

    @property
    def full(self) -> bool:
        """Whether both windows exist: lm + gm readings have been pushed."""
        return len(self.times) == self.times.maxlen

    def push(self, r: Reading) -> Reading | None:
        """Append a reading, shifting `power` one place; returns the one it
        moves from the local into the global window, if more than lm are held."""
        power = self.power
        self.times.append(r.t)
        power[:-1] = power[1:]
        power[-1] = r.power
        self.total_seen += 1
        return Reading(self.times[-self.lm - 1], power.item(-self.lm - 1)) if len(self.times) > self.lm else None

    def restore(self, times: list[datetime], powers, total_seen: int) -> None:
        """Set the buffer as pushing `total_seen` readings ending in `times`
        and a copy of `powers` (oldest first) leaves it. Lengths that differ,
        or a count other than min(total_seen, lm + gm), raise ValueError."""
        n, span = len(times), self.times.maxlen
        if len(powers) != n:
            raise ValueError(f"has {n} timestamps but {len(powers)} powers")
        if type(total_seen) is not int or n != min(total_seen, span):
            raise ValueError(f"has {n} readings, not min(total_seen = {total_seen!r}, lm + gm = {span})")
        self.times.clear()
        self.times.extend(times)
        self.power[: span - n] = 0.0
        self.power[span - n :] = powers
        self.total_seen = total_seen

    def snapshot(self) -> tuple[list[Reading], list[Reading]] | None:
        """(local, global) windows, each oldest-to-newest, or None while
        warmup is incomplete."""
        if not self.full:
            return None
        held = list(map(Reading, self.times, self.power.tolist()))
        return held[self.gm :], held[: self.gm]
