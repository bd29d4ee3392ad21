"""Shared helpers: where the program's source lives, the percentile rule, run
metadata, check and operation bookkeeping, and the host-speed reference.

Import this module before numpy. It pins BLAS to one thread (unless the
environment already says otherwise): the model's matrices are tiny, so extra
BLAS threads only add scheduling noise on a small host. It also puts the
checkout's `src/` first on `sys.path`, so the benchmark measures the source
tree it sits in, never an installed copy.
"""

from __future__ import annotations

import math
import os
import platform
import sys
import time

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ.setdefault(_var, "1")

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

import numpy as np  # noqa: E402  (after the thread pinning above)

# Percentiles a tail may be reported at, highest first.
TAIL_LADDER = (99.9, 99.0, 90.0)
MIN_BEYOND = 10


def source_present() -> bool:
    return os.path.isfile(os.path.join(SRC, "evdetect", "__init__.py"))


def samples_beyond(n: int, p: float) -> float:
    # rounded so that, say, 0.1% of 10000 counts as exactly ten
    return round(n * (100.0 - p) / 100.0, 6)


def tail_percentile(n: int) -> float | None:
    """Highest percentile on the ladder with at least ten of `n` samples beyond it."""
    for p in TAIL_LADDER:
        if samples_beyond(n, p) >= MIN_BEYOND:
            return p
    return None


def tail(values, p: float) -> float:
    """Percentile `p` of `values`; raises unless ten samples lie beyond it."""
    if samples_beyond(len(values), p) < MIN_BEYOND:
        raise ValueError(f"p{p:g} of {len(values)} samples has fewer than {MIN_BEYOND} samples beyond it")
    return float(np.percentile(values, p))


def median(values) -> float:
    if len(values) == 0:
        raise ValueError("median of an empty sample")
    return float(np.median(values))


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MiB (Linux reports KiB)."""
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_metadata() -> dict:
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = {"name": "unknown"}
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "blas": blas,
        "blas_threads": {k: os.environ.get(k) for k in THREAD_VARS},
    }


class Ops:
    """Attempted and failed operations, by operation name."""

    def __init__(self):
        self.counts: dict[str, list[int]] = {}

    def add(self, name: str, attempted: int = 1, failed: int = 0) -> None:
        c = self.counts.setdefault(name, [0, 0])
        c[0] += attempted
        c[1] += failed

    @property
    def attempted(self) -> int:
        return sum(a for a, _ in self.counts.values())

    @property
    def failed(self) -> int:
        return sum(f for _, f in self.counts.values())

    def as_dict(self) -> dict:
        return {k: {"attempted": a, "failed": f} for k, (a, f) in sorted(self.counts.items())}


class Checks:
    """Named correctness checks; a run is correct only if every one passed."""

    def __init__(self):
        self.results: dict[str, dict] = {}

    def record(self, name: str, ok: bool, detail: str = "") -> None:
        self.results[name] = {"ok": bool(ok), "detail": detail}

    @property
    def ok(self) -> bool:
        return bool(self.results) and all(r["ok"] for r in self.results.values())

    def failures(self) -> list[str]:
        return [f"{k}: {r['detail']}" for k, r in self.results.items() if not r["ok"]]


def compare_scored(ref_scores, ref_labels, scores, labels, tol: float, limit: int = 5) -> tuple[float, list[str]]:
    """Largest score difference and the first mismatches between two scored
    streams: lengths must agree, scores within `tol` (None only against None),
    labels identical."""
    problems: list[str] = []
    if len(ref_scores) != len(scores) or len(ref_labels) != len(labels) or len(scores) != len(labels):
        return math.inf, [f"lengths differ: {len(ref_scores)}/{len(ref_labels)} vs {len(scores)}/{len(labels)}"]
    worst = 0.0
    for i, (a, b, la, lb) in enumerate(zip(ref_scores, scores, ref_labels, labels)):
        if (a is None) != (b is None):
            problems.append(f"#{i}: score {a} vs {b}")
        elif a is not None:
            diff = abs(a - b)
            if not diff <= tol:  # also catches NaN
                problems.append(f"#{i}: score {a!r} vs {b!r} (diff {diff:.3g} > {tol:g})")
            if diff > worst or diff != diff:
                worst = diff
        if la != lb:
            problems.append(f"#{i}: label {la} vs {lb}")
        if len(problems) >= limit:
            break
    return worst, problems



_REF = np.random.default_rng(12345)
_REF_Q = _REF.standard_normal((16, 8))
_REF_W = _REF.standard_normal((8, 8))
_REF_K = _REF.standard_normal((32, 8))
REF_ITERS = 400
REF_NOMINAL_S = 0.020


def reference_kernel(iters: int = REF_ITERS) -> float:
    """Fixed work shaped like the engine's: tiny matmuls, layer norm, softmax
    and Python-level float handling. It calls nothing in evdetect, so a change
    to the program never changes its cost."""
    acc = 0.0
    for _ in range(iters):
        x = _REF_Q @ _REF_W
        y = (x - x.mean(-1, keepdims=True)) / (x.std(-1, keepdims=True) + 1e-5)
        logits = y @ _REF_K.T
        logits -= logits.max(-1, keepdims=True)
        e = np.exp(logits)
        e /= e.sum(-1, keepdims=True)
        z = e @ _REF_K
        acc += float(z[0, 0]) + sum(float(v) for v in z[1])
    return acc


class HostSpeed:
    """How fast the host ran, from `reference_kernel` timed between steps of work.

    On a shared virtual machine the same code runs up to 2x faster or slower
    for seconds at a time. A workload samples the kernel every half second or
    so, and rescales each stretch of work between two samples by that
    stretch's factor: nominal over the mean of the two samples around it
    (below 1 while the host runs slow). A program change cannot move the
    kernel's cost.
    """

    def __init__(self):
        self.samples: list[float] = []

    def sample(self) -> float:
        t0 = time.perf_counter()
        reference_kernel()
        took = time.perf_counter() - t0
        self.samples.append(took)
        return took

    def factors(self, since: int = 0) -> list[float]:
        """Factor of the stretch after each sample taken since `since`; the
        last stretch has only the sample before it."""
        s = self.samples[since:]
        return [REF_NOMINAL_S / (sum(s[i : i + 2]) / len(s[i : i + 2])) for i in range(len(s))]
