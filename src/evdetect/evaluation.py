"""Pointwise detection metrics: confusion counts, precision/recall/F1 and
rank-based ROC-AUC. Warmup and calibration timestamps are excluded upstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass
class Confusion:
    tp: int
    fp: int
    fn: int
    tn: int


def as_binary(x, name: str) -> np.ndarray:
    """`x` as int64 0/1 values; any other value raises ValueError."""
    a = np.asarray(x)
    if not np.isin(a, (0, 1)).all():
        raise ValueError(f"{name} must be 0/1")
    return a.astype(np.int64)


def confusion(labels, preds) -> Confusion:
    """Pointwise confusion counts between truth and predictions."""
    y = as_binary(labels, "labels")
    p = as_binary(preds, "preds")
    if y.shape != p.shape:
        raise ValueError(f"length mismatch: {y.shape} vs {p.shape}")
    tp = int(np.sum((y == 1) & (p == 1)))
    fp = int(np.sum((y == 0) & (p == 1)))
    fn = int(np.sum((y == 1) & (p == 0)))
    tn = int(np.sum((y == 0) & (p == 0)))
    return Confusion(tp=tp, fp=fp, fn=fn, tn=tn)


def precision_recall_f1(c: Confusion) -> tuple[float, float, float]:
    """Standard definitions; degenerate denominators yield 0 by convention."""
    precision = c.tp / (c.tp + c.fp) if (c.tp + c.fp) > 0 else 0.0
    recall = c.tp / (c.tp + c.fn) if (c.tp + c.fn) > 0 else 0.0
    f1 = 2.0 * precision * recall / (precision + recall) if (precision + recall) > 0 else 0.0
    return precision, recall, f1


def _midranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks of a 1-D array, each tie group sharing the mean of its ranks.

    scipy.stats.rankdata(x, method="average"), bit for bit, on input without
    NaN: a stable sort, then (start + end + 1)/2 for the group filling sorted
    positions start to end - 1.
    """
    order = np.argsort(x, kind="stable")
    ordered = x[order]
    starts = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
    ends = np.append(starts[1:], x.size)
    ranks = np.empty(x.size)
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    return ranks


def roc_auc(labels, scores) -> float:
    """Rank-based AUC (Mann-Whitney statistic) with midranks for ties; NaN
    when a score is NaN."""
    y = as_binary(labels, "labels")
    s = np.asarray(scores, dtype=np.float64)
    if y.shape != s.shape:
        raise ValueError(f"length mismatch: {y.shape} vs {s.shape}")
    n_pos = int(y.sum())
    n_neg = int(y.size - n_pos)
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC needs both classes present")
    if np.isnan(s).any():
        return math.nan
    ranks = _midranks(s)
    rank_sum = float(ranks[y == 1].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)
