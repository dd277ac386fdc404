"""Order statistics shared by the delay and angular campaign summaries."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class SummaryRow:
    """Five-number campaign summary with nearest-rank percentiles."""

    n: int
    min: float
    max: float
    mean: float
    median: float
    p90: float


def nearest_rank(sorted_values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile: the value at rank ceil(fraction * n), 1-based."""
    if not len(sorted_values):
        raise ValueError("cannot take a percentile of an empty sample")
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    rank = max(1, math.ceil(fraction * len(sorted_values)))
    return sorted_values[min(rank, len(sorted_values)) - 1]


def summarize(values: Sequence[float] | np.ndarray) -> SummaryRow:
    column = np.asarray(values, dtype=float)
    if not column.size:
        raise ValueError("cannot summarize an empty sample")
    ordered = np.sort(column, kind="stable")  # stable, as ``sorted`` is: -0.0 and 0.0 keep their input order
    return SummaryRow(
        n=column.size,
        min=float(ordered[0]),
        max=float(ordered[-1]),
        mean=sum(column.tolist()) / column.size,
        median=float(nearest_rank(ordered, 0.5)),
        p90=float(nearest_rank(ordered, 0.9)),
    )
