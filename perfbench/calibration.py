"""Host-speed calibration: a fixed kernel timed next to every measured operation.

On the shared virtual machine where the benchmark was tuned, each vCPU
switches between a fast and a slow phase every few seconds, about 1.5x
apart, and process CPU time stretches with it.  A run that happened to
land in slow phases read up to 50 % slower than one that did not.

The kernel below does not touch the package, so no change to ``src/``
moves it.  It mixes the work the package does: small-object churn, dict
grouping, float formatting and numpy sorts.  It is timed just before and
just after each measured operation.  An operation's calibrated time is
its CPU seconds scaled by ``REFERENCE_S`` over the mean of those two kernel
times: what it would take on a host where the kernel takes ``REFERENCE_S``.
"""
from __future__ import annotations

import statistics
from time import process_time

import numpy as np

#: kernel CPU seconds that calibrated times are scaled to; about the
#: kernel's fast-phase time on the machine where the benchmark was tuned
REFERENCE_S = 0.02


class _Row:
    __slots__ = ("delay", "power", "key")

    def __init__(self, delay: float, power: float, key: str):
        self.delay = delay
        self.power = power
        self.key = key


def kernel() -> int:
    """Fixed work; its result only keeps it from being optimised away."""
    groups: dict[str, list[_Row]] = {}
    roots = []
    for i in range(20_000):
        row = _Row(i * 0.5, -60.0 - (i * 7919 % 400) * 0.1, str(i))
        groups.setdefault(row.key[-2:], []).append(row)
        roots.append(float(row.delay) ** 0.5)
    x = np.random.default_rng(0).standard_normal(4_000)
    for _ in range(200):
        x = np.sort(x) * 1.0001
    text = ",".join(f"{v:.6g}" for v in roots[:5_000])
    return len(text) + len(groups)


def kernel_seconds(runs: int = 1) -> float:
    """Median CPU seconds of ``runs`` kernel runs."""
    times = []
    for _ in range(runs):
        start = process_time()
        kernel()
        times.append(process_time() - start)
    return statistics.median(times)


def calibrated(raw_s: float, kernel_before_s: float, kernel_after_s: float) -> float:
    return raw_s * REFERENCE_S / ((kernel_before_s + kernel_after_s) / 2)
