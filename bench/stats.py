"""Arithmetic of the benchmark's results: medians, tail percentiles and
the failed-check count behind failed_frac."""

from __future__ import annotations

import math
import statistics
import traceback
from fractions import Fraction

# Candidate tail percentiles, highest first.
PERCENTILE_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

# A tail percentile is reported only when this many samples lie beyond it.
SAMPLES_BEYOND = 10


def median(values) -> float:
    return float(statistics.median(values))


def nearest_rank(sorted_values, pct: float) -> tuple[int, float]:
    """(rank, value) of the pct-th percentile by the nearest-rank rule."""
    rank = max(1, math.ceil(Fraction(str(pct)) * len(sorted_values) / 100))
    return rank, float(sorted_values[rank - 1])


def tail_percentile(values, beyond: int = SAMPLES_BEYOND):
    """The highest ladder percentile with at least ``beyond`` samples above
    its rank, as (pct, value); None when there are too few samples."""
    ordered = sorted(values)
    for pct in PERCENTILE_LADDER:
        rank, value = nearest_rank(ordered, pct)
        if len(ordered) - rank >= beyond:
            return pct, value
    return None


class Checks:
    """Correctness checks of one run. Every check and every operation that
    raised counts as attempted; failures count toward failed_frac."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)
        return bool(ok)

    def raised(self, name: str, exc: BaseException) -> None:
        """Count an operation that raised as one failed check."""
        last = traceback.extract_tb(exc.__traceback__)[-1:] if exc.__traceback__ else []
        where = f" at {last[0].filename}:{last[0].lineno}" if last else ""
        self.check(name, False, f"raised {type(exc).__name__}: {exc}{where}")

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
