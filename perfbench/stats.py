"""Order statistics for the benchmark: guarded percentiles and quartiles."""

from __future__ import annotations

import math
import statistics
from typing import Dict, Sequence

#: A percentile is reported only when at least this many samples lie
#: beyond it; otherwise it is the maximum in disguise.
MIN_TAIL_SAMPLES = 10


class InsufficientSamples(ValueError):
    """Raised for a percentile the sample count cannot support."""


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0-100) with at least 10 samples beyond it.

    The median is always supported by a non-empty sample; a tail
    percentile needs ``len(samples) * (1 - q/100) >= 10``.
    """
    if not samples:
        raise InsufficientSamples("percentile of an empty sample set")
    if not 0 < q < 100:
        raise ValueError(f"percentile q must be in (0, 100), got {q!r}")
    count = len(samples)
    rank = max(1, math.ceil(q / 100.0 * count))
    if q > 50 and count - rank < MIN_TAIL_SAMPLES:
        raise InsufficientSamples(
            f"p{q:g} needs {MIN_TAIL_SAMPLES} samples beyond it; "
            f"{count} samples leave {count - rank}"
        )
    return sorted(samples)[rank - 1]


def median(samples: Sequence[float]) -> float:
    if not samples:
        raise InsufficientSamples("median of an empty sample set")
    return statistics.median(samples)


def quartiles(values: Sequence[float]) -> Dict[str, float]:
    """Median, first and third quartile, and the spread ``(q3 - q1) / median``."""
    if len(values) < 2:
        raise InsufficientSamples("quartiles need at least two values")
    q1, q2, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / abs(q2) if q2 else 0.0
    return {"median": q2, "q1": q1, "q3": q3, "spread": spread}
