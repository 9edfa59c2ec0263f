"""Seeded percentile-bootstrap confidence intervals of the median.

The median (not the mean) is the location estimate throughout the suite
— replicate distributions from a discrete-event simulator under fault
injection are not symmetric.

Two invariances are load-bearing and enforced by property tests:

* **Permutation**: samples are sorted before resampling, so replicate
  arrival order (which the adaptive stopping rule perturbs) cannot move
  the interval.
* **Reproducibility**: the resampling RNG is seeded (``seed`` argument,
  default :data:`STATS_SEED`), so two invocations over the same samples
  return bit-identical intervals.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

#: Bootstrap resamples per interval.
DEFAULT_RESAMPLES = 800
#: Two-sided confidence level.
DEFAULT_CONFIDENCE = 0.95
#: Fixed RNG seed: replication summaries must be reproducible.
STATS_SEED = 20260808


def sample_median(values: Sequence[float]) -> float:
    """Median of the samples (midpoint of the two central order stats)."""
    if not values:
        raise ValueError("sample_median needs at least one sample")
    return float(np.median(np.asarray(list(values), dtype=float)))


def bootstrap_ci(
    values: Sequence[float],
    confidence: float = DEFAULT_CONFIDENCE,
    resamples: int = DEFAULT_RESAMPLES,
    seed: int = STATS_SEED,
) -> Tuple[float, float]:
    """Percentile-bootstrap CI of the median over ``values``.

    Constant samples (including a single sample) short-circuit to the
    exact zero-width interval — no RNG draw, so deterministic replicate
    sets always yield bit-identical degenerate intervals.
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    if resamples < 1:
        raise ValueError(f"resamples must be >= 1, got {resamples}")
    ordered = sorted(float(v) for v in values)
    if not ordered:
        raise ValueError("bootstrap_ci needs at least one sample")
    if ordered[0] == ordered[-1]:
        return ordered[0], ordered[-1]
    arr = np.asarray(ordered, dtype=float)
    rng = np.random.default_rng(seed)
    indices = rng.integers(0, arr.size, size=(resamples, arr.size))
    medians = np.median(arr[indices], axis=1)
    alpha = (1.0 - confidence) / 2.0
    lo, hi = np.quantile(medians, (alpha, 1.0 - alpha))
    return float(lo), float(hi)


def interval_width(
    values: Sequence[float],
    confidence: float = DEFAULT_CONFIDENCE,
    resamples: int = DEFAULT_RESAMPLES,
    seed: int = STATS_SEED,
) -> float:
    """Width of the bootstrap CI (the stopping rule's decision input)."""
    lo, hi = bootstrap_ci(values, confidence=confidence,
                          resamples=resamples, seed=seed)
    return hi - lo
