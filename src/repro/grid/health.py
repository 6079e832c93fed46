"""Run telemetry for the counting backend: the ``backend_health`` record.

Counting runs in-process, so a run's :class:`BackendHealth` never
records a retry, timeout, rebuild or fallback: every field reports
0/False.  The record keeps its full shape because it surfaces as
``result.stats["backend_health"]`` — saved results, ensemble drivers
and benchmarks read its fields — and kernel downgrades are reported
through ``stats["resilience"]`` instead.

This module also hosts the grid *occupancy drift* check
(:func:`check_grid_drift`): the serving-time counterpart that tells an
incrementally updated :class:`~repro.model.GridModel` when its frozen
equi-depth grid no longer matches the data flowing through it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import ValidationError

__all__ = [
    "BackendHealth",
    "GridDriftReport",
    "LATENCY_BUCKETS",
    "check_grid_drift",
    "occupancy_divergence",
]

#: Upper edges (seconds) of the ``chunk_latency`` histogram buckets;
#: the last key of the histogram is the overflow bucket.
LATENCY_BUCKETS = (0.001, 0.003, 0.01, 0.03, 0.1, 0.3, 1.0, 3.0, 10.0, 30.0)


class BackendHealth:
    """The ``backend_health`` record of one run: all counters at zero.

    Attributes
    ----------
    retries, timeouts, rebuilds, fallbacks:
        Failed, timed-out, rebuilt and recovered chunk dispatches.
    chunks_parallel / chunks_serial:
        Chunks counted off-process vs. recovered in-process.
    pool_degraded, pool_unavailable:
        Whether a worker pool was abandoned or never available.
    """

    __slots__ = (
        "retries",
        "timeouts",
        "rebuilds",
        "fallbacks",
        "chunks_parallel",
        "chunks_serial",
        "pool_degraded",
        "pool_unavailable",
    )

    def __init__(self) -> None:
        self.retries = 0
        self.timeouts = 0
        self.rebuilds = 0
        self.fallbacks = 0
        self.chunks_parallel = 0
        self.chunks_serial = 0
        self.pool_degraded = False
        self.pool_unavailable = False

    def as_dict(self) -> dict:
        """JSON-friendly snapshot (what lands in ``result.stats``)."""
        buckets = {f"<={edge:g}s": 0 for edge in LATENCY_BUCKETS}
        buckets[f">{LATENCY_BUCKETS[-1]:g}s"] = 0
        return {
            "retries": self.retries,
            "timeouts": self.timeouts,
            "rebuilds": self.rebuilds,
            "fallbacks": self.fallbacks,
            "chunks_parallel": self.chunks_parallel,
            "chunks_serial": self.chunks_serial,
            "pool_degraded": self.pool_degraded,
            "pool_unavailable": self.pool_unavailable,
            "chunk_latency": {
                "count": 0,
                "total_seconds": 0.0,
                "max_seconds": 0.0,
                "buckets": buckets,
            },
        }


# ----------------------------------------------------------------------
# Grid occupancy drift: is the fitted grid going stale?
#
# The equi-depth construction guarantees each of the φ ranges holds a
# fraction f = 1/φ of the records *at fit time* (§1.3).  Rows absorbed
# afterwards (GridModel.update) are coded under the frozen cut points,
# so their per-range occupancy measures how far the serving distribution
# has moved from the fitted one — the "grid going stale" signal the
# model layer turns into ``grid_drift_detected`` events and rebins on.

#: Default total-variation divergence past which a dimension counts as
#: drifted.  1/4 means a quarter of the update rows would have to move
#: ranges to restore the equi-depth f = 1/φ occupancy — far outside
#: rounding noise, yet early enough to rebin before scores skew.
DEFAULT_DRIFT_THRESHOLD = 0.25


def occupancy_divergence(occupancy) -> np.ndarray:
    """Per-dimension total-variation distance from equi-depth occupancy.

    *occupancy* is a ``(d, φ)`` count matrix — rows seen per (dimension,
    range), missing values excluded.  Entry ``j`` of the result is
    ``0.5 * Σ_r |p_jr − 1/φ|`` where ``p_jr`` is the observed fraction:
    0 for a perfectly equi-depth dimension, approaching ``1 − 1/φ`` when
    every row piles into one range.  Dimensions with no observed rows
    report 0 (no evidence of drift).
    """
    counts = np.asarray(occupancy, dtype=np.float64)
    if counts.ndim != 2:
        raise ValidationError(
            f"occupancy must be a (d, phi) matrix, got ndim={counts.ndim}"
        )
    phi = counts.shape[1]
    totals = counts.sum(axis=1, keepdims=True)
    uniform = 1.0 / phi
    fractions = np.divide(
        counts, totals, out=np.full_like(counts, uniform), where=totals > 0
    )
    return 0.5 * np.abs(fractions - uniform).sum(axis=1)


@dataclass(frozen=True)
class GridDriftReport:
    """Occupancy drift of post-fit rows against the fitted grid.

    Attributes
    ----------
    divergence:
        Per-dimension total-variation distance from ``f = 1/φ``.
    threshold:
        The configured divergence threshold the check ran with.
    drifted_dims:
        Dimensions whose divergence exceeds the threshold, ascending.
    n_rows:
        Update rows the occupancy was accumulated over (max across
        dimensions; missing values make it uneven per dimension).
    """

    divergence: tuple[float, ...]
    threshold: float
    drifted_dims: tuple[int, ...]
    n_rows: int

    @property
    def drifted(self) -> bool:
        """True when any dimension exceeds the threshold."""
        return bool(self.drifted_dims)

    @property
    def max_divergence(self) -> float:
        """The worst per-dimension divergence (0.0 with no dimensions)."""
        return max(self.divergence, default=0.0)

    def as_dict(self) -> dict:
        """JSON-friendly snapshot (what lands in model stats/events)."""
        return {
            "max_divergence": self.max_divergence,
            "threshold": self.threshold,
            "drifted_dims": list(self.drifted_dims),
            "n_rows": self.n_rows,
        }


def check_grid_drift(
    occupancy, threshold: float = DEFAULT_DRIFT_THRESHOLD
) -> GridDriftReport:
    """Evaluate per-dimension occupancy drift against *threshold*."""
    if not 0.0 < float(threshold) <= 1.0:
        raise ValidationError(
            f"drift threshold must be in (0, 1], got {threshold!r}"
        )
    counts = np.asarray(occupancy, dtype=np.float64)
    divergence = occupancy_divergence(counts)
    drifted = np.nonzero(divergence > float(threshold))[0]
    n_rows = int(counts.sum(axis=1).max(initial=0.0))
    return GridDriftReport(
        divergence=tuple(float(v) for v in divergence),
        threshold=float(threshold),
        drifted_dims=tuple(int(j) for j in drifted),
        n_rows=n_rows,
    )
