"""Stats assembly: the event stream folded back into ``result.stats``.

``result.stats`` predates the event bus and plenty of downstream code
(persistence, the CLI tables, the experiment scripts) reads its keys
directly.  :class:`StatsAssemblySink` keeps that contract: the detector
always routes engine events through one, then asks it to assemble the
classic stats dictionary — same keys as before, plus an additive
``events`` counter summary so traces and stats agree.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from typing import TYPE_CHECKING, Any

from .events import Event, EventSink

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..search.outcome import SearchOutcome

__all__ = ["StatsAssemblySink", "merge_backend_health"]

#: Zero template for backend-health aggregation (bool fields OR, int
#: fields sum) — the shape of ``CubeCounter.backend_health()``.
_HEALTH_TOTALS = {
    "retries": 0,
    "timeouts": 0,
    "rebuilds": 0,
    "fallbacks": 0,
    "chunks_parallel": 0,
    "chunks_serial": 0,
    "pool_degraded": False,
    "pool_unavailable": False,
}


def merge_backend_health(healths: Iterable[Mapping]) -> dict:
    """Sum fault-tolerance counters across runs (booleans OR together).

    Used by the multi-k sweep and by anything ensembling several
    detections: one aggregate record instead of |K| separate ones.
    """
    totals = dict(_HEALTH_TOTALS)
    for health in healths:
        for key, value in totals.items():
            if isinstance(value, bool):
                totals[key] = value or bool(health.get(key))
            else:
                totals[key] = value + int(health.get(key, 0))
    return totals


class StatsAssemblySink(EventSink):
    """Folds the event stream into the legacy ``result.stats`` dict.

    The sink only *counts* events (plus remembering the final
    ``engine_finished`` payload); the authoritative values still come
    from the :class:`~repro.search.outcome.SearchOutcome` and the
    counter, so stats stay correct even for engines that emit nothing.
    """

    def __init__(self) -> None:
        self.event_counts: dict[str, int] = {}
        self.checkpoints_written = 0
        self.finished_payload: dict | None = None

    def emit(self, event: Event) -> None:
        self.event_counts[event.type] = self.event_counts.get(event.type, 0) + 1
        if event.type == "checkpoint_written":
            self.checkpoints_written += 1
        elif event.type == "engine_finished":
            self.finished_payload = dict(event.payload)

    # ------------------------------------------------------------------
    def assemble(
        self,
        outcome: "SearchOutcome",
        counter: Any,
        elapsed: float,
        resilience: Any | None = None,
    ) -> dict:
        """The backward-compatible stats dict for a finished detection.

        Reproduces exactly the keys ``detector._postprocess`` set before
        the event bus existed — ``total_elapsed_seconds``, ``completed``,
        ``stopped_reason``, ``counter_stats``, ``backend_health`` on top
        of the outcome's own stats — and adds the ``events`` counters
        plus, when a :class:`~repro.resilience.ResilienceReport` is
        passed, the ``resilience`` record of retries/degradations.
        """
        stats = dict(outcome.stats)
        stats["total_elapsed_seconds"] = elapsed
        stats["completed"] = float(outcome.completed)
        stats["stopped_reason"] = outcome.stopped_reason
        stats["counter_stats"] = counter.cache_stats()
        stats["backend_health"] = counter.backend_health()
        stats["events"] = dict(self.event_counts)
        if resilience is not None:
            stats["resilience"] = resilience.as_dict()
        return stats
