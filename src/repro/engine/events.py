"""Typed run events and the pluggable sinks they flow into.

PRs 1-3 grew three kinds of run telemetry — counter throughput, backend
fault counters, checkpoint/interruption bookkeeping — and each searcher
hand-assembled them into ``result.stats`` keys.  This module replaces
that with a small event bus: searchers *emit* typed :class:`Event`
records at their safe boundaries, and pluggable :class:`EventSink`
implementations decide what to do with them —

* :class:`NullSink` drops everything (the default, zero overhead),
* :class:`InMemoryEventSink` records them for tests and notebooks,
* :class:`JsonlTraceSink` streams one JSON line per event to a trace
  file (CLI ``--trace-file``),
* :class:`CompositeSink` fans one stream out to several sinks,
* :class:`~repro.engine.stats.StatsAssemblySink` reconstructs the
  backward-compatible ``result.stats`` dictionary.

The event vocabulary is deliberately small and closed by default
(:data:`EVENT_TYPES`); plugins can widen it with
:func:`register_event_type` before emitting their own types.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from collections.abc import Mapping
from typing import IO, Any

from ..exceptions import ValidationError

__all__ = [
    "EVENT_TYPES",
    "register_event_type",
    "Event",
    "emit_event",
    "EventSink",
    "NullSink",
    "InMemoryEventSink",
    "JsonlTraceSink",
    "CompositeSink",
]

#: The built-in event vocabulary.  ``run_started`` / ``engine_finished``
#: bracket every engine run; the boundary events in between depend on
#: the engine (GA generations, brute-force levels) and on the counter
#: (``shard_counted`` from the out-of-core sharded counter, one per
#: shard counted or resumed).  ``degradation_applied`` and
#: ``fault_recovered`` come from the resilience layer
#: (:mod:`repro.resilience`): one per downgrade-chain step taken and
#: one per injected-or-real fault the run survived.  The ``model_*``
#: family comes from the incremental model layer (:mod:`repro.model`):
#: ``model_updated`` on every absorbed update/merge (and hot reload),
#: ``rebin_triggered`` when the grid is recut from the sketch,
#: ``grid_drift_detected`` when post-fit occupancy drifts past the
#: configured divergence threshold, and ``score_request`` once per
#: served scoring request (CLI ``repro score``).
EVENT_TYPES: set[str] = {
    "run_started",
    "generation_end",
    "level_end",
    "shard_counted",
    "checkpoint_written",
    "engine_finished",
    "degradation_applied",
    "fault_recovered",
    "model_updated",
    "rebin_triggered",
    "grid_drift_detected",
    "score_request",
}


def register_event_type(name: str) -> str:
    """Widen the event vocabulary (for plugin engines).  Idempotent."""
    if not name or not isinstance(name, str):
        raise ValidationError(f"event type must be a non-empty string, got {name!r}")
    EVENT_TYPES.add(name)
    return name


@dataclass(frozen=True)
class Event:
    """One structured run event.

    Attributes
    ----------
    type:
        One of :data:`EVENT_TYPES`.
    payload:
        JSON-compatible details (engine name, boundary index, counters).
    timestamp:
        Wall-clock seconds at emission (``time.time()``).  Only carried
        for tracing — nothing deterministic may depend on it.
    """

    type: str
    payload: Mapping[str, Any] = field(default_factory=dict)
    timestamp: float = field(default_factory=time.time)


def emit_event(sink: "EventSink | None", type: str, **payload: Any) -> None:
    """Build an :class:`Event` and hand it to *sink* (no-op when None).

    This is the one place events are constructed, so the vocabulary
    check happens exactly once per emission.
    """
    if sink is None:
        return
    if type not in EVENT_TYPES:
        raise ValidationError(
            f"unknown event type {type!r}; register_event_type() first "
            f"(known: {sorted(EVENT_TYPES)})"
        )
    sink.emit(Event(type=type, payload=payload))


class EventSink:
    """Where emitted events go.  Subclass and override :meth:`emit`.

    Sinks are context managers so callers can scope their lifetime
    (``with JsonlTraceSink(path) as sink: ...``); :meth:`close` is
    always safe to call more than once.
    """

    def emit(self, event: Event) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def close(self) -> None:
        """Release any resources (files, handles).  Idempotent."""

    def __enter__(self) -> "EventSink":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class NullSink(EventSink):
    """Drops every event — the default when nothing is listening."""

    def emit(self, event: Event) -> None:
        pass


class InMemoryEventSink(EventSink):
    """Records every event in order; the test/notebook sink."""

    def __init__(self) -> None:
        self.events: list[Event] = []

    def emit(self, event: Event) -> None:
        self.events.append(event)

    def of_type(self, type: str) -> list[Event]:
        """All recorded events of one type, in emission order."""
        return [event for event in self.events if event.type == type]

    def types(self) -> list[str]:
        """The distinct event types seen, in first-emission order."""
        seen: list[str] = []
        for event in self.events:
            if event.type not in seen:
                seen.append(event.type)
        return seen

    def __len__(self) -> int:
        return len(self.events)


class JsonlTraceSink(EventSink):
    """Streams one JSON object per event to a trace file.

    Lines are flushed as they are written, so a killed run leaves a
    complete prefix of the event stream behind — the trace is the
    flight recorder of a long search.  Payload values that are not
    JSON-native are stringified rather than dropped.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._file: IO[str] | None = None
        self._seq = 0
        self._lock = threading.Lock()

    def emit(self, event: Event) -> None:
        record = {
            "seq": self._seq,
            "ts": event.timestamp,
            "type": event.type,
            **dict(event.payload),
        }
        line = json.dumps(record, default=str)
        with self._lock:
            if self._file is None:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                # The trace is an append-only flight recorder flushed
                # per line; a killed run must leave the prefix behind,
                # which atomic replace-on-close would throw away.
                self._file = self.path.open("w", encoding="utf-8")  # repro-lint: disable=RPL003
            self._file.write(line + "\n")
            self._file.flush()
            self._seq += 1

    def close(self) -> None:
        with self._lock:
            if self._file is not None:
                self._file.close()
                self._file = None


class CompositeSink(EventSink):
    """Fans one event stream out to several sinks (None entries skipped)."""

    def __init__(self, *sinks: EventSink | None) -> None:
        self.sinks: tuple[EventSink, ...] = tuple(
            sink for sink in sinks if sink is not None
        )

    def emit(self, event: Event) -> None:
        for sink in self.sinks:
            sink.emit(event)

    def close(self) -> None:
        for sink in self.sinks:
            sink.close()
