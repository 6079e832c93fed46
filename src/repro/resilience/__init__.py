"""Cross-layer robustness: fault injection, retry policy, degradation.

Three pieces, shared by every layer that touches the OS:

- :mod:`~repro.resilience.faults` — named fault points with
  deterministic, trigger-indexed injection for chaos tests;
- :mod:`~repro.resilience.retry` — one :class:`RetryPolicy` for the
  shard reads and the checkpoint store;
- :mod:`~repro.resilience.ladder` — explicit downgrade chains
  (kernel → serial, in-memory → out-of-core, shard quarantine) with a
  run-wide :class:`ResilienceReport` surfaced in
  ``result.stats["resilience"]``.

See ``docs/resilience.md`` for the failure-envelope matrix.
"""

from .faults import (
    FAULT_POINTS,
    FaultInjector,
    FaultSpec,
    active_injector,
    fault_injection,
    maybe_inject,
    register_fault_point,
)
from .ladder import DegradationLadder, ResilienceReport
from .retry import RetryPolicy

__all__ = [
    "FAULT_POINTS",
    "DegradationLadder",
    "FaultInjector",
    "FaultSpec",
    "ResilienceReport",
    "RetryPolicy",
    "active_injector",
    "fault_injection",
    "maybe_inject",
    "register_fault_point",
]
