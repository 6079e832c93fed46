"""Deterministic fault injection at named points across the stack.

This is the library's one fault-injection mechanism.  Any layer can
declare a **fault point** — a named seam where a specific failure class
can occur — and call :func:`maybe_inject` there.  Chaos tests then arm
one or more :class:`FaultSpec` instances via the
:func:`fault_injection` context manager; production runs pay a single
global ``None`` check.

Injection is deterministic by construction: each fault point keeps a
run-wide invocation counter, and a spec fires when that counter reaches
its ``trigger`` index (and keeps firing for ``times`` invocations).  No
clocks, no randomness — the same program order yields the same faults,
which is what lets the chaos suite assert bit-identical recovery.
"""

from __future__ import annotations

import errno
from dataclasses import dataclass
from typing import Callable, Iterator
import contextlib

__all__ = [
    "FAULT_POINTS",
    "FaultInjector",
    "FaultSpec",
    "active_injector",
    "fault_injection",
    "maybe_inject",
    "register_fault_point",
]


def _enospc(detail: dict) -> BaseException:
    exc = OSError(errno.ENOSPC, "injected: no space left on device")
    return exc


def _eio(detail: dict) -> BaseException:
    return OSError(errno.EIO, "injected: I/O error")


def _oom(detail: dict) -> BaseException:
    return MemoryError("injected: allocation failure")


#: Registry of named fault points → default error factory.  A factory
#: takes the ``detail`` mapping passed to :func:`maybe_inject` and
#: returns the exception instance to raise.
FAULT_POINTS: dict[str, Callable[[dict], BaseException]] = {
    "atomic_write": _enospc,
    "shard_open": _eio,
    "shard_read": _eio,
    "checkpoint_load": _eio,
    "packed_alloc": _oom,
}


def register_fault_point(
    name: str, default_error: Callable[[dict], BaseException]
) -> None:
    """Declare a new named fault point with its default error factory."""
    if not name or not isinstance(name, str):
        raise ValueError("fault point name must be a non-empty string")
    FAULT_POINTS[name] = default_error


@dataclass(frozen=True)
class FaultSpec:
    """One armed fault: fire at *point* starting at invocation *trigger*.

    ``trigger`` is the 0-based invocation index of the fault point at
    which the fault first fires; ``times`` bounds how many consecutive
    invocations fail (``None`` = every invocation from *trigger* on,
    modelling a persistent fault).  ``error`` overrides the point's
    default error factory with a fixed exception instance.
    """

    point: str
    trigger: int = 0
    times: int | None = 1
    error: BaseException | None = None

    def __post_init__(self) -> None:
        if self.point not in FAULT_POINTS:
            known = ", ".join(sorted(FAULT_POINTS))
            raise ValueError(
                f"unknown fault point {self.point!r}; registered points: "
                f"{known}"
            )
        if self.trigger < 0:
            raise ValueError("trigger must be >= 0")
        if self.times is not None and self.times < 1:
            raise ValueError("times must be >= 1 or None")


class FaultInjector:
    """Holds armed specs plus per-point invocation/fired counters."""

    def __init__(self, specs: tuple[FaultSpec, ...]) -> None:
        self.specs = specs
        self._invocations: dict[str, int] = {}
        self._fired: dict[int, int] = {}

    def check(self, point: str, detail: dict) -> None:
        """Raise the armed fault for *point* if its trigger is reached."""
        seen = self._invocations.get(point, 0)
        self._invocations[point] = seen + 1
        for i, spec in enumerate(self.specs):
            if spec.point != point or seen < spec.trigger:
                continue
            fired = self._fired.get(i, 0)
            if spec.times is not None and fired >= spec.times:
                continue
            self._fired[i] = fired + 1
            exc = spec.error
            if exc is None:
                exc = FAULT_POINTS[point](detail)
            raise exc

    def invocations(self, point: str) -> int:
        """How many times *point* was reached in this process."""
        return self._invocations.get(point, 0)

    def fired(self) -> int:
        """Total faults raised by this injector in this process."""
        return sum(self._fired.values())


#: Process-global active injector; ``None`` outside chaos tests, so the
#: hot-path cost of an unarmed fault point is one global load.
_ACTIVE: FaultInjector | None = None


def active_injector() -> FaultInjector | None:
    """The currently armed injector, or ``None`` outside chaos tests."""
    return _ACTIVE


def maybe_inject(point: str, **detail) -> None:
    """Hook placed at a fault point; no-op unless an injector is armed."""
    if _ACTIVE is not None:
        _ACTIVE.check(point, detail)


@contextlib.contextmanager
def fault_injection(*specs: FaultSpec) -> Iterator[FaultInjector]:
    """Arm *specs* for the duration of the ``with`` block.

    Nested arming is rejected — overlapping injectors would make
    trigger indices ambiguous, and no test needs it.
    """
    global _ACTIVE
    if _ACTIVE is not None:
        raise RuntimeError("fault injection is already active")
    injector = FaultInjector(tuple(specs))
    _ACTIVE = injector
    try:
        yield injector
    finally:
        _ACTIVE = None
