"""Lint configuration: which modules are exempt from which invariant.

The defaults encode *this* repository's architecture decisions:

* the wall-clock allowlist is the budget/telemetry layer — the run
  controller owns the one run-wide deadline clock and the event bus
  stamps trace timestamps;
* no module may import process-pool machinery: counting runs
  in-process;
* only ``repro/_atomic.py`` may open files for writing;
* ``repro/core/*`` and ``repro/cli.py`` must resolve engines through
  the registry rather than naming concrete searcher classes.

Everything here is data, not code, so a downstream project embedding
the framework can swap in its own :class:`LintConfig`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields

__all__ = ["LintConfig", "default_event_types"]


def default_event_types() -> frozenset[str]:
    """The registered event vocabulary, read from the live registry.

    Falls back to the built-in vocabulary if ``repro.engine`` is not
    importable (e.g. the framework linting a foreign tree).
    """
    try:
        from ..engine.events import EVENT_TYPES

        return frozenset(EVENT_TYPES)
    except Exception:  # pragma: no cover  # repro-lint: disable=RPL009
        return frozenset(
            {
                "run_started",
                "generation_end",
                "level_end",
                "checkpoint_written",
                "engine_finished",
            }
        )


@dataclass(frozen=True)
class LintConfig:
    """Tunable knobs for the rule set (defaults = this repo's layout)."""

    #: RPL001 — modules allowed to touch module-level / unseeded RNG.
    rng_allowed_modules: tuple[str, ...] = ()

    #: RPL002 — the budget/telemetry modules allowed to read wall clocks.
    clock_allowed_modules: tuple[str, ...] = (
        "repro/run/controller.py",
        "repro/engine/events.py",
        # The eval harness *measures* wall-clock: Table 1's time column
        # is its output, so the clock is the instrument, not a leak.
        "repro/eval/harness.py",
        "repro/eval/sweeps.py",
    )

    #: RPL003 — modules allowed to open files for writing directly.
    write_allowed_modules: tuple[str, ...] = ("repro/_atomic.py",)

    #: RPL004 — modules that must resolve engines via the registry...
    registry_only_modules: tuple[str, ...] = (
        "repro/core/*",
        "repro/cli.py",
        "repro/model/*",
    )
    #: ...and the concrete engine classes they must not instantiate.
    engine_class_names: frozenset[str] = frozenset(
        {
            "EvolutionarySearch",
            "BruteForceSearch",
            "RandomSearch",
            "HillClimbingSearch",
            "SimulatedAnnealingSearch",
        }
    )

    #: RPL005 — the registered event vocabulary.
    event_types: frozenset[str] = field(default_factory=default_event_types)

    #: RPL006 — modules allowed to import process-pool machinery.
    parallel_allowed_modules: tuple[str, ...] = ()

    #: RPL007 — the numeric modules where float ``==`` is checked.
    float_eq_modules: tuple[str, ...] = (
        "repro/sparsity/*",
        "repro/eval/*",
        "repro/grid/discretizer.py",
        "repro/grid/cells.py",
        "repro/model/*",
    )

    #: RPL009 — modules allowed to catch broadly (``except Exception``
    #: / bare ``except``): the resilience layer owns deliberate
    #: catch-all recovery.  Everywhere else a broad catch hides faults
    #: the degradation ladder should see.
    broad_except_allowed_modules: tuple[str, ...] = ("repro/resilience/*",)

    # -- project rules (RPL010-RPL014) ---------------------------------

    #: RPL010 — modules whose event registrations must have emitters.
    #: Registrations outside (a test registering a throwaway type) are
    #: exempt from the dead-vocabulary direction.
    contract_registry_modules: tuple[str, ...] = ("repro/*",)

    #: RPL011 — the public API surface whose reachable raises are held
    #: to the ReproError contract...
    entry_point_modules: tuple[str, ...] = (
        "repro/core/*",
        "repro/model/*",
        "repro/cli.py",
    )
    #: ...and the builtin exception names that must not escape it bare.
    escape_exception_names: frozenset[str] = frozenset(
        {"OSError", "IOError", "ValueError", "RuntimeError"}
    )

    #: RPL012 — modules whose resource creations are lifecycle-checked.
    resource_checked_modules: tuple[str, ...] = ("repro/*",)

    #: RPL013 — modules whose RNG constructions are taint-checked
    #: (minus ``rng_allowed_modules``, which RPL013 shares with RPL001).
    rng_taint_modules: tuple[str, ...] = ("repro/*",)

    def digest(self) -> str:
        """Stable content hash of the configuration.

        Part of the incremental-cache fingerprint: any config change
        must invalidate cached facts.  Unordered fields (frozensets)
        are sorted so the digest is deterministic across processes.
        """
        payload: dict[str, object] = {}
        for spec in fields(self):
            value = getattr(self, spec.name)
            if isinstance(value, frozenset):
                payload[spec.name] = sorted(value)
            else:
                payload[spec.name] = list(value)
        canonical = json.dumps(payload, sort_keys=True)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
