"""Per-rule fixtures for the repro-lint rule set (RPL001-RPL009).

Every rule gets at least one positive fixture (the invariant broken →
exactly the expected code fires) and one negative fixture (compliant
code → silence), exercised through the same ``lint_source`` path the
CLI uses so scope tracking, allowlists and import-alias resolution are
all covered.
"""

from __future__ import annotations

import ast
import textwrap

from repro.analysis.config import LintConfig
from repro.analysis.runner import lint_source, select_rules
from repro.analysis.sources import ModuleSource


def lint_text(
    text: str,
    *,
    path: str = "repro/sample.py",
    select: list[str] | None = None,
    config: LintConfig | None = None,
):
    source = textwrap.dedent(text)
    module = ModuleSource(path=path, text=source, tree=ast.parse(source))
    rules = select_rules(select=select)
    found, _ = lint_source(module, rules, config or LintConfig())
    return found


def codes(violations) -> list[str]:
    return [v.code for v in violations]


class TestRPL001UnseededRng:
    def test_flags_module_level_numpy_random(self):
        found = lint_text(
            """
            import numpy as np
            x = np.random.rand(10)
            """,
            select=["RPL001"],
        )
        assert codes(found) == ["RPL001"]
        assert "numpy.random.rand" in found[0].message

    def test_flags_unseeded_default_rng(self):
        found = lint_text(
            """
            import numpy as np
            rng = np.random.default_rng()
            """,
            select=["RPL001"],
        )
        assert codes(found) == ["RPL001"]
        assert "unseeded" in found[0].message

    def test_seeded_default_rng_is_clean(self):
        found = lint_text(
            """
            import numpy as np
            rng = np.random.default_rng(42)
            """,
            select=["RPL001"],
        )
        assert found == []

    def test_flags_stdlib_random_calls_and_imports(self):
        found = lint_text(
            """
            import random
            from random import shuffle
            value = random.random()
            """,
            select=["RPL001"],
        )
        assert codes(found) == ["RPL001", "RPL001"]

    def test_respects_import_alias(self):
        found = lint_text(
            """
            import numpy.random as nr
            nr.normal(0, 1)
            """,
            select=["RPL001"],
        )
        assert codes(found) == ["RPL001"]

    def test_allowlisted_module_is_exempt(self):
        config = LintConfig(rng_allowed_modules=("repro/sample.py",))
        found = lint_text(
            """
            import numpy as np
            x = np.random.rand(10)
            """,
            select=["RPL001"],
            config=config,
        )
        assert found == []

    def test_qualname_tracks_enclosing_scope(self):
        found = lint_text(
            """
            import numpy as np

            class Sampler:
                def draw(self):
                    return np.random.rand()
            """,
            select=["RPL001"],
        )
        assert found[0].qualname == "Sampler.draw"


class TestRPL002WallClock:
    def test_flags_time_calls(self):
        found = lint_text(
            """
            import time
            t = time.perf_counter()
            """,
            select=["RPL002"],
        )
        assert codes(found) == ["RPL002"]

    def test_flags_from_import_and_datetime_now(self):
        found = lint_text(
            """
            from time import monotonic
            from datetime import datetime
            a = monotonic()
            b = datetime.now()
            """,
            select=["RPL002"],
        )
        assert codes(found) == ["RPL002", "RPL002"]

    def test_budget_module_is_exempt(self):
        found = lint_text(
            """
            import time
            t = time.perf_counter()
            """,
            path="repro/run/controller.py",
            select=["RPL002"],
        )
        assert found == []

    def test_unrelated_attribute_named_time_is_clean(self):
        found = lint_text(
            """
            class Budget:
                def time(self):
                    return 0.0

            b = Budget()
            b.time()
            """,
            select=["RPL002"],
        )
        assert found == []


class TestRPL003NonAtomicWrite:
    def test_flags_builtin_open_write_mode(self):
        found = lint_text(
            """
            with open("out.json", "w") as fh:
                fh.write("{}")
            """,
            select=["RPL003"],
        )
        assert codes(found) == ["RPL003"]

    def test_flags_path_open_write_mode_first_positional(self):
        found = lint_text(
            """
            from pathlib import Path
            with Path("out.json").open("w", encoding="utf-8") as fh:
                fh.write("{}")
            """,
            select=["RPL003"],
        )
        assert codes(found) == ["RPL003"]

    def test_flags_write_text_and_json_dump(self):
        found = lint_text(
            """
            import json
            from pathlib import Path
            Path("out.txt").write_text("data")
            json.dump({}, object())
            """,
            select=["RPL003"],
        )
        assert codes(found) == ["RPL003", "RPL003"]

    def test_read_mode_and_default_mode_are_clean(self):
        found = lint_text(
            """
            from pathlib import Path
            with open("in.json") as fh:
                fh.read()
            with Path("in.json").open("rb") as fh:
                fh.read()
            """,
            select=["RPL003"],
        )
        assert found == []

    def test_non_literal_mode_is_flagged(self):
        found = lint_text(
            """
            def touch(path, mode):
                return open(path, mode)
            """,
            select=["RPL003"],
        )
        assert codes(found) == ["RPL003"]
        assert "non-literal" in found[0].message

    def test_atomic_module_is_exempt(self):
        found = lint_text(
            """
            with open("tmp", "w") as fh:
                fh.write("x")
            """,
            path="repro/_atomic.py",
            select=["RPL003"],
        )
        assert found == []


class TestRPL004RegistryOnly:
    def test_flags_engine_construction_in_core(self):
        found = lint_text(
            """
            from repro.search.brute_force import BruteForceSearch
            engine = BruteForceSearch(None, 4, 20)
            """,
            path="repro/core/detector.py",
            select=["RPL004"],
        )
        assert codes(found) == ["RPL004", "RPL004"]

    def test_registry_call_is_clean(self):
        found = lint_text(
            """
            from repro.engine import create_engine
            engine = create_engine("brute_force", None, 4, 20)
            """,
            path="repro/core/detector.py",
            select=["RPL004"],
        )
        assert found == []

    def test_rule_only_applies_to_core_and_cli(self):
        found = lint_text(
            """
            from repro.search.brute_force import BruteForceSearch
            engine = BruteForceSearch(None, 4, 20)
            """,
            path="repro/search/helpers.py",
            select=["RPL004"],
        )
        assert found == []


class TestRPL005RegisteredEvents:
    def test_flags_unregistered_event_type(self):
        found = lint_text(
            """
            def run(context):
                context.emit("totally_unknown_event", step=1)
            """,
            select=["RPL005"],
        )
        assert codes(found) == ["RPL005"]

    def test_registered_event_is_clean(self):
        from repro.engine.events import EVENT_TYPES

        event = sorted(EVENT_TYPES)[0]
        found = lint_text(
            f"""
            def run(context):
                context.emit({event!r}, step=1)
            """,
            select=["RPL005"],
        )
        assert found == []

    def test_locally_registered_event_is_clean(self):
        found = lint_text(
            """
            from repro.engine.events import register_event_type

            register_event_type("my_plugin_event")

            def run(context):
                context.emit("my_plugin_event", step=1)
            """,
            select=["RPL005"],
        )
        assert found == []

    def test_dynamic_event_name_is_not_flagged(self):
        # Syntactic rule: only literal event names are judged.
        found = lint_text(
            """
            def run(context, name):
                context.emit(name, step=1)
            """,
            select=["RPL005"],
        )
        assert found == []


class TestRPL006BareParallelism:
    def test_flags_multiprocessing_and_futures_imports(self):
        found = lint_text(
            """
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor
            """,
            select=["RPL006"],
        )
        assert codes(found) == ["RPL006", "RPL006"]

    def test_no_module_is_exempt_by_default(self):
        found = lint_text(
            """
            import multiprocessing
            """,
            path="repro/grid/counter.py",
            select=["RPL006"],
        )
        assert codes(found) == ["RPL006"]

    def test_configured_module_is_exempt(self):
        found = lint_text(
            """
            import multiprocessing
            """,
            path="repro/grid/pool.py",
            select=["RPL006"],
            config=LintConfig(parallel_allowed_modules=("repro/grid/pool.py",)),
        )
        assert found == []

    def test_similarly_named_module_is_clean(self):
        found = lint_text(
            """
            import concurrency_helpers
            """,
            select=["RPL006"],
        )
        assert found == []


class TestRPL007FloatEquality:
    def test_flags_float_literal_comparison_in_numeric_module(self):
        found = lint_text(
            """
            def check(x):
                return x == 0.5
            """,
            path="repro/sparsity/coefficient.py",
            select=["RPL007"],
        )
        assert codes(found) == ["RPL007"]

    def test_flags_nan_self_comparison(self):
        found = lint_text(
            """
            def is_valid(q):
                return q == q
            """,
            path="repro/eval/harness.py",
            select=["RPL007"],
        )
        assert codes(found) == ["RPL007"]
        assert "NaN probe" in found[0].message

    def test_integer_comparison_is_clean(self):
        found = lint_text(
            """
            def check(n):
                return n == 0
            """,
            path="repro/sparsity/coefficient.py",
            select=["RPL007"],
        )
        assert found == []

    def test_rule_scoped_to_numeric_modules(self):
        found = lint_text(
            """
            def check(x):
                return x == 0.5
            """,
            path="repro/data/loaders.py",
            select=["RPL007"],
        )
        assert found == []


class TestRPL008MutableDefaults:
    def test_flags_literal_and_constructor_defaults(self):
        found = lint_text(
            """
            def configure(options=[], table=dict()):
                return options, table
            """,
            select=["RPL008"],
        )
        assert codes(found) == ["RPL008", "RPL008"]

    def test_private_functions_are_exempt(self):
        found = lint_text(
            """
            def _internal(cache={}):
                return cache
            """,
            select=["RPL008"],
        )
        assert found == []

    def test_none_and_tuple_defaults_are_clean(self):
        found = lint_text(
            """
            def configure(options=None, shape=(2, 3)):
                return options, shape
            """,
            select=["RPL008"],
        )
        assert found == []

    def test_keyword_only_defaults_are_checked(self):
        found = lint_text(
            """
            def configure(*, extras={"a": 1}):
                return extras
            """,
            select=["RPL008"],
        )
        assert codes(found) == ["RPL008"]


class TestRPL009BroadExcept:
    def test_flags_broad_except_exception(self):
        found = lint_text(
            """
            def load(path):
                try:
                    return path.read_text()
                except Exception:
                    return None
            """,
            select=["RPL009"],
        )
        assert codes(found) == ["RPL009"]
        assert "except Exception" in found[0].message

    def test_flags_bare_except(self):
        found = lint_text(
            """
            def load(path):
                try:
                    return path.read_text()
                except:
                    return None
            """,
            select=["RPL009"],
        )
        assert codes(found) == ["RPL009"]
        assert "bare" in found[0].message

    def test_flags_base_exception_in_tuple(self):
        found = lint_text(
            """
            def load(path):
                try:
                    return path.read_text()
                except (ValueError, BaseException):
                    return None
            """,
            select=["RPL009"],
        )
        assert codes(found) == ["RPL009"]

    def test_specific_exceptions_are_clean(self):
        found = lint_text(
            """
            def load(path):
                try:
                    return path.read_text()
                except (OSError, ValueError):
                    return None
            """,
            select=["RPL009"],
        )
        assert found == []

    def test_cleanup_and_reraise_is_exempt(self):
        found = lint_text(
            """
            import os

            def write(tmp):
                try:
                    tmp.flush()
                except BaseException:
                    os.unlink(tmp.name)
                    raise
            """,
            select=["RPL009"],
        )
        assert found == []

    def test_reraising_different_exception_still_flagged(self):
        found = lint_text(
            """
            def load(path):
                try:
                    return path.read_text()
                except Exception as exc:
                    raise RuntimeError("boom") from exc
            """,
            select=["RPL009"],
        )
        assert codes(found) == ["RPL009"]

    def test_resilience_layer_is_exempt(self):
        found = lint_text(
            """
            def guarded(primary, fallback):
                try:
                    return primary()
                except Exception:
                    return fallback()
            """,
            path="repro/resilience/ladder.py",
            select=["RPL009"],
        )
        assert found == []

    def test_grid_layer_is_not_exempt(self):
        found = lint_text(
            """
            def dispatch(task):
                try:
                    return task()
                except Exception:
                    return None
            """,
            path="repro/grid/counter.py",
            select=["RPL009"],
        )
        assert codes(found) == ["RPL009"]


# ----------------------------------------------------------------------
# project rules (RPL010-RPL014) — multi-file fixtures through lint_paths
# ----------------------------------------------------------------------
import pytest

from repro.analysis.runner import lint_paths

PROJECT_CODES = ["RPL010", "RPL011", "RPL012", "RPL013", "RPL014"]


def lint_tree(tmp_path, files: dict, *, select: list[str]):
    """Write ``files`` under a ``repro/`` tree and lint the whole tree."""
    for rel, text in files.items():
        target = tmp_path / "repro" / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(text))
    return lint_paths([tmp_path], select=select)


class TestRPL010EventContract:
    def test_flags_emit_of_unregistered_type(self, tmp_path):
        result = lint_tree(
            tmp_path,
            {
                "engine/events.py": """
                EVENT_TYPES = {"run_started"}
                def emit_event(sink, type, **payload): ...
                """,
                "core/engine.py": """
                from repro.engine.events import emit_event
                def run(sink):
                    emit_event(sink, "run_started")
                    emit_event(sink, "made_up")
                """,
            },
            select=["RPL010"],
        )
        assert codes(result.violations) == ["RPL010"]
        assert "'made_up'" in result.violations[0].message
        assert "never registered" in result.violations[0].message

    def test_flags_registered_but_never_emitted(self, tmp_path):
        result = lint_tree(
            tmp_path,
            {
                "engine/events.py": """
                EVENT_TYPES = {"run_started", "dead_type"}
                def emit_event(sink, type, **payload): ...
                """,
                "core/engine.py": """
                from repro.engine.events import emit_event
                def run(sink):
                    emit_event(sink, "run_started")
                """,
            },
            select=["RPL010"],
        )
        assert codes(result.violations) == ["RPL010"]
        assert "'dead_type'" in result.violations[0].message
        assert "never emitted" in result.violations[0].message

    def test_clean_when_vocabulary_is_closed_both_ways(self, tmp_path):
        result = lint_tree(
            tmp_path,
            {
                "engine/events.py": """
                EVENT_TYPES = {"run_started"}
                def emit_event(sink, type, **payload): ...
                """,
                "core/engine.py": """
                from repro.engine.events import emit_event
                def run(sink):
                    emit_event(sink, "run_started")
                """,
            },
            select=["RPL010"],
        )
        assert result.violations == []

    def test_dynamic_emit_does_not_satisfy_registration(self, tmp_path):
        """An emit through a variable cannot prove a type live."""
        result = lint_tree(
            tmp_path,
            {
                "engine/events.py": """
                EVENT_TYPES = {"only_dynamic"}
                def emit_event(sink, type, **payload): ...
                """,
                "core/engine.py": """
                from repro.engine.events import emit_event
                def forward(sink, event_type):
                    emit_event(sink, event_type)
                """,
            },
            select=["RPL010"],
        )
        assert codes(result.violations) == ["RPL010"]
        assert "'only_dynamic'" in result.violations[0].message


class TestRPL011ExceptionContract:
    def test_flags_bare_raise_reachable_from_entry_point(self, tmp_path):
        result = lint_tree(
            tmp_path,
            {
                "core/api.py": """
                from repro.internal.helper import load
                def public_entry(path):
                    return load(path)
                """,
                "internal/helper.py": """
                def load(path):
                    raise ValueError("bad path")
                """,
            },
            select=["RPL011"],
        )
        assert codes(result.violations) == ["RPL011"]
        violation = result.violations[0]
        assert violation.path == "repro/internal/helper.py"
        assert "public_entry" in violation.message
        assert "ReproError" in violation.message

    def test_typed_raise_is_clean(self, tmp_path):
        result = lint_tree(
            tmp_path,
            {
                "exceptions.py": """
                class ReproError(Exception): ...
                class ValidationError(ReproError, ValueError): ...
                """,
                "core/api.py": """
                from repro.exceptions import ValidationError
                def public_entry(value):
                    if value < 0:
                        raise ValidationError("negative")
                    return value
                """,
            },
            select=["RPL011"],
        )
        assert result.violations == []

    def test_unreachable_raise_is_not_flagged(self, tmp_path):
        """A bare raise in a module no entry point calls into is out of
        the contract's scope (nothing public can observe it)."""
        result = lint_tree(
            tmp_path,
            {
                "core/api.py": """
                def public_entry():
                    return 1
                """,
                "internal/orphan.py": """
                def never_called():
                    raise RuntimeError("unreachable")
                """,
            },
            select=["RPL011"],
        )
        assert result.violations == []

    def test_private_entry_module_functions_are_exempt(self, tmp_path):
        result = lint_tree(
            tmp_path,
            {
                "core/api.py": """
                def _private_helper():
                    raise ValueError("internal invariant")
                """,
            },
            select=["RPL011"],
        )
        assert result.violations == []

    def test_dataclass_post_init_is_reachable_via_constructor(self, tmp_path):
        result = lint_tree(
            tmp_path,
            {
                "core/api.py": """
                from repro.internal.spec import Spec
                def public_entry():
                    return Spec()
                """,
                "internal/spec.py": """
                from dataclasses import dataclass
                @dataclass
                class Spec:
                    limit: int = 1
                    def __post_init__(self):
                        if self.limit < 0:
                            raise ValueError("limit")
                """,
            },
            select=["RPL011"],
        )
        assert codes(result.violations) == ["RPL011"]
        assert result.violations[0].qualname == "Spec.__post_init__"


class TestRPL012ResourceLifecycle:
    def test_flags_unmanaged_memmap(self, tmp_path):
        result = lint_tree(
            tmp_path,
            {
                "grid/loader.py": """
                import numpy as np
                def count(path):
                    view = np.memmap(path, dtype="u1", mode="r")
                    return int(view.sum())
                """,
            },
            select=["RPL012"],
        )
        assert codes(result.violations) == ["RPL012"]
        assert "numpy.memmap" in result.violations[0].message
        assert "never released" in result.violations[0].message

    def test_with_block_is_clean(self, tmp_path):
        result = lint_tree(
            tmp_path,
            {
                "grid/loader.py": """
                import tempfile
                def scratch():
                    with tempfile.TemporaryDirectory() as workdir:
                        return len(workdir)
                """,
            },
            select=["RPL012"],
        )
        assert result.violations == []

    def test_try_finally_close_is_clean(self, tmp_path):
        result = lint_tree(
            tmp_path,
            {
                "grid/loader.py": """
                import tempfile
                def scratch():
                    holder = tempfile.TemporaryDirectory()
                    try:
                        return len(holder.name)
                    finally:
                        holder.cleanup()
                """,
            },
            select=["RPL012"],
        )
        assert result.violations == []

    def test_unprotected_close_is_flagged(self, tmp_path):
        result = lint_tree(
            tmp_path,
            {
                "grid/loader.py": """
                import tempfile
                def scratch(fn):
                    holder = tempfile.TemporaryDirectory()
                    value = fn(holder.name)
                    holder.cleanup()
                    return value
                """,
            },
            select=["RPL012"],
        )
        assert codes(result.violations) == ["RPL012"]
        assert "try/finally" in result.violations[0].message

    def test_registered_finalizer_is_clean(self, tmp_path):
        result = lint_tree(
            tmp_path,
            {
                "grid/loader.py": """
                import tempfile
                import weakref
                def scratch(owner):
                    holder = tempfile.TemporaryDirectory()
                    weakref.finalize(owner, holder, None)
                    return holder
                """,
            },
            select=["RPL012"],
        )
        assert result.violations == []

    def test_escaping_resource_is_callers_problem(self, tmp_path):
        result = lint_tree(
            tmp_path,
            {
                "grid/loader.py": """
                import numpy as np
                def open_view(path):
                    view = np.memmap(path, dtype="u1", mode="r")
                    return view
                """,
            },
            select=["RPL012"],
        )
        assert result.violations == []


class TestRPL013RngTaint:
    def test_flags_explicit_none_seed(self, tmp_path):
        result = lint_tree(
            tmp_path,
            {
                "core/sampler.py": """
                import numpy as np
                def draw(n):
                    rng = np.random.default_rng(None)
                    return rng.random(n)
                """,
            },
            select=["RPL013"],
        )
        assert codes(result.violations) == ["RPL013"]
        assert "OS entropy" in result.violations[0].message

    def test_flags_opaque_seed_source(self, tmp_path):
        result = lint_tree(
            tmp_path,
            {
                "core/sampler.py": """
                import numpy as np
                def draw(n, data):
                    rng = np.random.default_rng(id(data))
                    return rng.random(n)
                """,
            },
            select=["RPL013"],
        )
        assert codes(result.violations) == ["RPL013"]
        assert "cannot be traced" in result.violations[0].message

    def test_seed_parameter_is_clean(self, tmp_path):
        result = lint_tree(
            tmp_path,
            {
                "core/sampler.py": """
                import numpy as np
                def draw(n, seed):
                    rng = np.random.default_rng(seed)
                    return rng.random(n)
                """,
            },
            select=["RPL013"],
        )
        assert result.violations == []

    def test_integer_literal_and_derived_seed_are_clean(self, tmp_path):
        result = lint_tree(
            tmp_path,
            {
                "core/sampler.py": """
                import numpy as np
                def draw(n, seed):
                    fixed = np.random.default_rng(12345)
                    shifted = np.random.default_rng(seed + 1)
                    return fixed.random(n) + shifted.random(n)
                """,
            },
            select=["RPL013"],
        )
        assert result.violations == []

    def test_zero_arg_constructor_is_rpl001_territory(self, tmp_path):
        """RPL013 leaves the no-argument case to the single-file rule."""
        result = lint_tree(
            tmp_path,
            {
                "core/sampler.py": """
                import numpy as np
                def draw(n):
                    rng = np.random.default_rng()
                    return rng.random(n)
                """,
            },
            select=["RPL013"],
        )
        assert result.violations == []


class TestRPL014RegistryConsistency:
    def test_flags_unregistered_fault_point(self, tmp_path):
        result = lint_tree(
            tmp_path,
            {
                "resilience/faults.py": """
                FAULT_POINTS = {"shard_read": "reads"}
                def maybe_inject(point, **detail): ...
                """,
                "grid/reader.py": """
                from repro.resilience.faults import maybe_inject
                def read(path):
                    maybe_inject("shard_raed")
                """,
            },
            select=["RPL014"],
        )
        assert codes(result.violations) == ["RPL014"]
        assert "'shard_raed'" in result.violations[0].message

    def test_registered_fault_point_is_clean(self, tmp_path):
        result = lint_tree(
            tmp_path,
            {
                "resilience/faults.py": """
                FAULT_POINTS = {"shard_read": "reads"}
                def maybe_inject(point, **detail): ...
                """,
                "grid/reader.py": """
                from repro.resilience.faults import maybe_inject
                def read(path):
                    maybe_inject("shard_read")
                """,
            },
            select=["RPL014"],
        )
        assert result.violations == []

    def test_flags_unknown_backend_and_kernel_names(self, tmp_path):
        result = lint_tree(
            tmp_path,
            {
                "grid/backends.py": """
                def register_kernel(name, fn): ...
                def register_backend(spec): ...
                def get_backend(name): ...
                def resolve_kernel(name): ...
                register_kernel("numpy", sum)
                """,
                "cli.py": """
                from repro.grid.backends import get_backend, resolve_kernel
                def pick():
                    resolve_kernel("numpy")
                    get_backend("natve")
                """,
            },
            select=["RPL014"],
        )
        assert codes(result.violations) == ["RPL014"]
        assert "backend 'natve'" in result.violations[0].message

    def test_registered_but_unused_is_not_flagged(self, tmp_path):
        """Registries exist to serve names the core never mentions."""
        result = lint_tree(
            tmp_path,
            {
                "resilience/faults.py": """
                FAULT_POINTS = {"shard_read": "reads", "spare_point": "x"}
                def maybe_inject(point, **detail): ...
                """,
                "grid/reader.py": """
                from repro.resilience.faults import maybe_inject
                def read(path):
                    maybe_inject("shard_read")
                """,
            },
            select=["RPL014"],
        )
        assert result.violations == []


class TestProjectRulePragmas:
    def test_line_pragma_suppresses_project_rule(self, tmp_path):
        result = lint_tree(
            tmp_path,
            {
                "resilience/faults.py": """
                FAULT_POINTS = {"shard_read": "reads"}
                def maybe_inject(point, **detail): ...
                """,
                "grid/reader.py": """
                from repro.resilience.faults import maybe_inject
                def read(path):
                    maybe_inject("nope")  # repro-lint: disable=RPL014
                """,
            },
            select=["RPL014"],
        )
        assert result.violations == []
        assert result.suppressed == 1
