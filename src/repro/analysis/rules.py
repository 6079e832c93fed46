"""The project-invariant rules (RPL001-RPL009).

Each rule is an AST pass over one module that yields
:class:`~.violations.Violation` records.  The invariants themselves
are documented in ``docs/determinism.md``; in one line each:

========  ============================================================
RPL001    no module-level / unseeded RNG — randomness flows from a
          seeded ``Generator`` (``RunContext.rng`` / ``random_state``)
RPL002    no wall-clock reads outside the budget/telemetry modules
RPL003    no direct file writes — persistence goes through
          ``repro._atomic``
RPL004    core/CLI resolve engines via the registry, never by class
RPL005    ``emit()`` only with registered event types
RPL006    no process pools — counting runs in-process
RPL007    no float ``==`` in sparsity/statistics math
RPL008    no mutable default arguments in public APIs
RPL009    no broad ``except Exception`` / bare ``except`` outside the
          resilience layer — catch-all recovery is the degradation
          ladder's job (cleanup-and-reraise handlers are exempt)
========  ============================================================

Rules are deliberately *syntactic*: they see one file at a time, no
type inference, no cross-module resolution.  That keeps them fast and
predictable; the escape hatches (``# repro-lint: disable=...`` pragmas
and the baseline file) absorb the residual false positives.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from typing import Protocol, runtime_checkable

from .config import LintConfig
from .sources import ModuleSource
from .violations import Violation

__all__ = ["Rule", "RuleVisitor", "ALL_RULES", "rules_by_code"]


@runtime_checkable
class Rule(Protocol):
    """What the runner needs from a rule implementation."""

    code: str
    name: str
    description: str

    def check(
        self, module: ModuleSource, config: LintConfig
    ) -> Iterator[Violation]: ...


def _dotted(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class _Imports:
    """Names each module binds to the modules the rules care about."""

    def __init__(self, tree: ast.Module) -> None:
        self.module_aliases: dict[str, str] = {}  # local name -> module path
        self.from_imports: dict[str, tuple[str, str]] = {}  # local -> (mod, orig)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else alias.name.split(".")[0]
                    self.module_aliases[local] = target
            elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                for alias in node.names:
                    self.from_imports[alias.asname or alias.name] = (
                        node.module,
                        alias.name,
                    )

    def aliases_of(self, module: str) -> set[str]:
        """Local names bound to *module* via ``import`` statements."""
        return {
            local
            for local, target in self.module_aliases.items()
            if target == module
        }

    def names_from(self, module: str) -> dict[str, str]:
        """Local names bound via ``from module import ...`` -> original."""
        return {
            local: orig
            for local, (mod, orig) in self.from_imports.items()
            if mod == module
        }


class RuleVisitor(ast.NodeVisitor):
    """Scope-tracking visitor base shared by every rule.

    Subclasses call :meth:`report` with the offending node; the base
    class stamps the location and the enclosing dotted qualname.
    """

    code = "RPL000"
    name = "abstract"
    description = ""

    def __init__(self) -> None:
        self._scope: list[str] = []
        self._module: ModuleSource | None = None
        self._config: LintConfig | None = None
        self._found: list[Violation] = []
        self._imports: _Imports = _Imports(ast.parse(""))

    # ------------------------------------------------------------------
    def check(
        self, module: ModuleSource, config: LintConfig
    ) -> Iterator[Violation]:
        self._scope = []
        self._module = module
        self._config = config
        self._found = []
        self._imports = _Imports(module.tree)
        if self._applies(module, config):
            self.visit(module.tree)
        yield from self._found

    def _applies(self, module: ModuleSource, config: LintConfig) -> bool:
        """Override to scope a rule to configured module patterns."""
        return True

    @property
    def config(self) -> LintConfig:
        assert self._config is not None
        return self._config

    @property
    def module(self) -> ModuleSource:
        assert self._module is not None
        return self._module

    def report(self, node: ast.AST, message: str) -> None:
        self._found.append(
            Violation(
                path=self.module.path,
                line=getattr(node, "lineno", 1),
                column=getattr(node, "col_offset", 0),
                code=self.code,
                message=message,
                qualname=".".join(self._scope) or "<module>",
            )
        )

    # ------------------------------------------------------------------
    def _visit_scope(self, node: ast.AST, name: str) -> None:
        self._scope.append(name)
        try:
            self.generic_visit(node)
        finally:
            self._scope.pop()

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._visit_scope(node, node.name)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_scope(node, node.name)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_scope(node, node.name)


# ----------------------------------------------------------------------
class UnseededRngRule(RuleVisitor):
    """RPL001: randomness must flow from a seeded Generator."""

    code = "RPL001"
    name = "no-unseeded-rng"
    description = (
        "module-level numpy.random / stdlib random calls bypass the "
        "seeded-Generator discipline (RunContext.rng / random_state)"
    )

    #: numpy.random attributes that *construct* seeded generators; a
    #: zero-argument call is still flagged (entropy-seeded).
    _SEEDED_CONSTRUCTORS = frozenset(
        {"default_rng", "RandomState", "SeedSequence", "PCG64", "Philox",
         "SFC64", "MT19937"}
    )
    _ALWAYS_OK = frozenset({"Generator", "BitGenerator"})

    def _applies(self, module: ModuleSource, config: LintConfig) -> bool:
        return not module.matches(config.rng_allowed_modules)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "random" and node.level == 0:
            bad = [a.name for a in node.names if a.name not in ("Random",)]
            if bad:
                self.report(
                    node,
                    f"import of stdlib random function(s) {', '.join(sorted(bad))} "
                    "(module-level RNG); use a seeded numpy Generator",
                )
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        dotted = _dotted(node.func)
        if dotted is not None:
            self._check_numpy(node, dotted)
            self._check_stdlib(node, dotted)
        self.generic_visit(node)

    def _check_numpy(self, node: ast.Call, dotted: str) -> None:
        parts = dotted.split(".")
        numpy_aliases = self._imports.aliases_of("numpy")
        random_aliases = self._imports.aliases_of("numpy.random") | {
            local
            for local, orig in self._imports.names_from("numpy").items()
            if orig == "random"
        }
        if len(parts) >= 3 and parts[0] in numpy_aliases and parts[1] == "random":
            attr = parts[2]
        elif len(parts) >= 2 and parts[0] in random_aliases:
            attr = parts[1]
        else:
            return
        if attr in self._ALWAYS_OK:
            return
        if attr in self._SEEDED_CONSTRUCTORS:
            if not node.args and not node.keywords:
                self.report(
                    node,
                    f"unseeded numpy.random.{attr}() (entropy-seeded); "
                    "pass an explicit seed or thread a Generator through",
                )
            return
        self.report(
            node,
            f"module-level numpy.random.{attr}() call; use a seeded "
            "Generator (RunContext.rng / check_rng(random_state))",
        )

    def _check_stdlib(self, node: ast.Call, dotted: str) -> None:
        parts = dotted.split(".")
        if parts[0] not in self._imports.aliases_of("random") or len(parts) < 2:
            return
        attr = parts[1]
        if attr == "Random" and (node.args or node.keywords):
            return  # random.Random(seed): explicitly seeded instance
        self.report(
            node,
            f"stdlib random.{attr}() call (module-level RNG); use a "
            "seeded numpy Generator",
        )


# ----------------------------------------------------------------------
class WallClockRule(RuleVisitor):
    """RPL002: wall-clock reads live in the budget/telemetry layer."""

    code = "RPL002"
    name = "no-wall-clock"
    description = (
        "wall-clock reads outside the budget/telemetry modules break "
        "checkpoint/resume determinism"
    )

    _TIME_FUNCS = frozenset(
        {"time", "time_ns", "perf_counter", "perf_counter_ns", "monotonic",
         "monotonic_ns", "process_time", "process_time_ns"}
    )
    _DATETIME_METHODS = frozenset({"now", "utcnow", "today"})

    def _applies(self, module: ModuleSource, config: LintConfig) -> bool:
        return not module.matches(config.clock_allowed_modules)

    def visit_Call(self, node: ast.Call) -> None:
        dotted = _dotted(node.func)
        if dotted is not None:
            self._check(node, dotted)
        self.generic_visit(node)

    def _check(self, node: ast.Call, dotted: str) -> None:
        parts = dotted.split(".")
        head, tail = parts[0], parts[-1]
        # time.perf_counter() / aliased module
        if (
            len(parts) == 2
            and head in self._imports.aliases_of("time")
            and tail in self._TIME_FUNCS
        ):
            self.report(node, f"wall-clock read time.{tail}()")
            return
        # from time import perf_counter
        if len(parts) == 1:
            origin = self._imports.names_from("time").get(head)
            if origin in self._TIME_FUNCS:
                self.report(node, f"wall-clock read time.{origin}()")
            return
        # datetime.datetime.now() / datetime.date.today()
        if (
            len(parts) == 3
            and head in self._imports.aliases_of("datetime")
            and parts[1] in ("datetime", "date")
            and tail in self._DATETIME_METHODS
        ):
            self.report(node, f"wall-clock read datetime.{parts[1]}.{tail}()")
            return
        # from datetime import datetime/date; datetime.now()
        if len(parts) == 2:
            origin = self._imports.names_from("datetime").get(head)
            if origin in ("datetime", "date") and tail in self._DATETIME_METHODS:
                self.report(node, f"wall-clock read datetime.{origin}.{tail}()")


# ----------------------------------------------------------------------
class NonAtomicWriteRule(RuleVisitor):
    """RPL003: on-disk writes go through ``repro._atomic``."""

    code = "RPL003"
    name = "atomic-writes-only"
    description = (
        "direct file writes can be torn by a crash; route persistence "
        "through repro._atomic"
    )

    _DUMP_FUNCS = {"json.dump", "pickle.dump", "marshal.dump"}
    _NUMPY_SAVERS = frozenset({"save", "savez", "savez_compressed", "savetxt"})

    def _applies(self, module: ModuleSource, config: LintConfig) -> bool:
        return not module.matches(config.write_allowed_modules)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Name) and func.id == "open":
            # builtin open(file, mode=...) — mode is the 2nd positional
            self._check_mode(node, "open()", mode_position=1)
        elif isinstance(func, ast.Attribute) and func.attr == "open":
            # Path.open(mode=...) — mode is the 1st positional
            self._check_mode(node, ".open()", mode_position=0)
        elif isinstance(func, ast.Attribute) and func.attr == "fdopen":
            self._check_mode(node, ".fdopen()", mode_position=1)
        elif isinstance(func, ast.Attribute) and func.attr in (
            "write_text",
            "write_bytes",
        ):
            self.report(
                node,
                f".{func.attr}() writes non-atomically; use repro._atomic "
                "(atomic_write_text / atomic_write_json)",
            )
        dotted = _dotted(func)
        if dotted is not None:
            self._check_dump(node, dotted)
        self.generic_visit(node)

    def _mode_argument(
        self, node: ast.Call, mode_position: int
    ) -> ast.expr | None:
        for keyword in node.keywords:
            if keyword.arg == "mode":
                return keyword.value
        if len(node.args) > mode_position:
            return node.args[mode_position]
        return None

    def _check_mode(self, node: ast.Call, label: str, *, mode_position: int) -> None:
        mode = self._mode_argument(node, mode_position)
        if mode is None:
            return  # default mode "r"
        if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
            if any(flag in mode.value for flag in "wax+"):
                self.report(
                    node,
                    f"{label} with write mode {mode.value!r}; use "
                    "repro._atomic (atomic_writer / atomic_write_text / "
                    "atomic_write_json)",
                )
            return
        self.report(
            node,
            f"{label} with non-literal mode; cannot verify it is "
            "read-only — use repro._atomic for writes",
        )

    def _check_dump(self, node: ast.Call, dotted: str) -> None:
        if dotted in self._DUMP_FUNCS:
            self.report(
                node,
                f"{dotted}() streams to an open handle; serialize first "
                "and write via repro._atomic",
            )
            return
        parts = dotted.split(".")
        if (
            len(parts) == 2
            and parts[0] in self._imports.aliases_of("numpy")
            and parts[1] in self._NUMPY_SAVERS
        ):
            self.report(
                node,
                f"numpy.{parts[1]}() writes directly; write via "
                "repro._atomic (serialize to bytes/text first)",
            )


# ----------------------------------------------------------------------
class RegistryOnlyRule(RuleVisitor):
    """RPL004: core/CLI must resolve engines through the registry."""

    code = "RPL004"
    name = "engines-via-registry"
    description = (
        "direct engine-class construction in core/cli bypasses the "
        "registry's kwarg filtering and plugin surface"
    )

    def _applies(self, module: ModuleSource, config: LintConfig) -> bool:
        return module.matches(config.registry_only_modules)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        bad = sorted(
            alias.name
            for alias in node.names
            if alias.name in self.config.engine_class_names
        )
        if bad:
            self.report(
                node,
                f"import of concrete engine class(es) {', '.join(bad)}; "
                "resolve via repro.engine.create_engine()",
            )
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        dotted = _dotted(node.func)
        if dotted is not None:
            tail = dotted.split(".")[-1]
            if tail in self.config.engine_class_names:
                self.report(
                    node,
                    f"direct {tail}(...) construction; resolve via "
                    "repro.engine.create_engine()",
                )
        self.generic_visit(node)


# ----------------------------------------------------------------------
class RegisteredEventsRule(RuleVisitor):
    """RPL005: ``emit()`` only with registered event types."""

    code = "RPL005"
    name = "registered-events-only"
    description = (
        "emitting an unregistered event type raises ValidationError at "
        "runtime; register_event_type() first"
    )

    def check(
        self, module: ModuleSource, config: LintConfig
    ) -> Iterator[Violation]:
        # Event types registered inside this very file are legal to emit.
        self._locally_registered: set[str] = set()
        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.Call)
                and (dotted := _dotted(node.func)) is not None
                and dotted.split(".")[-1] == "register_event_type"
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)
            ):
                self._locally_registered.add(node.args[0].value)
        yield from super().check(module, config)

    def visit_Call(self, node: ast.Call) -> None:
        event_arg: ast.expr | None = None
        if isinstance(node.func, ast.Attribute) and node.func.attr == "emit":
            if node.args:
                event_arg = node.args[0]
        elif (
            (dotted := _dotted(node.func)) is not None
            and dotted.split(".")[-1] == "emit_event"
            and len(node.args) >= 2
        ):
            event_arg = node.args[1]
        if (
            event_arg is not None
            and isinstance(event_arg, ast.Constant)
            and isinstance(event_arg.value, str)
        ):
            event = event_arg.value
            known = self.config.event_types | self._locally_registered
            if event not in known:
                self.report(
                    node,
                    f"emit of unregistered event type {event!r}; call "
                    "register_event_type() or use one of the built-ins",
                )
        self.generic_visit(node)


# ----------------------------------------------------------------------
class BareParallelismRule(RuleVisitor):
    """RPL006: no process pools outside the configured allow-list."""

    code = "RPL006"
    name = "parallelism-via-grid"
    description = (
        "counting runs in-process; a process pool would need its own "
        "timeouts, retries and serial fallback"
    )

    _MODULES = ("multiprocessing", "concurrent")

    def _applies(self, module: ModuleSource, config: LintConfig) -> bool:
        return not module.matches(config.parallel_allowed_modules)

    def _is_banned(self, module_name: str) -> bool:
        return any(
            module_name == banned or module_name.startswith(banned + ".")
            for banned in self._MODULES
        )

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if self._is_banned(alias.name):
                self.report(
                    node,
                    f"import of {alias.name}; counting runs in-process "
                    "(choose a kernel with CountingBackend instead)",
                )
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module and node.level == 0 and self._is_banned(node.module):
            self.report(
                node,
                f"import from {node.module}; counting runs in-process "
                "(choose a kernel with CountingBackend instead)",
            )
        self.generic_visit(node)


# ----------------------------------------------------------------------
class FloatEqualityRule(RuleVisitor):
    """RPL007: no float ``==`` in sparsity/statistics math."""

    code = "RPL007"
    name = "no-float-equality"
    description = (
        "float equality is representation-dependent; use math.isnan / "
        "math.isclose / an explicit tolerance"
    )

    def _applies(self, module: ModuleSource, config: LintConfig) -> bool:
        return module.matches(config.float_eq_modules)

    def visit_Compare(self, node: ast.Compare) -> None:
        if all(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
            operands = [node.left, *node.comparators]
            for operand in operands:
                if isinstance(operand, ast.Constant) and isinstance(
                    operand.value, float
                ):
                    self.report(
                        node,
                        f"comparison against float literal {operand.value!r}; "
                        "use math.isclose or an explicit tolerance",
                    )
                    break
            else:
                if len(operands) == 2 and ast.dump(operands[0]) == ast.dump(
                    operands[1]
                ):
                    self.report(
                        node,
                        "x == x self-comparison (NaN probe); use "
                        "math.isnan / numpy.isnan",
                    )
        self.generic_visit(node)


# ----------------------------------------------------------------------
class MutableDefaultRule(RuleVisitor):
    """RPL008: no mutable default arguments in public APIs."""

    code = "RPL008"
    name = "no-mutable-defaults"
    description = (
        "mutable defaults are shared across calls; default to None and "
        "construct inside the function"
    )

    _MUTABLE_CALLS = frozenset(
        {"list", "dict", "set", "bytearray", "defaultdict", "OrderedDict",
         "Counter", "deque"}
    )

    def _check_defaults(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        if node.name.startswith("_") or any(
            part.startswith("_") for part in self._scope
        ):
            return
        defaults: list[ast.expr] = list(node.args.defaults)
        defaults += [d for d in node.args.kw_defaults if d is not None]
        for default in defaults:
            if isinstance(default, (ast.List, ast.Dict, ast.Set)):
                self.report(
                    default,
                    f"mutable default argument in public function "
                    f"{node.name}(); use None and construct per call",
                )
            elif isinstance(default, ast.Call):
                dotted = _dotted(default.func)
                if dotted is not None and dotted.split(".")[-1] in self._MUTABLE_CALLS:
                    self.report(
                        default,
                        f"mutable default argument ({dotted}()) in public "
                        f"function {node.name}(); use None and construct "
                        "per call",
                    )

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_defaults(node)
        self._visit_scope(node, node.name)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_defaults(node)
        self._visit_scope(node, node.name)


# ----------------------------------------------------------------------
class BroadExceptRule(RuleVisitor):
    """RPL009: catch-all recovery belongs to the resilience layer."""

    code = "RPL009"
    name = "no-broad-except"
    description = (
        "broad `except Exception` / bare `except` outside the "
        "resilience layer swallows faults the degradation ladder "
        "should see; catch specific exceptions or route recovery "
        "through repro.resilience"
    )

    def _applies(self, module: ModuleSource, config: LintConfig) -> bool:
        return not module.matches(config.broad_except_allowed_modules)

    @staticmethod
    def _broad_name(expr: ast.expr | None) -> str | None:
        """``"Exception"``/``"BaseException"`` when *expr* names one."""
        if expr is None:
            return None
        dotted = _dotted(expr)
        if dotted is not None and dotted.split(".")[-1] in (
            "Exception",
            "BaseException",
        ):
            return dotted
        return None

    @staticmethod
    def _reraises(handler: ast.ExceptHandler) -> bool:
        """Cleanup-and-reraise: the handler's last statement is ``raise``.

        ``except BaseException: unlink(tmp); raise`` narrows nothing —
        the fault still propagates — so it is exempt.
        """
        if not handler.body:
            return False
        last = handler.body[-1]
        return isinstance(last, ast.Raise) and last.exc is None

    def visit_Try(self, node: ast.Try) -> None:
        for handler in node.handlers:
            self._check_handler(handler)
        self.generic_visit(node)

    def _check_handler(self, handler: ast.ExceptHandler) -> None:
        if self._reraises(handler):
            return
        if handler.type is None:
            self.report(
                handler,
                "bare `except:` swallows every fault (including "
                "KeyboardInterrupt); catch specific exceptions or route "
                "recovery through repro.resilience",
            )
            return
        exprs: list[ast.expr] = (
            list(handler.type.elts)
            if isinstance(handler.type, ast.Tuple)
            else [handler.type]
        )
        for expr in exprs:
            broad = self._broad_name(expr)
            if broad is not None:
                self.report(
                    handler,
                    f"broad `except {broad}` outside the resilience "
                    "layer; catch specific exceptions or route recovery "
                    "through repro.resilience (DegradationLadder.guarded)",
                )
                return


# ----------------------------------------------------------------------
ALL_RULES: tuple[type[RuleVisitor], ...] = (
    UnseededRngRule,
    WallClockRule,
    NonAtomicWriteRule,
    RegistryOnlyRule,
    RegisteredEventsRule,
    BareParallelismRule,
    FloatEqualityRule,
    MutableDefaultRule,
    BroadExceptRule,
)


def rules_by_code() -> dict[str, type[RuleVisitor]]:
    """``{"RPL001": UnseededRngRule, ...}`` for ``--select``/``--ignore``."""
    return {rule.code: rule for rule in ALL_RULES}
