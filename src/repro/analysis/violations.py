"""The lint data model: one :class:`Violation` per broken invariant.

A violation identifies *what* rule fired (``code``), *where*
(normalized path, line, column, enclosing ``qualname``) and *why*
(``message``).  The baseline matches violations by their
:meth:`Violation.key` — deliberately line-number-free so grandfathered
entries survive unrelated edits that shift code up or down a file.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Violation"]


@dataclass(frozen=True, order=True)
class Violation:
    """One rule firing at one source location.

    Attributes
    ----------
    path:
        Normalized posix-style path (``repro/grid/counter.py`` for
        library files, walk-root-relative otherwise).
    line / column:
        1-based line and 0-based column of the offending node.
    code:
        The rule's ``RPLxxx`` identifier.
    message:
        Human-readable description.  Messages are stable (they never
        embed line numbers) because they participate in baseline keys.
    qualname:
        Dotted enclosing scope (``ClassName.method``), or ``"<module>"``
        for module-level code.
    """

    path: str
    line: int
    column: int
    code: str
    message: str
    qualname: str = "<module>"

    def key(self) -> tuple[str, str, str, str]:
        """Line-free identity used for baseline matching."""
        return (self.code, self.path, self.qualname, self.message)

    def to_json(self) -> dict[str, object]:
        """JSON-reporter record (schema locked by the framework tests)."""
        return {
            "code": self.code,
            "path": self.path,
            "line": self.line,
            "column": self.column,
            "qualname": self.qualname,
            "message": self.message,
        }

    def render(self) -> str:
        """``path:line:col: CODE message`` — the human reporter's line."""
        return f"{self.path}:{self.line}:{self.column}: {self.code} {self.message}"
