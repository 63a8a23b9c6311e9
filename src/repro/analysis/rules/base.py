"""Rule framework for the domain lint pass.

A :class:`Rule` inspects one module's AST and yields violations.  Rules
are *scoped*: each decides from the module's package-relative path (e.g.
``core/calendar.py``) whether it applies at all, which is what makes the
pass domain-aware — float-time arithmetic is forbidden in slot code but
fine in a plotting script.

Scope vocabulary (paths are POSIX-style, relative to the ``repro``
package root):

* *hot path* — ``core/`` and ``sim/replay.py``: the modules the
  trace-replay benchmark times, where an accidental ``O(N)`` list shift
  or an in-loop sort silently destroys the paper's ``O((log N)^2)``
  bounds.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterator

__all__ = [
    "LintContext",
    "Rule",
    "Violation",
    "in_hot_path",
]


@dataclass(frozen=True, slots=True)
class Violation:
    """One lint finding, locatable and machine-readable."""

    rule_id: str
    path: str
    line: int
    col: int
    message: str
    hint: str

    def to_dict(self) -> dict[str, object]:
        return {
            "rule": self.rule_id,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "hint": self.hint,
        }

    def __str__(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule_id} {self.message}"


@dataclass(frozen=True, slots=True)
class LintContext:
    """Everything a rule needs to inspect one module."""

    #: path as reported in violations (what the user passed in)
    path: str
    #: normalized package-relative module path used for scoping
    module: str
    tree: ast.Module
    source: str


class Rule:
    """Base class: subclasses set the metadata and implement :meth:`check`."""

    #: stable identifier, ``RA001`` …; used in reports and ``noqa`` pragmas
    id: str = ""
    #: one-line summary of what the rule forbids
    title: str = ""
    #: how to fix a violation (shown next to every finding)
    hint: str = ""

    def applies_to(self, module: str) -> bool:
        """Whether the rule runs on the module at ``module`` (relative path)."""
        return True

    def check(self, ctx: LintContext) -> Iterator[Violation]:
        raise NotImplementedError

    def violation(self, ctx: LintContext, node: ast.AST, message: str) -> Violation:
        return Violation(
            rule_id=self.id,
            path=ctx.path,
            line=getattr(node, "lineno", 0),
            col=getattr(node, "col_offset", 0),
            message=message,
            hint=self.hint,
        )


def in_hot_path(module: str) -> bool:
    """Modules whose per-operation cost the replay benchmark guards."""
    return module.startswith("core/") or module == "sim/replay.py"
