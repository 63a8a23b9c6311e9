"""The lint runner: parse, scope, check, suppress, report.

The pass is file-oriented: each ``.py`` file is parsed once and every
rule whose scope matches the file's package-relative path runs over the
AST.  Reports come in two shapes — human text (one line per finding plus
the fix hint) and JSON (``--format json``), the latter uploaded as a CI
artifact.

Per-line suppression uses the ``# repro: noqa`` pragma::

    busy.pop(0)              # repro: noqa: RA001  -- measured: N <= 4 here
    t = now % tau            # repro: noqa         -- suppresses every rule

A bare pragma silences all rules on that line; listing IDs silences only
those.  A pragma naming an ID no engine can report (a typo'd
``RA0001``, a retired rule) is itself a finding — ``RA010`` — because a
suppression that suppresses nothing is a latent bug that resurfaces the
moment someone "fixes" the typo.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from .audit import AUDIT_CHECK_IDS
from .rules import ALL_RULES, LintContext, Rule, Violation

__all__ = ["KNOWN_RULE_IDS", "LintReport", "lint_paths", "lint_source", "module_path"]

#: matches ``# repro: noqa`` with an optional rule list
_NOQA = re.compile(
    r"#\s*repro:\s*noqa(?:\s*[:,]?\s*(?P<rules>[A-Z]{2}\d{3}(?:\s*,\s*[A-Z]{2}\d{3})*))?",
)

#: every RA id some engine can report: the lint rules themselves, the
#: runner's own RA000 (syntax) and RA010 (bad pragma), and the
#: structural audit checks
KNOWN_RULE_IDS: frozenset[str] = (
    frozenset(rule.id for rule in ALL_RULES) | {"RA000", "RA010"} | AUDIT_CHECK_IDS
)

#: directories never linted when walking a tree
_SKIP_DIRS = frozenset({"__pycache__", ".git", "build", "dist"})


@dataclass(slots=True)
class LintReport:
    """Outcome of one lint run over a set of files."""

    violations: list[Violation] = field(default_factory=list)
    files_checked: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_text(self) -> str:
        if not self.violations:
            return f"lint: {self.files_checked} file(s) clean"
        lines = []
        for v in self.violations:
            lines.append(str(v))
            lines.append(f"    hint: {v.hint}")
        lines.append(f"lint: {len(self.violations)} violation(s) in {self.files_checked} file(s)")
        return "\n".join(lines)

    def to_json(self) -> dict[str, object]:
        return {
            "files_checked": self.files_checked,
            "violations": [v.to_dict() for v in self.violations],
            "ok": self.ok,
        }


def module_path(path: str | Path) -> str:
    """Normalize ``path`` to the package-relative form rules scope on.

    The segment after the last ``repro`` path component is used, so
    ``src/repro/core/calendar.py`` and an installed
    ``…/site-packages/repro/core/calendar.py`` both scope as
    ``core/calendar.py``.  Paths outside the package keep their file
    name, which leaves them in the all-modules scope only.
    """
    parts = Path(path).parts
    for i in range(len(parts) - 1, -1, -1):
        if parts[i] == "repro" and i + 1 < len(parts):
            return "/".join(parts[i + 1 :])
    return Path(path).name


def _suppressed_lines(source: str) -> dict[int, frozenset[str] | None]:
    """Per-line suppressions: ``None`` means all rules, else the listed IDs."""
    table: dict[int, frozenset[str] | None] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _NOQA.search(line)
        if match is None:
            continue
        rules = match.group("rules")
        if rules is None:
            table[lineno] = None
        else:
            table[lineno] = frozenset(r.strip() for r in rules.split(","))
    return table


def _pragma_violations(source: str, path: str) -> list[Violation]:
    """RA010: noqa pragmas naming rule IDs nothing can ever report."""
    found: list[Violation] = []
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _NOQA.search(line)
        if match is None or match.group("rules") is None:
            continue
        unknown = sorted(
            r.strip()
            for r in match.group("rules").split(",")
            if r.strip() not in KNOWN_RULE_IDS
        )
        if unknown:
            found.append(
                Violation(
                    rule_id="RA010",
                    path=path,
                    line=lineno,
                    col=match.start(),
                    message=(
                        f"noqa pragma names unknown rule id(s) "
                        f"{', '.join(unknown)} — it suppresses nothing"
                    ),
                    hint=(
                        "use an existing RA id (see docs/analysis.md) or drop "
                        "the pragma; a bare '# repro: noqa' suppresses all rules"
                    ),
                )
            )
    return found


def lint_source(
    source: str,
    path: str = "<string>",
    module: str | None = None,
    rules: Sequence[Rule] = ALL_RULES,
) -> list[Violation]:
    """Lint one module's source text.

    ``module`` overrides the scoping path (tests lint fixture text as if
    it lived at, say, ``core/fixture.py``); by default it is derived from
    ``path``.
    """
    scope = module if module is not None else module_path(path)
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [
            Violation(
                rule_id="RA000",
                path=path,
                line=exc.lineno or 0,
                col=exc.offset or 0,
                message=f"syntax error: {exc.msg}",
                hint="fix the syntax error; nothing else can be checked",
            )
        ]
    ctx = LintContext(path=path, module=scope, tree=tree, source=source)
    suppressed = _suppressed_lines(source)
    found: list[Violation] = []
    seen: set[tuple[str, int, int, str]] = set()

    def admit(violation: Violation) -> None:
        key = (violation.rule_id, violation.line, violation.col, violation.message)
        if key in seen:
            return
        seen.add(key)
        if violation.line in suppressed:
            pragma = suppressed[violation.line]
            if pragma is None or violation.rule_id in pragma:
                return
        found.append(violation)

    for rule in rules:
        if not rule.applies_to(scope):
            continue
        for violation in rule.check(ctx):
            admit(violation)
    for violation in _pragma_violations(source, path):
        admit(violation)
    found.sort(key=lambda v: (v.path, v.line, v.col, v.rule_id))
    return found


def _iter_files(paths: Iterable[str | Path]) -> list[Path]:
    files: list[Path] = []
    for entry in paths:
        p = Path(entry)
        if p.is_dir():
            for sub in sorted(p.rglob("*.py")):
                if any(part in _SKIP_DIRS or part.endswith(".egg-info") for part in sub.parts):
                    continue
                files.append(sub)
        else:
            files.append(p)
    return files


def lint_paths(
    paths: Iterable[str | Path], rules: Sequence[Rule] = ALL_RULES
) -> LintReport:
    """Lint every ``.py`` file under ``paths`` (files or directories)."""
    report = LintReport()
    for file in _iter_files(paths):
        source = file.read_text(encoding="utf-8")
        report.files_checked += 1
        report.violations.extend(lint_source(source, path=str(file), rules=rules))
    return report
