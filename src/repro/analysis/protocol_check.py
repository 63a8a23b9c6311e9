"""Wire-protocol conformance checking: RA205 and RA206.

The client/follower wire vocabulary lives in one declarative
registry (:data:`repro.service.protocol.REGISTRY`).  This module
cross-checks the *code* against that registry, both directions:

* **RA205 — send sites.**  Every literal ``{"op": ...}`` dict
  constructed anywhere in ``service/``, ``gateway/`` or ``cli.py`` is a
  message somebody will put on the wire (the packages are scanned
  whole — a hand-kept module list goes stale the day a new sender is
  added).  The op must be registered, required
  fields must be present (unless a ``**`` splat may supply them),
  literal field values must have the spec'd JSON type, and no field
  may be unknown to the spec.  Dicts carrying a
  literal ``ok`` key are *responses* (they echo the op, their payload
  schema is the handler's business) and only get the op-is-known check.

* **RA206 — exhaustiveness.**  Registry and handler tables must agree
  both ways, per role: every registered public op has a server
  ``_actor_apply_<op>`` method and vice versa; every registered
  follower op has a ``_ctl_<op>`` method in ``gateway/follower.py``
  and vice versa; and every
  :class:`~repro.errors.ErrorCode` member (except ``OK``) is carried on
  the wire by some ``ReproError`` subclass' ``code`` attribute.

Like the structural audit engine, the checker ships an ``--inject``
self-test registry (:data:`PROTOCOL_INJECTIONS`): each injection
deliberately drifts the model — drop a required field, unregister an
op, delete a handler — and the check must fail with the expected rule,
proving the detector would catch the real bug class.

Per-line suppression uses the same ``# repro: noqa: RA205`` pragma as
the lint pass.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable

from ..service.protocol import FIELD_TYPES, OpSpec, REGISTRY
from .rules.base import Violation

__all__ = [
    "PROTOCOL_INJECTIONS",
    "ProtocolModel",
    "ProtocolReport",
    "collect_model",
    "run_protocol_check",
    "scan_send_sites",
    "send_site_files",
]

_HINT_205 = (
    "make the send site agree with protocol.REGISTRY: fix the message literal, "
    "or extend the OpSpec (bumping PROTOCOL_VERSION on incompatible changes)"
)
_HINT_206 = (
    "registry and handlers must stay exhaustive both ways: add the missing "
    "_actor_apply_<op> / _ctl_<op> handler or OpSpec entry, or delete the dead "
    "one; map every ErrorCode through a ReproError subclass' `code` attribute"
)


# ----------------------------------------------------------------------
# model collection (parsed once, mutated by injections)
# ----------------------------------------------------------------------


@dataclass(slots=True)
class ProtocolModel:
    """Everything RA205/RA206 compare: the registry and the handler tables."""

    registry: dict[str, OpSpec]
    server_path: str = ""
    server_class_line: int = 1
    server_handlers: dict[str, int] = field(default_factory=dict)  # op -> line
    follower_path: str = ""
    follower_class_line: int = 1
    follower_handlers: dict[str, int] = field(default_factory=dict)
    #: ``False`` when no follower module exists (fixture trees): the
    #: follower half of the exhaustiveness check is skipped then
    follower_present: bool = False
    errors_path: str = ""
    error_codes: dict[str, int] = field(default_factory=dict)  # member -> line
    mapped_codes: set[str] = field(default_factory=set)


def _handler_table(
    tree: ast.Module, prefix: str
) -> tuple[dict[str, int], int]:
    """``(op -> def line)`` for every ``<prefix><op>`` method, plus the
    line of the class that holds the most of them (the handler class)."""
    handlers: dict[str, int] = {}
    best_class_line, best_count = 1, -1
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        count = 0
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if item.name.startswith(prefix) and len(item.name) > len(prefix):
                    handlers[item.name[len(prefix):]] = item.lineno
                    count += 1
        if count > best_count:
            best_class_line, best_count = node.lineno, count
    return handlers, best_class_line


def _error_tables(tree: ast.Module) -> tuple[dict[str, int], set[str]]:
    """ErrorCode members (name -> line) and the codes exceptions carry."""
    members: dict[str, int] = {}
    mapped: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == "ErrorCode":
            for item in node.body:
                if isinstance(item, ast.Assign):
                    for target in item.targets:
                        if isinstance(target, ast.Name) and target.id.isupper():
                            members[target.id] = item.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            # ``code = ErrorCode.X`` (plain or annotated) in an exception body
            value = node.value
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            if (
                isinstance(value, ast.Attribute)
                and isinstance(value.value, ast.Name)
                and value.value.id == "ErrorCode"
                and any(isinstance(t, ast.Name) and t.id == "code" for t in targets)
            ):
                mapped.add(value.attr)
    return members, mapped


def collect_model(
    service_dir: str | Path | None = None,
    errors_path: str | Path | None = None,
    registry: dict[str, OpSpec] | None = None,
) -> ProtocolModel:
    """Parse the handler/error tables the exhaustiveness check compares.

    Defaults resolve against the imported ``repro`` package, so the
    check always analyses the same code it would execute; tests point
    ``service_dir``/``errors_path`` at drifted fixture trees instead.
    """
    if service_dir is None:
        from .. import service

        service_dir = Path(service.__file__).resolve().parent
    service_dir = Path(service_dir)
    if errors_path is None:
        from .. import errors

        errors_path = Path(errors.__file__).resolve()
    errors_path = Path(errors_path)

    model = ProtocolModel(registry=dict(registry if registry is not None else REGISTRY))

    server_file = service_dir / "server.py"
    model.server_path = str(server_file)
    server_tree = ast.parse(server_file.read_text(encoding="utf-8"), filename=str(server_file))
    model.server_handlers, model.server_class_line = _handler_table(
        server_tree, "_actor_apply_"
    )

    follower_file = service_dir.parent / "gateway" / "follower.py"
    model.follower_path = str(follower_file)
    if follower_file.exists():
        model.follower_present = True
        follower_tree = ast.parse(
            follower_file.read_text(encoding="utf-8"), filename=str(follower_file)
        )
        model.follower_handlers, model.follower_class_line = _handler_table(
            follower_tree, "_ctl_"
        )

    model.errors_path = str(errors_path)
    errors_tree = ast.parse(errors_path.read_text(encoding="utf-8"), filename=str(errors_path))
    model.error_codes, model.mapped_codes = _error_tables(errors_tree)
    return model


# ----------------------------------------------------------------------
# RA205: send sites
# ----------------------------------------------------------------------


def send_site_files(service_dir: str | Path) -> list[Path]:
    """The modules RA205 reads: all of ``service/`` and the sibling
    ``gateway/``, plus ``cli.py`` (whatever of those exists — fixture
    trees carry only a service directory)."""
    package = Path(service_dir).parent
    files = sorted(Path(service_dir).glob("*.py"))
    files += sorted((package / "gateway").glob("*.py"))
    files += package.glob("cli.py")  # a glob, so absent means none
    return files


def _literal_type_ok(node: ast.expr, tag: str) -> bool | None:
    """Whether a literal AST value satisfies a spec type tag.

    ``None`` means the value is not a checkable literal (a name, a call,
    a comprehension — the runtime validator owns those).
    """
    if isinstance(node, ast.Constant):
        value = node.value
        if value is None or isinstance(value, bool):
            return False  # specs never accept null/bool for typed fields
        return isinstance(value, FIELD_TYPES[tag])
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        return _literal_type_ok(node.operand, tag)
    if isinstance(node, (ast.List, ast.ListComp)):
        return tag == "list"
    if isinstance(node, (ast.Dict, ast.DictComp)):
        return tag == "dict"
    return None


def scan_send_sites(
    source: str,
    path: str = "<string>",
    registry: dict[str, OpSpec] | None = None,
) -> list[Violation]:
    """RA205 over one module's source: literal message dicts vs the registry."""
    specs = registry if registry is not None else REGISTRY
    tree = ast.parse(source, filename=path)
    violations: list[Violation] = []

    def emit(node: ast.AST, message: str) -> None:
        violations.append(
            Violation(
                rule_id="RA205",
                path=path,
                line=getattr(node, "lineno", 0),
                col=getattr(node, "col_offset", 0),
                message=message,
                hint=_HINT_205,
            )
        )

    for node in ast.walk(tree):
        if not isinstance(node, ast.Dict):
            continue
        literal_keys: dict[str, ast.expr] = {}
        has_splat = False
        for key, value in zip(node.keys, node.values):
            if key is None:
                has_splat = True
            elif isinstance(key, ast.Constant) and isinstance(key.value, str):
                literal_keys[key.value] = value
        op_node = literal_keys.get("op")
        if op_node is None or not (
            isinstance(op_node, ast.Constant) and isinstance(op_node.value, str)
        ):
            continue  # not a literal message construction
        op = op_node.value
        spec = specs.get(op)
        if spec is None:
            emit(node, f"message constructs unknown op {op!r} (not in protocol.REGISTRY)")
            continue
        if "ok" in literal_keys:
            continue  # a response: echoes the op, payload schema is the handler's
        required = dict(spec.required)
        optional = dict(spec.optional)
        allowed = spec.field_names | {"op", "seq"}
        for name in literal_keys:
            if name not in allowed:
                emit(
                    node,
                    f"{op}: field {name!r} is not in the OpSpec "
                    f"(known fields: {', '.join(sorted(allowed - {'op', 'seq'})) or 'none'})",
                )
        if not has_splat:
            for name in required:
                if name not in literal_keys:
                    emit(node, f"{op}: required field {name!r} missing at this send site")
        for name, value in literal_keys.items():
            tag = required.get(name) or optional.get(name)
            if tag is None:
                continue
            verdict = _literal_type_ok(value, tag)
            if verdict is False:
                emit(
                    node,
                    f"{op}: literal value for field {name!r} is not of wire type "
                    f"{tag!r}",
                )
    return violations


# ----------------------------------------------------------------------
# RA206: exhaustiveness
# ----------------------------------------------------------------------


def _exhaustiveness(model: ProtocolModel) -> list[Violation]:
    violations: list[Violation] = []

    def emit(path: str, line: int, message: str) -> None:
        violations.append(
            Violation(
                rule_id="RA206",
                path=path,
                line=line,
                col=0,
                message=message,
                hint=_HINT_206,
            )
        )

    public = {name for name, spec in model.registry.items() if spec.role == "public"}
    follower = {name for name, spec in model.registry.items() if spec.role == "follower"}

    for op in sorted(public - set(model.server_handlers)):
        emit(
            model.server_path,
            model.server_class_line,
            f"registered op {op!r} has no _actor_apply_{op} handler",
        )
    for op in sorted(set(model.server_handlers) - public):
        emit(
            model.server_path,
            model.server_handlers[op],
            f"handler _actor_apply_{op} serves an op missing from protocol.REGISTRY",
        )
    if model.follower_present:
        for op in sorted(follower - set(model.follower_handlers)):
            emit(
                model.follower_path,
                model.follower_class_line,
                f"registered follower op {op!r} has no _ctl_{op} handler",
            )
        for op in sorted(set(model.follower_handlers) - follower):
            emit(
                model.follower_path,
                model.follower_handlers[op],
                f"handler _ctl_{op} serves an op missing from protocol.REGISTRY",
            )
    for code in sorted(set(model.error_codes) - model.mapped_codes - {"OK"}):
        emit(
            model.errors_path,
            model.error_codes[code],
            f"ErrorCode.{code} is constructed but no ReproError subclass carries "
            f"it on the wire",
        )
    return violations


# ----------------------------------------------------------------------
# injections (self-test, mirroring the audit engine's CORRUPTIONS)
# ----------------------------------------------------------------------


def _inject_drop_field(model: ProtocolModel) -> str:
    spec = model.registry["reserve"]
    model.registry["reserve"] = replace(
        spec, required=tuple(f for f in spec.required if f[0] != "rid")
    )
    return "dropped required field 'rid' from the reserve OpSpec"


def _inject_unknown_op(model: ProtocolModel) -> str:
    del model.registry["probe"]
    return "unregistered op 'probe' (its handler and send sites remain)"


def _inject_drop_handler(model: ProtocolModel) -> str:
    model.server_handlers.pop("cancel", None)
    return "removed the server's _actor_apply_cancel handler from the model"


def _inject_drop_follower_handler(model: ProtocolModel) -> str:
    model.follower_present = True
    model.follower_handlers.pop("promote", None)
    return "removed the follower's _ctl_promote handler from the model"


#: injection name -> (mutator, rule id the check must then report)
PROTOCOL_INJECTIONS: dict[str, tuple[Callable[[ProtocolModel], str], str]] = {
    "drop-field": (_inject_drop_field, "RA205"),
    "unknown-op": (_inject_unknown_op, "RA206"),
    "drop-handler": (_inject_drop_handler, "RA206"),
    "drop-follower-handler": (_inject_drop_follower_handler, "RA206"),
}


# ----------------------------------------------------------------------
# runner
# ----------------------------------------------------------------------


@dataclass(slots=True)
class ProtocolReport:
    """Outcome of one protocol-conformance run."""

    violations: list[Violation] = field(default_factory=list)
    files_checked: int = 0
    injected: dict[str, Any] | None = None

    @property
    def ok(self) -> bool:
        return not self.violations and self.injected is None

    def to_json(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "files_checked": self.files_checked,
            "violations": [v.to_dict() for v in self.violations],
            "ok": self.ok,
        }
        if self.injected is not None:
            out["injected"] = self.injected
        return out

    def to_text(self) -> str:
        lines: list[str] = []
        if self.injected is not None:
            lines.append(
                f"protocol: injected drift ({self.injected['kind']}): "
                f"{self.injected['description']}"
            )
        for v in self.violations:
            lines.append(str(v))
            lines.append(f"    hint: {v.hint}")
        if self.injected is not None:
            caught = self.injected["caught"]
            lines.append(
                f"protocol: drift {'caught' if caught else 'MISSED'} "
                f"(expected {self.injected['expected']})"
            )
        elif not self.violations:
            lines.append(
                f"protocol: {self.files_checked} file(s) conform to the registry"
            )
        else:
            lines.append(
                f"protocol: {len(self.violations)} violation(s) in "
                f"{self.files_checked} file(s)"
            )
        return "\n".join(lines)


def run_protocol_check(
    service_dir: str | Path | None = None,
    errors_path: str | Path | None = None,
    inject: str | None = None,
) -> ProtocolReport:
    """RA205 + RA206 over the service package (or a fixture tree).

    With ``inject``, the model is deliberately drifted first and the
    report records whether the expected rule caught it; an injected run
    never reports ``ok`` (the CLI always exits non-zero on it).
    """
    from .lint import _suppressed_lines

    model = collect_model(service_dir=service_dir, errors_path=errors_path)
    injected: dict[str, Any] | None = None
    if inject is not None:
        mutate, expected = PROTOCOL_INJECTIONS[inject]
        description = mutate(model)
        injected = {"kind": inject, "description": description, "expected": expected}

    report = ProtocolReport(injected=injected)
    for module_file in send_site_files(Path(model.server_path).parent):
        source = module_file.read_text(encoding="utf-8")
        report.files_checked += 1
        suppressed = _suppressed_lines(source)
        for violation in scan_send_sites(
            source, path=str(module_file), registry=model.registry
        ):
            pragma = suppressed.get(violation.line, "missing")
            if pragma is None or (
                isinstance(pragma, frozenset) and violation.rule_id in pragma
            ):
                continue
            report.violations.append(violation)
    report.files_checked += 1  # errors.py
    report.violations.extend(_exhaustiveness(model))
    report.violations.sort(key=lambda v: (v.path, v.line, v.col, v.rule_id))
    if injected is not None:
        injected["caught"] = any(
            v.rule_id == injected["expected"] for v in report.violations
        )
    return report
