"""Structural guards over the source tree: counts and names, not clocks."""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: the compact separators every wire line, HTTP body and snapshot uses
WIRE_SEPARATORS = (",", ":")


def wire_dumps_calls(source: str) -> list[int]:
    """Lines of ``source`` calling ``json.dumps`` with the wire separators.

    Such a call is a second copy of ``protocol.WIRE_ENCODER``'s settings:
    it can drift from the wire format, and it builds an encoder per call.
    """
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name != "dumps":
            continue
        for keyword in node.keywords:
            if keyword.arg != "separators":
                continue
            try:
                separators = ast.literal_eval(keyword.value)
            except ValueError:
                continue
            if tuple(separators) == WIRE_SEPARATORS:
                lines.append(node.lineno)
    return lines


class TestOneEncoder:
    """Every wire line, HTTP body and snapshot is encoded by ``protocol.WIRE_ENCODER``."""

    def test_no_wire_dumps_outside_the_protocol_module(self):
        offenders = {
            str(path.relative_to(SRC)): found
            for package in ("service", "gateway")
            for path in sorted((SRC / package).glob("*.py"))
            if path.name != "protocol.py"
            if (found := wire_dumps_calls(path.read_text(encoding="utf-8")))
        }
        assert offenders == {}

    def test_a_json_body_with_its_own_dumps_is_caught(self):
        source = (SRC / "gateway" / "http.py").read_text(encoding="utf-8")
        shared = 'return WIRE_ENCODER.encode(payload).encode("utf-8")'
        assert source.count(shared) == 1
        mutant = source.replace(
            shared,
            "return json.dumps(\n"
            '        payload, separators=(",", ":"), sort_keys=True, allow_nan=False\n'
            '    ).encode("utf-8")',
        )
        assert len(wire_dumps_calls(mutant)) == 1
