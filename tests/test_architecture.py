"""Structural guards over the source tree: counts and names, not clocks."""

from __future__ import annotations

import ast
import shutil
import subprocess
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


# ----------------------------------------------------------------------
# source-tree predicates, run as CI's shell ran them, over this tree or a
# mutated copy
# ----------------------------------------------------------------------

ROOT = SRC.parents[1]


def run_predicate(script: str, root: Path) -> subprocess.CompletedProcess:
    """``script`` in bash, from ``root``, with the options a CI step runs under."""
    return subprocess.run(
        ["bash", "--noprofile", "--norc", "-eo", "pipefail", "-c", script],
        cwd=root,
        capture_output=True,
        text=True,
    )


def mutated_copy(tmp_path: Path, relative: str, line: str) -> Path:
    """A copy of ``src/repro`` under ``tmp_path`` with ``line`` appended to ``relative``."""
    shutil.copytree(SRC, tmp_path / "src" / "repro", ignore=shutil.ignore_patterns("__pycache__"))
    target = tmp_path / "src" / "repro" / relative
    target.write_text(target.read_text(encoding="utf-8") + line, encoding="utf-8")
    return tmp_path


#: the request/reply exchange was once written out five times in src/ and
#: the copies drifted on torn replies, cancellation and read limits
#: (DESIGN.md §10); another open_connection( outside the client is a
#: sixth copy. verify/chaos.py and benchmarks/stack keep their own
#: *blocking* clients on purpose and do not match.
ONE_CLIENT = """
sites=$(grep -rln "open_connection(" src/repro)
echo "$sites"
test "$sites" = "src/repro/service/client.py"
"""

#: behaviour is chosen by a CLI flag or a constructor argument that tests
#: can see (DESIGN.md §19); an environment variable read inside the
#: package is a setting no caller passes and no test pins. verify/chaos.py
#: only copies the environment for the server subprocesses it starts.
NO_ENVIRONMENT_SWITCHES = """
sites=$(grep -rlE --include='*.py' 'os\\.environ|getenv' src/repro)
echo "$sites"
test "$sites" = "src/repro/verify/chaos.py"
"""


class TestOneClient:
    """Every NDJSON exchange goes through ``service/client.py``."""

    def test_only_the_client_opens_a_connection(self):
        result = run_predicate(ONE_CLIENT, ROOT)
        assert result.returncode == 0, result.stdout + result.stderr

    def test_a_second_open_connection_is_caught(self, tmp_path):
        root = mutated_copy(
            tmp_path,
            "gateway/app.py",
            "\n\nasync def _dial(host, port):\n"
            "    return await asyncio.open_connection(host, port)\n",
        )
        result = run_predicate(ONE_CLIENT, root)
        assert result.returncode != 0
        assert "src/repro/gateway/app.py" in result.stdout


class TestNoEnvironmentSwitches:
    """Every setting is an argument."""

    def test_only_chaos_reads_the_environment(self):
        result = run_predicate(NO_ENVIRONMENT_SWITCHES, ROOT)
        assert result.returncode == 0, result.stdout + result.stderr

    def test_an_environment_read_in_the_server_is_caught(self, tmp_path):
        root = mutated_copy(
            tmp_path,
            "service/server.py",
            '\n\nimport os\n\nLOG_SEGMENT_BYTES = int(os.environ.get("SEGMENT", LOG_SEGMENT_BYTES))\n',
        )
        result = run_predicate(NO_ENVIRONMENT_SWITCHES, root)
        assert result.returncode != 0
        assert "src/repro/service/server.py" in result.stdout
