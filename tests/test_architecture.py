"""Structural guards over the source tree: counts and names, not clocks."""

from __future__ import annotations

import ast
import os
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


def encoder_constructions(source: str) -> list[int]:
    """Lines of ``source`` that construct a ``JSONEncoder``.

    A second encoder object is a second copy of the wire settings, and
    one built per call also builds its C encoder per call.
    """
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name == "JSONEncoder":
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
            if (
                found := wire_dumps_calls(source := path.read_text(encoding="utf-8"))
                + encoder_constructions(source)
            )
        }
        assert offenders == {}

    def test_a_json_body_with_its_own_encoder_is_caught(self):
        source = (SRC / "gateway" / "http.py").read_text(encoding="utf-8")
        shared = 'return WIRE_ENCODER.encode(payload).encode("utf-8")'
        assert source.count(shared) == 1
        assert encoder_constructions(source) == []
        mutant = source.replace(
            shared,
            "return json.JSONEncoder(\n"
            '        separators=(",", ":"), sort_keys=True, allow_nan=False\n'
            '    ).encode(payload).encode("utf-8")',
        )
        assert len(encoder_constructions(mutant)) == 1
        assert wire_dumps_calls(mutant) == []  # the first predicate alone misses it

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


def run_predicate(
    script: str, root: Path, env: dict[str, str] | None = None
) -> subprocess.CompletedProcess:
    """``script`` in bash, from ``root``, with the options and the extra
    ``env`` a CI step runs under."""
    return subprocess.run(
        ["bash", "--noprofile", "--norc", "-eo", "pipefail", "-c", script],
        cwd=root,
        capture_output=True,
        text=True,
        env={**os.environ, **(env or {})},
    )


#: what the predicates read besides ``src/repro``
TREE = ("tests", "benchmarks", "examples", "setup.py")


def mutated_copy(tmp_path: Path, relative: str, line: str) -> Path:
    """A copy of the source tree under ``tmp_path`` with ``line`` appended
    to ``src/repro/relative``, which is created if it does not exist."""
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copytree(SRC, tmp_path / "src" / "repro", ignore=ignore)
    for name in TREE:
        if (ROOT / name).is_dir():
            shutil.copytree(ROOT / name, tmp_path / name, ignore=ignore)
        else:
            shutil.copy(ROOT / name, tmp_path / name)
    target = tmp_path / "src" / "repro" / relative
    text = target.read_text(encoding="utf-8") if target.exists() else ""
    target.write_text(text + line, encoding="utf-8")
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


# ----------------------------------------------------------------------
# the one-path guards (DESIGN.md §12–§21), moved from CI's inline steps.
# A pattern that greps tests/ is written with a one-letter character
# class (``[r]`` for ``r``): it matches exactly the lines the plain
# pattern matches, except its own text in this file.
# ----------------------------------------------------------------------

#: a bounded idle period cannot end beyond the horizon (DESIGN.md §12),
#: so nothing waits for a slot that rolls in; a pending set coming back
#: is a second rollover path for a case that cannot occur
ONE_ROLLOVER_PATH = r"""
test -z "$(grep -n '_pending' src/repro/core/calendar.py src/repro/analysis/audit.py)"
"""

#: a slot tree is one class in one module over a sorted array and the
#: balanced tree it implies (DESIGN.md §13, §17); a split-off storage or
#: merge module, a second update regime or a balancing constant coming
#: back is the fork those sections removed
ONE_TREE = r"""
for gone in _kernel.py merge.py slot_tree_nodes.py; do
  if test -e "src/repro/core/$gone"; then echo "src/repro/core/$gone is back" >&2; exit 1; fi
done
test -f src/repro/core/slot_tree.py
if grep -nE '_insert_op|_remove_op|_flush_rebuilds|_BULK_DIVISOR|epoch|ALPHA' src/repro/core/slot_tree.py; then exit 1; fi
"""

#: the package has one interpreted build (DESIGN.md §17); a compiled
#: build, an environment switch choosing between builds or a runtime
#: source loader coming back is the second path that section removed
ONE_BUILD = r"""
test -d src/repro/core && test -f src/repro/cli.py && test -f setup.py
if grep -rnE 'mypyc|REPRO_MYPYC|REPRO_PURE_CORE|IS_COMPILED|importlib' src/repro/core src/repro/cli.py setup.py; then exit 1; fi
"""

#: AvailabilityCalendar.allocate splices each server's arrays, the tail
#: index and the slot-tree notes in one pass over its periods (DESIGN.md
#: §15); the per-period _drop_period / _add_period chain coming back into
#: it is the second carve path that section removed. The trusted
#: constructor (types.make_period) skips the emptiness check, so only the
#: calendar, whose carve has proven it, may call it; from_state reads
#: untrusted snapshot input and must keep building through the validating
#: IdlePeriod. An allocation is its servers (DESIGN.md §21): allocate
#: builds no Reservation, and make_reservation is gone. The calendar
#: numbers its own periods (DESIGN.md §16): every period it builds is
#: handed a uid explicitly. A server's period list is its own bisect key
#: (DESIGN.md §29): a parallel _server_keys array coming back is a second
#: copy of every start that each update has to keep in step
ONE_CARVE_PATH = r"""
python - <<'EOF'
import ast, pathlib
def calls(node):
    for n in ast.walk(node):
        if isinstance(n, ast.Call):
            yield n.func.attr if isinstance(n.func, ast.Attribute) else getattr(n.func, "id", None)
module = ast.parse(open("src/repro/core/calendar.py").read())
(cls,) = [n for n in module.body if isinstance(n, ast.ClassDef) and n.name == "AvailabilityCalendar"]
methods = {n.name: n for n in cls.body if isinstance(n, ast.FunctionDef)}
called = set(calls(methods["allocate"]))
chain = sorted(called & {"_drop_period", "_add_period"})
print("allocate calls", sorted(c for c in called if c))
assert not chain, f"allocate carves through {chain} again"
trusted = {"make_period"}
for path in sorted(pathlib.Path("src/repro").rglob("*.py")):
    names = set()
    for n in ast.walk(ast.parse(path.read_text())):
        names.add(getattr(n, "id", None) or getattr(n, "attr", None))
        names.add(getattr(n, "name", None))  # a def or class
        names.update(a.name for a in getattr(n, "names", ()) if isinstance(a, ast.alias))
    assert "make_reservation" not in names, f"{path} brings make_reservation back"
    assert "_server_keys" not in names, f"{path} keeps a _server_keys array again"
    if path.as_posix() == "src/repro/core/types.py":
        continue  # where make_period is defined
    used = trusted & names
    if used:
        print(path, "uses", sorted(used))
        assert path.as_posix() == "src/repro/core/calendar.py", f"{path} builds through {sorted(used)}"
assert "Reservation" not in {getattr(n, "id", None) or getattr(n, "attr", None) for n in ast.walk(module)}, "calendar.py builds a Reservation again"
restore = set(calls(methods["from_state"]))
assert "IdlePeriod" in restore and not restore & trusted, "from_state must validate snapshot periods"
for n in ast.walk(module):
    if isinstance(n, ast.Call) and getattr(n.func, "id", None) in {"IdlePeriod", "make_period"}:
        numbered = len(n.args) == 4 or any(k.arg == "uid" for k in n.keywords)
        assert numbered, f"calendar.py:{n.lineno} builds a period without a uid"
EOF
"""

#: IdlePeriod uids come from the owning AvailabilityCalendar's counter,
#: which its snapshot carries (DESIGN.md §16); a process-global counter
#: coming back brings back its restore floor and the uid handover and
#: rank-mapping it forced
ONE_UID_SOURCE = r"""
test -z "$(grep -rnE '_period_uid[s]|ensure_uid_floo[r]|uid_sourc[e]' src tests benchmarks)"
test -z "$(grep -n 'itertools' src/repro/core/types.py)"
"""

#: verify/oracle.py is the one reference implementation the tests, the
#: differ and the ablation benchmark compare against, and the calendar
#: has one layout (DESIGN.md §18); a linear allocator or a second
#: indexing mode coming back is the second reference that section removed
ONE_REFERENCE = r"""
if test -e src/repro/core/linear.py; then echo "src/repro/core/linear.py is back" >&2; exit 1; fi
test -f src/repro/verify/oracle.py && test -f src/repro/core/calendar.py
if grep -rnE 'LinearScanAllocato[r]|core\.linear|\.dens[e]\b|"dens[e]"|indexin[g](: str|=)' src/repro/core src/repro/analysis/audit.py; then exit 1; fi
if grep -rnE 'LinearScanAllocato[r]|core\.linear|indexin[g]="|\.dens[e]\b' tests benchmarks examples; then exit 1; fi
"""

#: a lint rule stays only if it caught a bug in this repository's code or
#: is the named guard of a design invariant (DESIGN.md §20); the
#: lost-update engine, the determinism rules, the protocol conformance
#: pass (§22) or any other rule coming back into the registry is a rule
#: nothing has shown a use for
LINT_RULES_HAVE_A_CATCH = r"""
for gone in src/repro/analysis/concurrency.py src/repro/analysis/rules/determinism.py src/repro/analysis/protocol_check.py; do
  if test -e "$gone"; then echo "$gone is back" >&2; exit 1; fi
done
python - <<'EOF'
from repro.analysis import ALL_RULES
ids = {rule.id for rule in ALL_RULES}
print("lint rules", sorted(ids))
extra = ids - {"RA001", "RA002", "RA003", "RA008", "RA009", "RA202", "RA204"}
assert not extra, f"rules without a recorded catch: {sorted(extra)}"
EOF
"""

#: the step ran with the package importable from the checkout
LINT_ENV = {"PYTHONPATH": "src"}


def caught(script: str, root: Path, env: dict[str, str] | None = None) -> str:
    """Run a guard that must fail on ``root``; returns what it printed."""
    result = run_predicate(script, root, env)
    assert result.returncode != 0, result.stdout + result.stderr
    return result.stdout + result.stderr


class TestOneRolloverPath:
    def test_the_calendar_keeps_no_pending_set(self):
        result = run_predicate(ONE_ROLLOVER_PATH, ROOT)
        assert result.returncode == 0, result.stdout + result.stderr

    def test_a_pending_set_in_the_calendar_is_caught(self, tmp_path):
        root = mutated_copy(
            tmp_path, "core/calendar.py", "\n\n_pending: set[int] = set()  # slots to build\n"
        )
        caught(ONE_ROLLOVER_PATH, root)


class TestOneTree:
    def test_one_tree_module_with_one_update_regime(self):
        result = run_predicate(ONE_TREE, ROOT)
        assert result.returncode == 0, result.stdout + result.stderr

    def test_a_bulk_build_threshold_is_caught(self, tmp_path):
        root = mutated_copy(tmp_path, "core/slot_tree.py", "\n_BULK_DIVISOR = 8\n")
        assert "_BULK_DIVISOR" in caught(ONE_TREE, root)

    def test_a_node_backed_twin_is_caught(self, tmp_path):
        root = mutated_copy(tmp_path, "core/slot_tree_nodes.py", '"""The dynamic tree."""\n')
        assert "slot_tree_nodes.py is back" in caught(ONE_TREE, root)


class TestOneBuild:
    def test_one_interpreted_build(self):
        result = run_predicate(ONE_BUILD, ROOT)
        assert result.returncode == 0, result.stdout + result.stderr

    def test_a_runtime_source_loader_in_the_cli_is_caught(self, tmp_path):
        root = mutated_copy(tmp_path, "cli.py", "\nimport importlib\n")
        assert "src/repro/cli.py" in caught(ONE_BUILD, root)


class TestOneCarvePath:
    def test_allocate_carves_in_one_pass(self):
        result = run_predicate(ONE_CARVE_PATH, ROOT)
        assert result.returncode == 0, result.stdout + result.stderr

    def test_make_reservation_restored_is_caught(self, tmp_path):
        root = mutated_copy(
            tmp_path,
            "core/types.py",
            "\n\ndef make_reservation(rid, start, end, servers):\n"
            "    return rid, start, end, tuple(servers)\n",
        )
        assert "src/repro/core/types.py brings make_reservation back" in caught(
            ONE_CARVE_PATH, root
        )

    def test_a_server_key_array_restored_is_caught(self, tmp_path):
        root = mutated_copy(
            tmp_path,
            "core/calendar.py",
            "\n\ndef _keyed(calendar):\n"
            "    calendar._server_keys = [[p.st for p in ps] for ps in calendar._server_periods]\n",
        )
        assert "src/repro/core/calendar.py keeps a _server_keys array again" in caught(
            ONE_CARVE_PATH, root
        )

    def test_the_trusted_constructor_outside_the_calendar_is_caught(self, tmp_path):
        root = mutated_copy(
            tmp_path, "service/state.py", "\nfrom ..core.types import make_period  # noqa: F401\n"
        )
        assert "src/repro/service/state.py builds through ['make_period']" in caught(
            ONE_CARVE_PATH, root
        )


class TestOneUidSource:
    def test_a_calendar_numbers_its_own_periods(self):
        result = run_predicate(ONE_UID_SOURCE, ROOT)
        assert result.returncode == 0, result.stdout + result.stderr

    def test_a_global_counter_in_types_is_caught(self, tmp_path):
        root = mutated_copy(
            tmp_path, "core/types.py", "\nimport itertools\n\n_uids = itertools.count()\n"
        )
        caught(ONE_UID_SOURCE, root)


class TestOneReference:
    def test_one_reference_and_one_layout(self):
        result = run_predicate(ONE_REFERENCE, ROOT)
        assert result.returncode == 0, result.stdout + result.stderr

    def test_the_linear_allocator_back_is_caught(self, tmp_path):
        root = mutated_copy(tmp_path, "core/linear.py", '"""A second reference."""\n')
        assert "src/repro/core/linear.py is back" in caught(ONE_REFERENCE, root)


class TestEveryLintRuleHasACatch:
    def test_only_rules_with_a_catch_are_registered(self):
        result = run_predicate(LINT_RULES_HAVE_A_CATCH, ROOT, LINT_ENV)
        assert result.returncode == 0, result.stdout + result.stderr

    def test_the_determinism_rules_restored_are_caught(self, tmp_path):
        root = mutated_copy(tmp_path, "analysis/rules/determinism.py", '"""RA005, RA006."""\n')
        assert "determinism.py is back" in caught(LINT_RULES_HAVE_A_CATCH, root, LINT_ENV)

    def test_a_rule_registered_as_ra005_is_caught(self, tmp_path):
        root = mutated_copy(
            tmp_path,
            "analysis/rules/__init__.py",
            "\n\nclass WallClockRule(Rule):\n"
            '    id = "RA005"\n\n\n'
            "ALL_RULES = (*ALL_RULES, WallClockRule())\n",
        )
        assert "rules without a recorded catch: ['RA005']" in caught(
            LINT_RULES_HAVE_A_CATCH, root, LINT_ENV
        )
