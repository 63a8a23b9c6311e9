"""Tests for the RA205/RA206 wire-protocol conformance checker.

Unit tests drive :func:`scan_send_sites` on synthetic sources; the
drift tests copy the real service modules into a tmp tree and break
them, proving the checker catches exactly that bug class; the inject
tests exercise the self-test registry end to end.
"""

import shutil
from pathlib import Path

import pytest

import repro.errors
import repro.service
from repro.analysis.protocol_check import (
    PROTOCOL_INJECTIONS,
    collect_model,
    run_protocol_check,
    scan_send_sites,
    send_site_files,
)

SERVICE_DIR = Path(repro.service.__file__).resolve().parent
ERRORS_PATH = Path(repro.errors.__file__).resolve()


def _copy_tree(tmp_path: Path) -> tuple[Path, Path]:
    """The real service modules + errors.py, copied so tests can break them."""
    service_dir = tmp_path / "service"
    service_dir.mkdir()
    for name in ("server.py", "autoscale.py"):
        shutil.copy(SERVICE_DIR / name, service_dir / name)
    errors_path = tmp_path / "errors.py"
    shutil.copy(ERRORS_PATH, errors_path)
    return service_dir, errors_path


class TestSendSites:
    def test_conforming_message_is_clean(self):
        src = 'm = {"op": "cancel", "rid": 7, "seq": 3}\n'
        assert scan_send_sites(src) == []

    def test_unknown_op(self):
        src = 'm = {"op": "resrve", "rid": 7}\n'
        (v,) = scan_send_sites(src)
        assert v.rule_id == "RA205" and "resrve" in v.message

    def test_unknown_field(self):
        src = 'm = {"op": "cancel", "rid": 7, "ird": 7}\n'
        (v,) = scan_send_sites(src)
        assert "'ird'" in v.message and "known fields" in v.message

    def test_missing_required_field(self):
        src = 'm = {"op": "cancel"}\n'
        (v,) = scan_send_sites(src)
        assert "required field 'rid' missing" in v.message

    def test_splat_may_supply_required_fields(self):
        src = 'm = {"op": "reserve", "rid": rid, **entry}\n'
        assert scan_send_sites(src) == []

    def test_wrong_literal_type(self):
        src = 'm = {"op": "cancel", "rid": "seven"}\n'
        (v,) = scan_send_sites(src)
        assert "wire type 'int'" in v.message

    def test_bool_is_not_an_int(self):
        src = 'm = {"op": "cancel", "rid": True}\n'
        (v,) = scan_send_sites(src)
        assert v.rule_id == "RA205"

    def test_non_literal_values_are_runtime_business(self):
        src = 'm = {"op": "cancel", "rid": request.rid}\n'
        assert scan_send_sites(src) == []

    def test_responses_only_checked_for_known_op(self):
        ok = 'r = {"ok": True, "op": "cancel", "released": 3}\n'
        assert scan_send_sites(ok) == []
        bad = 'r = {"ok": True, "op": "cancell"}\n'
        (v,) = scan_send_sites(bad)
        assert "unknown op" in v.message

    def test_dicts_without_literal_op_are_not_messages(self):
        assert scan_send_sites('d = {"rid": 7}\n') == []
        assert scan_send_sites('d = {"op": op_name}\n') == []


class TestConformance:
    def test_shipped_service_conforms(self):
        report = run_protocol_check()
        assert report.ok, report.to_text()
        scanned = send_site_files(SERVICE_DIR)
        # whole packages, not a hand-kept list: every module that builds a
        # literal message is read, wherever it was added
        assert {"server.py", "autoscale.py", "app.py", "follower.py", "cli.py"} <= {
            path.name for path in scanned
        }
        assert report.files_checked == len(scanned) + 1  # + errors.py
        assert report.injected is None

    def test_model_tables_are_complete(self):
        model = collect_model()
        public = {n for n, s in model.registry.items() if s.role == "public"}
        follower = {n for n, s in model.registry.items() if s.role == "follower"}
        assert set(model.server_handlers) == public
        if model.follower_present:
            assert set(model.follower_handlers) == follower
        assert set(model.error_codes) - model.mapped_codes == {"OK"}


class TestDrift:
    def test_removed_handler_is_ra206(self, tmp_path):
        service_dir, errors_path = _copy_tree(tmp_path)
        server = service_dir / "server.py"
        server.write_text(
            server.read_text().replace("_actor_apply_cancel", "_actor_apply_cancelled")
        )
        report = run_protocol_check(service_dir=service_dir, errors_path=errors_path)
        assert not report.ok
        messages = [v.message for v in report.violations]
        assert any("'cancel' has no _actor_apply_cancel" in m for m in messages)
        assert any("_actor_apply_cancelled serves an op missing" in m for m in messages)
        assert all(v.rule_id == "RA206" for v in report.violations)

    def test_rogue_send_site_is_ra205(self, tmp_path):
        service_dir, errors_path = _copy_tree(tmp_path)
        autoscale = service_dir / "autoscale.py"
        autoscale.write_text(
            autoscale.read_text()
            + '\n\ndef rogue(rid):\n    return {"op": "cancel", "rid": rid, "force": 1}\n'
        )
        report = run_protocol_check(service_dir=service_dir, errors_path=errors_path)
        assert [v.rule_id for v in report.violations] == ["RA205"]
        assert "'force'" in report.violations[0].message

    def test_noqa_suppresses_a_protocol_finding(self, tmp_path):
        service_dir, errors_path = _copy_tree(tmp_path)
        autoscale = service_dir / "autoscale.py"
        autoscale.write_text(
            autoscale.read_text()
            + "\n\ndef rogue(rid):\n"
            + '    return {"op": "cancel", "rid": rid, "force": 1}  # repro: noqa: RA205\n'
        )
        report = run_protocol_check(service_dir=service_dir, errors_path=errors_path)
        assert report.ok, report.to_text()

    def test_unmapped_error_code_is_ra206(self, tmp_path):
        service_dir, errors_path = _copy_tree(tmp_path)
        errors_path.write_text(
            errors_path.read_text().replace(
                "code = ErrorCode.CONFLICT", "code = ErrorCode.REJECTED"
            )
        )
        report = run_protocol_check(service_dir=service_dir, errors_path=errors_path)
        assert any(
            v.rule_id == "RA206" and "ErrorCode.CONFLICT" in v.message
            for v in report.violations
        )


class TestInjections:
    @pytest.mark.parametrize("kind", sorted(PROTOCOL_INJECTIONS))
    def test_injected_drift_is_caught(self, kind):
        report = run_protocol_check(inject=kind)
        assert not report.ok  # an injected run never passes
        assert report.injected is not None
        assert report.injected["caught"] is True
        expected = PROTOCOL_INJECTIONS[kind][1]
        assert report.injected["expected"] == expected
        assert any(v.rule_id == expected for v in report.violations)
        assert kind in report.to_text() and "caught" in report.to_text()

    def test_injection_registry_shape(self):
        assert set(PROTOCOL_INJECTIONS) == {
            "drop-field",
            "unknown-op",
            "drop-handler",
            "drop-follower-handler",
        }
        for mutate, expected in PROTOCOL_INJECTIONS.values():
            assert callable(mutate)
            assert expected in {"RA205", "RA206"}
