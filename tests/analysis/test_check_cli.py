"""End-to-end tests for the ``repro check`` subcommand."""

import json
from pathlib import Path

import pytest

from repro.cli import main

FIXTURES = Path(__file__).parent / "fixtures" / "repro"


class TestLintMode:
    def test_violating_file_exits_nonzero(self, capsys):
        rc = main(["check", str(FIXTURES / "core" / "bad_front_pop.py")])
        out = capsys.readouterr().out
        assert rc == 1
        assert "RA001" in out and "hint:" in out

    def test_clean_file_exits_zero(self, capsys):
        rc = main(["check", str(FIXTURES / "core" / "clean.py")])
        out = capsys.readouterr().out
        assert rc == 0
        assert "clean" in out

    def test_shipped_package_is_clean_by_default(self, capsys):
        assert main(["check"]) == 0

    def test_missing_path_is_a_usage_error(self, capsys):
        rc = main(["check", "nosuchdir"])
        captured = capsys.readouterr()
        assert rc == 2  # what argparse exits with on a usage error
        assert captured.err == "check: no such file or directory: nosuchdir\n"
        assert captured.out == ""

    def test_json_format_and_artifact(self, capsys, tmp_path):
        artifact = tmp_path / "report.json"
        rc = main(
            [
                "check",
                str(FIXTURES / "core" / "bad_time_mod.py"),
                "--format",
                "json",
                "--out",
                str(artifact),
            ]
        )
        assert rc == 1
        printed = json.loads(capsys.readouterr().out)
        written = json.loads(artifact.read_text())
        assert printed == written
        assert printed["ok"] is False
        assert [v["rule"] for v in printed["lint"]["violations"]] == ["RA003"]

    def test_json_report_over_src_has_only_the_lint_section(self, capsys):
        rc = main(["check", "--format", "json"])
        report = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert set(report) == {"lint", "ok"}
        assert report["ok"] is True and report["lint"]["ok"] is True

    def test_no_lint_skips_the_static_pass(self, capsys):
        rc = main(["check", "--no-lint", "--format", "json"])
        report = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert report == {"ok": True}


class TestAuditMode:
    def test_clean_audit_exits_zero(self, capsys):
        rc = main(
            [
                "check",
                "--no-lint",
                "--audit",
                "--audit-requests",
                "120",
                "--audit-servers",
                "8",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "audit: clean" in out

    @pytest.mark.parametrize(
        "kind,check_id",
        [("size", "RA101"), ("seckey", "RA106"), ("uidmap", "RA105"), ("buffer", "RA116")],
    )
    def test_injected_corruption_is_caught(self, capsys, kind, check_id):
        rc = main(
            [
                "check",
                "--no-lint",
                "--audit",
                "--audit-requests",
                "120",
                "--audit-servers",
                "8",
                "--inject",
                kind,
                "--format",
                "json",
            ]
        )
        report = json.loads(capsys.readouterr().out)
        assert rc == 1
        assert report["audit"]["caught"] is True
        assert check_id in {f["check"] for f in report["audit"]["findings"]}

    @pytest.mark.parametrize(
        "kind,check_id",
        [("size", "RA101"), ("seckey", "RA106"), ("uidmap", "RA105"), ("buffer", "RA116")],
    )
    def test_injection_runs_the_audit_it_tests(self, capsys, kind, check_id):
        # no --audit: a corruption kind runs the audit replay by itself
        rc = main(
            [
                "check",
                "--no-lint",
                "--audit-requests",
                "120",
                "--audit-servers",
                "8",
                "--inject",
                kind,
                "--format",
                "json",
            ]
        )
        report = json.loads(capsys.readouterr().out)
        assert rc == 1
        assert report["audit"]["caught"] is True
        assert check_id in {f["check"] for f in report["audit"]["findings"]}
