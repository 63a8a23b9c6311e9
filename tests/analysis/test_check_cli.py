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


class TestRemovedOptions:
    @pytest.mark.parametrize(
        "argv",
        [
            ["--audit"],
            ["--audit-requests", "120"],
            ["--audit-servers", "8"],
            ["--inject", "size"],
            ["--no-lint"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_a_removed_option_is_a_usage_error(self, capsys, argv):
        """``repro check`` is the lint pass alone: the audited stress
        replay and its injections went (DESIGN.md §27), and ``--no-lint``
        left nothing to run."""
        with pytest.raises(SystemExit) as excinfo:
            main(["check", *argv])
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {argv[0]}" in capsys.readouterr().err
