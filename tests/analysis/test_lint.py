"""Fixture-driven tests for the RAxxx lint rules.

Each fixture under ``fixtures/repro/`` contains exactly one violation;
the ``repro`` path component makes :func:`module_path` scope them as if
they lived inside the package (``core/…``, ``service/…``, ``apps/…``).
"""

from pathlib import Path

import pytest

import repro
from repro.analysis import lint_paths, lint_source
from repro.analysis.lint import module_path

FIXTURES = Path(__file__).parent / "fixtures" / "repro"

#: (fixture, the one rule it must trip, the exact line)
CASES = [
    ("core/bad_front_pop.py", "RA001", 7),
    ("core/bad_sort_loop.py", "RA002", 7),
    ("core/bad_time_mod.py", "RA003", 5),
    ("apps/bad_outcome.py", "RA008", 8),
    ("service/bad_actor_call.py", "RA009", 5),
    ("service/bad_blocking.py", "RA202", 7),
    ("service/bad_unbounded_read.py", "RA204", 7),
]


@pytest.mark.parametrize("rel,rule_id,line", CASES)
def test_fixture_trips_exactly_its_rule(rel, rule_id, line):
    report = lint_paths([FIXTURES / rel])
    assert [(v.rule_id, v.line) for v in report.violations] == [(rule_id, line)]
    assert not report.ok
    assert report.violations[0].hint  # every rule ships a fix hint


def test_clean_fixture_passes_every_rule():
    report = lint_paths([FIXTURES / "core" / "clean.py"])
    assert report.ok
    assert report.files_checked == 1


def test_noqa_fixture_fully_suppressed():
    report = lint_paths([FIXTURES / "core" / "suppressed.py"])
    assert report.ok


def test_clean_async_fixture_passes_every_concurrency_rule():
    report = lint_paths([FIXTURES / "service" / "clean_async.py"])
    assert report.ok, report.to_text()


def test_noqa_colon_form_scopes_to_listed_rules():
    source = (
        "import time\n\n\n"
        "async def nap(d):\n"
        "    time.sleep(d)  # repro: noqa: RA202  -- measured: sub-ms tick\n"
    )
    assert lint_source(source, module="service/x.py") == []
    # listing a different (known) rule does not suppress RA202
    other = source.replace("RA202", "RA204")
    assert [v.rule_id for v in lint_source(other, module="service/x.py")] == ["RA202"]


def test_unknown_rule_id_in_noqa_is_ra010():
    violations = lint_source("x = 1  # repro: noqa: RA999\n", module="core/x.py")
    assert [(v.rule_id, v.line) for v in violations] == [("RA010", 1)]
    assert "RA999" in violations[0].message


@pytest.mark.parametrize(
    "retired",
    ["RA004", "RA005", "RA006", "RA007", "RA114", "RA201", "RA203", "RA205", "RA206"],
)
def test_retired_rule_id_in_noqa_is_ra010(retired):
    # a retired rule suppresses nothing, so a pragma still naming it is stale
    violations = lint_source(f"x = 1  # repro: noqa: {retired}\n", module="service/x.py")
    assert [(v.rule_id, v.line) for v in violations] == [("RA010", 1)]
    assert retired in violations[0].message


def test_bare_noqa_is_never_ra010():
    assert lint_source("x = 1  # repro: noqa\n", module="core/x.py") == []


def test_known_rule_ids_cover_every_engine():
    from repro.analysis import KNOWN_RULE_IDS

    assert {"RA001", "RA009", "RA202", "RA204"} <= KNOWN_RULE_IDS
    assert "RA101" in KNOWN_RULE_IDS  # audit checks are suppressible ids too
    assert "RA999" not in KNOWN_RULE_IDS


def test_noqa_listing_other_rule_does_not_suppress():
    source = "def f(queue, st, tau):\n    return queue.pop(0) + st % tau  # repro: noqa RA003\n"
    violations = lint_source(source, module="core/x.py")
    assert [v.rule_id for v in violations] == ["RA001"]


def test_bare_noqa_suppresses_everything_on_the_line():
    source = "def f(queue, st, tau):\n    return queue.pop(0) + st % tau  # repro: noqa\n"
    assert lint_source(source, module="core/x.py") == []


def test_hot_path_rules_silent_outside_scope():
    source = "def f(items):\n    for batch in items:\n        batch.sort()\n"
    assert lint_source(source, module="apps/x.py") == []
    assert [v.rule_id for v in lint_source(source, module="core/x.py")] == ["RA002"]


def test_ra009_exempts_actor_and_non_service_modules():
    actor = "async def _actor_loop(self):\n    self.scheduler.commit(None)\n"
    assert lint_source(actor, module="service/server.py") == []
    handler = "async def ingest(self):\n    self.scheduler.commit(None)\n"
    assert [v.rule_id for v in lint_source(handler, module="service/server.py")] == ["RA009"]
    assert lint_source(handler, module="apps/server.py") == []


def test_ra009_ignores_sync_helpers():
    source = "def _apply_reserve(self, payload):\n    return self.scheduler.commit(payload)\n"
    assert lint_source(source, module="service/server.py") == []


def test_syntax_error_reported_as_ra000():
    violations = lint_source("def f(:\n", path="broken.py")
    assert [v.rule_id for v in violations] == ["RA000"]


def test_module_path_strips_through_repro():
    assert module_path("src/repro/core/calendar.py") == "core/calendar.py"
    assert module_path("/x/site-packages/repro/sim/replay.py") == "sim/replay.py"
    assert module_path("scripts/helper.py") == "helper.py"


def test_shipped_package_is_lint_clean():
    report = lint_paths([Path(repro.__file__).parent])
    assert report.ok, report.to_text()
