"""Unit tests for the coroutine walk behind RA202 and RA204.

The fixtures in ``fixtures/repro/service`` cover the rule layer; these
tests drive the helpers in :mod:`repro.analysis.rules.concurrency`
directly on the corners they have to get right — nested definitions,
direct awaits, import aliases and package scope.
"""

import ast

from repro.analysis.lint import lint_source
from repro.analysis.rules.concurrency import awaited_call_ids, iter_coroutines, walk_body


def _coroutine(source: str) -> ast.AsyncFunctionDef:
    (fn,) = iter_coroutines(ast.parse(source))
    return fn


def test_nested_function_bodies_are_not_walked():
    src = (
        "async def f(self):\n"
        "    def helper():\n"
        "        import time\n"
        "        time.sleep(1)\n"
        "    await self.run(helper)\n"
    )
    fn = _coroutine(src)
    assert all(not isinstance(n, ast.Call) or n.func.attr != "sleep"
               for n in walk_body(fn) if isinstance(n, ast.Call)
               and isinstance(n.func, ast.Attribute))
    # and the rule layer agrees: a sync helper may block off-loop
    assert lint_source(src, module="service/x.py") == []


def test_awaited_call_ids_only_cover_direct_awaits():
    src = (
        "async def f(reader):\n"
        "    line = await reader.readline()\n"
        "    peek = reader.readline()\n"
    )
    fn = _coroutine(src)
    calls = [n for n in ast.walk(fn) if isinstance(n, ast.Call)]
    awaited = awaited_call_ids(fn)
    assert sum(1 for c in calls if id(c) in awaited) == 1


def test_ra202_import_alias_resolution():
    src = "from time import sleep\n\n\nasync def f(d):\n    sleep(d)\n"
    assert [v.rule_id for v in lint_source(src, module="service/x.py")] == ["RA202"]


def test_ra202_asyncio_wait_not_mistaken_for_popen_wait():
    src = (
        "import asyncio\n\n\n"
        "async def f(tasks):\n"
        "    done, pending = await asyncio.wait(tasks)\n"
        "    return done, pending\n"
    )
    assert lint_source(src, module="service/x.py") == []


def test_rules_scoped_to_async_packages():
    src = "import time\n\n\nasync def f(d):\n    time.sleep(d)\n"
    assert [v.rule_id for v in lint_source(src, module="verify/x.py")] == ["RA202"]
    assert lint_source(src, module="apps/x.py") == []
