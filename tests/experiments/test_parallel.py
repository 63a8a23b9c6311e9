"""Tests for the parallel experiment harness.

The load-bearing property: inline, worker-process, and disk-cache paths
all yield byte-identical results (the simulator is deterministic per
seed, and the store's serialization is exact), so parallelism is a pure
wall-clock optimization.
"""

import pytest

from repro.experiments import clear_cache
from repro.experiments.config import ExperimentConfig
from repro.experiments.parallel import (
    ARTIFACTS,
    enumerate_runs,
    render_artifacts,
    warm_store,
)
from repro.experiments.store import ResultStore, RunSpec

TINY = ExperimentConfig(n_jobs=100, seed=11)


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_cache()
    yield
    clear_cache()


class TestEnumeration:
    def test_shared_runs_deduplicated(self):
        # Figures 3/4/5 and Table 2 all reuse the CTC/KTH online+batch
        # sims: together they need just 4 distinct runs
        specs = enumerate_runs(["fig3", "fig4", "fig5", "table2"], TINY)
        assert len(specs) == 4
        assert {s.label for s in specs} == {
            "KTH/online", "KTH/easy", "CTC/online", "CTC/easy",
        }

    def test_full_suite_run_count(self):
        specs = enumerate_runs(list(ARTIFACTS), TINY)
        # 3 workloads x 6 rhos online (fig6/fig7, rho=0 shared with
        # fig3/4/5/table2) + CTC/KTH batch comparators
        assert len(specs) == 20
        assert len({s.key for s in specs}) == len(specs)

    def test_table1_needs_no_runs(self):
        assert enumerate_runs(["table1"], TINY) == []

    def test_unknown_artifact_rejected(self):
        with pytest.raises(ValueError, match="unknown artifact"):
            enumerate_runs(["fig99"], TINY)


class TestWarmStore:
    SPECS = [
        ("KTH", "online", 0.0),
        ("KTH", "easy", 0.0),
        ("KTH", "online", 0.4),
    ]

    def _specs(self):
        return [RunSpec.normalized(w, s, TINY, rho) for w, s, rho in self.SPECS]

    def test_inline_worker_and_disk_paths_identical(self, tmp_path):
        inline = warm_store(self._specs(), workers=1, store=ResultStore())
        assert inline.computed == 3 and not inline.failures

        pooled = warm_store(self._specs(), workers=2, store=ResultStore(tmp_path))
        assert pooled.computed == 3 and not pooled.failures

        disk = warm_store(self._specs(), workers=2, store=ResultStore(tmp_path))
        assert disk.cached == 3 and disk.computed == 0

        assert inline.checksums == pooled.checksums == disk.checksums
        assert len(inline.checksums) == 3

    def test_failure_is_isolated(self):
        specs = self._specs()
        specs.insert(1, RunSpec.normalized("NOSUCH", "online", TINY))
        report = warm_store(specs, workers=2, store=ResultStore())
        assert len(report.failures) == 1
        assert report.failures[0].label.startswith("NOSUCH")
        assert "KeyError" in report.failures[0].error
        assert report.computed == 3  # the crash did not kill the sweep

    def test_inline_failure_is_isolated_too(self):
        specs = [RunSpec.normalized("NOSUCH", "online", TINY)] + self._specs()
        report = warm_store(specs, workers=1, store=ResultStore())
        assert len(report.failures) == 1 and report.computed == 3

    def test_progress_lines_emitted(self):
        lines = []
        warm_store(self._specs()[:1], workers=1, store=ResultStore(), progress=lines.append)
        assert len(lines) == 1 and "KTH/online" in lines[0]

    def test_report_json_shape(self, tmp_path):
        report = warm_store(self._specs()[:2], workers=1, store=ResultStore(tmp_path))
        data = report.to_json()
        assert data["computed"] == 2 and data["failed"] == 0
        assert all(r["checksum"] for r in data["runs"])


class TestRenderedOutputs:
    def test_sequential_and_parallel_render_identically(self, tmp_path):
        artifacts = ["fig3", "table2"]
        sequential = render_artifacts(artifacts, TINY)

        clear_cache()
        store = ResultStore(tmp_path)
        report = warm_store(enumerate_runs(artifacts, TINY), workers=2, store=store)
        assert not report.failures
        # route the module-level get_result through the warmed store
        import repro.experiments.store as store_mod

        old = store_mod._default_store
        store_mod._default_store = store
        try:
            parallel = render_artifacts(artifacts, TINY)
        finally:
            store_mod._default_store = old
        assert parallel == sequential
