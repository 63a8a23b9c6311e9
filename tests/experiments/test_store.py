"""Tests for the content-addressed result store.

Covers the Δt stale-memo regression (the bug that motivated replacing
the tuple-keyed memo), payload round-trip identity, the disk tier's
corruption/version tolerance, and cache-key semantics.
"""

import gzip
import json

import pytest

import repro.experiments.store as store_mod
from repro.experiments import clear_cache, get_result
from repro.experiments.config import ExperimentConfig
from repro.experiments.store import (
    ResultStore,
    RunSpec,
    code_fingerprint,
    compute_result,
    configure_default_store,
    default_store,
)
from repro.sim.driver import RESULT_FORMAT, SimResult

TINY = ExperimentConfig(n_jobs=120, seed=7)


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_cache()
    yield
    clear_cache()


def tiny_result() -> SimResult:
    return compute_result(RunSpec.normalized("KTH", "online", TINY))


class TestDeltaTRegression:
    def test_delta_t_distinguishes_cache_entries(self):
        """The historical bug: the memo key omitted ``config.delta_t``,
        so a Δt sweep silently returned the first Δt's result."""
        a = get_result("KTH", "online", ExperimentConfig(n_jobs=120, seed=7, delta_t=900.0))
        b = get_result("KTH", "online", ExperimentConfig(n_jobs=120, seed=7, delta_t=1800.0))
        assert a is not b

    def test_every_config_field_joins_the_key(self):
        base = RunSpec.normalized("KTH", "online", TINY)
        for override in (
            {"n_jobs": 121},
            {"seed": 8},
            {"tau": 450.0},
            {"delta_t": 1800.0},
            {"q_slots": 96},
            {"batch_scheduler": "fcfs"},
        ):
            from dataclasses import replace

            other = RunSpec.normalized("KTH", "online", replace(TINY, **override))
            assert other.key != base.key, override

    def test_rho_and_coordinates_join_the_key(self):
        base = RunSpec.normalized("KTH", "online", TINY)
        assert RunSpec.normalized("KTH", "online", TINY, rho=0.5).key != base.key
        assert RunSpec.normalized("CTC", "online", TINY).key != base.key
        assert RunSpec.normalized("KTH", "easy", TINY).key != base.key

    def test_batch_alias_shares_the_comparator_key(self):
        assert (
            RunSpec.normalized("KTH", "batch", TINY).key
            == RunSpec.normalized("KTH", "easy", TINY).key
        )

    def test_fingerprint_invalidates_keys(self, monkeypatch):
        spec = RunSpec.normalized("KTH", "online", TINY)
        old = spec.key
        monkeypatch.setattr(
            "repro.experiments.store._fingerprint_cache", "0" * 16
        )
        assert spec.key != old


class TestPayloadRoundTrip:
    def test_serialize_deserialize_is_identity(self):
        result = tiny_result()
        clone = SimResult.from_payload(result.to_payload())
        assert clone == result  # dataclass equality: every field and record
        assert clone.record_checksum() == result.record_checksum()

    def test_json_round_trip_is_identity(self):
        # what actually hits disk: payload -> JSON text -> payload
        result = tiny_result()
        clone = SimResult.from_payload(json.loads(json.dumps(result.to_payload())))
        assert clone == result

    def test_unknown_format_rejected(self):
        payload = tiny_result().to_payload()
        payload["format"] = RESULT_FORMAT + 1
        with pytest.raises(ValueError, match="format"):
            SimResult.from_payload(payload)


class TestDiskTier:
    def test_round_trip_checksum_identical(self, tmp_path):
        spec = RunSpec.normalized("KTH", "online", TINY)
        writer = ResultStore(tmp_path)
        computed = writer.get_or_compute(spec)
        reader = ResultStore(tmp_path)  # fresh memory tier: must hit disk
        loaded = reader.get(spec)
        assert loaded is not None
        assert loaded == computed
        assert loaded.record_checksum() == computed.record_checksum()

    def test_memory_tier_returns_same_object(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = RunSpec.normalized("KTH", "online", TINY)
        assert store.get_or_compute(spec) is store.get_or_compute(spec)

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        spec = RunSpec.normalized("KTH", "online", TINY)
        store = ResultStore(tmp_path)
        store.get_or_compute(spec)
        path = store._entry_path(spec.key)
        path.write_bytes(b"not gzip at all")
        fresh = ResultStore(tmp_path)
        assert fresh.get(spec) is None
        # and get_or_compute recovers by recomputing, not crashing
        assert fresh.get_or_compute(spec).record_checksum()

    def test_truncated_gzip_is_a_miss(self, tmp_path):
        spec = RunSpec.normalized("KTH", "online", TINY)
        store = ResultStore(tmp_path)
        store.get_or_compute(spec)
        path = store._entry_path(spec.key)
        path.write_bytes(path.read_bytes()[:40])
        assert ResultStore(tmp_path).get(spec) is None

    def test_old_format_entry_is_a_miss(self, tmp_path):
        spec = RunSpec.normalized("KTH", "online", TINY)
        store = ResultStore(tmp_path)
        result = store.get_or_compute(spec)
        payload = result.to_payload()
        payload["format"] = RESULT_FORMAT - 1  # e.g. written by older code
        entry = {"key": spec.key, "spec": spec.describe(), "payload": payload}
        with gzip.open(store._entry_path(spec.key), "wt", encoding="utf-8") as fh:
            json.dump(entry, fh)
        assert ResultStore(tmp_path).get(spec) is None

    def test_mismatched_key_is_a_miss(self, tmp_path):
        # an entry renamed/copied to the wrong address must not be served
        spec = RunSpec.normalized("KTH", "online", TINY)
        other = RunSpec.normalized("KTH", "easy", TINY)
        store = ResultStore(tmp_path)
        store.get_or_compute(spec)
        store._entry_path(spec.key).rename(store._entry_path(other.key))
        assert ResultStore(tmp_path).get(other) is None

    def test_no_cache_dir_is_memory_only(self):
        store = ResultStore()
        assert store.cache_dir is None
        spec = RunSpec.normalized("KTH", "online", TINY)
        store.get_or_compute(spec)
        assert store.info()["disk_entries"] == 0
        assert store.info()["memory_entries"] == 1

    def test_configured_default_store_has_a_disk_tier(self, tmp_path, monkeypatch):
        """--cache-dir is the one way to a disk tier: it points the
        process-wide store at the directory."""
        monkeypatch.setattr(store_mod, "_default_store", None)
        assert default_store().cache_dir is None
        configured = configure_default_store(tmp_path)
        assert default_store() is configured and configured.cache_dir == tmp_path

    def test_clear_and_info(self, tmp_path):
        store = ResultStore(tmp_path)
        store.get_or_compute(RunSpec.normalized("KTH", "online", TINY))
        info = store.info()
        assert info["disk_entries"] == 1 and info["disk_bytes"] > 0
        assert info["fingerprint"] == code_fingerprint()
        assert store.clear() == 1
        assert store.info()["disk_entries"] == 0
        assert store.info()["memory_entries"] == 0
