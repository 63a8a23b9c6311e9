"""Content-addressed simulation-result store (two tiers).

The old per-process memo in ``runner.py`` keyed results on a hand-picked
tuple of config fields and silently dropped ``delta_t`` — two configs
differing only in the retry increment collided, and the second caller
got the first caller's :class:`~repro.sim.driver.SimResult`.  This store
replaces hand-picked keys with a content address:

* **every** :class:`~repro.experiments.config.ExperimentConfig` field
  (enumerated via ``dataclasses.fields``, so future knobs join the key
  automatically) plus the run coordinates ``(workload, scheduler, ρ)``;
* a **code fingerprint** — a digest over the source of every module the
  simulation outcome depends on (``core``, ``sim``, ``schedulers``,
  ``workloads`` and the experiment config) — so editing the simulator
  invalidates old entries instead of replaying them;
* the serialization format version, so layout changes read as misses.

Two tiers: an in-process dict (same-object hits, what the experiment
modules rely on within one run) in front of an optional on-disk layer of
gzipped JSON payloads, enabled with ``--cache-dir`` (a ``cache_dir``
argument) so full-scale runs survive process restarts.  Disk entries that are
corrupt, truncated, or written by an older format/fingerprint are
treated as misses, never as errors.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import os
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any, Callable

from ..sim.driver import RESULT_FORMAT, SimResult, run_simulation
from ..workloads.archive import generate_workload
from ..workloads.reservations import with_advance_reservations
from .config import DEFAULT_CONFIG, ExperimentConfig

__all__ = [
    "RunSpec",
    "ResultStore",
    "code_fingerprint",
    "compute_result",
    "configure_default_store",
    "default_store",
]

#: packages whose source participates in the code fingerprint — exactly
#: the modules a simulation outcome can depend on
_FINGERPRINT_PACKAGES = ("core", "sim", "schedulers", "workloads")

_fingerprint_cache: str | None = None


def code_fingerprint() -> str:
    """Digest over the simulation-relevant source tree (cached).

    Any edit to the allocator, simulator, schedulers, workload models or
    the experiment config changes this value and thereby every cache
    key — stale results from older code can never be served.
    """
    global _fingerprint_cache
    if _fingerprint_cache is not None:
        return _fingerprint_cache
    package_root = Path(__file__).resolve().parents[1]
    digest = hashlib.sha256()
    paths: list[Path] = [Path(__file__).parent / "config.py"]
    for package in _FINGERPRINT_PACKAGES:
        paths.extend((package_root / package).rglob("*.py"))
    for path in sorted(paths):
        digest.update(str(path.relative_to(package_root)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
    _fingerprint_cache = digest.hexdigest()[:16]
    return _fingerprint_cache


@dataclass(frozen=True, slots=True)
class RunSpec:
    """One simulation run, fully specified and content-addressable.

    ``scheduler`` is stored *normalized* (the ``"batch"`` alias resolved
    against the config), so ``batch`` and the comparator it points at
    share one entry.
    """

    workload: str
    scheduler: str
    rho: float
    config: ExperimentConfig

    @classmethod
    def normalized(
        cls,
        workload: str,
        scheduler: str,
        config: ExperimentConfig = DEFAULT_CONFIG,
        rho: float = 0.0,
    ) -> "RunSpec":
        if scheduler == "batch":
            scheduler = config.batch_scheduler
        return cls(workload=workload, scheduler=scheduler, rho=float(rho), config=config)

    def describe(self) -> dict[str, Any]:
        """Human-readable identity (also hashed to form :meth:`key`)."""
        return {
            "workload": self.workload,
            "scheduler": self.scheduler,
            "rho": repr(self.rho),
            # every config field, present and future, joins the key
            "config": {f.name: repr(getattr(self.config, f.name)) for f in fields(self.config)},
        }

    @property
    def key(self) -> str:
        """Content address: run identity + code fingerprint + format."""
        material = json.dumps(
            {
                "spec": self.describe(),
                "fingerprint": code_fingerprint(),
                "format": RESULT_FORMAT,
            },
            sort_keys=True,
        )
        return hashlib.sha256(material.encode()).hexdigest()[:32]

    @property
    def label(self) -> str:
        """Short display form for progress lines and reports."""
        rho = f" rho={self.rho:g}" if self.rho else ""
        return f"{self.workload}/{self.scheduler}{rho}"


def compute_result(spec: RunSpec) -> SimResult:
    """Run the simulation a spec describes (what workers execute).

    Importable at module top level so ``ProcessPoolExecutor`` can ship
    specs to worker processes by pickle.
    """
    from .runner import make_scheduler  # late: runner imports this module

    config = spec.config
    requests = generate_workload(spec.workload, n_jobs=config.n_jobs, seed=config.seed)
    if spec.rho > 0.0:
        requests = with_advance_reservations(requests, spec.rho, seed=config.seed)
    return run_simulation(make_scheduler(spec.scheduler, spec.workload, config), requests)


class ResultStore:
    """Two-tier content-addressed cache of :class:`SimResult` objects.

    ``cache_dir=None`` keeps results in memory only (no disk tier).
    """

    def __init__(self, cache_dir: str | Path | None = None) -> None:
        self.cache_dir = Path(cache_dir) if cache_dir else None
        self._memory: dict[str, SimResult] = {}

    # -- lookup ------------------------------------------------------------

    def get(self, spec: RunSpec) -> SimResult | None:
        """Memory first, then disk (populating memory on a disk hit)."""
        key = spec.key
        hit = self._memory.get(key)
        if hit is not None:
            return hit
        payload = self._read_disk(key)
        if payload is None:
            return None
        try:
            result = SimResult.from_payload(payload)
        except (ValueError, KeyError, TypeError):
            return None  # older layout or mangled rows: recompute
        self._memory[key] = result
        return result

    def put(self, spec: RunSpec, result: SimResult) -> None:
        key = spec.key
        self._memory[key] = result
        self._write_disk(key, spec, result.to_payload())

    def put_payload(self, spec: RunSpec, payload: dict[str, Any]) -> SimResult:
        """Adopt a worker-serialized payload (parallel harness path)."""
        result = SimResult.from_payload(payload)
        key = spec.key
        self._memory[key] = result
        self._write_disk(key, spec, payload)
        return result

    def get_or_compute(
        self, spec: RunSpec, compute: Callable[[RunSpec], SimResult] = compute_result
    ) -> SimResult:
        cached = self.get(spec)
        if cached is not None:
            return cached
        result = compute(spec)
        self.put(spec, result)
        return result

    # -- disk tier ---------------------------------------------------------

    def _entry_path(self, key: str) -> Path | None:
        return self.cache_dir / f"{key}.json.gz" if self.cache_dir else None

    def _read_disk(self, key: str) -> dict[str, Any] | None:
        path = self._entry_path(key)
        if path is None:
            return None
        try:
            with gzip.open(path, "rt", encoding="utf-8") as fh:
                entry = json.load(fh)
        except (OSError, EOFError, json.JSONDecodeError, UnicodeDecodeError):
            return None  # missing, truncated or corrupt: a miss, not a crash
        if not isinstance(entry, dict) or entry.get("key") != key:
            return None
        payload = entry.get("payload")
        return payload if isinstance(payload, dict) else None

    def _write_disk(self, key: str, spec: RunSpec, payload: dict[str, Any]) -> None:
        path = self._entry_path(key)
        if path is None:
            return
        path.parent.mkdir(parents=True, exist_ok=True)
        entry = {
            "key": key,
            "fingerprint": code_fingerprint(),
            "spec": spec.describe(),
            "payload": payload,
        }
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        try:
            with gzip.open(tmp, "wt", encoding="utf-8") as fh:
                json.dump(entry, fh, separators=(",", ":"))
            os.replace(tmp, path)  # atomic: parallel workers race benignly
        except OSError:
            tmp.unlink(missing_ok=True)  # cache write failure is non-fatal

    # -- maintenance -------------------------------------------------------

    def clear_memory(self) -> None:
        self._memory.clear()

    def clear(self) -> int:
        """Drop both tiers; returns the number of disk entries removed."""
        self.clear_memory()
        removed = 0
        if self.cache_dir and self.cache_dir.is_dir():
            for path in self.cache_dir.glob("*.json.gz"):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed

    def info(self) -> dict[str, Any]:
        """Shape of both tiers (the ``repro cache info`` payload)."""
        disk_entries = 0
        disk_bytes = 0
        if self.cache_dir and self.cache_dir.is_dir():
            for path in self.cache_dir.glob("*.json.gz"):
                try:
                    disk_bytes += path.stat().st_size
                except OSError:
                    continue
                disk_entries += 1
        return {
            "cache_dir": str(self.cache_dir) if self.cache_dir else None,
            "memory_entries": len(self._memory),
            "disk_entries": disk_entries,
            "disk_bytes": disk_bytes,
            "fingerprint": code_fingerprint(),
            "format": RESULT_FORMAT,
        }


_default_store: ResultStore | None = None


def default_store() -> ResultStore:
    """The process-wide store ``get_result`` routes through (lazy)."""
    global _default_store
    if _default_store is None:
        _default_store = ResultStore()
    return _default_store


def configure_default_store(cache_dir: str | Path | None) -> ResultStore:
    """Point the process-wide store at ``cache_dir`` (CLI ``--cache-dir``).

    Replaces the store, so previously memoized results are dropped —
    call before running experiments, as the CLI does.
    """
    global _default_store
    _default_store = ResultStore(cache_dir)
    return _default_store
