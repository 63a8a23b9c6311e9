"""Standard Workload Format (SWF) reader/writer.

The Parallel Workload Archive — the source of the paper's CTC, KTH and
HPC2N traces — distributes logs in SWF: one job per line, 18
whitespace-separated fields, ``;`` comment lines carrying header metadata.
This module parses and emits that format so real archive logs can drive
the experiments directly, and so the synthetic generators can persist
their output in the ecosystem's lingua franca.

Field reference (1-indexed, per the archive's swf.html):

==  =======================  ==================================================
 1  job_number               unique, usually 1-based
 2  submit_time              seconds from the log start
 3  wait_time                seconds in queue (the trace scheduler's verdict)
 4  run_time                 actual runtime, seconds
 5  allocated_processors     processors actually given
 6  average_cpu_time         per-processor CPU seconds (-1 if unknown)
 7  used_memory              KB per processor (-1 if unknown)
 8  requested_processors     what the user asked for
 9  requested_time           user's runtime estimate, seconds
10  requested_memory         KB per processor (-1 if unknown)
11  status                   1 completed, 0 failed, 5 cancelled, -1 unknown
12  user_id / 13 group_id / 14 executable / 15 queue / 16 partition
17  preceding_job / 18 think_time
==  =======================  ==================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Iterable, TextIO

from ..core.types import Request

__all__ = [
    "SWFJob",
    "read_swf",
    "write_swf",
    "swf_to_requests",
]


@dataclass(frozen=True, slots=True)
class SWFJob:
    """One SWF record; unknown numeric fields hold -1 (the SWF convention)."""

    job_number: int
    submit_time: float
    wait_time: float
    run_time: float
    allocated_processors: int
    average_cpu_time: float = -1.0
    used_memory: float = -1.0
    requested_processors: int = -1
    requested_time: float = -1.0
    requested_memory: float = -1.0
    status: int = 1
    user_id: int = -1
    group_id: int = -1
    executable: int = -1
    queue: int = -1
    partition: int = -1
    preceding_job: int = -1
    think_time: float = -1.0

    def processors(self) -> int:
        """Best available processor count: requested, else allocated."""
        if self.requested_processors > 0:
            return self.requested_processors
        return self.allocated_processors

    def estimated_runtime(self) -> float:
        """Best available duration estimate: requested time, else run time.

        The paper schedules on the *estimated* duration ``l_r`` (a priori
        knowledge of temporal size, Section 2).
        """
        if self.requested_time > 0:
            return self.requested_time
        return self.run_time


_FIELDS = [f.name for f in fields(SWFJob)]
_INT_FIELDS = {
    "job_number",
    "allocated_processors",
    "requested_processors",
    "status",
    "user_id",
    "group_id",
    "executable",
    "queue",
    "partition",
    "preceding_job",
}


def _parse_line(line: str, lineno: int) -> SWFJob:
    parts = line.split()
    if len(parts) != 18:
        raise ValueError(f"SWF line {lineno}: expected 18 fields, got {len(parts)}")
    kwargs = {}
    for name, token in zip(_FIELDS, parts):
        try:
            kwargs[name] = int(token) if name in _INT_FIELDS else float(token)
        except ValueError as exc:
            raise ValueError(f"SWF line {lineno}: bad value {token!r} for {name}") from exc
    return SWFJob(**kwargs)


def read_swf(source: str | Path | TextIO) -> tuple[list[SWFJob], dict[str, str]]:
    """Parse an SWF file (or file-like) into jobs plus header metadata.

    Header comment lines of the form ``; Key: value`` populate the
    metadata dict; other comments are skipped.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as fh:
            return read_swf(fh)
    jobs: list[SWFJob] = []
    meta: dict[str, str] = {}
    for lineno, raw in enumerate(source, start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith(";"):
            body = line.lstrip("; ").strip()
            if ":" in body:
                key, _, value = body.partition(":")
                if key.strip():
                    meta[key.strip()] = value.strip()
            continue
        jobs.append(_parse_line(line, lineno))
    return jobs, meta


def write_swf(
    jobs: Iterable[SWFJob],
    target: str | Path | TextIO,
    metadata: dict[str, str] | None = None,
) -> None:
    """Emit jobs in SWF, with optional ``; Key: value`` header lines."""
    if isinstance(target, (str, Path)):
        with open(target, "w", encoding="utf-8") as fh:
            write_swf(jobs, fh, metadata)
            return
    if metadata:
        for key, value in metadata.items():
            target.write(f"; {key}: {value}\n")
    for job in jobs:
        cells = []
        for name in _FIELDS:
            value = getattr(job, name)
            if name in _INT_FIELDS:
                cells.append(str(int(value)))
            elif value == int(value):
                cells.append(str(int(value)))  # archive style: integral seconds
            else:
                cells.append(repr(value))  # shortest exact representation
        target.write(" ".join(cells) + "\n")


def swf_to_requests(jobs: Iterable[SWFJob], use_estimates: bool = True) -> list[Request]:
    """Extract the paper's ``(q_r, s_r, l_r, n_r)`` tuples from SWF records.

    ``s_r = q_r`` (traces contain no advance reservations — Section 5.2
    synthesizes those separately); ``l_r`` is the runtime estimate when
    ``use_estimates`` (the paper's model) or the actual runtime otherwise.
    Jobs with no usable duration or processor count are skipped, matching
    the usual archive-cleaning step.
    """
    requests: list[Request] = []
    for job in jobs:
        nr = job.processors()
        lr = job.estimated_runtime() if use_estimates else job.run_time
        if nr <= 0 or lr <= 0:
            continue
        requests.append(
            Request(qr=job.submit_time, sr=job.submit_time, lr=lr, nr=nr, rid=job.job_number)
        )
    return requests
