import json

from repro.core.calendar import AvailabilityCalendar
from repro.core.slot_tree import TwoDimTree

import inproc
from checks import digest
from spans import Tracer, totals
from streams import WORKLOADS, build_stream


def test_tracing_changes_no_verdict_and_leaves_no_wrapper(tmp_path):
    before = (TwoDimTree.phase1, TwoDimTree.apply_batch, AvailabilityCalendar.allocate)
    for name in ("contended-tcp", "mixed-http"):
        w = WORKLOADS[name]
        stream = build_stream(w, 11, 300)
        plain = inproc.replay(stream, w.transport == "http")
        tracer = Tracer()
        traced = inproc.replay(stream, w.transport == "http", tmp_path / name, tracer)
        assert digest(traced.verdicts) == digest(plain.verdicts)
        assert None not in plain.verdicts
        assert before == (TwoDimTree.phase1, TwoDimTree.apply_batch, AvailabilityCalendar.allocate)
        spent = totals(tracer.spans)
        assert spent["request"]["calls"] == 300
        assert spent["calendar.find_feasible"]["calls"] > 0
        # every span of one request carries that request's stream index
        assert {span[4] for span in tracer.spans} == set(range(300))


def test_span_file_is_json_lines(tmp_path):
    w = WORKLOADS["mixed-tcp"]
    tracer = Tracer()
    inproc.replay(build_stream(w, 1, 50), False, None, tracer)
    tracer.write(tmp_path / "trace.jsonl")
    rows = [json.loads(line) for line in (tmp_path / "trace.jsonl").read_text().splitlines()]
    assert len(rows) == len(tracer.spans)
    assert set(rows[0]) == {"id", "name", "start", "end", "parent", "request"}
    assert all(row["parent"] < row["id"] for row in rows)
