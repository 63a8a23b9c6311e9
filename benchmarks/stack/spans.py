"""In-memory span recorder for the traced in-process run.

A span is ``[name, start, end, parent, request]``: ``parent`` is the index
of the span that was open when this one began (-1 for a root) and
``request`` the stream index of the message being served, so the spans of
one request share an identifier.  Spans stay in memory while the run is
timed and are written to a JSON-lines file afterwards.
"""

from __future__ import annotations

from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

NAME, START, END, PARENT, REQUEST = range(5)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.request = -1
        self._open: list[int] = []
        self._unwrap: list[tuple[type, str, Any]] = []

    def begin(self, name: str) -> list[Any]:
        open_ = self._open
        span = [name, 0.0, 0.0, open_[-1] if open_ else -1, self.request]
        open_.append(len(self.spans))
        self.spans.append(span)
        span[START] = perf_counter()
        return span

    def end(self, span: list[Any]) -> None:
        span[END] = perf_counter()
        self._open.pop()

    def call(self, name: str, fn: Callable[..., Any], *args: Any) -> Any:
        """``fn(*args)`` inside a span."""
        span = self.begin(name)
        try:
            return fn(*args)
        finally:
            self.end(span)

    # -- timing wrappers on other modules' public methods ----------------

    def wrap(self, cls: type, method: str, name: str) -> None:
        """Replace ``cls.method`` with a version that records a span per call."""
        original = cls.__dict__[method]
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            span = tracer.begin(name)
            try:
                return original(*args, **kwargs)
            finally:
                tracer.end(span)

        traced.__wrapped__ = original  # type: ignore[attr-defined]
        setattr(cls, method, traced)
        self._unwrap.append((cls, method, original))

    def unwrap_all(self) -> None:
        while self._unwrap:
            cls, method, original = self._unwrap.pop()
            setattr(cls, method, original)

    # -- reading the spans -------------------------------------------------

    def write(self, path: Path) -> None:
        # formatted by hand: a contended run holds ~1M spans, and json.dumps
        # per line would take longer than the traced replay itself
        with path.open("w", encoding="utf-8") as fh:
            for index, (name, start, end, parent, request) in enumerate(self.spans):
                fh.write(
                    f'{{"id":{index},"name":"{name}","start":{start!r},'
                    f'"end":{end!r},"parent":{parent},"request":{request}}}\n'
                )


def totals(spans: list[list[Any]]) -> dict[str, dict[str, float]]:
    """Per span name: call count, inclusive seconds and self seconds.

    Self time is a span's duration minus the durations of its direct
    children (children never overlap: the traced run is single-threaded).
    """
    in_children = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            in_children[span[PARENT]] += span[END] - span[START]
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    )
    for index, span in enumerate(spans):
        duration = span[END] - span[START]
        entry = out[span[NAME]]
        entry["calls"] += 1
        entry["total_s"] += duration
        entry["self_s"] += duration - in_children[index]
    return dict(out)
