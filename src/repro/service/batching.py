"""Micro-batching of queued operations between event-loop ticks.

The actor drains its queue in batches: one ``await`` for the first item,
then a non-blocking sweep of everything already queued (bounded by
``max_batch``).  All operations in a batch are applied back-to-back
without yielding to the event loop, so the tree updates of co-scheduled
requests are fused — no connection handler interleaves between them, no
future wakes up mid-batch, and Python's bytecode loop stays hot on the
calendar code path.

Responses are still per-operation (each carries its own future); batching
changes *when* work happens, never its FIFO order or its outcome — the
restart identity check of ``TestRestartIsReplay`` (a reboot replays the
log to the abandoned primary's state) depends on that.

The way back out is batched the same way: the actor resolves a batch's
futures in one step, so a connection writer finds a run of them done
together (:func:`ready_runs`) and answers the run with one socket write.
"""

from __future__ import annotations

import asyncio
from typing import Any, AsyncIterator, Callable, TypeVar

T = TypeVar("T")

__all__ = ["drain_batch", "ready_runs"]


async def drain_batch(queue: "asyncio.Queue[T]", max_batch: int) -> list[T]:
    """Await one queued item, then sweep up to ``max_batch - 1`` more.

    Returns at least one item.  Items are returned in queue (FIFO) order;
    the sweep never blocks, so a lone request is served immediately —
    micro-batching adds no latency floor under light load.
    """
    if max_batch < 1:
        raise ValueError(f"batch size must be at least 1, got {max_batch}")
    first = await queue.get()
    batch: list[Any] = [first]
    while len(batch) < max_batch:
        try:
            batch.append(queue.get_nowait())
        except asyncio.QueueEmpty:
            break
    return batch


async def ready_runs(
    queue: "asyncio.Queue[T | None]",
    future_of: "Callable[[T], asyncio.Future[Any] | None]",
) -> AsyncIterator[list[T]]:
    """The queue's items in FIFO runs, until its ``None`` sentinel.

    A run is the head item once ``future_of(item)`` is done, plus every
    item queued behind it whose future is done by then (``None`` counts
    as done: nothing to wait for) — what a connection writer can answer
    in order with one write.  Done includes failed: the consumer reads
    each outcome off the future.  A lone item is a run of one, handed
    over the moment it is done.
    """
    item = await queue.get()
    while item is not None:
        future = future_of(item)
        if future is not None and not future.done():
            try:
                await future
            except asyncio.CancelledError:
                if not future.cancelled():
                    raise  # this task was cancelled, not the item's future
            except Exception:
                pass  # the consumer's to read off the future, not ours
        run = [item]
        while True:
            if queue.empty():
                yield run
                item = await queue.get()
                break
            item = queue.get_nowait()
            future = None if item is None else future_of(item)
            if item is None or (future is not None and not future.done()):
                yield run
                break
            run.append(item)
