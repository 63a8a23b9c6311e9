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
kill/restart identity check of the ``kill-restart`` chaos plan depends
on that.
"""

from __future__ import annotations

import asyncio
from typing import Any, TypeVar

T = TypeVar("T")

__all__ = ["drain_batch"]


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
