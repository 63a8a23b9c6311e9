"""Fixture: async near-misses RA202 and RA204 must leave alone."""

import asyncio


async def well_behaved(host, port, proc):
    reader, writer = await asyncio.open_connection(host, port, limit=1 << 20)
    line = await reader.readline()  # awaited stream read, not a sync file
    await asyncio.sleep(0.01)  # the async sleep, not time.sleep
    await asyncio.to_thread(proc.wait)  # blocking call pushed off-loop
    writer.close()
    return line
