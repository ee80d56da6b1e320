"""A loopback echo server for gateway-mix's speed probe.

Run as ``python3 -m codbbench.echo``; prints ``READY <port>``, answers
each connection's first line with the same line, and exits on SIGTERM.
A round trip to it costs what the gateway's requests cost besides the
program's own work: connecting over loopback and waking another process.
"""

from __future__ import annotations

import asyncio
import signal


async def _echo(reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
    try:
        writer.write(await reader.readline())
        await writer.drain()
    finally:
        writer.close()


async def main() -> None:
    server = await asyncio.start_server(_echo, "127.0.0.1", 0)
    stop = asyncio.Event()
    asyncio.get_running_loop().add_signal_handler(signal.SIGTERM, stop.set)
    print(f"READY {server.sockets[0].getsockname()[1]}", flush=True)
    async with server:
        await stop.wait()


if __name__ == "__main__":
    asyncio.run(main())
