"""Run the debug daemon inside another process.

`python -m repro serve` owns the process with ``asyncio.run``; embedders
(the test suite, the serve bench, applications that want a debug port on
the side) instead want the daemon on a background thread with its own
event loop, plus a blocking start/stop surface::

    from repro.serve import DaemonThread

    with DaemonThread() as d:          # port 0: the OS picks one
        client = d.connect()
        sid = client.create("rle")["session"]
        ...
    # leaving the block drains the daemon gracefully

The thread mirrors ``asyncio.run``'s teardown (cancel and await
straggling tasks before closing the loop), so embedding leaks nothing.
"""

from __future__ import annotations

import asyncio
import threading

from .daemon import DebugDaemon


class DaemonThread:
    """One live daemon on a dedicated background-thread event loop."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0, **kwargs):
        self.loop = asyncio.new_event_loop()
        self.daemon = DebugDaemon(host=host, port=port, **kwargs)
        self._started = threading.Event()
        self.thread = threading.Thread(
            target=self._run, name="repro-serve-daemon", daemon=True
        )
        self.thread.start()
        if not self._started.wait(20):
            raise RuntimeError("debug daemon failed to start")

    def _run(self) -> None:
        asyncio.set_event_loop(self.loop)
        self.loop.run_until_complete(self.daemon.start())
        self._started.set()
        self.loop.run_until_complete(self.daemon.serve_forever())
        # mirror asyncio.run's teardown: cancel and await stragglers
        # (DAP and HTTP connection coroutines) before closing the loop
        pending = asyncio.all_tasks(self.loop)
        for task in pending:
            task.cancel()
        if pending:
            self.loop.run_until_complete(
                asyncio.gather(*pending, return_exceptions=True)
            )
        self.loop.close()

    @property
    def port(self) -> int:
        return self.daemon.port

    @property
    def host(self) -> str:
        return self.daemon.host

    def connect(self, timeout: float = 30.0):
        """A blocking :class:`~repro.serve.client.DebugClient` bound to
        this daemon."""
        from .client import DebugClient

        return DebugClient(self.host, self.port, timeout=timeout)

    def stop(self) -> None:
        """Graceful drain; idempotent, safe after an in-band shutdown."""
        if self.thread.is_alive() and not self.daemon.draining:
            try:
                asyncio.run_coroutine_threadsafe(
                    self.daemon.shutdown(), self.loop
                ).result(30)
            except Exception:
                pass
        self.thread.join(20)

    def __enter__(self) -> "DaemonThread":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()
