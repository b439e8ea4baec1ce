"""In-process harness for tests and load generators.

:class:`ServerThread` runs either serving tier — a
:class:`~repro.server.server.CinderellaServer` (the default) or a
:class:`~repro.router.router.CinderellaRouter`, anything built on the
shared :class:`~repro.server.frontdoor.FrontDoor` — on a dedicated event
loop in a daemon thread, so blocking test code (and the benchmark's
worker threads) can drive it through real sockets:

>>> with ServerThread() as harness:                    # doctest: +SKIP
...     with ServerClient(*harness.address) as client:
...         client.ping()

``stop()`` (also run by ``__exit__``) performs the server's graceful
drain and then joins the loop thread, so by the time the context block
exits a node's table is quiescent and safe to inspect from the test thread —
the soak suite runs its invariant and cache-coherence checks exactly
there.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import inspect
import threading
import time
from typing import Optional

from repro.server.frontdoor import FrontDoor
from repro.server.server import CinderellaServer, ServerConfig


class ServerThread:
    """Run one server or router on its own event loop in a thread."""

    def __init__(
        self,
        server: Optional[FrontDoor] = None,
        config: Optional[ServerConfig] = None,
        startup_timeout_s: float = 10.0,
    ) -> None:
        self.server = server if server is not None else CinderellaServer(
            config=config
        )
        self._startup_timeout_s = startup_timeout_s
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self.address: tuple[str, int] = ("", 0)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ServerThread":
        if self._thread is not None:
            raise RuntimeError("harness already started")
        self._thread = threading.Thread(
            target=self._run, name="repro-server-loop", daemon=True
        )
        self._thread.start()
        if not self._started.wait(self._startup_timeout_s):
            raise TimeoutError("server failed to start in time")
        if self._startup_error is not None:
            raise RuntimeError("server startup failed") from self._startup_error
        return self

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        self._loop = loop
        asyncio.set_event_loop(loop)
        try:
            loop.run_until_complete(self._serve())
        finally:
            loop.close()

    async def _serve(self) -> None:
        try:
            self.address = await self.server.start()
        except BaseException as err:  # surface bind errors to the caller
            self._startup_error = err
            self._started.set()
            return
        self._started.set()
        await self.server.serve_until_stopped()

    def stop(self, timeout_s: float = 30.0) -> None:
        """Graceful drain, then join the loop thread."""
        self._end(self.server.stop, timeout_s)

    def kill(self, timeout_s: float = 10.0) -> None:
        """Crash the node: no drain, connections get RSTs, queued writes
        die unacknowledged.  The chaos suite uses this to test the
        durability contract — only the WAL survives a :meth:`kill`."""
        self._end(self.server.abort, timeout_s)

    def _end(self, ending, timeout_s: float) -> None:
        """Run *ending* (a coroutine function) on the loop, then join.

        A wire ``shutdown`` may have ended the serving coroutine already:
        the loop then stops, and closes, without running what was
        submitted to it.  So the submission is waited on only while the
        loop thread lives; once it ended, a coroutine it never started
        is closed here, unrun.
        """
        thread = self._thread
        if thread is None or self._loop is None:
            return
        if thread.is_alive() and self._startup_error is None:
            coroutine = ending()
            try:
                future = asyncio.run_coroutine_threadsafe(coroutine, self._loop)
            except RuntimeError:
                # the loop closed between the liveness test and the submission
                coroutine.close()
            else:
                deadline = time.monotonic() + timeout_s
                while not future.done() and thread.is_alive():
                    if time.monotonic() >= deadline:
                        raise TimeoutError("server did not stop in time")
                    concurrent.futures.wait((future,), timeout=0.05)
                if future.done():
                    future.result()
                elif inspect.getcoroutinestate(coroutine) == inspect.CORO_CREATED:
                    coroutine.close()
        thread.join(timeout=timeout_s)
        if thread.is_alive():  # pragma: no cover - debugging aid
            raise TimeoutError("server loop thread did not exit")
        self._thread = None
        self._loop = None

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *_exc: object) -> None:
        self.stop()
