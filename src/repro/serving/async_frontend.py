"""Wall-clock asyncio ingest in front of the simulated-clock server.

The :class:`~repro.serving.server.Server` is a pure simulated-clock
machine: it replays a submitted trace deterministically.  The
:class:`AsyncFrontEnd` is the live edge in front of it -- an asyncio
ingest queue that accepts requests concurrently, applies **backpressure**
(a bounded ``asyncio.Queue``: ``await submit`` blocks once the ingest
buffer is full; ``try_submit`` refuses instead of blocking), stamps
arrival times, and hands the accumulated trace to the *same* scheduling
code (`drain`) that the simulated path runs.  One scheduler, two clocks:

* **live mode** -- ``await frontend.submit(app=...)`` stamps arrivals
  from a wall clock (injectable for tests), so interactive traffic maps
  onto the simulated timeline as it arrives.
* **replay mode** -- ``await frontend.replay(requests)`` feeds a recorded
  trace preserving its original simulated ``arrival_s`` values
  (optionally paced in wall time by ``time_scale``), so the drained
  report is fingerprint-identical to submitting the same trace
  synchronously -- the equivalence :mod:`tests.serving.test_async_frontend`
  asserts.

The ingest bound composes with, but is distinct from, the server's
admission queue: the front end bounds *unprocessed submissions*
(transport backpressure), the :class:`~repro.serving.overload.OverloadPolicy`
bounds *admitted work* (load shedding).
"""

from __future__ import annotations

import asyncio
import time
from typing import Callable, Iterable, List, Optional

from .request import Request
from .server import Server, ServingReport

#: Sentinel closing the ingest queue.
_CLOSE = object()


class FrontEndClosed(RuntimeError):
    """Submission after ``close`` (the ingest queue no longer accepts)."""


class AsyncFrontEnd:
    """Bounded asyncio ingest feeding one server.

    Args:
        server: the simulated-clock server the trace accumulates into.
        max_pending: ingest-buffer bound; ``await submit`` blocks (and
            ``try_submit`` refuses) once this many submissions are
            unprocessed.  This is the backpressure surface.
        clock: wall-clock arrival stamper for live submissions, returning
            seconds since the front end started; defaults to
            ``time.monotonic`` anchored at first use.  Inject a fake for
            deterministic tests.
    """

    def __init__(
        self,
        server: Server,
        max_pending: int = 256,
        clock: Optional[Callable[[], float]] = None,
    ):
        if max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {max_pending}")
        self.server = server
        self.max_pending = max_pending
        self._clock = clock
        self._epoch: Optional[float] = None
        self._queue: asyncio.Queue = asyncio.Queue(maxsize=max_pending)
        self._pump_task: Optional[asyncio.Task] = None
        self._closed = False
        #: Submissions accepted into the ingest buffer.
        self.accepted = 0
        #: ``try_submit`` calls refused by backpressure.
        self.refused = 0

    # -- clocks -------------------------------------------------------------------

    def _now(self) -> float:
        """Seconds since the front end first stamped an arrival."""
        if self._clock is not None:
            return max(0.0, self._clock())
        if self._epoch is None:
            self._epoch = time.monotonic()
        return time.monotonic() - self._epoch

    @property
    def pressure(self) -> float:
        """Ingest-buffer fill fraction in [0, 1] -- the backpressure signal."""
        return self._queue.qsize() / self.max_pending

    # -- pump ---------------------------------------------------------------------

    def _ensure_pump(self) -> None:
        if self._pump_task is None or self._pump_task.done():
            self._pump_task = asyncio.get_running_loop().create_task(
                self._pump()
            )

    async def _pump(self) -> None:
        """Drain the ingest buffer into the server, in submission order."""
        while True:
            item = await self._queue.get()
            if item is _CLOSE:
                return
            request, fields, future = item
            try:
                accepted = self.server.submit(request, **fields)
            except Exception as exc:  # surface to the submitter
                if not future.done():
                    future.set_exception(exc)
            else:
                if not future.done():
                    future.set_result(accepted)

    def _package(self, request: Optional[Request], fields: dict):
        if self._closed:
            raise FrontEndClosed("front end is closed to new submissions")
        if request is None and fields.get("arrival_s") is None:
            fields["arrival_s"] = self._now()
        future = asyncio.get_running_loop().create_future()
        return (request, dict(fields), future)

    # -- submission ---------------------------------------------------------------

    async def submit(
        self, request: Optional[Request] = None, **fields
    ) -> Request:
        """Accept one request; blocks under backpressure.

        Passing a :class:`Request` preserves its fields (replay);
        keyword fields build a fresh one, stamping ``arrival_s`` from the
        wall clock unless given.  Returns the accepted request once the
        pump has handed it to the server.
        """
        self._ensure_pump()
        item = self._package(request, fields)
        await self._queue.put(item)
        self.accepted += 1
        return await item[2]

    def try_submit(
        self, request: Optional[Request] = None, **fields
    ) -> Optional["asyncio.Future"]:
        """Non-blocking accept: ``None`` when backpressure refuses.

        Returns the future resolving to the accepted request, or ``None``
        when the ingest buffer is full (the caller's cue to back off).
        """
        self._ensure_pump()
        item = self._package(request, fields)
        try:
            self._queue.put_nowait(item)
        except asyncio.QueueFull:
            self.refused += 1
            return None
        self.accepted += 1
        return item[2]

    async def replay(
        self,
        requests: Iterable[Request],
        time_scale: float = 0.0,
    ) -> List[Request]:
        """Feed a recorded trace, preserving simulated arrival times.

        ``time_scale`` > 0 paces the feed in wall time (wall seconds per
        simulated second) so live dashboards see realistic ingest;
        0 feeds as fast as backpressure allows.  Either way the stamped
        trace -- and therefore the drained fingerprint -- is identical to
        submitting the requests synchronously.
        """
        if time_scale < 0:
            raise ValueError(f"time_scale must be >= 0, got {time_scale}")
        ordered = sorted(requests, key=lambda r: (r.arrival_s, r.rid))
        accepted: List[Request] = []
        previous: Optional[float] = None
        for request in ordered:
            if time_scale > 0 and previous is not None:
                gap = (request.arrival_s - previous) * time_scale
                if gap > 0:
                    await asyncio.sleep(gap)
            previous = request.arrival_s
            accepted.append(await self.submit(request))
        return accepted

    # -- shutdown -----------------------------------------------------------------

    async def close(self) -> None:
        """Stop accepting and wait for the ingest buffer to empty."""
        if not self._closed:
            self._closed = True
            if self._pump_task is not None:
                await self._queue.put(_CLOSE)
                await self._pump_task

    async def drain(self) -> ServingReport:
        """Close ingest and run the server's deterministic drain."""
        await self.close()
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(None, self.server.drain)

    async def __aenter__(self) -> "AsyncFrontEnd":
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.close()


async def serve_replay(
    server: Server,
    requests: Iterable[Request],
    time_scale: float = 0.0,
    max_pending: int = 256,
) -> ServingReport:
    """Replay a trace through an async front end and drain the server."""
    front = AsyncFrontEnd(server, max_pending=max_pending)
    await front.replay(requests, time_scale=time_scale)
    return await front.drain()


def run_wall_clock(
    server: Server,
    requests: Iterable[Request],
    time_scale: float = 0.0,
    max_pending: int = 256,
) -> ServingReport:
    """Synchronous entry point for the CLI's ``serve --wall-clock`` path."""
    return asyncio.run(
        serve_replay(
            server, requests, time_scale=time_scale, max_pending=max_pending
        )
    )
