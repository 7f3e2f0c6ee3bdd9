"""Async front-end tests: backpressure, live stamping, replay equivalence.

The key property: the asyncio ingest edge changes *how* requests reach
the server, never *what* the scheduler does with them -- a replayed trace
drains to the same fingerprint whether it was submitted synchronously or
through the front end.
"""

import asyncio

import pytest

from repro.serving import (
    AsyncFrontEnd,
    FixedServiceModel,
    FrontEndClosed,
    OverloadPolicy,
    Request,
    Server,
    parse_workload_spec,
    run_wall_clock,
    serve_replay,
    synthesize_arrivals,
)

FLAT = FixedServiceModel(lambda app, size: 10.0)


def _server(**kwargs):
    defaults = dict(
        policy="fifo", max_batch=4, max_wait_s=5.0, lanes=1, model=FLAT
    )
    defaults.update(kwargs)
    return Server(**defaults)


def _trace(seed=3):
    return synthesize_arrivals(parse_workload_spec("smoke"), seed=seed)


class TestReplayEquivalence:
    def test_async_replay_matches_sync_fingerprint(self):
        """Same trace, same scheduler, same timeline -- different ingest."""
        requests = _trace()
        sync_server = _server()
        sync_server.submit_many(requests)
        sync_report = sync_server.drain()

        async_report = asyncio.run(serve_replay(_server(), requests))
        assert async_report.fingerprint() == sync_report.fingerprint()
        assert async_report.served == sync_report.served

    def test_paced_replay_keeps_simulated_arrivals(self):
        """Wall pacing (tiny scale) never perturbs the simulated clock."""
        requests = _trace()
        baseline = asyncio.run(serve_replay(_server(), requests))
        paced = asyncio.run(
            serve_replay(_server(), requests, time_scale=1e-4)
        )
        assert paced.fingerprint() == baseline.fingerprint()

    def test_run_wall_clock_entry_point(self):
        requests = _trace()
        report = run_wall_clock(_server(), requests)
        assert report.served == len(requests)

    def test_overloaded_async_replay_sheds(self):
        server = _server(
            overload=OverloadPolicy(queue_capacity=3, shed_threshold=0.5)
        )
        requests = _trace()
        report = asyncio.run(serve_replay(server, requests))
        assert report.offered == len(requests)
        assert report.shed_count + report.rejected_count > 0
        assert report.max_queue_depth <= 3


class TestBackpressure:
    def test_try_submit_refuses_when_full(self):
        async def scenario():
            front = AsyncFrontEnd(
                _server(), max_pending=2, clock=lambda: 0.0
            )
            # No await between the three calls: the pump never runs, so
            # the third submission meets a full ingest buffer.
            first = front.try_submit(app="helr")
            second = front.try_submit(app="helr")
            third = front.try_submit(app="helr")
            assert first is not None and second is not None
            assert third is None
            assert front.refused == 1
            assert front.pressure == pytest.approx(1.0)
            await front.close()
            assert (await first).rid == 0
            return front

        front = asyncio.run(scenario())
        assert front.accepted == 2

    def test_await_submit_blocks_until_pump_frees_a_slot(self):
        async def scenario():
            front = AsyncFrontEnd(
                _server(), max_pending=1, clock=lambda: 0.0
            )
            for _ in range(5):
                await front.submit(app="helr")  # blocks, never deadlocks
            report = await front.drain()
            return front, report

        front, report = asyncio.run(scenario())
        assert front.accepted == 5
        assert report.served == 5

    def test_rejects_nonpositive_bound(self):
        with pytest.raises(ValueError, match="max_pending"):
            AsyncFrontEnd(_server(), max_pending=0)


class TestLiveMode:
    def test_live_submissions_stamp_wall_arrivals(self):
        ticks = iter([0.0, 2.5, 7.0])

        async def scenario():
            front = AsyncFrontEnd(
                _server(), clock=lambda: next(ticks)
            )
            a = await front.submit(app="helr")
            b = await front.submit(app="helr")
            c = await front.submit(app="helr", arrival_s=100.0)  # explicit
            await front.close()
            return a, b, c

        a, b, c = asyncio.run(scenario())
        assert (a.arrival_s, b.arrival_s) == (0.0, 2.5)
        assert c.arrival_s == 100.0  # explicit stamps win over the clock

    def test_submit_after_close_raises(self):
        async def scenario():
            front = AsyncFrontEnd(_server())
            await front.submit(app="helr", arrival_s=0.0)
            await front.close()
            with pytest.raises(FrontEndClosed):
                await front.submit(app="helr")

        asyncio.run(scenario())

    def test_context_manager_closes(self):
        async def scenario():
            async with AsyncFrontEnd(_server()) as front:
                await front.submit(app="helr", arrival_s=0.0)
            assert front._closed
            return front

        front = asyncio.run(scenario())
        assert front.accepted == 1

    def test_invalid_request_surfaces_to_submitter(self):
        async def scenario():
            front = AsyncFrontEnd(_server())
            with pytest.raises(ValueError, match="unknown application"):
                await front.submit(app="not-an-app", arrival_s=0.0)
            await front.close()

        asyncio.run(scenario())

    def test_duplicate_rid_surfaces_to_submitter(self):
        async def scenario():
            front = AsyncFrontEnd(_server())
            await front.submit(Request(rid=5, app="helr"))
            with pytest.raises(ValueError, match="request id 5"):
                await front.submit(Request(rid=5, app="helr"))
            report = await front.drain()
            assert report.offered == report.served == 1

        asyncio.run(scenario())
