"""Continuous batching rules: full / window-expired / draining dispatch,
and the indexed queue's head group deciding exactly like the whole queue."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.serving import (
    POLICIES,
    ContinuousBatcher,
    FifoPolicy,
    Request,
    RequestQueue,
    get_policy,
)


def _req(rid, app="helr", size=1, arrival=0.0):
    return Request(rid=rid, app=app, size=size, arrival_s=arrival)


def _batcher(max_batch=4, max_wait_s=10.0):
    return ContinuousBatcher(FifoPolicy(), max_batch=max_batch, max_wait_s=max_wait_s)


class TestValidation:
    def test_rejects_bad_limits(self):
        with pytest.raises(ValueError):
            _batcher(max_batch=0)
        with pytest.raises(ValueError):
            _batcher(max_wait_s=-1.0)


class TestDispatchRules:
    def test_empty_queue_never_dispatches(self):
        take, deadline = _batcher().candidate([], now=0.0, draining=True)
        assert take is None and deadline == math.inf

    def test_filling_batch_waits_for_window(self):
        pending = [_req(0, arrival=0.0), _req(1, arrival=2.0)]
        take, deadline = _batcher(max_wait_s=10.0).candidate(
            pending, now=5.0, draining=False
        )
        assert take is None
        assert deadline == 10.0  # oldest arrival + window

    def test_window_expiry_dispatches_partial_batch(self):
        pending = [_req(0, arrival=0.0), _req(1, arrival=2.0)]
        take, _ = _batcher(max_wait_s=10.0).candidate(pending, now=10.0, draining=False)
        assert take is not None and [r.rid for r in take] == [0, 1]

    def test_full_batch_dispatches_immediately(self):
        pending = [_req(i) for i in range(4)]
        take, _ = _batcher(max_batch=4).candidate(pending, now=0.0, draining=False)
        assert take is not None and len(take) == 4

    def test_overflow_leaves_remainder_queued(self):
        pending = [_req(i, size=3) for i in range(3)]  # 9 cts vs max_batch 4
        take, _ = _batcher(max_batch=4).candidate(pending, now=0.0, draining=False)
        assert take is not None
        assert [r.rid for r in take] == [0]  # 3 + 3 > 4: second stays queued

    def test_draining_flushes_without_waiting(self):
        pending = [_req(0)]
        take, _ = _batcher(max_wait_s=10.0).candidate(pending, now=0.0, draining=True)
        assert take is not None and len(take) == 1

    def test_oversized_single_request_dispatches_alone(self):
        pending = [_req(0, size=9), _req(1, size=1)]
        take, _ = _batcher(max_batch=4).candidate(pending, now=0.0, draining=False)
        assert take is not None
        assert [r.rid for r in take] == [0]
        assert sum(r.size for r in take) == 9

    def test_only_head_bucket_dispatches(self):
        pending = [
            _req(0, app="helr", arrival=0.0),
            _req(1, app="packbootstrap", arrival=1.0),
            _req(2, app="helr", arrival=2.0),
        ]
        take, _ = _batcher().candidate(pending, now=20.0, draining=False)
        assert take is not None
        assert all(r.app == "helr" for r in take)
        assert [r.rid for r in take] == [0, 2]


class TestQueueMetrics:
    def test_depth_accounting(self):
        queue = RequestQueue()
        queue.push(_req(0), now=0.0)
        queue.push(_req(1), now=1.0)
        queue.push(_req(2), now=2.0)
        queue.remove([_req(0), _req(1)], now=4.0)
        assert queue.max_depth() == 3
        assert len(queue) == 1
        # Step function: depth 1 for 1s, 2 for 1s, 3 for 2s over a 4s span.
        assert queue.mean_depth() == pytest.approx((1 + 2 + 3 * 2) / 4.0)

    def test_remove_is_by_rid(self):
        queue = RequestQueue()
        queue.push(_req(0), now=0.0)
        queue.push(_req(1), now=0.0)
        queue.remove([_req(0)], now=1.0)
        assert [r.rid for r in queue.requests] == [1]


TENANTS = ("a", "b")

#: One queue operation: push a fresh request, remove an arbitrary subset
#: (picked by index into the queue, plus one rid that is never queued),
#: pop one rid, or dispatch the head batch the way the server does.
_push = st.tuples(
    st.just("push"),
    st.integers(min_value=0, max_value=40),  # rid (repeats collide)
    st.sampled_from(("helr", "packbootstrap")),
    st.integers(min_value=1, max_value=10),  # size, also > max_batch
    st.integers(min_value=0, max_value=20),  # arrival (ties likely)
    st.integers(min_value=1, max_value=30),  # slo
    st.integers(min_value=0, max_value=2),  # priority
    st.sampled_from(TENANTS),
)
_remove = st.tuples(
    st.just("remove"), st.lists(st.integers(min_value=0, max_value=50), max_size=4)
)
_pop = st.tuples(st.just("pop"), st.integers(min_value=0, max_value=40))
_dispatch = st.tuples(st.just("dispatch"))


class TestHeadGroupEquivalence:
    """``candidate`` over ``head_group(max_batch + 1)`` equals ``candidate``
    over the whole queue after any sequence of pushes and removals, and the
    queue's membership agrees with a plain-list model."""

    @settings(max_examples=300, deadline=None)
    @given(
        policy_name=st.sampled_from(sorted(POLICIES)),
        max_batch=st.integers(min_value=1, max_value=8),
        max_wait_s=st.sampled_from((0.0, 5.0, 30.0)),
        ops=st.lists(
            st.one_of(_push, _push, _push, _remove, _pop, _dispatch),
            min_size=10, max_size=60,
        ),
        now=st.integers(min_value=0, max_value=60),
    )
    def test_head_group_decides_like_the_whole_queue(
        self, policy_name, max_batch, max_wait_s, ops, now
    ):
        policy = get_policy(policy_name)
        batcher = ContinuousBatcher(policy, max_batch=max_batch, max_wait_s=max_wait_s)
        queue = RequestQueue(policy=policy)
        model = []
        for step, op in enumerate(ops):
            if op[0] == "push":
                _, rid, app, size, arrival, slo, priority, tenant = op
                request = Request(
                    rid=rid, app=app, size=size, arrival_s=float(arrival),
                    slo_s=float(slo), tenant=tenant, priority=priority,
                )
                if any(r.rid == rid for r in model):
                    with pytest.raises(ValueError, match="already queued"):
                        queue.push(request, step)
                else:
                    queue.push(request, step)
                    model.append(request)
            elif op[0] == "remove":
                picked = [model[i % len(model)] for i in op[1]] if model else []
                gone = {r.rid for r in picked}
                queue.remove(picked + [_req(1000)], step)
                model = [r for r in model if r.rid not in gone]
            elif op[0] == "pop":
                expected = next((r for r in model if r.rid == op[1]), None)
                assert queue.pop_rid(op[1], step) == expected
                model = [r for r in model if r.rid != op[1]]
            else:
                take, _ = batcher.candidate(list(queue.requests), step, True)
                if take:
                    queue.remove(take, step)
                    model = [r for r in model if r not in take]

            assert len(queue) == len(model)
            assert list(queue.requests) == model
            for tenant in TENANTS:
                assert queue.tenant_depth(tenant) == sum(
                    r.tenant == tenant for r in model
                )
            ordered = sorted(model, key=policy.order_key)
            assert queue.head_group(len(model)) == [
                r for r in ordered
                if policy.bucket(r) == policy.bucket(ordered[0])
            ]
            for draining in (False, True):
                assert batcher.candidate(
                    queue.head_group(max_batch + 1), now, draining
                ) == batcher.candidate(list(queue.requests), now, draining)
