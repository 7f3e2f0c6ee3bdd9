"""The indexed admission queue on the overload10x trace.

* Pinned fingerprints: every policy's schedule under cancellations and
  under a bounded queue is frozen in ``tests/fixtures`` (regenerate with
  ``pytest --update-golden``), so a change to how the queue finds the
  head batch cannot silently change which batch dispatches.
* Dispatch work: the policy's ``order_key`` and ``bucket`` calls per
  offered request stay bounded while the queue grows past 8k requests --
  a deterministic call count, not a wall-clock figure.
"""

import json
from pathlib import Path

import pytest

from repro.core.trace_cache import TraceCache
from repro.serving import (
    POLICIES,
    OverloadPolicy,
    Server,
    parse_workload_spec,
    synthesize_arrivals,
)

FINGERPRINTS = (
    Path(__file__).resolve().parent.parent / "fixtures" / "serving_fingerprints.json"
)
PRESET = "overload10x"
#: One request in CANCEL_EVERY is cancelled CANCEL_AFTER_S after it arrives.
CANCEL_EVERY = 97
CANCEL_AFTER_S = 5.0
#: Ceiling on policy-key calls per offered request over one drain.
MAX_KEY_CALLS_PER_REQUEST = 16

PINNED = [
    (f"{policy}-seed{seed}-cancels", policy, seed, None)
    for policy in sorted(POLICIES)
    for seed in (0, 3)
] + [
    (f"{policy}-seed1-capacity200", policy, 1, OverloadPolicy(queue_capacity=200))
    for policy in sorted(POLICIES)
]

#: One trace cache for the module: fingerprints do not depend on it, and
#: the drains after the first replay warm traces.
TRACES = TraceCache()


def _trace(seed):
    return synthesize_arrivals(parse_workload_spec(PRESET), seed=seed)


class TestPinnedFingerprints:
    """Serving replay fingerprints frozen in ``tests/fixtures``."""

    @pytest.mark.parametrize(
        "key,policy,seed,overload", PINNED, ids=[c[0] for c in PINNED]
    )
    def test_fingerprint_matches_fixture(
        self, key, policy, seed, overload, update_golden
    ):
        server = Server(policy=policy, overload=overload, trace_cache=TRACES)
        requests = _trace(seed)
        server.submit_many(requests)
        if overload is None:
            for request in requests[::CANCEL_EVERY]:
                server.cancel(request.rid, request.arrival_s + CANCEL_AFTER_S)
        report = server.drain()
        assert report.offered == len(requests)
        fingerprint = report.fingerprint()
        pinned = (
            json.loads(FINGERPRINTS.read_text()) if FINGERPRINTS.exists() else {}
        )
        if update_golden:
            pinned[key] = fingerprint
            FINGERPRINTS.write_text(json.dumps(pinned, sort_keys=True, indent=2) + "\n")
            pytest.skip(f"regenerated {key} in {FINGERPRINTS.name}")
        assert key in pinned, (
            f"{key} missing from {FINGERPRINTS.name}; run pytest --update-golden"
        )
        assert fingerprint == pinned[key], (
            f"serving fingerprint {key} drifted; inspect the change and run "
            "pytest --update-golden if it is intended"
        )


def _counting_policy(name):
    """An instance of policy `name` that counts its key calls."""

    class Counting(POLICIES[name]):
        calls = 0

        def order_key(self, request):
            self.calls += 1
            return super().order_key(request)

        def bucket(self, request):
            self.calls += 1
            return super().bucket(request)

    return Counting()


class TestDispatchWork:
    @pytest.mark.parametrize("name", sorted(POLICIES))
    def test_key_calls_per_request_bounded(self, name):
        policy = _counting_policy(name)
        server = Server(policy=policy, trace_cache=TRACES)
        offered = server.submit_many(_trace(0))
        report = server.drain()
        assert report.max_queue_depth > 8000  # the deep-queue regime
        assert report.served == offered
        per_request = policy.calls / offered
        assert per_request <= MAX_KEY_CALLS_PER_REQUEST, (
            f"{name}: {per_request:.1f} policy-key calls per request"
        )
