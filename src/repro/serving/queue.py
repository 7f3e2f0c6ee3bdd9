"""The admission queue: arrived-but-unscheduled requests plus depth metrics.

The queue is **indexed** for dispatch.  A rid-keyed table keeps the
requests in push order (``requests``) and makes removing a dispatched
batch or a cancelled request O(1) per request; alongside it, every
``policy.bucket`` keeps its requests sorted by ``policy.order_key``, each
key computed once at push.  :meth:`RequestQueue.head_group` then reads the
head bucket's first few requests without touching the rest of the queue,
so a dispatch decision costs O(buckets + max_batch) however deep the
queue grows.  The decision rule itself lives in
:mod:`repro.serving.batcher` (and the ordering in
:mod:`repro.serving.policies`); every mutation also records a time-stamped
depth sample, so the server can report time-weighted mean and peak queue
depth without a separate metrics pass.

The queue is **bounded** when given a ``capacity``: pushing into a full
queue raises :class:`QueueFull` instead of growing without limit.  Under
sustained overload an unbounded queue is an OOM waiting to happen (and a
latency disaster long before that); the explicit rejection path is what
:mod:`repro.serving.overload` turns into load shedding, eviction, and
backpressure signals.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from operator import itemgetter
from typing import Dict, Hashable, Iterable, List, Optional, Tuple

from .policies import AdmissionPolicy, FifoPolicy
from .request import Request

#: One queued request: (order key, push sequence, request, bucket).  The
#: unique push sequence breaks order-key ties, so entries never compare
#: past it.
_Entry = Tuple[Tuple, int, Request, Hashable]


class QueueFull(Exception):
    """Raised when a push would exceed the queue's capacity bound."""

    def __init__(self, capacity: int):
        super().__init__(
            f"admission queue is at its capacity bound ({capacity} requests)"
        )
        self.capacity = capacity


class RequestQueue:
    """Pending requests, indexed for dispatch, with step-function depth
    accounting.

    Args:
        capacity: maximum pending requests; ``None`` leaves the queue
            unbounded (the pre-overload-control behaviour).
        policy: the admission policy whose ``bucket`` and ``order_key``
            the dispatch index is built on; defaults to FIFO.
    """

    def __init__(
        self,
        capacity: Optional[int] = None,
        policy: Optional[AdmissionPolicy] = None,
    ):
        if capacity is not None and capacity < 1:
            raise ValueError(f"queue capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.policy = policy if policy is not None else FifoPolicy()
        #: rid -> entry, in push order.
        self._entries: Dict[int, _Entry] = {}
        #: bucket -> its entries sorted by (order key, push sequence).
        self._buckets: Dict[Hashable, List[_Entry]] = {}
        self._pushes = 0
        #: (time, depth) samples; depth holds until the next sample.
        self._samples: List[Tuple[float, int]] = []

    # -- membership ---------------------------------------------------------------

    def push(self, request: Request, now: float) -> None:
        """Add one request; raises :class:`QueueFull` at the bound and
        ``ValueError`` when its rid is already queued."""
        if self.capacity is not None and len(self._entries) >= self.capacity:
            raise QueueFull(self.capacity)
        if request.rid in self._entries:
            raise ValueError(f"request id {request.rid} is already queued")
        bucket = self.policy.bucket(request)
        entry = (self.policy.order_key(request), self._pushes, request, bucket)
        self._pushes += 1
        self._entries[request.rid] = entry
        insort(self._buckets.setdefault(bucket, []), entry)
        self._sample(now)

    def remove(self, requests: Iterable[Request], now: float) -> None:
        """Drop a dispatched batch's requests (by identity of rid)."""
        doomed: Dict[Hashable, List[int]] = {}  # bucket -> positions to drop
        for request in requests:
            entry = self._entries.pop(request.rid, None)
            if entry is None:
                continue
            key, pushed, _, bucket = entry
            doomed.setdefault(bucket, []).append(
                bisect_left(self._buckets[bucket], (key, pushed))
            )
        for bucket, positions in doomed.items():
            entries = self._buckets[bucket]
            positions.sort()
            if positions[-1] - positions[0] == len(positions) - 1:
                # A dispatched take is a prefix of its bucket: one slice.
                del entries[positions[0]:positions[-1] + 1]
            else:
                for position in reversed(positions):
                    del entries[position]
            if not entries:
                del self._buckets[bucket]
        self._sample(now)

    def pop_rid(self, rid: int, now: float) -> Optional[Request]:
        """Remove and return the queued request with `rid`, if present."""
        entry = self._entries.get(rid)
        if entry is None:
            return None
        self.remove((entry[2],), now)
        return entry[2]

    def head_group(self, limit: int) -> List[Request]:
        """The first `limit` requests of the head bucket, in dispatch order.

        The head bucket is the one holding the lowest ``order_key`` (ties
        go to the earlier push), and its requests come sorted the same
        way -- exactly the group ``ContinuousBatcher.candidate`` forms
        from the whole queue, cut to `limit`.
        """
        if not self._buckets:
            return []
        head = min(self._buckets.values(), key=itemgetter(0))
        return [entry[2] for entry in head[:limit]]

    def lowest_priority(self, below: int) -> Optional[Request]:
        """The eviction victim: lowest priority strictly below `below`.

        Among equal priorities the most recent arrival goes (it has the
        least queueing investment to waste).  ``None`` when every queued
        request is at or above `below`.
        """
        victim: Optional[Request] = None
        for request in self.requests:
            if request.priority >= below:
                continue
            if (
                victim is None
                or request.priority < victim.priority
                or (
                    request.priority == victim.priority
                    and (request.arrival_s, request.rid)
                    > (victim.arrival_s, victim.rid)
                )
            ):
                victim = request
        return victim

    def tenant_depth(self, tenant: str) -> int:
        """Currently queued requests belonging to one tenant."""
        return sum(
            1 for entry in self._entries.values() if entry[2].tenant == tenant
        )

    @property
    def requests(self) -> Tuple[Request, ...]:
        """The pending requests in push order."""
        return tuple(entry[2] for entry in self._entries.values())

    def __len__(self) -> int:
        return len(self._entries)

    def __bool__(self) -> bool:
        return bool(self._entries)

    # -- pressure -----------------------------------------------------------------

    @property
    def pressure(self) -> float:
        """Fill fraction in [0, 1]; always 0.0 for unbounded queues."""
        if self.capacity is None:
            return 0.0
        return len(self._entries) / self.capacity

    # -- depth metrics ------------------------------------------------------------

    def _sample(self, now: float) -> None:
        self._samples.append((now, len(self._entries)))

    def max_depth(self) -> int:
        return max((depth for _, depth in self._samples), default=0)

    def mean_depth(self) -> float:
        """Time-weighted mean depth over the sampled span."""
        if len(self._samples) < 2:
            return float(self._samples[0][1]) if self._samples else 0.0
        area = 0.0
        for (t0, depth), (t1, _) in zip(self._samples, self._samples[1:]):
            area += depth * (t1 - t0)
        span = self._samples[-1][0] - self._samples[0][0]
        return area / span if span > 0 else float(self._samples[-1][1])

    def depth_samples(self) -> Tuple[Tuple[float, int], ...]:
        return tuple(self._samples)
