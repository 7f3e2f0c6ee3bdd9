"""Continuous batching: fold queued requests into dynamic batches.

The batcher implements the decision rule of continuous-batching servers:
the head-of-queue bucket dispatches as soon as it is *full* (adding the
next compatible request would exceed ``max_batch`` ciphertexts), its
*window* expires (the oldest member has waited ``max_wait_s``), or the
server is draining and no further arrivals can top the batch up.  Until
then the batch stays open, trading a bounded wait for a larger -- and far
more device-efficient -- BatchSize (the Fig. 17 occupancy effect is what
makes this trade profitable).

The rule reads any sequence of pending requests.  The server passes only
the head bucket's first ``max_batch + 1`` requests, already in dispatch
order (:meth:`repro.serving.queue.RequestQueue.head_group`): request sizes
are >= 1, so no request past those can change the decision.  Given the
whole queue instead, the rule finds the same batch; the tests use it that
way as the oracle for the queue's index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .policies import AdmissionPolicy
from .request import Request


@dataclass(frozen=True)
class Batch:
    """One formed dynamic batch, ready to run on a lane."""

    bid: int
    app: str
    requests: Tuple[Request, ...]
    #: BatchSize the model runs at (>= total_size; policies may pad).
    executed_size: int
    #: When the batch left the admission queue.
    formed_s: float

    @property
    def total_size(self) -> int:
        """Ciphertexts actually carried (excluding policy padding)."""
        return sum(r.size for r in self.requests)

    def __len__(self) -> int:
        return len(self.requests)


class ContinuousBatcher:
    """Stateless batch-formation rule over pending requests."""

    def __init__(self, policy: AdmissionPolicy, max_batch: int = 64,
                 max_wait_s: float = 30.0):
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_wait_s < 0:
            raise ValueError(f"max_wait_s must be >= 0, got {max_wait_s}")
        self.policy = policy
        self.max_batch = max_batch
        self.max_wait_s = max_wait_s

    def candidate(
        self, pending: Sequence[Request], now: float, draining: bool
    ) -> Tuple[Optional[List[Request]], float]:
        """The batch to dispatch at `now`, or when to look again.

        `pending` is the whole queue or any prefix of its head bucket in
        dispatch order that holds at least ``max_batch + 1`` requests (or
        all of them); both give the same answer.

        Returns ``(requests, window_deadline)``.  ``requests`` is non-None
        when the head bucket should dispatch now (full, window expired, or
        draining); otherwise the batch is still filling and the server
        should re-evaluate at ``window_deadline`` or the next arrival,
        whichever comes first.  A single request larger than ``max_batch``
        dispatches alone at its own size.
        """
        if not pending:
            return None, math.inf
        ordered = sorted(pending, key=self.policy.order_key)
        bucket = self.policy.bucket(ordered[0])
        group = [r for r in ordered if self.policy.bucket(r) == bucket]
        take: List[Request] = []
        total = 0
        overflow = False
        for request in group:
            if take and total + request.size > self.max_batch:
                overflow = True
                break
            take.append(request)
            total += request.size
        full = overflow or total >= self.max_batch
        window_deadline = min(r.arrival_s for r in take) + self.max_wait_s
        if full or draining or now >= window_deadline:
            return take, window_deadline
        return None, window_deadline
