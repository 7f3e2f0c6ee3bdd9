"""Overload control: bounded admission, load shedding, and tenant quotas.

Sustained overload is the one regime the simulated-clock server could not
survive before this module: every arrival was queued, the queue grew
without bound, and latency (then memory) went with it.  The overload
controller makes admission an explicit decision with three outcomes:

* **admitted** -- the request enters the bounded queue and *will* be
  served (admitted requests are never silently dropped; they can only
  leave the queue by dispatching, by an explicit cancellation, or by a
  priority eviction, each of which is accounted).
* **shed** -- dropped by *policy*: low-priority arrivals are turned away
  once queue pressure crosses ``shed_threshold`` (load shedding keeps
  headroom for the premium tiers), and queued low-priority requests may
  be evicted when a higher-priority arrival finds the queue full.
* **rejected** -- dropped by *necessity*: the queue is at capacity with
  no lower-priority victim, or the tenant is over its admission quota.

Every offered request lands in exactly one bucket, so
``admitted + shed + rejected == offered`` is an invariant the property
suite checks (:mod:`tests.serving.test_overload_properties`).  Queue
pressure is exposed as a backpressure signal for ingest front ends
(:class:`~repro.serving.async_frontend.AsyncFrontEnd` maps it to
``await``-side blocking) and as a ``serving_queue_pressure_peak`` gauge.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, NamedTuple, Optional

from .queue import QueueFull, RequestQueue
from .request import Request

#: Admission outcomes (also the keys of the ledger counters).
ADMITTED = "admitted"
SHED = "shed"
REJECTED = "rejected"

#: Shed / reject reasons.
REASON_PRESSURE = "pressure"
REASON_EVICTED = "evicted"
REASON_QUEUE_FULL = "queue-full"
REASON_TENANT_QUOTA = "tenant-quota"


@dataclass(frozen=True)
class OverloadPolicy:
    """Knobs of the admission controller.

    Args:
        queue_capacity: hard bound on pending requests (the backstop that
            replaces the latent unbounded-queue behaviour).
        shed_threshold: queue-fill fraction at which load shedding of
            low-priority arrivals begins (1.0 disables pressure shedding;
            the capacity bound still applies).
        shed_below_priority: arrivals with priority strictly below this
            are shed once pressure >= ``shed_threshold``.
        tenant_quota: maximum *queued* requests per tenant; ``None``
            disables quotas.
        evict_lower_priority: when the queue is full, let a
            higher-priority arrival evict the lowest-priority queued
            request (the victim counts as shed) instead of being
            rejected outright.
    """

    queue_capacity: int = 128
    shed_threshold: float = 0.75
    shed_below_priority: int = 1
    tenant_quota: Optional[int] = None
    evict_lower_priority: bool = True

    def __post_init__(self):
        if self.queue_capacity < 1:
            raise ValueError(
                f"queue_capacity must be >= 1, got {self.queue_capacity}"
            )
        if not 0.0 < self.shed_threshold <= 1.0:
            raise ValueError(
                f"shed_threshold must be in (0, 1], got {self.shed_threshold}"
            )
        if self.shed_below_priority < 0:
            raise ValueError(
                "shed_below_priority must be >= 0, got "
                f"{self.shed_below_priority}"
            )
        if self.tenant_quota is not None and self.tenant_quota < 1:
            raise ValueError(
                f"tenant_quota must be >= 1, got {self.tenant_quota}"
            )

    def to_jsonable(self) -> Dict[str, object]:
        return asdict(self)

    @classmethod
    def from_jsonable(cls, data: Dict[str, object]) -> "OverloadPolicy":
        return cls(
            queue_capacity=int(data["queue_capacity"]),
            shed_threshold=float(data["shed_threshold"]),
            shed_below_priority=int(data["shed_below_priority"]),
            tenant_quota=(
                None if data.get("tenant_quota") is None
                else int(data["tenant_quota"])
            ),
            evict_lower_priority=bool(data.get("evict_lower_priority", True)),
        )


class AdmissionDecision(NamedTuple):
    """One arrival's fate: the outcome, why, and any evicted victim."""

    outcome: str
    reason: str
    #: The queued request evicted to make room (outcome ``admitted`` with
    #: reason ``evicted``); ``None`` otherwise.
    victim: Optional[Request] = None


@dataclass
class AdmissionLedger:
    """Conserved admission accounting for one drain."""

    offered: int = 0
    admitted: int = 0
    shed: int = 0
    rejected: int = 0
    #: outcome reason -> count (e.g. ``shed:pressure``).
    reasons: Dict[str, int] = field(default_factory=dict)

    def count(self, outcome: str, reason: str) -> None:
        self.offered += 1
        if outcome == ADMITTED:
            self.admitted += 1
        elif outcome == SHED:
            self.shed += 1
        else:
            self.rejected += 1
        if reason:
            key = f"{outcome}:{reason}"
            self.reasons[key] = self.reasons.get(key, 0) + 1

    def count_eviction(self) -> None:
        """An admitted request later evicted moves admitted -> shed."""
        self.admitted -= 1
        self.shed += 1
        key = f"{SHED}:{REASON_EVICTED}"
        self.reasons[key] = self.reasons.get(key, 0) + 1

    def as_dict(self) -> Dict[str, int]:
        table = {
            "offered": self.offered,
            "admitted": self.admitted,
            "shed": self.shed,
            "rejected": self.rejected,
        }
        table.update(sorted(self.reasons.items()))
        return table


class AdmissionController:
    """Applies one :class:`OverloadPolicy` to a stream of arrivals.

    The controller never mutates the queue except through the documented
    eviction path; the server owns pushes so its depth samples stay the
    single source of queue metrics.
    """

    def __init__(self, policy: OverloadPolicy):
        self.policy = policy
        self.ledger = AdmissionLedger()
        #: Peak queue pressure observed at admission decisions.
        self.peak_pressure = 0.0

    def admit(
        self, request: Request, queue: RequestQueue, now: float
    ) -> AdmissionDecision:
        """Decide one arrival's fate and (on admission) push it."""
        policy = self.policy
        self.peak_pressure = max(self.peak_pressure, queue.pressure)

        if (
            policy.tenant_quota is not None
            and queue.tenant_depth(request.tenant) >= policy.tenant_quota
        ):
            self.ledger.count(REJECTED, REASON_TENANT_QUOTA)
            return AdmissionDecision(REJECTED, REASON_TENANT_QUOTA)

        if (
            queue.pressure >= policy.shed_threshold
            and request.priority < policy.shed_below_priority
        ):
            self.ledger.count(SHED, REASON_PRESSURE)
            return AdmissionDecision(SHED, REASON_PRESSURE)

        try:
            queue.push(request, now)
        except QueueFull:
            if policy.evict_lower_priority:
                victim = queue.lowest_priority(below=request.priority)
                if victim is not None:
                    queue.pop_rid(victim.rid, now)
                    queue.push(request, now)
                    # The victim moves admitted -> shed; the arrival is a
                    # plain admission (its decision carries the victim).
                    self.ledger.count_eviction()
                    self.ledger.count(ADMITTED, "")
                    return AdmissionDecision(ADMITTED, REASON_EVICTED, victim)
            self.ledger.count(REJECTED, REASON_QUEUE_FULL)
            return AdmissionDecision(REJECTED, REASON_QUEUE_FULL)
        self.ledger.count(ADMITTED, "")
        self.peak_pressure = max(self.peak_pressure, queue.pressure)
        return AdmissionDecision(ADMITTED, "")
