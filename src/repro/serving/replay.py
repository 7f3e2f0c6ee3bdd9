"""Traffic snapshot / replay: capture a serving timeline, replay it bit-for-bit.

A :class:`TimelineSnapshot` is everything needed to reproduce one drain:
the server's constructor knobs (its ``snapshot_config``), every submitted
request, every scheduled cancellation, and the SHA-256 timeline
fingerprint the original run produced.  The wire format is JSONL with
sorted keys and fixed separators, so identical snapshots are *byte*
identical -- a snapshot re-captured from its own replay round-trips to the
same bytes, which the regression suite asserts
(:mod:`tests.serving.test_replay`).

The file layout is one JSON object per line::

    {"kind": "snapshot", "version": 1, "server": {...}}   # header
    {"kind": "request", "rid": 0, ...}                     # one per request
    {"kind": "cancel", "rid": 3, "at_s": 12.0}             # one per cancel
    {"kind": "footer", "requests": N, "cancels": M, "fingerprint": "..."}

Because the simulated-clock server is a pure function of its submitted
trace, ``replay`` rebuilds the server from the header, re-submits the
body, drains, and ``verify`` checks the fresh fingerprint against the
footer -- the golden-trace discipline applied to whole serving timelines.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple, Union

from .overload import OverloadPolicy
from .request import Request
from .server import Server, ServingReport

SNAPSHOT_KIND = "snapshot"
SNAPSHOT_VERSION = 1

#: Request fields serialised per line (in this order, then key-sorted).
_REQUEST_FIELDS = (
    "rid", "app", "size", "arrival_s", "slo_s", "tenant", "priority",
)


class SnapshotError(ValueError):
    """A snapshot file is malformed or fails verification."""


def _dumps(obj: Dict[str, object]) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


@dataclass
class TimelineSnapshot:
    """One captured serving timeline: config, traffic, and fingerprint."""

    server_config: Dict[str, object]
    requests: List[Request] = field(default_factory=list)
    #: (rid, at_s) scheduled cancellations, sorted for byte stability.
    cancels: List[Tuple[int, float]] = field(default_factory=list)
    fingerprint: str = ""

    # -- capture ------------------------------------------------------------------

    @classmethod
    def capture(
        cls, server: Server, report: Optional[ServingReport] = None
    ) -> "TimelineSnapshot":
        """Snapshot a server's submitted traffic (post- or pre-drain).

        The fingerprint comes from `report` (or the server's last drain);
        capturing before any drain leaves it empty, and ``verify`` on a
        fingerprint-less snapshot only checks the replay is internally
        reproducible.
        """
        report = report if report is not None else server.last_report
        return cls(
            server_config=dict(server.snapshot_config),
            requests=sorted(
                server._submitted, key=lambda r: (r.arrival_s, r.rid)
            ),
            cancels=sorted(server._cancels.items()),
            fingerprint=report.fingerprint() if report is not None else "",
        )

    # -- serialisation ------------------------------------------------------------

    def dumps(self) -> str:
        lines = [
            _dumps(
                {
                    "kind": SNAPSHOT_KIND,
                    "version": SNAPSHOT_VERSION,
                    "server": self.server_config,
                }
            )
        ]
        for request in self.requests:
            row = {"kind": "request"}
            for name in _REQUEST_FIELDS:
                row[name] = getattr(request, name)
            lines.append(_dumps(row))
        for rid, at_s in self.cancels:
            lines.append(_dumps({"kind": "cancel", "rid": rid, "at_s": at_s}))
        lines.append(
            _dumps(
                {
                    "kind": "footer",
                    "requests": len(self.requests),
                    "cancels": len(self.cancels),
                    "fingerprint": self.fingerprint,
                }
            )
        )
        return "\n".join(lines) + "\n"

    def dump(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.dumps())
        return path

    @classmethod
    def loads(cls, text: str) -> "TimelineSnapshot":
        """Parse a snapshot; any malformed content raises :class:`SnapshotError`."""
        lines = [line for line in text.splitlines() if line.strip()]
        if not lines:
            raise SnapshotError("empty snapshot")
        try:
            return cls._parse([json.loads(line) for line in lines])
        except SnapshotError:
            raise
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            # json.JSONDecodeError is a ValueError: truncated lines land here.
            raise SnapshotError(f"malformed snapshot: {exc!r}") from None

    @classmethod
    def _parse(cls, rows: List[Dict[str, object]]) -> "TimelineSnapshot":
        header = rows[0]
        if header.get("kind") != SNAPSHOT_KIND:
            raise SnapshotError(
                f"not a serving snapshot (header kind {header.get('kind')!r})"
            )
        if header.get("version") != SNAPSHOT_VERSION:
            raise SnapshotError(
                f"unsupported snapshot version {header.get('version')!r}"
            )
        snapshot = cls(server_config=dict(header["server"]))
        footer: Optional[Dict[str, object]] = None
        rids: Set[int] = set()
        for row in rows[1:]:
            kind = row.get("kind")
            if kind == "request":
                request = Request(**{k: row[k] for k in _REQUEST_FIELDS})
                if request.rid in rids:
                    raise SnapshotError(f"repeated request id {request.rid}")
                rids.add(request.rid)
                snapshot.requests.append(request)
            elif kind == "cancel":
                snapshot.cancels.append((int(row["rid"]), float(row["at_s"])))
            elif kind == "footer":
                footer = row
            else:
                raise SnapshotError(f"unknown snapshot row kind {kind!r}")
        if footer is not None:
            if footer.get("requests") != len(snapshot.requests):
                raise SnapshotError(
                    f"footer claims {footer.get('requests')} requests, "
                    f"file holds {len(snapshot.requests)}"
                )
            if footer.get("cancels") != len(snapshot.cancels):
                raise SnapshotError(
                    f"footer claims {footer.get('cancels')} cancels, "
                    f"file holds {len(snapshot.cancels)}"
                )
            snapshot.fingerprint = str(footer.get("fingerprint", ""))
        return snapshot

    @classmethod
    def load(cls, path: Union[str, Path]) -> "TimelineSnapshot":
        return cls.loads(Path(path).read_text())

    # -- replay -------------------------------------------------------------------

    def build_server(self, **overrides) -> Server:
        """A fresh server with the captured knobs (:class:`SnapshotError`
        when they do not make a valid server)."""
        config = self.server_config
        overload = config.get("overload")
        try:
            kwargs = {
                "params": config.get("params", "C"),
                "policy": config.get("policy", "fifo"),
                "max_batch": int(config.get("max_batch", 64)),
                "max_wait_s": float(config.get("max_wait_s", 30.0)),
                "lanes": int(config.get("lanes", 2)),
                "overload": (
                    OverloadPolicy.from_jsonable(overload) if overload else None
                ),
            }
            kwargs.update(overrides)
            return Server(**kwargs)
        except (KeyError, TypeError, ValueError) as exc:
            raise SnapshotError(f"invalid server config: {exc}") from None

    def replay(self, **overrides) -> Tuple[Server, ServingReport]:
        """Rebuild the server, resubmit the traffic, drain."""
        server = self.build_server(**overrides)
        for request in self.requests:
            server.submit(request)
        for rid, at_s in self.cancels:
            server.cancel(rid, at_s)
        return server, server.drain()

    def verify(self, **overrides) -> ServingReport:
        """Replay and assert the timeline fingerprint matches the capture.

        Raises :class:`SnapshotError` on mismatch; an empty captured
        fingerprint (pre-drain capture) only checks replay determinism
        (two fresh replays agree with each other).
        """
        _, report = self.replay(**overrides)
        fresh = report.fingerprint()
        if self.fingerprint:
            if fresh != self.fingerprint:
                raise SnapshotError(
                    "replay fingerprint mismatch: captured "
                    f"{self.fingerprint[:12]}.., replayed {fresh[:12]}.."
                )
        else:
            _, again = self.replay(**overrides)
            if again.fingerprint() != fresh:
                raise SnapshotError(
                    "replay is non-deterministic: two fresh replays disagree"
                )
        return report


def capture_timeline(
    server: Server,
    path: Union[str, Path],
    report: Optional[ServingReport] = None,
) -> Path:
    """Capture `server`'s traffic (and fingerprint) to a snapshot file."""
    return TimelineSnapshot.capture(server, report).dump(path)


def replay_timeline(
    path: Union[str, Path], verify: bool = True, **overrides
) -> ServingReport:
    """Load a snapshot and replay it; verifies the fingerprint by default."""
    snapshot = TimelineSnapshot.load(path)
    if verify:
        return snapshot.verify(**overrides)
    _, report = snapshot.replay(**overrides)
    return report
