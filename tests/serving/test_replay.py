"""Snapshot/replay regression tests: byte-identical timelines.

The golden fixture ``tests/fixtures/overload_timeline.jsonl`` freezes one
overload-heavy traffic capture (requests, cancels, overload policy,
fingerprint).  The tests assert the golden-trace discipline end to end:

* serialisation is **byte-stable** -- capturing the same traffic twice,
  or round-tripping through ``loads``/``dumps``, produces identical bytes;
* replay is **fingerprint-faithful** -- replaying the fixture yields the
  captured SHA-256 timeline fingerprint on today's code;
* ``pytest --update-golden`` regenerates the fixture in place.

A drift in the scheduler, the admission controller, or the service model
shows up here as a fingerprint mismatch before it ships.
"""

import json
from pathlib import Path

import pytest

from repro.serving import (
    FixedServiceModel,
    OverloadPolicy,
    Request,
    Server,
    TimelineSnapshot,
    capture_timeline,
    parse_workload_spec,
    replay_timeline,
    synthesize_arrivals,
)
from repro.serving.replay import SnapshotError

FIXTURE = Path(__file__).resolve().parent.parent / "fixtures" / "overload_timeline.jsonl"

#: Fixed seed: the fixture must not follow the suite's --seed option.
FIXTURE_SEED = 7

FLAT = FixedServiceModel(lambda app, size: 10.0)


def _edit_line(text, index, edit):
    lines = text.splitlines()
    lines[index] = edit(lines[index])
    return "\n".join(lines) + "\n"


def _without_rid(line):
    row = json.loads(line)
    del row["rid"]
    return json.dumps(row)


def _repeat_rid(text):
    lines = text.splitlines()
    second = json.loads(lines[2])
    second["rid"] = json.loads(lines[1])["rid"]
    lines[2] = json.dumps(second)
    return "\n".join(lines) + "\n"


def _zero_lanes(line):
    header = json.loads(line)
    header["server"]["lanes"] = 0
    return json.dumps(header)


#: Malformed snapshot payloads, as edits of a valid snapshot's text: a
#: request row without its rid, two request rows sharing a rid, a
#: truncated JSON line, and a header whose server config cannot build a
#: server.
MALFORMED_SNAPSHOTS = {
    "request-without-rid": lambda text: _edit_line(text, 1, _without_rid),
    "repeated-rid": _repeat_rid,
    "truncated-line": lambda text: _edit_line(
        text, 1, lambda line: line[: len(line) // 2]
    ),
    "zero-lanes": lambda text: _edit_line(text, 0, _zero_lanes),
}


def _fast_server(**kwargs):
    defaults = dict(
        policy="priority", max_batch=4, max_wait_s=5.0, lanes=1, model=FLAT,
        overload=OverloadPolicy(queue_capacity=6, shed_threshold=0.5),
    )
    defaults.update(kwargs)
    return Server(**defaults)


def _submit_traffic(server, seed=FIXTURE_SEED):
    phases = parse_workload_spec(
        "helr:8:1.0:1:0:premium,packbootstrap:24:3.0:1:0:batch"
    )
    for request in synthesize_arrivals(phases, seed=seed):
        server.submit(request)
    server.cancel(3, at_s=4.0)
    server.cancel(11, at_s=2.5)
    return server


class TestByteStability:
    def test_capture_is_byte_stable(self):
        a = TimelineSnapshot.capture(_submit_traffic(_fast_server()))
        b = TimelineSnapshot.capture(_submit_traffic(_fast_server()))
        assert a.dumps() == b.dumps()

    def test_round_trip_is_byte_identical(self):
        server = _submit_traffic(_fast_server())
        report = server.drain()
        snapshot = TimelineSnapshot.capture(server, report)
        text = snapshot.dumps()
        assert TimelineSnapshot.loads(text).dumps() == text

    def test_recapture_from_replay_is_byte_identical(self):
        """capture -> replay -> capture round-trips to the same bytes."""
        server = _submit_traffic(_fast_server())
        report = server.drain()
        snapshot = TimelineSnapshot.capture(server, report)
        replayed_server, replayed_report = snapshot.replay(model=FLAT)
        again = TimelineSnapshot.capture(replayed_server, replayed_report)
        assert again.dumps() == snapshot.dumps()


class TestReplayFidelity:
    def test_replay_fingerprint_matches(self, tmp_path):
        server = _submit_traffic(_fast_server())
        report = server.drain()
        path = capture_timeline(server, tmp_path / "snap.jsonl", report)
        replayed = replay_timeline(path, model=FLAT)
        assert replayed.fingerprint() == report.fingerprint()
        assert replayed.served == report.served
        assert replayed.shed_count == report.shed_count
        assert replayed.cancelled_count == report.cancelled_count

    def test_tampered_fingerprint_raises(self, tmp_path):
        server = _submit_traffic(_fast_server())
        snapshot = TimelineSnapshot.capture(server, server.drain())
        snapshot.fingerprint = "0" * 64
        path = snapshot.dump(tmp_path / "bad.jsonl")
        with pytest.raises(SnapshotError, match="fingerprint mismatch"):
            replay_timeline(path, model=FLAT)

    def test_pre_drain_capture_verifies_determinism(self):
        snapshot = TimelineSnapshot.capture(_submit_traffic(_fast_server()))
        assert snapshot.fingerprint == ""
        report = snapshot.verify(model=FLAT)
        assert report.served > 0

    def test_snapshot_preserves_tiers_and_tenants(self):
        server = _fast_server()
        server.submit(
            Request(rid=0, app="helr", priority=2, tenant="gold")
        )
        snapshot = TimelineSnapshot.loads(
            TimelineSnapshot.capture(server).dumps()
        )
        assert snapshot.requests[0].priority == 2
        assert snapshot.requests[0].tenant == "gold"

    def test_malformed_snapshots_raise(self):
        with pytest.raises(SnapshotError, match="empty"):
            TimelineSnapshot.loads("")
        with pytest.raises(SnapshotError, match="not a serving snapshot"):
            TimelineSnapshot.loads('{"kind": "nope"}')
        snapshot = TimelineSnapshot.capture(_submit_traffic(_fast_server()))
        lines = snapshot.dumps().splitlines()
        del lines[1]  # drop a request; the footer count now lies
        with pytest.raises(SnapshotError, match="footer claims"):
            TimelineSnapshot.loads("\n".join(lines))


@pytest.mark.parametrize("case", sorted(MALFORMED_SNAPSHOTS))
def test_malformed_snapshot_raises_snapshot_error(case):
    text = TimelineSnapshot.capture(_submit_traffic(_fast_server())).dumps()
    with pytest.raises(SnapshotError):
        TimelineSnapshot.loads(MALFORMED_SNAPSHOTS[case](text)).build_server()


class TestGoldenFixture:
    """The frozen overload timeline (regenerate with --update-golden)."""

    def _golden_server(self):
        # The fixture replays through the real NeoServiceModel, so the
        # capture must run it too (fingerprints cover service times).
        server = Server(
            params="C",
            policy="priority",
            max_batch=8,
            max_wait_s=10.0,
            lanes=2,
            overload=OverloadPolicy(queue_capacity=8, shed_threshold=0.5),
        )
        return _submit_traffic(server)

    def test_golden_overload_timeline(self, update_golden):
        server = self._golden_server()
        report = server.drain()
        snapshot = TimelineSnapshot.capture(server, report)
        payload = snapshot.dumps()
        if update_golden:
            FIXTURE.parent.mkdir(parents=True, exist_ok=True)
            FIXTURE.write_text(payload)
            pytest.skip(f"regenerated {FIXTURE.name}")
        assert FIXTURE.exists(), (
            f"golden fixture {FIXTURE} missing; run pytest --update-golden"
        )
        frozen = FIXTURE.read_text()
        assert payload == frozen, (
            "overload timeline drifted from the golden fixture; inspect the "
            "diff and run pytest --update-golden if the change is intended"
        )

    def test_golden_fixture_replays_byte_identically(self):
        if not FIXTURE.exists():
            pytest.skip("golden fixture not generated yet")
        snapshot = TimelineSnapshot.load(FIXTURE)
        report = snapshot.verify()  # raises on fingerprint mismatch
        replayed_server, _ = snapshot.replay()
        recaptured = TimelineSnapshot.capture(
            replayed_server, replayed_server.last_report
        )
        assert recaptured.dumps() == FIXTURE.read_text()
        assert report.offered == len(snapshot.requests)
