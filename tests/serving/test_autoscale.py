"""Autoscaler tests: hysteresis, cooldown, clamps, backlog carryover."""

import pytest

from repro.serving import (
    AutoscalePolicy,
    Fleet,
    OverloadPolicy,
    Request,
    plan_autoscale,
)

#: One GPU retires 100 service-seconds per window in these tests.
CAP = 100.0


def _policy(**kwargs):
    defaults = dict(
        min_gpus=1, max_gpus=8, window_s=100.0,
        scale_up_utilization=0.8, scale_down_utilization=0.3,
        up_windows=2, down_windows=2, cooldown_windows=1, step=1,
    )
    defaults.update(kwargs)
    return AutoscalePolicy(**defaults)


class TestHysteresis:
    def test_one_hot_window_does_not_scale(self):
        trace = plan_autoscale([90.0, 10.0, 10.0], _policy(), 1, CAP)
        assert trace.scale_ups == 0
        assert trace.final_gpus == 1

    def test_sustained_heat_scales_up(self):
        trace = plan_autoscale([90.0, 90.0], _policy(), 1, CAP)
        assert trace.scale_ups == 1
        assert trace.decisions[0].action == "hold"
        assert trace.decisions[1].action == "up"
        assert trace.final_gpus == 2

    def test_sustained_cold_scales_down(self):
        trace = plan_autoscale([10.0, 10.0, 10.0], _policy(), 4, CAP)
        assert trace.scale_downs >= 1
        assert trace.decisions[1].action == "down"
        assert trace.final_gpus < 4

    def test_mid_band_resets_counters(self):
        """hot, mid, hot never fires: the streak must be consecutive."""
        # 50% sits between the 30% down and 80% up thresholds.
        trace = plan_autoscale([90.0, 50.0, 90.0, 50.0], _policy(), 1, CAP)
        assert trace.scale_ups == 0

    def test_cooldown_blocks_consecutive_actions(self):
        trace = plan_autoscale(
            [90.0, 90.0, 180.0, 180.0, 270.0], _policy(), 1, CAP
        )
        actions = [d.action for d in trace.decisions]
        assert actions[1] == "up"
        assert actions[2] == "hold"  # cooldown window
        assert trace.decisions[2].reason == "cooldown"

    def test_flapping_load_does_not_flap_fleet(self):
        """Alternating hot/cold windows produce zero scaling actions."""
        demand = [90.0 if i % 2 == 0 else 10.0 for i in range(12)]
        trace = plan_autoscale(demand, _policy(), 2, CAP)
        assert trace.scale_ups == 0 and trace.scale_downs == 0
        assert trace.final_gpus == 2


class TestClampsAndBacklog:
    def test_never_exceeds_max_gpus(self):
        trace = plan_autoscale([1e6] * 30, _policy(max_gpus=3), 1, CAP)
        assert trace.peak_gpus == 3
        assert all(d.gpus <= 3 for d in trace.decisions)

    def test_never_drops_below_min_gpus(self):
        trace = plan_autoscale([0.0] * 30, _policy(min_gpus=2), 4, CAP)
        assert trace.final_gpus == 2

    def test_start_gpus_clamped_into_band(self):
        trace = plan_autoscale([50.0], _policy(max_gpus=4), 100, CAP)
        assert trace.start_gpus == 4

    def test_backlog_carries_over(self):
        """One huge burst keeps utilization hot until worked off."""
        trace = plan_autoscale([500.0, 0.0, 0.0], _policy(), 1, CAP)
        # Window 1 has zero fresh demand but 400s of backlog: still hot.
        assert trace.decisions[1].utilization > 1.0
        assert trace.decisions[1].action == "up"

    def test_policy_validation(self):
        with pytest.raises(ValueError, match="min_gpus"):
            AutoscalePolicy(min_gpus=5, max_gpus=2)
        with pytest.raises(ValueError, match="scale_down"):
            AutoscalePolicy(
                scale_up_utilization=0.3, scale_down_utilization=0.5
            )
        with pytest.raises(ValueError, match="capacity_per_gpu_s"):
            plan_autoscale([1.0], _policy(), 1, 0.0)

    def test_format_mentions_trajectory(self):
        trace = plan_autoscale([90.0, 90.0], _policy(), 1, CAP)
        text = trace.format()
        assert "1 -> 2 GPU(s)" in text
        assert "scaling decisions" in text


class TestFleetIntegration:
    def test_fleet_plans_from_submitted_trace(self):
        fleet = Fleet(gpus=2, lanes=2)
        # ~40 bootstrap requests in the first 100 s: far beyond two
        # devices' capacity, so the plan must grow the fleet.
        for i in range(40):
            fleet.submit(
                Request(rid=i, app="packbootstrap", arrival_s=float(i * 2))
            )
        trace = fleet.plan_autoscale(
            AutoscalePolicy(window_s=100.0, up_windows=1, max_gpus=8)
        )
        assert trace.start_gpus == 2
        assert trace.scale_ups >= 1
        assert trace.final_gpus > 2

    def test_fleet_overload_passthrough(self):
        fleet = Fleet(
            gpus=2, overload=OverloadPolicy(queue_capacity=4)
        )
        for i in range(60):
            fleet.submit(
                Request(rid=i, app="packbootstrap", arrival_s=0.0, priority=0)
            )
        report = fleet.drain()
        assert report.queue_capacity == 4
        assert all(d.report.queue_capacity == 4 for d in report.devices)
        assert report.offered == 60
        assert report.shed_count + report.rejected_count > 0
        assert (
            report.served + report.shed_count + report.rejected_count
            + report.cancelled_count == 60
        )
        assert report.peak_pressure > 0.0
