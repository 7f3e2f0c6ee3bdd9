"""Benchmark-history recorder: append-only files, direction-aware compare."""

import json

import pytest

from repro.telemetry.bench_history import (
    BenchHistoryError,
    BenchRecord,
    compare,
    compare_to_last,
    format_regressions,
    history_path,
    load_history,
    record_result,
)


#: ``BENCH_<name>.json`` contents that are not a benchmark history.
MALFORMED_HISTORIES = {
    "truncated-json": '[{"name": "keyswitch", "metrics": {',
    "not-an-array": '{"name": "keyswitch", "metrics": {}}',
    "record-without-name": '[{"recorded_at": "now", "metrics": {}}]',
    "non-numeric-metric": '[{"name": "keyswitch", "metrics": {"x_ms": "abc"}}]',
}


def _record(**metrics):
    return BenchRecord(name="t", recorded_at="now", metrics=metrics)


class TestRecording:
    def test_history_path_slugs_name(self, tmp_path):
        path = history_path("serving throughput!", str(tmp_path))
        assert path.endswith("BENCH_serving-throughput-.json")

    def test_record_appends_and_loads_in_order(self, tmp_path):
        record_result("ks", {"loop_ms": 10.0}, directory=str(tmp_path))
        record_result("ks", {"loop_ms": 12.0}, meta={"degree": 65536},
                      directory=str(tmp_path))
        history = load_history("ks", str(tmp_path))
        assert [r.metrics["loop_ms"] for r in history] == [10.0, 12.0]
        assert history[-1].meta == {"degree": "65536"}

    def test_file_is_a_json_array(self, tmp_path):
        record_result("ks", {"x": 1.0}, directory=str(tmp_path))
        with open(history_path("ks", str(tmp_path))) as fh:
            assert isinstance(json.load(fh), list)

    def test_load_missing_is_empty(self, tmp_path):
        assert load_history("never", str(tmp_path)) == []

    def test_load_rejects_non_array(self, tmp_path):
        path = history_path("bad", str(tmp_path))
        with open(path, "w") as fh:
            json.dump({"not": "array"}, fh)
        with pytest.raises(ValueError, match="not a benchmark-history array"):
            load_history("bad", str(tmp_path))

    @pytest.mark.parametrize("case", sorted(MALFORMED_HISTORIES))
    def test_load_rejects_malformed_history_with_typed_error(self, tmp_path, case):
        path = history_path("keyswitch", str(tmp_path))
        with open(path, "w") as fh:
            fh.write(MALFORMED_HISTORIES[case])
        with pytest.raises(BenchHistoryError, match="BENCH_keyswitch.json"):
            load_history("keyswitch", str(tmp_path))


class TestCompare:
    def test_timing_regression_flags_increase(self):
        regs = compare(_record(loop_ms=100.0), {"loop_ms": 120.0}, rtol=0.10)
        (reg,) = regs
        assert reg.metric == "loop_ms" and not reg.higher_is_better
        assert reg.change == pytest.approx(0.20)
        assert "rose" in reg.format()

    def test_timing_improvement_not_flagged(self):
        assert compare(_record(loop_ms=100.0), {"loop_ms": 50.0}) == []

    def test_speedup_suffix_is_higher_is_better(self):
        regs = compare(_record(gemm_speedup=4.0), {"gemm_speedup": 3.0},
                       rtol=0.10)
        (reg,) = regs
        assert reg.higher_is_better and "dropped" in reg.format()

    def test_throughput_and_attainment_suffixes(self):
        prev = _record(serve_rps=10.0, slo_attainment=1.0)
        regs = compare(prev, {"serve_rps": 5.0, "slo_attainment": 0.5})
        assert {r.metric for r in regs} == {"serve_rps", "slo_attainment"}

    def test_within_tolerance_passes(self):
        assert compare(_record(loop_ms=100.0), {"loop_ms": 105.0},
                       rtol=0.10) == []

    def test_explicit_higher_is_better_key(self):
        regs = compare(_record(score=10.0), {"score": 5.0},
                       higher_is_better=("score",))
        assert len(regs) == 1

    def test_zero_previous_never_divides(self):
        # lower-is-better metric starting at zero: any positive value is worse
        (reg,) = compare(_record(errors=0.0), {"errors": 3.0})
        assert reg.change == 1.0
        assert compare(_record(errors=0.0), {"errors": 0.0}) == []

    def test_new_and_dropped_metrics_ignored(self):
        assert compare(_record(old=1.0), {"new": 99.0}) == []


class TestCompareToLast:
    def test_first_run_has_no_baseline(self, tmp_path):
        baseline, regs = compare_to_last("fresh", {"x": 1.0},
                                         directory=str(tmp_path))
        assert baseline is None and regs == []

    def test_compares_against_most_recent(self, tmp_path):
        record_result("ks", {"loop_ms": 100.0}, directory=str(tmp_path))
        record_result("ks", {"loop_ms": 10.0}, directory=str(tmp_path))
        baseline, regs = compare_to_last("ks", {"loop_ms": 12.0},
                                         directory=str(tmp_path), rtol=0.10)
        # 12 vs the last run's 10 regresses; vs the first run's 100 it would not
        assert baseline.metrics["loop_ms"] == 10.0
        assert len(regs) == 1

    def test_compares_only_against_same_settings(self, tmp_path):
        # a 4-GPU baseline says nothing about a 2-GPU run, however recent
        record_result("fleet", {"fleet_rps": 4.0}, meta={"gpus": 4},
                      directory=str(tmp_path))
        record_result("fleet", {"fleet_rps": 2.0}, meta={"gpus": 2},
                      directory=str(tmp_path))
        baseline, regs = compare_to_last("fleet", {"fleet_rps": 1.0},
                                         directory=str(tmp_path),
                                         meta={"gpus": 4})
        assert baseline.meta == {"gpus": "4"} and len(regs) == 1
        assert compare_to_last("fleet", {"fleet_rps": 1.0},
                               directory=str(tmp_path),
                               meta={"gpus": 8}) == (None, [])

    def test_format_regressions_messages(self):
        assert "no regressions" in format_regressions([])
        regs = compare(_record(loop_ms=1.0), {"loop_ms": 2.0})
        text = format_regressions(regs)
        assert "1 regression(s)" in text and "loop_ms" in text
