"""Self-tests of the benchmark (about a minute and a half).

Run from the repository root::

    python3 -m pytest perfbench -q

They check that ``BENCHMARK.json`` matches what the harness emits, that
every metric comes out with its unit on two seeds, that each span wrapper
fires on the workloads ``workloads.json`` says exercise it and stays silent
on the ones that bypass it, and that every output check rejects a
deliberately corrupted output.
"""

import gzip
import json
import os
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import harness  # noqa: E402
from layers import LayerTracer, binding_name, entry_points  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    Bootstrap,
    HelrStep,
    ServeOverload,
    TuneSweep,
)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _f:
    BENCHMARK = json.load(_f)
with open(os.path.join(HERE, "workloads.json"), encoding="utf-8") as _f:
    DOCS = json.load(_f)

#: (workload, trace) -> seed; each workload runs on two seeds across modes.
RUNS = {
    (name, trace): seed
    for name in WORKLOADS
    for trace, seed in ((0, 1), (1, 2))
}


@pytest.fixture(scope="module")
def results():
    out = {}
    for (name, trace), seed in RUNS.items():
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
             "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=180, check=False,
        )
        assert proc.returncode == 0, proc.stderr
        out[name, trace] = json.loads(proc.stdout.strip().splitlines()[-1])
    return out


def test_benchmark_json_matches_harness():
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(
        harness.END_TO_END
    )
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == [
        (name, unit) for name, unit, _ in harness.PER_LAYER
    ]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    for w in BENCHMARK["workloads"]:
        assert w["why"] == DOCS["workloads"][w["name"]]["why"]


@pytest.mark.parametrize("name", list(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_emitted_with_unit(results, name, trace):
    result = results[name, trace]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_wrappers_fire_where_predicted(results, name):
    metrics = results[name, 1]["metrics"]
    doc = DOCS["workloads"][name]
    for metric in doc["nonzero_calls"]:
        assert metrics[metric]["value"] > 0, f"{metric} never fired on {name}"
    for metric in doc["zero_calls"]:
        assert metrics[metric]["value"] == 0, f"{metric} fired on {name}"
    assert 0 <= metrics["unattributed_share"]["value"] < 1
    assert metrics["trace_overhead_ratio"]["value"] > 0


def test_every_wrapper_fires_on_some_workload(results):
    fired = set()
    for name in WORKLOADS:
        path = os.path.join(HERE, "out", f"{name}-seed{RUNS[name, 1]}.jsonl.gz")
        with gzip.open(path, "rt", encoding="utf-8") as handle:
            fired.update(
                json.loads(line)["attrs"].get("binding")
                for line in handle if line.strip()
            )
    wrapped = {binding_name(owner, attr) for owner, attr, _ in entry_points()}
    assert wrapped - fired == set()


def test_predictions_name_declared_metrics():
    declared = {m["name"] for m in BENCHMARK["per_layer"]}
    end_to_end = {m["name"] for m in BENCHMARK["end_to_end"]}
    for prediction in DOCS["predictions"]:
        assert set(prediction["layer_metrics"]) <= declared
        assert prediction["moves"] in end_to_end
        assert set(prediction["on"]) | set(prediction["unchanged_on"]) <= set(WORKLOADS)


def test_uninstall_restores_every_binding():
    def binding(owner, attr):
        return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)

    before = [binding(owner, attr) for owner, attr, _ in entry_points()]
    layers = LayerTracer()
    layers.install()
    try:
        assert all(
            binding(owner, attr) is not original
            for (owner, attr, _), original in zip(entry_points(), before)
        )
    finally:
        layers.uninstall()
    assert all(
        binding(owner, attr) is original
        for (owner, attr, _), original in zip(entry_points(), before)
    )


def flip_limb(poly):
    """`poly` with the low bit of every residue of its first limb flipped."""
    from repro.math import RnsPolynomial

    stack = poly.stack.copy()
    stack[0] ^= np.uint64(1)
    return RnsPolynomial(poly.degree, poly.basis, stack, is_ntt=poly.is_ntt)


@pytest.mark.parametrize("cls", [HelrStep, Bootstrap])
def test_ciphertext_check_rejects_flipped_limb(cls):
    workload = cls(seed=3)
    inp = workload.make_input()
    ct = workload.evaluate(inp)
    assert workload.check(inp, workload.decrypt(ct))[0]
    ct.c0 = flip_limb(ct.c0)
    ok, error = workload.check(inp, workload.decrypt(ct))
    assert not ok and error > cls.MAX_ERROR


def test_serving_check_rejects_wrong_fingerprint_and_lost_requests():
    workload = ServeOverload(seed=3)
    inp = workload.warmup_input()
    out = workload.run(inp)
    assert workload.check(inp, out)[0]
    assert not workload.check(inp, dict(out, fingerprint="0" * 64))[0]
    assert not workload.check(inp, dict(out, served=out["served"] - 1))[0]
    other = workload.make_input()
    assert not workload.check(other, dict(workload.run(other), shed=1))[0]


def test_tuner_check_rejects_perturbed_time():
    import dataclasses

    workload = TuneSweep(seed=3)
    inp = workload.make_input()
    out = workload.run(inp)
    assert workload.check(inp, out)[0]
    device, report, stats = out[-1]
    best = report.best
    perturbed = dataclasses.replace(best, time_s=best.time_s * (1 + 1e-12))
    bad = dataclasses.replace(report, results=(perturbed,) + report.results[1:])
    assert not workload.check(inp, out[:-1] + [(device, bad, stats)])[0]


def test_exits_nonzero_without_program_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in os.listdir(HERE):
        if name.endswith((".py", ".json")):
            (bench / name).write_bytes(open(os.path.join(HERE, name), "rb").read())
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "bootstrap",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
