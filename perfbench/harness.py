"""Closed-loop measurement, set-up timing and metric computation.

End-to-end metrics (``--trace 0``) are measured with no wrappers
installed.  The per-layer metrics (``--trace 1``) come from a separate run:
its first half times items untraced, its second half replays the same
inputs with the :mod:`layers` span wrappers installed, and the ratio of
the two is ``trace_overhead_ratio``.  Per-layer calls and self times are
per timed item (run sums divided by the traced item count), so they stay
comparable when a faster program fits more items into a run;
``ckks.keygen.self_s`` covers the set-up phase instead, the only place key
generation runs.
"""

from __future__ import annotations

import contextlib
import gzip
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from layers import ITEM, SETUP, LayerTracer, SpanSummary
from workloads import precision_bits

#: Set-ups per end-to-end run: this process's own, plus fresh child
#: processes started between timed items, spread evenly over the run so
#: that one burst of host load does not slow most of them; ``setup_s`` is
#: their median.  Each child sets up cold, as the first one did: in-process
#: repeats would find the plan and table caches already filled.
SETUP_RUNS = 3
CHILD_TIMEOUT_S = 30

END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("items_per_s", "1/s"),
    ("item_p50_s", "s"),
    ("peak_rss_mb", "MB"),
    ("precision_bits", "bits"),
)


class ItemResult(NamedTuple):
    seconds: float
    ok: bool
    error: float
    counters: Dict[str, float]


def run_item(workload, inp, tracer=None) -> ItemResult:
    """Time one item (inside an item span when traced) and check its output."""
    span = (
        tracer.span(ITEM, trace_id=tracer.new_trace_id("item"))
        if tracer is not None
        else contextlib.nullcontext()
    )
    start = time.perf_counter()
    try:
        with span:
            out = workload.run(inp)
        elapsed = time.perf_counter() - start
        ok, error = workload.check(inp, out)
        return ItemResult(elapsed, ok, error, workload.item_counters(out))
    except Exception:  # a failing item is counted, the run goes on
        traceback.print_exc(file=sys.stderr)
        return ItemResult(time.perf_counter() - start, False, float("inf"), {})


def setup(cls, seed: int, started: float, tracer=None):
    """Build the workload and run its warm-up item; time since `started`."""
    span = tracer.span(SETUP) if tracer is not None else contextlib.nullcontext()
    with span:
        workload = cls(seed)
        warm = run_item(workload, workload.warmup_input())
    return workload, warm, time.perf_counter() - started


def measure(workload, seconds: float, keep_inputs: bool = False,
            pauses: int = 0, pause: Optional[Callable[[], None]] = None):
    """Closed loop: items back to back until `seconds` of loop time pass.

    `pause` is called `pauses` times between items, at evenly spaced points
    of the loop time; the time it takes is not loop time.  Returns
    ``(inputs, results)``; inputs are kept only on request, so peak memory
    does not grow with the run.
    """
    inputs, results = [], []
    marks = [seconds * (k + 1) / (pauses + 1) for k in range(pauses)]
    elapsed = 0.0
    while elapsed < seconds:
        start = time.perf_counter()
        inp = workload.make_input()
        if keep_inputs:
            inputs.append(inp)
        results.append(run_item(workload, inp))
        elapsed += time.perf_counter() - start
        while marks and elapsed >= marks[0]:
            marks.pop(0)
            pause()
    return inputs, results


def child_setup_s(run_py: str, workload: str, seed: int) -> float:
    """Set-up time of a fresh process running the same workload and seed."""
    proc = subprocess.run(
        [sys.executable, run_py, "--workload", workload, "--seed", str(seed),
         "--setup-only"],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed:\n{proc.stderr}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    if not report["ok"]:
        raise RuntimeError("set-up child's warm-up item failed its output check")
    return report["setup_s"]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def outcome(results: List[ItemResult]) -> Tuple[bool, int, int]:
    failed = sum(1 for r in results if not r.ok)
    return failed == 0, len(results), failed


def end_to_end(cls, seed: int, seconds: float, started: float, run_py: str) -> dict:
    workload, warm, setup_s = setup(cls, seed, started)
    setups = [setup_s]
    _, results = measure(
        workload, seconds, pauses=SETUP_RUNS - 1,
        pause=lambda: setups.append(child_setup_s(run_py, cls.name, seed)),
    )
    print("setup_s samples (this process first): " + " ".join(f"{s:.4f}" for s in setups))
    durations = [r.seconds for r in results]
    values = {
        "setup_s": statistics.median(setups),
        "items_per_s": len(durations) / sum(durations),
        "item_p50_s": statistics.median(durations),
        "peak_rss_mb": peak_rss_mb(),
        "precision_bits": precision_bits(statistics.fmean(r.error for r in results)),
    }
    correct, attempted, failed = outcome([warm] + results)
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END},
    }


# -- per-layer metrics ------------------------------------------------------------


def _cache_counts() -> Dict[str, Tuple[int, int]]:
    """Cumulative (hits, misses) of the process-wide functional plan caches."""
    from repro.ckks.keyswitch.plan import keyswitch_plan_cache_stats
    from repro.math.ntt import plan_cache_stats

    ntt = plan_cache_stats()
    ks = keyswitch_plan_cache_stats()
    return {
        "ntt_plan": (
            int(ntt["plans"]["hits"] + ntt["stacks"]["hits"]),
            int(ntt["plans"]["misses"] + ntt["stacks"]["misses"]),
        ),
        "keyswitch_plan": (int(ks["hits"]), int(ks["misses"])),
    }


def _ratio(num: float, den: float) -> float:
    """`num / den`, or 0.0 when nothing was counted."""
    return num / den if den else 0.0


class LayerContext(NamedTuple):
    summary: SpanSummary
    items: int
    counters: Dict[str, float]
    max_counters: Dict[str, float]
    caches: Dict[str, Tuple[int, int]]
    overhead: float


def _calls(name: str) -> Callable[[LayerContext], float]:
    return lambda c: c.summary.calls["item"][name] / c.items


def _self(name: str) -> Callable[[LayerContext], float]:
    return lambda c: c.summary.self_s["item"][name] / c.items


def _hit_ratio(cache: str) -> Callable[[LayerContext], float]:
    return lambda c: _ratio(c.caches[cache][0], sum(c.caches[cache]))


def _per_item(counter: str) -> Callable[[LayerContext], float]:
    return lambda c: c.counters[counter] / c.items


def _share(part: str, rest: str) -> Callable[[LayerContext], float]:
    """``part / (part + rest)`` over the summed item counters."""
    return lambda c: _ratio(c.counters[part], c.counters[part] + c.counters[rest])


def _eval_calls(c: LayerContext) -> float:
    calls = c.summary.calls["item"]
    return sum(n for name, n in calls.items() if name.startswith("ckks.eval.")) / c.items


PER_LAYER: Tuple[Tuple[str, str, Callable[[LayerContext], float]], ...] = (
    ("math.ntt.calls", "calls/item", _calls("math.ntt")),
    ("math.ntt.self_s", "s/item", _self("math.ntt")),
    ("math.bconv.calls", "calls/item", _calls("math.bconv")),
    ("math.bconv.self_s", "s/item", _self("math.bconv")),
    ("math.lazy_ip.calls", "calls/item", _calls("math.lazy_ip")),
    ("math.lazy_ip.self_s", "s/item", _self("math.lazy_ip")),
    ("math.modmul.self_s", "s/item", _self("math.modmul")),
    ("math.ntt_plan.hit_ratio", "ratio", _hit_ratio("ntt_plan")),
    ("keyswitch.calls", "calls/item", _calls("keyswitch")),
    ("keyswitch.self_s", "s/item", _self("keyswitch")),
    ("keyswitch.hoisted.calls", "calls/item", _calls("keyswitch.hoisted")),
    ("keyswitch.hoisted.self_s", "s/item", _self("keyswitch.hoisted")),
    ("keyswitch.plan_hit_ratio", "ratio", _hit_ratio("keyswitch_plan")),
    ("ckks.eval.multiply.self_s", "s/item", _self("ckks.eval.multiply")),
    ("ckks.eval.relinearise.self_s", "s/item", _self("ckks.eval.relinearise")),
    ("ckks.eval.rotate.self_s", "s/item", _self("ckks.eval.rotate")),
    ("ckks.eval.rescale.self_s", "s/item", _self("ckks.eval.rescale")),
    ("ckks.eval.plain.self_s", "s/item", _self("ckks.eval.plain")),
    ("ckks.eval.add.self_s", "s/item", _self("ckks.eval.add")),
    ("ckks.eval.calls", "calls/item", _eval_calls),
    ("ckks.codec.self_s", "s/item", _self("ckks.codec")),
    ("ckks.keygen.self_s", "s", lambda c: c.summary.self_s["setup"]["ckks.keygen"]),
    ("boot.mod_raise.self_s", "s/item", _self("boot.mod_raise")),
    ("boot.coeff_to_slot.self_s", "s/item", _self("boot.coeff_to_slot")),
    ("boot.eval_mod.self_s", "s/item", _self("boot.eval_mod")),
    ("boot.slot_to_coeff.self_s", "s/item", _self("boot.slot_to_coeff")),
    ("boot.lintrans.calls", "calls/item", _calls("boot.lintrans")),
    ("boot.lintrans.self_s", "s/item", _self("boot.lintrans")),
    ("boot.polyeval.self_s", "s/item", _self("boot.polyeval")),
    ("serving.candidate.calls", "calls/item", _calls("serving.candidate")),
    ("serving.candidate.self_s", "s/item", _self("serving.candidate")),
    ("serving.dispatches", "count/item", _per_item("serving.dispatches")),
    ("serving.dispatch_ratio", "ratio", lambda c: _ratio(
        c.counters["serving.dispatches"], c.summary.calls["item"]["serving.candidate"])),
    ("serving.service_time.calls", "calls/item", _calls("serving.service_time")),
    ("serving.service_time.self_s", "s/item", _self("serving.service_time")),
    ("serving.queue.self_s", "s/item", _self("serving.queue")),
    ("serving.queue.max_depth", "count", lambda c: c.max_counters["serving.queue.max_depth"]),
    ("serving.drain.self_s", "s/item", _self("serving.drain")),
    ("serving.report.self_s", "s/item", _self("serving.report")),
    ("core.trace.builds", "calls/item", _calls("core.trace")),
    ("core.trace.self_s", "s/item", _self("core.trace")),
    ("core.trace_cache.hit_ratio", "ratio", _share("trace_cache.hits", "trace_cache.misses")),
    ("core.app_time.calls", "calls/item", _calls("core.app_time")),
    ("core.app_time.self_s", "s/item", _self("core.app_time")),
    ("core.op_time.self_s", "s/item", _self("core.op_time")),
    ("tuner.probed", "count/item", _per_item("tuner.probed")),
    ("tuner.evaluated", "count/item", _per_item("tuner.evaluated")),
    ("tuner.pruned_ratio", "ratio", _share("tuner.pruned", "tuner.evaluated")),
    ("tuner.cache_hit_ratio", "ratio", _share("tuner.cache_hits", "tuner.cache_misses")),
    ("tuner.self_s", "s/item", _self("tuner")),
    ("gpu.cost.calls", "calls/item", _calls("gpu.cost")),
    ("gpu.cost.self_s", "s/item", _self("gpu.cost")),
    ("unattributed_share", "ratio", lambda c: c.summary.unattributed_share),
    ("trace_overhead_ratio", "ratio", lambda c: c.overhead),
)


def per_layer(cls, seed: int, seconds: float, started: float, spans_path: str) -> dict:
    layers = LayerTracer()
    layers.install()
    try:
        workload, warm, _ = setup(cls, seed, started, layers.tracer)
    finally:
        layers.uninstall()
    inputs, plain = measure(workload, seconds / 2.0, keep_inputs=True)
    caches_before = _cache_counts()
    layers.install()
    try:
        traced = [run_item(workload, inp, layers.tracer) for inp in inputs]
    finally:
        layers.uninstall()
    caches_after = _cache_counts()

    os.makedirs(os.path.dirname(spans_path), exist_ok=True)
    with gzip.open(spans_path, "wt", encoding="utf-8", compresslevel=1) as handle:
        handle.write(layers.tracer.to_jsonl())
        handle.write("\n")

    counters: Dict[str, float] = defaultdict(float)
    max_counters: Dict[str, float] = defaultdict(float)
    for r in traced:
        for key, value in r.counters.items():
            counters[key] += value
            max_counters[key] = max(max_counters[key], value)
    context = LayerContext(
        summary=SpanSummary(layers.tracer.spans),
        items=len(traced),
        counters=counters,
        max_counters=max_counters,
        caches={
            key: (caches_after[key][0] - caches_before[key][0],
                  caches_after[key][1] - caches_before[key][1])
            for key in caches_after
        },
        overhead=sum(r.seconds for r in traced) / sum(r.seconds for r in plain),
    )
    correct, attempted, failed = outcome([warm] + plain + traced)
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(fn(context)), "unit": unit}
            for name, unit, fn in PER_LAYER
        },
    }
