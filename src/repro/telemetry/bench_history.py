"""Bench registry and history: run a benchmark, record it, flag regressions.

:data:`BENCHES` is the one table behind ``repro bench``; the GEMM gates in
``benchmarks/`` build their workloads through the same builders.
``--record`` appends one structured record to ``BENCH_<name>.json`` (a JSON
array -- human-diffable, append-only), and the comparator checks fresh
results against the most recent record made with the *same settings*
(equal ``meta``) so CI can turn "the key-switch GEMM got slower" into a red
build instead of a silent drift.

Direction matters: timings regress *up*, speedups and throughputs regress
*down*.  The comparator defaults to lower-is-better and takes an explicit
``higher_is_better`` key set; anything outside the tolerance band in the
bad direction is a :class:`Regression`.  Improvements are never flagged.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, FrozenSet, Iterable, List, Mapping,
                    Optional, Tuple)

#: Metric-name suffixes treated as higher-is-better by default.
DEFAULT_HIGHER_IS_BETTER: FrozenSet[str] = frozenset(
    {"speedup", "throughput", "rps", "cts", "hit_rate", "attainment"}
)

#: Limb bits of the functional key-switch and bootstrap benches.
WORDSIZE = 25


class BenchHistoryError(ValueError):
    """A ``BENCH_<name>.json`` file that is not a benchmark history."""


@dataclass(frozen=True)
class BenchRecord:
    """One recorded benchmark run."""

    name: str
    recorded_at: str
    metrics: Dict[str, float] = field(default_factory=dict)
    meta: Dict[str, str] = field(default_factory=dict)

    def to_jsonable(self) -> dict:
        return {
            "name": self.name,
            "recorded_at": self.recorded_at,
            "metrics": dict(self.metrics),
            "meta": dict(self.meta),
        }

    @classmethod
    def from_jsonable(cls, data: dict) -> "BenchRecord":
        """Parse one record; :class:`BenchHistoryError` when malformed."""
        try:
            return cls(
                name=data["name"],
                recorded_at=data.get("recorded_at", ""),
                metrics={k: float(v) for k, v in data.get("metrics", {}).items()},
                meta=_meta_strings(data.get("meta", {})),
            )
        except KeyError as exc:
            raise BenchHistoryError(f"record without {exc}") from None
        except (TypeError, ValueError, AttributeError) as exc:
            raise BenchHistoryError(f"malformed record: {exc}") from None


def _meta_strings(meta: Mapping[str, Any]) -> Dict[str, str]:
    return {k: str(v) for k, v in meta.items()}


@dataclass(frozen=True)
class Regression:
    """One metric that moved outside tolerance in the bad direction."""

    metric: str
    previous: float
    current: float
    change: float  # signed relative change, + means increased
    higher_is_better: bool

    def format(self) -> str:
        direction = "dropped" if self.higher_is_better else "rose"
        return (
            f"{self.metric} {direction} {abs(self.change) * 100:.1f}%: "
            f"{self.previous:g} -> {self.current:g}"
        )


def history_path(name: str, directory: str = ".") -> str:
    """``BENCH_<name>.json`` under `directory` (name slug-sanitised)."""
    slug = "".join(c if c.isalnum() or c in "-_" else "-" for c in name)
    return os.path.join(directory, f"BENCH_{slug}.json")


def load_history(name: str, directory: str = ".") -> List[BenchRecord]:
    """Every recorded run of `name`, oldest first ([] when none)."""
    path = history_path(name, directory)
    if not os.path.exists(path):
        return []
    try:
        with open(path) as fh:
            data = json.load(fh)
        if not isinstance(data, list):
            raise BenchHistoryError("not a benchmark-history array")
        return [BenchRecord.from_jsonable(entry) for entry in data]
    except (json.JSONDecodeError, BenchHistoryError) as exc:
        raise BenchHistoryError(f"{path}: {exc}") from None


def record_result(
    name: str,
    metrics: Mapping[str, float],
    meta: Optional[Mapping[str, Any]] = None,
    directory: str = ".",
) -> BenchRecord:
    """Append one run to ``BENCH_<name>.json`` and return its record."""
    record = BenchRecord(
        name=name,
        recorded_at=time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
        metrics={k: float(v) for k, v in metrics.items()},
        meta=_meta_strings(meta or {}),
    )
    history = load_history(name, directory)
    history.append(record)
    os.makedirs(directory, exist_ok=True)
    path = history_path(name, directory)
    with open(path, "w") as fh:
        json.dump([r.to_jsonable() for r in history], fh, indent=2,
                  sort_keys=True)
        fh.write("\n")
    return record


def _is_higher_better(metric: str, higher_is_better: Iterable[str]) -> bool:
    keys = set(higher_is_better)
    if metric in keys:
        return True
    tail = metric.rsplit("_", 1)[-1]
    return tail in DEFAULT_HIGHER_IS_BETTER or metric in DEFAULT_HIGHER_IS_BETTER


def compare(
    previous: BenchRecord,
    current: Mapping[str, float],
    rtol: float = 0.10,
    higher_is_better: Iterable[str] = (),
) -> List[Regression]:
    """Regressions of `current` against `previous` outside ``rtol``.

    Only metrics present in both runs are compared; new or dropped metrics
    are not regressions.  A zero previous value only regresses when the
    current one is worse in absolute terms (avoids divide-by-zero blowups
    on metrics that legitimately start at zero).
    """
    regressions: List[Regression] = []
    for metric in sorted(previous.metrics):
        if metric not in current:
            continue
        prev = previous.metrics[metric]
        curr = float(current[metric])
        higher = _is_higher_better(metric, higher_is_better)
        if prev == 0:
            worse = curr < 0 if higher else curr > 0
            change = 0.0 if not worse else (1.0 if curr > prev else -1.0)
        else:
            change = (curr - prev) / abs(prev)
            worse = change < -rtol if higher else change > rtol
        if worse:
            regressions.append(
                Regression(metric, prev, curr, change, higher)
            )
    return regressions


def compare_to_last(
    name: str,
    metrics: Mapping[str, float],
    directory: str = ".",
    rtol: float = 0.10,
    higher_is_better: Iterable[str] = (),
    meta: Optional[Mapping[str, Any]] = None,
) -> Tuple[Optional[BenchRecord], List[Regression]]:
    """Compare `metrics` to the most recent record of `name` with `meta`.

    Only a record whose ``meta`` equals this run's (values compared as
    recorded, i.e. as strings) is a baseline: a run on another workload or
    fleet size is a different experiment, not a regression.  Returns
    ``(baseline, regressions)``; baseline is ``None`` (and the regression
    list empty) when no record has these settings.
    """
    wanted = _meta_strings(meta or {})
    matches = [r for r in load_history(name, directory) if r.meta == wanted]
    if not matches:
        return None, []
    baseline = matches[-1]
    return baseline, compare(baseline, metrics, rtol, higher_is_better)


def format_regressions(regressions: List[Regression]) -> str:
    if not regressions:
        return "no regressions against the last run with these settings"
    lines = [f"{len(regressions)} regression(s) vs last run with these settings:"]
    lines.extend(f"  - {r.format()}" for r in regressions)
    return "\n".join(lines)


# -- the bench registry ---------------------------------------------------------------


@dataclass(frozen=True)
class BenchResult:
    """One bench run: the table it prints, and the metrics it records."""

    title: str
    headers: List[str]
    rows: List[List[str]]
    metrics: Dict[str, float]
    meta: Dict[str, Any]
    notes: List[str] = field(default_factory=list)
    ok: bool = True  # False fails the command (the bootstrap's bit identity)


@dataclass(frozen=True)
class Bench:
    """One ``repro bench`` entry: ``run(opts)`` reads the parsed CLI options
    (after `defaults` fills unset ones) and raises ``ValueError`` on
    settings it cannot run."""

    name: str
    layer: str
    run: Callable[[Any], BenchResult]
    defaults: Mapping[str, Any] = field(default_factory=dict)


def best_of(fn: Callable[[], Any], repeats: int) -> float:
    """Fastest wall-clock time of `repeats` calls of `fn`, in seconds."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def plan_cache_summary() -> str:
    """One-line state of the process-wide key-switch plan cache."""
    from ..ckks.keyswitch import plan as ksplan

    stats = ksplan.keyswitch_plan_cache_stats()
    return (
        "plan cache: "
        f"{stats['hits']} hits, {stats['misses']} misses, "
        f"{stats['evictions']} evictions "
        f"(hit rate {stats['hit_rate'] * 100:.0f}%, "
        f"{ksplan.keyswitch_plan_cache_size()} plans resident)"
    )


def keyswitch_workload(degree: int, dnum: int, seed: int):
    """``(params, ksk, poly)``: a relinearisation key and a random
    top-level polynomial to key-switch, with the plan cache cleared."""
    import numpy as np

    from ..ckks.keys import KeyGenerator
    from ..ckks.keyswitch import plan as ksplan
    from ..ckks.params import CkksParameters, KlssConfig
    from ..math.polynomial import RnsPolynomial

    params = CkksParameters(
        degree=degree,
        max_level=2 * dnum - 1,
        wordsize=WORDSIZE,
        dnum=dnum,
        klss=KlssConfig(wordsize_t=WORDSIZE + 5, alpha_tilde=2),
    )
    gen = KeyGenerator(params, seed=seed)
    ksk = gen.relinearisation_key(gen.secret_key())
    rng = np.random.default_rng(seed)
    basis = params.q_basis(params.max_level)
    limbs = [rng.integers(0, q, size=degree, dtype=np.uint64) for q in basis.moduli]
    poly = RnsPolynomial(degree, basis, limbs, is_ntt=False)
    ksplan.clear_keyswitch_plan_cache()
    return params, ksk, poly


def bootstrap_workload(degree: int, dnum: int, seed: int):
    """``(params, encoder, boot_plan, boot_loop, ct)``: op-plan and loop
    bootstrappers over ONE key set (key generation is randomized, so
    separate keys would break bit identity) and a level-0 ciphertext.

    Keys, encryptor and data draw on seeds `seed`, `seed + 1`, `seed + 2`.
    The plan cache is cleared.
    """
    import numpy as np

    from ..ckks import CkksEncoder, CkksParameters, Encryptor, Evaluator, KeyGenerator
    from ..ckks.bootstrap import Bootstrapper
    from ..ckks.keys import conjugation_galois_power
    from ..ckks.keyswitch import plan as ksplan

    params = CkksParameters(
        degree=degree,
        max_level=3 * dnum,
        wordsize=WORDSIZE,
        dnum=dnum,
        first_prime_bits=WORDSIZE + 2,
    )
    gen = KeyGenerator(params, seed=seed)
    sk = gen.secret_key(hamming_weight=1)
    encoder = CkksEncoder(params)
    encryptor = Encryptor(params, public_key=gen.public_key(sk), seed=seed + 1)
    relin = gen.relinearisation_key(sk)
    ev_plan = Evaluator(params, relin_key=relin, method="hybrid")
    ev_loop = Evaluator(params, relin_key=relin, method="hybrid-loop")
    boot_plan = Bootstrapper(params, encoder, ev_plan)
    boot_loop = Bootstrapper(params, encoder, ev_loop)
    galois = gen.rotation_keys(sk, boot_plan.required_rotations())
    conj = conjugation_galois_power(params.degree)
    galois.add(conj, gen.galois_key(sk, conj))
    ev_plan.galois_keys = galois
    ev_loop.galois_keys = galois

    rng = np.random.default_rng(seed + 2)
    v = np.clip(0.3 * rng.normal(size=params.slots), -0.8, 0.8)
    ct = encryptor.encrypt(encoder.encode(v, level=0))
    ksplan.clear_keyswitch_plan_cache()
    return params, encoder, boot_plan, boot_loop, ct


def _ring_meta(opts) -> Dict[str, Any]:
    return {"degree": opts.degree, "wordsize": WORDSIZE, "dnum": opts.dnum,
            "repeats": opts.repeats}


def _run_keyswitch(opts) -> BenchResult:
    """Loop vs GEMM form of the hybrid and KLSS key switches."""
    from ..ckks.keyswitch import hybrid, klss

    params, ksk, poly = keyswitch_workload(opts.degree, opts.dnum, opts.seed)
    rows = []
    metrics = {}
    for name, mod in (("hybrid", hybrid), ("klss", klss)):
        mod.keyswitch(poly, ksk, params)  # warm the plan + NTT caches
        mod.keyswitch_loop(poly, ksk, params)
        t_loop = best_of(lambda: mod.keyswitch_loop(poly, ksk, params), opts.repeats)
        t_gemm = best_of(lambda: mod.keyswitch(poly, ksk, params), opts.repeats)
        rows.append(
            [name, f"{t_loop * 1e3:.2f}", f"{t_gemm * 1e3:.2f}",
             f"{t_loop / t_gemm:.2f}x"]
        )
        metrics[f"{name}_loop_ms"] = t_loop * 1e3
        metrics[f"{name}_gemm_ms"] = t_gemm * 1e3
        metrics[f"{name}_speedup"] = t_loop / t_gemm
    return BenchResult(
        title=(
            f"KeySwitch loop vs GEMM (N=2^{params.log_degree}, "
            f"WS={WORDSIZE}, dnum={opts.dnum}, l={params.max_level})"
        ),
        headers=["method", "loop ms", "gemm ms", "speedup"],
        rows=rows,
        metrics=metrics,
        meta=_ring_meta(opts),
        notes=[plan_cache_summary()],
    )


def _run_bootstrap(opts) -> BenchResult:
    """The full functional bootstrap: op-plan path vs loop path."""
    import numpy as np

    params, _, boot_plan, boot_loop, ct = bootstrap_workload(
        opts.degree, opts.dnum, opts.seed
    )
    # Warm runs compile the op plans / encode the diagonals, and feed the
    # bit-identity check.
    out_plan = boot_plan.bootstrap(ct)
    out_loop = boot_loop.bootstrap(ct)
    identical = all(
        np.array_equal(a.from_ntt().limb_stack(), b.from_ntt().limb_stack())
        for a, b in ((out_plan.c0, out_loop.c0), (out_plan.c1, out_loop.c1))
    )
    t_plan = best_of(lambda: boot_plan.bootstrap(ct), opts.repeats)
    t_loop = best_of(lambda: boot_loop.bootstrap(ct), opts.repeats)
    return BenchResult(
        title=(
            f"Bootstrap loop vs GEMM plan (N=2^{params.log_degree}, "
            f"WS={WORDSIZE}, dnum={opts.dnum}, L={params.max_level})"
        ),
        headers=["method", "loop ms", "plan ms", "speedup", "bit-identical"],
        rows=[["hybrid", f"{t_loop * 1e3:.1f}", f"{t_plan * 1e3:.1f}",
               f"{t_loop / t_plan:.2f}x", str(identical)]],
        metrics={
            "loop_ms": t_loop * 1e3,
            "plan_ms": t_plan * 1e3,
            "speedup": t_loop / t_plan,
        },
        meta=_ring_meta(opts),
        notes=[plan_cache_summary()],
        ok=identical,
    )


def _server_pair(opts, labels: Tuple[str, str], baseline, candidate):
    """Drain one synthesized workload through a baseline and a candidate
    server on the simulated clock; ``(rows, reports, throughput ratio)``."""
    from ..serving import parse_workload_spec, synthesize_arrivals

    requests = synthesize_arrivals(parse_workload_spec(opts.workload), seed=opts.seed)
    rows = []
    reports = []
    for label, server in zip(labels, (baseline, candidate)):
        server.submit_many(requests)
        report = server.drain()
        rows.append([label, f"{report.throughput_rps:.3f}",
                     f"{report.latency_summary()['p95']:.1f}",
                     f"{100 * report.slo_attainment:.1f}%"])
        reports.append(report)
    base, cand = reports
    speedup = cand.throughput_rps / base.throughput_rps if base.throughput_rps else 0.0
    return rows, reports, speedup


_SERVER_HEADERS = ["req/s", "P95 s", "SLO attainment"]


def _run_serving(opts) -> BenchResult:
    """Continuous batching vs serial dispatch."""
    from ..serving import Server

    rows, (serial, batched), speedup = _server_pair(
        opts, ("serial", "continuous"),
        Server(policy="fifo", max_batch=1, max_wait_s=0.0, lanes=1), Server(),
    )
    return BenchResult(
        title=f"Serving throughput, workload {opts.workload!r} (seed {opts.seed})",
        headers=["dispatch"] + _SERVER_HEADERS,
        rows=rows,
        metrics={
            "serial_rps": serial.throughput_rps,
            "continuous_rps": batched.throughput_rps,
            "batching_speedup": speedup,
            "continuous_attainment": batched.slo_attainment,
        },
        meta={"workload": opts.workload, "seed": opts.seed},
        notes=[f"continuous batching speedup: {speedup:.2f}x"],
    )


def _run_fleet(opts) -> BenchResult:
    """Fleet scaling: `opts.gpus` modeled GPUs vs one."""
    from ..serving import Fleet, Server

    rows, (single, fleet), speedup = _server_pair(
        opts, ("1", str(opts.gpus)), Server(), Fleet(gpus=opts.gpus)
    )
    return BenchResult(
        title=f"Fleet scaling, workload {opts.workload!r} (seed {opts.seed})",
        headers=["devices"] + _SERVER_HEADERS,
        rows=rows,
        metrics={
            "single_rps": single.throughput_rps,
            "fleet_rps": fleet.throughput_rps,
            "fleet_speedup": speedup,
            "fleet_attainment": fleet.slo_attainment,
        },
        meta={"workload": opts.workload, "gpus": opts.gpus, "seed": opts.seed},
        notes=[
            f"fleet speedup: {speedup:.2f}x on {opts.gpus} device(s) "
            f"({100 * speedup / opts.gpus:.0f}% scaling efficiency)"
        ],
    )


def _run_autotune(opts) -> BenchResult:
    """Quick-budget plan search per app; tuned vs baseline on the model."""
    from ..core import tune_app
    from ..gpu import get_device

    device = get_device(opts.device).hier()
    apps = ("helr", "packbootstrap", "resnet20")
    rows = []
    metrics = {}
    start = time.perf_counter()
    for app in apps:
        report = tune_app(app, params="C", device=device, budget="quick")
        best = report.best
        baseline_ms = (
            f"{report.baseline_time_s * 1e3:.1f}"
            if report.baseline_time_s
            else "n/a"
        )
        rows.append([
            app, baseline_ms, f"{best.time_s * 1e3:.1f}",
            f"{best.speedup:.2f}x" if best.speedup else "n/a",
            best.label(),
        ])
        metrics[f"{app}_tuned_ms"] = best.time_s * 1e3
        if best.speedup:
            metrics[f"{app}_speedup"] = best.speedup
    metrics["search_wall_s"] = time.perf_counter() - start
    return BenchResult(
        title=f"Autotuned plans on {device.name} (set C, quick budget)",
        headers=["app", "baseline ms", "tuned ms", "speedup", "configuration"],
        rows=rows,
        metrics=metrics,
        meta={"device": device.name, "budget": "quick", "apps": list(apps)},
    )


#: Every ``repro bench`` name.  The functional bootstrap is far heavier per
#: call than one key switch and needs a longer chain, hence the smaller
#: ring and larger dnum.
BENCHES: Dict[str, Bench] = {
    bench.name: bench
    for bench in (
        Bench("keyswitch", "keyswitch", _run_keyswitch, {"degree": 1024, "dnum": 2}),
        Bench("bootstrap", "boot", _run_bootstrap, {"degree": 32, "dnum": 4}),
        Bench("serving", "serving", _run_serving, {"workload": "mixed"}),
        Bench("fleet", "serving", _run_fleet, {"workload": "overload"}),
        Bench("autotune", "tuner", _run_autotune),
    )
}
