"""The four benchmark workloads: inputs, the timed item, and its output check.

Every workload is one process, one client and a closed loop: the harness
builds the next input, runs one item, checks its output, and only then
starts the next.  A workload object is built from the workload seed, which
derives its keys, messages, traffic traces and item order; the program only
ever sees the generated inputs.

Interface (duck-typed, used by ``harness.py``):

* ``Workload(seed)`` -- set-up that is not an item (parameters, keys, caches).
* ``warmup_input()`` / ``make_input()`` -- the set-up item's input and the
  next timed item's input.
* ``run(inp)`` -- the timed item; returns the program's output.
* ``check(inp, out)`` -- ``(ok, error)``: whether the output is correct, and
  its mean absolute error against the reference (0.0 for exact checks).
* ``item_counters(out)`` -- per-item counts read from the program's own
  reports (cache stats, tuner counters, dispatches), for the traced run.
"""

from __future__ import annotations

import json
import math
import os
import zlib
from typing import Dict, Tuple

import numpy as np

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def derive_seed(seed: int, stream: str) -> int:
    """A stable 31-bit seed for one named random stream of a workload seed."""
    return int(np.random.default_rng([seed, zlib.crc32(stream.encode())]).integers(2**31))


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as handle:
        return json.load(handle)


class _Functional:
    """Shared shape of the functional-engine workloads: an item is
    ``decrypt(evaluate(inp))`` on a fresh, seed-derived input."""

    def warmup_input(self):
        return self.make_input()

    def decrypt(self, ct) -> np.ndarray:
        return self.encoder.decode(self.decryptor.decrypt(ct)).real

    def run(self, inp) -> np.ndarray:
        return self.decrypt(self.evaluate(inp))

    def item_counters(self, out) -> Dict[str, float]:
        return {}


class HelrStep(_Functional):
    """One encrypted HELR gradient step plus an 8-rotation rotate-and-sum.

    N=2^12, L=6, 36-bit words, dnum=2, KLSS key switching (WordSize_T=41,
    alpha~=2): the paper's method, where ``math`` and ``keyswitch`` carry
    the work.
    """

    name = "helr-step"
    ROTATIONS = tuple(1 << i for i in range(8))
    #: Worst decrypted slot error tolerated against the plaintext reference.
    #: The error depends on the key set: over 20 key seeds the worst slot
    #: ranged from 6.3e-6 to 7.5e-5, so this leaves a 6x margin.
    MAX_ERROR = 5e-4

    def __init__(self, seed: int):
        from repro.apps import EncryptedLogisticRegression
        from repro.ckks import (
            CkksEncoder,
            CkksParameters,
            Decryptor,
            Encryptor,
            Evaluator,
            KeyGenerator,
            KlssConfig,
        )

        params = CkksParameters(
            degree=1 << 12,
            max_level=6,
            wordsize=36,
            dnum=2,
            klss=KlssConfig(wordsize_t=41, alpha_tilde=2),
        )
        gen = KeyGenerator(params, seed=derive_seed(seed, "keys"))
        secret = gen.secret_key()
        self.params = params
        self.encoder = CkksEncoder(params)
        self.encryptor = Encryptor(
            params, public_key=gen.public_key(secret),
            seed=derive_seed(seed, "encrypt"),
        )
        self.decryptor = Decryptor(params, secret)
        self.evaluator = Evaluator(
            params,
            relin_key=gen.relinearisation_key(secret),
            galois_keys=gen.rotation_keys(secret, self.ROTATIONS),
            method="klss",
        )
        self.model = EncryptedLogisticRegression(self.encoder, self.evaluator)
        self._rng = np.random.default_rng(derive_seed(seed, "inputs"))

    def make_input(self) -> Tuple[np.ndarray, np.ndarray]:
        slots = self.params.slots
        scores = np.clip(self._rng.normal(0.0, 1.5, size=slots), -4.0, 4.0)
        labels = self._rng.integers(0, 2, size=slots).astype(float)
        return scores, labels

    def evaluate(self, inp):
        scores, labels = inp
        ev = self.evaluator
        ct = self.encryptor.encrypt(self.encoder.encode(scores))
        residual = self.model.gradient_step(ct, labels)
        for steps in self.ROTATIONS:
            residual = ev.add(residual, ev.rotate(residual, steps))
        return residual

    def reference(self, inp) -> np.ndarray:
        expected = self.model.gradient_step_plain(*inp)
        for steps in self.ROTATIONS:
            expected = expected + np.roll(expected, -steps)
        return expected

    def check(self, inp, out) -> Tuple[bool, float]:
        errors = np.abs(out - self.reference(inp))
        return bool(errors.max() <= self.MAX_ERROR), float(errors.mean())


class Bootstrap(_Functional):
    """One full functional bootstrap (ModRaise, CtS, EvalMod, StC) per item.

    N=2^7, L=12, 25-bit words (27-bit q0), dnum=4, Hybrid key switching on
    the plan path, a Hamming-weight-1 secret.  EvalMod uses a degree-23
    sine approximation: the default degree 15 leaves the 2e-2 / 8e-3
    envelope on encryptions where a coefficient overflows (|I| = 1).
    """

    name = "bootstrap"
    EVAL_DEGREE = 23
    #: The documented precision envelope of the functional bootstrap.
    MAX_ERROR = 2e-2
    MEAN_ERROR = 8e-3

    def __init__(self, seed: int):
        from repro.ckks import (
            Bootstrapper,
            CkksEncoder,
            CkksParameters,
            Decryptor,
            Encryptor,
            Evaluator,
            KeyGenerator,
            conjugation_galois_power,
        )

        params = CkksParameters(
            degree=1 << 7, max_level=12, wordsize=25, dnum=4, first_prime_bits=27
        )
        gen = KeyGenerator(params, seed=derive_seed(seed, "keys"))
        secret = gen.secret_key(hamming_weight=1)
        self.params = params
        self.encoder = CkksEncoder(params)
        self.encryptor = Encryptor(
            params, public_key=gen.public_key(secret),
            seed=derive_seed(seed, "encrypt"),
        )
        self.decryptor = Decryptor(params, secret)
        self.evaluator = Evaluator(
            params, relin_key=gen.relinearisation_key(secret), method="hybrid"
        )
        self.bootstrapper = Bootstrapper(
            params, self.encoder, self.evaluator,
            eval_degree=self.EVAL_DEGREE, overflow_bound=1.0,
        )
        galois = gen.rotation_keys(secret, self.bootstrapper.required_rotations())
        conj = conjugation_galois_power(params.degree)
        galois.add(conj, gen.galois_key(secret, conj))
        self.evaluator.galois_keys = galois
        self._rng = np.random.default_rng(derive_seed(seed, "inputs"))

    def make_input(self) -> np.ndarray:
        return np.clip(0.3 * self._rng.normal(size=self.params.slots), -0.8, 0.8)

    def evaluate(self, inp):
        ct = self.encryptor.encrypt(self.encoder.encode(inp, level=0))
        return self.bootstrapper.bootstrap(ct)

    def check(self, inp, out) -> Tuple[bool, float]:
        errors = np.abs(out - inp)
        ok = errors.max() < self.MAX_ERROR and errors.mean() < self.MEAN_ERROR
        return bool(ok), float(errors.mean())


class ServeOverload:
    """One drain of a fresh ``overload10x`` trace (9,000 requests) per item.

    The server is the default ``Server()`` configuration; every item's
    server shares one trace cache, as a long-lived serving process would,
    so set-up pays the trace builds and items replay warm traces.
    """

    name = "serve-overload10x"
    PRESET = "overload10x"
    #: ``synthesize_arrivals``' default seed; its report fingerprint is
    #: committed in ``reference.json``.
    DEFAULT_TRACE_SEED = 0

    def __init__(self, seed: int):
        from repro.core import TraceCache
        from repro.serving import parse_workload_spec

        self.phases = parse_workload_spec(self.PRESET)
        self.trace_cache = TraceCache()
        self.fingerprint = load_reference()["serve-overload10x"]["fingerprint_seed0"]
        self._rng = np.random.default_rng(derive_seed(seed, "traces"))

    def _trace(self, trace_seed: int):
        from repro.serving import synthesize_arrivals

        return trace_seed, synthesize_arrivals(self.phases, seed=trace_seed)

    def warmup_input(self):
        return self._trace(self.DEFAULT_TRACE_SEED)

    def make_input(self):
        return self._trace(int(self._rng.integers(1, 2**31)))

    def run(self, inp) -> dict:
        from repro.serving import Server

        before = self.trace_cache.stats
        server = Server(trace_cache=self.trace_cache)
        server.submit_many(inp[1])
        report = server.drain()
        after = self.trace_cache.stats
        return {
            "offered": len(inp[1]),
            "served": report.served,
            "shed": report.shed_count,
            "rejected": report.rejected_count,
            "cancelled": report.cancelled_count,
            "fingerprint": report.fingerprint(),
            "latency": report.latency_summary(),
            "dispatches": len(report.batches),
            "max_queue_depth": report.max_queue_depth,
            "cache_hits": after.hits - before.hits,
            "cache_misses": after.misses - before.misses,
        }

    def check(self, inp, out) -> Tuple[bool, float]:
        conserved = out["offered"] == (
            out["served"] + out["shed"] + out["rejected"] + out["cancelled"]
        )
        if inp[0] == self.DEFAULT_TRACE_SEED:
            conserved = conserved and out["fingerprint"] == self.fingerprint
        return conserved, 0.0

    def item_counters(self, out) -> Dict[str, float]:
        return {
            "serving.dispatches": out["dispatches"],
            "serving.queue.max_depth": out["max_queue_depth"],
            "trace_cache.hits": out["cache_hits"],
            "trace_cache.misses": out["cache_misses"],
        }


class TuneSweep:
    """One application tuned cold for every device per item.

    An item runs ``tune_app(app, budget="full")`` under the hierarchical
    memory model on a100, h100 and l4, each time with the kernel-cost memos
    cleared and a fresh trace cache, so the search, its cost builders and
    trace building all run cold.  Applications come in a seed-shuffled
    order.  A single search's cost is set by its device (an l4 search takes
    about half as long as an h100 one); sweeping all three devices in one
    item keeps item times unimodal, so their median is steady.  The set-up
    item is one search, helr on l4: it loads the same code as a full item
    in a third of the time, which keeps ``setup_s`` short and steady.
    """

    name = "tune-sweep"
    APPS = ("helr", "packbootstrap", "resnet20", "resnet56")
    DEVICES = ("a100", "h100", "l4")

    def __init__(self, seed: int):
        self.expected = load_reference()["tune-sweep"]
        self._rng = np.random.default_rng(derive_seed(seed, "order"))
        self._pending = []

    def make_input(self) -> Tuple[str, Tuple[str, ...]]:
        if not self._pending:
            self._pending = [self.APPS[i] for i in self._rng.permutation(len(self.APPS))]
        return self._pending.pop(), self.DEVICES

    def warmup_input(self) -> Tuple[str, Tuple[str, ...]]:
        return self.APPS[0], ("l4",)

    def run(self, inp):
        # Module-attribute lookups at call time, so traced runs see the
        # span wrappers installed on ``repro.core.autotuner``.
        from repro.core import TraceCache, autotuner
        from repro.gpu import get_device

        app, devices = inp
        results = []
        for device in devices:
            autotuner.clear_cost_builder_caches()
            cache = TraceCache()
            report = autotuner.tune_app(
                app, params="C", device=get_device(device).hier(),
                budget="full", trace_cache=cache,
            )
            results.append((device, report, cache.stats))
        return results

    def check(self, inp, out) -> Tuple[bool, float]:
        app, devices = inp
        ok, error = [device for device, _, _ in out] == list(devices), 0.0
        for device, report, _ in out:
            expected = self.expected[f"{app}/{device}"]
            best = report.best
            ok = ok and best.label() == expected["label"] and best.time_s == expected["time_s"]
            error = max(error, abs(best.time_s - expected["time_s"]))
        return ok, error

    def item_counters(self, out) -> Dict[str, float]:
        counters: Dict[str, float] = {}
        for _, report, stats in out:
            for key, value in (
                ("tuner.probed", report.probed),
                ("tuner.evaluated", report.evaluated),
                ("tuner.pruned", report.pruned_dominated + report.pruned_cutoff),
                ("tuner.cache_hits", report.cache_hits),
                ("tuner.cache_misses", report.cache_misses),
                ("trace_cache.hits", stats.hits),
                ("trace_cache.misses", stats.misses),
            ):
                counters[key] = counters.get(key, 0) + value
        return counters


WORKLOADS = {w.name: w for w in (HelrStep, Bootstrap, ServeOverload, TuneSweep)}


def precision_bits(mean_error: float) -> float:
    """Mean bits of agreement with the reference: ``-log2`` of the mean error.

    Exact checks (error 0.0) report 52, the float64 mantissa width; a run
    with a failed item (infinite error) reports 0.
    """
    if not math.isfinite(mean_error):
        return 0.0
    if mean_error <= 0.0:
        return 52.0
    return min(52.0, -math.log2(mean_error))
