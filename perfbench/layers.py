"""Span wrappers around the program's layer entry points, for the traced run.

``LayerTracer.install()`` replaces each entry point listed in
:func:`entry_points` at the binding its callers look up -- a class
attribute, or a module attribute such as ``repro.ckks.keyswitch.klss.
keyswitch`` that the evaluator reaches through ``klss_ks.keyswitch`` --
with a wrapper that records a wall-clock span on a
:class:`repro.telemetry.Tracer`.  ``uninstall()`` puts the originals back,
so the untraced half of a traced run and every ``--trace 0`` run execute
the program untouched.

Span names are the layer metric prefixes of ``BENCHMARK.json``
(``math.ntt``, ``keyswitch.hoisted``, ``serving.candidate`` ...).  ``math``
is a leaf layer: a math entry point called from inside another math span
(the lazy reduction inside ``bconv_matmul``, the modular multiplies inside
a transform) records nothing, so its time stays with the outer math span.
Every listed binding fires on at least one workload (the self-tests check
this); entry points no workload reaches are not wrapped.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from typing import Dict, Iterable, List, Tuple

ITEM = "perfbench.item"
SETUP = "perfbench.setup"


def entry_points() -> List[Tuple[object, str, str]]:
    """``(owner, attribute, span name)`` for every wrapped entry point."""
    from repro.ckks import (
        Bootstrapper,
        CkksEncoder,
        Decryptor,
        Encryptor,
        Evaluator,
        KeyGenerator,
        LinearTransform,
        PolynomialEvaluator,
    )
    from repro.ckks.keyswitch import hybrid, klss, plan
    from repro.core import (
        NeoContext,
        OperationPipeline,
        autotuner,
        bconv_matmul,
        ip_matmul,
        radix16_ntt,
    )
    from repro.gpu.trace import ExecutionTrace
    from repro.math.modstack import ModulusStack
    from repro.math.ntt import NttStack
    from repro.serving import (
        ContinuousBatcher,
        NeoServiceModel,
        RequestQueue,
        Server,
        ServingReport,
    )

    return [
        # math
        (NttStack, "forward", "math.ntt"),
        (NttStack, "inverse", "math.ntt"),
        (ModulusStack, "bconv_matmul", "math.bconv"),
        (ModulusStack, "lazy_mul_sum", "math.lazy_ip"),
        (ModulusStack, "mul", "math.modmul"),
        (ModulusStack, "scalar_mul", "math.modmul"),
        (ModulusStack, "broadcast_scalar_mul", "math.modmul"),
        # keyswitch
        (hybrid, "keyswitch", "keyswitch"),
        (klss, "keyswitch", "keyswitch"),
        (plan, "hoisted_gemm_rotations", "keyswitch.hoisted"),
        (plan, "gemm_rotation_batch", "keyswitch.hoisted"),
        # ckks
        (Evaluator, "multiply", "ckks.eval.multiply"),
        (Evaluator, "relinearise", "ckks.eval.relinearise"),
        (Evaluator, "rotate", "ckks.eval.rotate"),
        (Evaluator, "conjugate", "ckks.eval.rotate"),
        (Evaluator, "rescale", "ckks.eval.rescale"),
        (Evaluator, "multiply_plain", "ckks.eval.plain"),
        (Evaluator, "add_plain", "ckks.eval.plain"),
        (Evaluator, "sub_plain", "ckks.eval.plain"),
        (Evaluator, "add", "ckks.eval.add"),
        (Evaluator, "mod_switch_to_level", "ckks.eval.add"),
        (CkksEncoder, "encode", "ckks.codec"),
        (CkksEncoder, "encode_constant", "ckks.codec"),
        (CkksEncoder, "decode", "ckks.codec"),
        (Encryptor, "encrypt", "ckks.codec"),
        (Decryptor, "decrypt", "ckks.codec"),
        (KeyGenerator, "secret_key", "ckks.keygen"),
        (KeyGenerator, "public_key", "ckks.keygen"),
        (KeyGenerator, "relinearisation_key", "ckks.keygen"),
        (KeyGenerator, "galois_key", "ckks.keygen"),
        (KeyGenerator, "rotation_keys", "ckks.keygen"),
        # boot
        (Bootstrapper, "bootstrap", "boot"),
        (Bootstrapper, "mod_raise", "boot.mod_raise"),
        (Bootstrapper, "coeff_to_slot", "boot.coeff_to_slot"),
        (Bootstrapper, "eval_mod", "boot.eval_mod"),
        (Bootstrapper, "slot_to_coeff", "boot.slot_to_coeff"),
        (LinearTransform, "apply", "boot.lintrans"),
        (PolynomialEvaluator, "evaluate", "boot.polyeval"),
        # serving
        (Server, "submit_many", "serving.submit"),
        (Server, "drain", "serving.drain"),
        (ContinuousBatcher, "candidate", "serving.candidate"),
        (NeoServiceModel, "service_time_s", "serving.service_time"),
        (RequestQueue, "push", "serving.queue"),
        (RequestQueue, "remove", "serving.queue"),
        (RequestQueue, "requests", "serving.queue"),
        (RequestQueue, "max_depth", "serving.queue"),
        (RequestQueue, "mean_depth", "serving.queue"),
        (ServingReport, "fingerprint", "serving.report"),
        (ServingReport, "latency_summary", "serving.report"),
        # core
        (OperationPipeline, "build_operation_trace", "core.trace"),
        (NeoContext, "application_time", "core.app_time"),
        (NeoContext, "application_trace", "core.app_time"),
        (NeoContext, "operation_time_us", "core.op_time"),
        # tuner
        (autotuner, "tune_app", "tuner"),
        # gpu: memory-model traffic at the cost builders' bindings (run only
        # when a memoised builder misses), and trace pricing
        (radix16_ntt, "ntt_traffic", "gpu.cost"),
        (bconv_matmul, "bconv_traffic", "gpu.cost"),
        (ip_matmul, "ip_traffic", "gpu.cost"),
        (ExecutionTrace, "overlapped_time_s", "gpu.cost"),
    ]


def binding_name(owner, attr: str) -> str:
    """``Class.attr`` or ``module.attr``; recorded as each span's ``binding``."""
    return f"{owner.__name__}.{attr}"


class LayerTracer:
    """Installs and removes the span wrappers; owns the span recorder."""

    def __init__(self):
        from repro.telemetry import Tracer

        self.tracer = Tracer()
        self._saved: List[Tuple[object, str, object]] = []
        self._math_depth = 0

    # -- wrappers ----------------------------------------------------------------

    def _wrap(self, fn, name: str, binding: str):
        span = self.tracer.span
        if name.startswith("math."):
            @functools.wraps(fn)
            def leaf(*args, **kwargs):
                if self._math_depth:
                    return fn(*args, **kwargs)
                self._math_depth += 1
                try:
                    with span(name, binding=binding):
                        return fn(*args, **kwargs)
                finally:
                    self._math_depth -= 1
            return leaf

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with span(name, binding=binding):
                return fn(*args, **kwargs)
        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("layer wrappers are already installed")
        for owner, attr, name in entry_points():
            if isinstance(owner, type):
                if attr not in owner.__dict__:
                    raise AttributeError(f"{owner.__name__}.{attr} is not defined there")
                original = owner.__dict__[attr]
            else:
                original = getattr(owner, attr)
            binding = binding_name(owner, attr)
            if isinstance(original, property):
                replacement = property(self._wrap(original.fget, name, binding))
            else:
                replacement = self._wrap(original, name, binding)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class SpanSummary:
    """Calls and self time per span name, split into set-up and items."""

    def __init__(self, spans: Iterable):
        spans = list(spans)
        child_time: Dict[int, float] = defaultdict(float)
        for s in spans:
            if s.parent_id is not None:
                child_time[s.parent_id] += s.end_s - s.start_s
        roots = {s.trace_id: s for s in spans if s.parent_id is None}
        self.items = [s for s in roots.values() if s.name == ITEM]
        self.calls: Dict[str, Dict[str, int]] = {"setup": defaultdict(int), "item": defaultdict(int)}
        self.self_s: Dict[str, Dict[str, float]] = {"setup": defaultdict(float), "item": defaultdict(float)}
        for s in spans:
            root = roots.get(s.trace_id)
            if root is None or s is root:
                continue
            phase = "item" if root.name == ITEM else "setup"
            self.calls[phase][s.name] += 1
            self.self_s[phase][s.name] += (s.end_s - s.start_s) - child_time[s.span_id]
        item_time = sum(s.end_s - s.start_s for s in self.items)
        uncovered = sum(
            (s.end_s - s.start_s) - child_time[s.span_id] for s in self.items
        )
        self.unattributed_share = uncovered / item_time if item_time > 0 else 0.0
