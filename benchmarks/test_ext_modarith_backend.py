"""Extension: Barrett/Shoup native-backend micro-benchmark.

The paper's kernels operate on 36/48/60-bit RNS limbs (Section 3.4's FP64
plane-splitting argument assumes machine-word residues).  The seed code ran
every such limb through exact Python-integer (``dtype=object``) arrays; the
Barrett/Shoup backend keeps them in ``uint64`` end to end.

Acceptance bar (ISSUE 3): for a 60-bit negacyclic polynomial multiply plus
an NTT round-trip at ``N = 2**12``, the native backend must be at least
**10x** faster than the object-dtype oracle while producing bit-identical
residues (measured 20-30x on the reference machine).
"""

import numpy as np
import pytest

from repro.math import modarith
from repro.math import ntt as ntt_mod
from repro.math.polynomial import negacyclic_multiply
from repro.math.primes import ntt_primes
from repro.telemetry.bench_history import best_of

DEGREE = 1 << 12
Q = ntt_primes(60, DEGREE, 1)[0]
SPEEDUP_FLOOR = 10.0


def _workload(a, b):
    """One negacyclic multiply plus an explicit NTT round-trip."""
    product = negacyclic_multiply(a, b, DEGREE, Q)
    plan = ntt_mod.get_plan(DEGREE, Q)
    round_trip = plan.inverse(plan.forward(product.copy()))
    return product, round_trip


@pytest.fixture(scope="module")
def operands():
    rng = np.random.default_rng(7)
    a = rng.integers(0, Q, size=DEGREE, dtype=np.uint64)
    b = rng.integers(0, Q, size=DEGREE, dtype=np.uint64)
    return a, b


def test_60bit_modulus_selects_uint64_backend():
    assert Q.bit_length() == 60
    assert modarith.uses_barrett_backend(Q)
    assert modarith.backend_dtype(Q) == np.uint64


def test_native_matches_object_oracle_bit_for_bit(operands):
    a, b = operands
    native_prod, native_rt = _workload(a, b)
    assert native_prod.dtype == np.uint64
    assert native_rt.dtype == np.uint64
    with modarith.object_backend():
        obj_prod, obj_rt = _workload(a.astype(object), b.astype(object))
    assert obj_prod.dtype == object
    assert (native_prod.astype(object) == obj_prod).all()
    assert (native_rt.astype(object) == obj_rt).all()


def test_native_backend_speedup_at_least_10x(operands):
    a, b = operands
    _workload(a, b)  # warm the native plan cache
    t_native = best_of(lambda: _workload(a, b), repeats=5)
    obj_a, obj_b = a.astype(object), b.astype(object)
    with modarith.object_backend():
        _workload(obj_a, obj_b)  # warm the object plan cache
        t_object = best_of(lambda: _workload(obj_a, obj_b), repeats=2)
    speedup = t_object / t_native
    print(
        f"\n60-bit N=2^12: object {t_object * 1e3:.1f} ms, "
        f"native {t_native * 1e3:.1f} ms, speedup {speedup:.1f}x"
    )
    assert speedup >= SPEEDUP_FLOOR, (
        f"native backend speedup only {speedup:.1f}x "
        f"(needs >= {SPEEDUP_FLOOR}x)"
    )
