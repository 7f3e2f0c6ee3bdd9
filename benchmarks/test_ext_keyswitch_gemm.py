"""Extension: GEMM-form key-switch engine benchmark.

The paper's core claim (Sections 4.2-4.4) is that BConv, the key-switch
inner product and the NTT all become GEMMs: BConv is one batched matmul
against the precomputed conversion matrix (Algorithm 2), the inner product
is a lazily-reduced einsum against the pre-stacked evk tensor (Algorithm
4's bound analysis), and the NTT factors into two small matmuls via the
four-step decomposition.  The seed code executed the same pipeline as
Python loops over per-digit ``multiply``/``add`` calls with a full Barrett
reduction per step.

Acceptance bar (ISSUE 5): at ``N = 2**14`` the GEMM-form KLSS key switch
(:func:`klss.keyswitch`) must be at least **3x** faster than the per-digit
loop form (:func:`klss.keyswitch_loop`) while producing bit-identical
limbs (measured ~3.7x on the reference machine).
"""

import numpy as np
import pytest

from repro.ckks.keyswitch import hybrid, klss
from repro.telemetry.bench_history import (
    best_of,
    keyswitch_workload,
    plan_cache_summary,
)

LOG_DEGREE = 14
DEGREE = 1 << LOG_DEGREE
WORDSIZE = 25
DNUM = 12
SPEEDUP_FLOOR = 3.0


@pytest.fixture(scope="module")
def workload():
    params, ksk, poly = keyswitch_workload(DEGREE, DNUM, seed=0)
    assert params.wordsize == WORDSIZE
    return params, ksk, poly


def _assert_identical(pair_a, pair_b):
    for left, right in zip(pair_a, pair_b):
        assert left.basis == right.basis
        for la, lb in zip(left.limbs, right.limbs):
            assert np.array_equal(np.asarray(la), np.asarray(lb))


def test_klss_gemm_bit_identical_to_loop(workload):
    params, ksk, poly = workload
    _assert_identical(
        klss.keyswitch(poly, ksk, params),
        klss.keyswitch_loop(poly, ksk, params),
    )


def test_hybrid_gemm_bit_identical_to_loop(workload):
    params, ksk, poly = workload
    _assert_identical(
        hybrid.keyswitch(poly, ksk, params),
        hybrid.keyswitch_loop(poly, ksk, params),
    )


def test_klss_gemm_speedup_at_least_3x(workload):
    params, ksk, poly = workload
    klss.keyswitch(poly, ksk, params)  # warm plan + NTT caches
    klss.keyswitch_loop(poly, ksk, params)
    t_gemm = best_of(lambda: klss.keyswitch(poly, ksk, params), repeats=3)
    t_loop = best_of(lambda: klss.keyswitch_loop(poly, ksk, params), repeats=3)
    speedup = t_loop / t_gemm
    print(
        f"\nKLSS N=2^{LOG_DEGREE} dnum={DNUM} w={WORDSIZE}: "
        f"loop {t_loop * 1e3:.1f} ms, gemm {t_gemm * 1e3:.1f} ms, "
        f"speedup {speedup:.2f}x ({plan_cache_summary()})"
    )
    assert speedup >= SPEEDUP_FLOOR, (
        f"GEMM key switch speedup only {speedup:.2f}x "
        f"(needs >= {SPEEDUP_FLOOR}x)"
    )
