"""Tests for the FP64 / INT8 tensor-core GEMM emulations (bit-exactness)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.gpu import tensorcore
from repro.math.primes import ntt_primes

Q36 = ntt_primes(36, 64, 1)[0]
Q48 = ntt_primes(48, 64, 1)[0]
Q60 = ntt_primes(60, 64, 1)[0]


class TestSplitPlans:
    def test_fp64_36bit_k16_needs_3_products(self):
        """Paper Section 3.4: 36-bit GEMM = 3 FP64 plane products."""
        plan = tensorcore.plan_fp64_split(36, 36, 16)
        assert plan.products == 3

    def test_fp64_48bit_k16_needs_4_products(self):
        """Paper Section 3.4: 48-bit GEMM = 2x2 = 4 FP64 plane products."""
        plan = tensorcore.plan_fp64_split(48, 48, 16)
        assert plan.products == 4
        assert (plan.a_planes, plan.b_planes) == (2, 2)

    def test_int8_36bit_booth_25(self):
        """Paper Fig. 3: 36-bit on INT8 = 5x5 = 25 plane products."""
        assert tensorcore.plan_int8_split(36, 36).products == 25

    def test_int8_48bit_booth_36(self):
        """Paper Fig. 3: 48-bit on INT8 = 6x6 = 36 plane products."""
        assert tensorcore.plan_int8_split(48, 48).products == 36

    def test_plan_respects_53_bit_bound(self):
        plan = tensorcore.plan_fp64_split(60, 60, 16)
        bound = ((1 << plan.a_bits) - 1) * ((1 << plan.b_bits) - 1) * 16
        assert bound < 1 << 53

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            tensorcore.plan_fp64_split(0, 36, 16)
        with pytest.raises(ValueError):
            tensorcore.plan_int8_split(36, 0)


def _random_gemm_operands(q, m=16, n=8, k=16, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.integers(0, int(q), size=(m, k), dtype=np.uint64).astype(object) % q
    b = rng.integers(0, int(q), size=(k, n), dtype=np.uint64).astype(object) % q
    return a, b


@pytest.mark.parametrize("q", [Q36, Q48, Q60])
def test_fp64_gemm_bit_exact(q):
    a, b = _random_gemm_operands(q, seed=int(q) % 97)
    got = tensorcore.fp64_gemm_mod(a, b, q)
    want = tensorcore.reference_gemm_mod(a, b, q)
    assert (np.asarray(got, dtype=object) == np.asarray(want, dtype=object)).all()


@pytest.mark.parametrize("q", [Q36, Q48])
def test_int8_gemm_bit_exact(q):
    a, b = _random_gemm_operands(q, seed=int(q) % 89)
    got = tensorcore.int8_gemm_mod(a, b, q)
    want = tensorcore.reference_gemm_mod(a, b, q)
    assert (np.asarray(got, dtype=object) == np.asarray(want, dtype=object)).all()


def test_fp64_gemm_rejects_mismatched_shapes():
    a = np.zeros((4, 4), dtype=object)
    b = np.zeros((5, 4), dtype=object)
    with pytest.raises(ValueError):
        tensorcore.fp64_gemm_mod(a, b, Q36)


def test_fp64_gemm_rejects_overflowing_plan():
    """A hand-built plan that violates the 53-bit bound must be refused."""
    bad_plan = tensorcore.SplitPlan(a_planes=1, b_planes=1, a_bits=36, b_bits=36)
    a, b = _random_gemm_operands(Q36)
    with pytest.raises(tensorcore.PrecisionOverflowError):
        tensorcore.fp64_gemm_mod(a, b, Q36, plan=bad_plan)


def test_int8_gemm_rejects_huge_k():
    a = np.zeros((8, 40000), dtype=object)
    b = np.zeros((40000, 8), dtype=object)
    with pytest.raises(tensorcore.PrecisionOverflowError):
        tensorcore.int8_gemm_mod(a, b, Q36)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=1, max_value=2**36 - 1), st.integers(min_value=2, max_value=32))
def test_property_fp64_single_entry_exact(value, k):
    """1x1 GEMMs over any K are exact for any 36-bit operand values."""
    q = Q36
    a = np.full((1, k), value % q, dtype=object)
    b = np.full((k, 1), (value * 31 + 7) % q, dtype=object)
    got = tensorcore.fp64_gemm_mod(a, b, q)
    want = tensorcore.reference_gemm_mod(a, b, q)
    assert int(got[0, 0]) == int(want[0, 0])
