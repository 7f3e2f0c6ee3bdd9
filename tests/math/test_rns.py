"""Tests for RNS bases and base conversion (BConv)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.math import rns
from repro.math.primes import disjoint_prime_chains

CHAIN_Q, CHAIN_P = disjoint_prime_chains([30, 31], 64, [4, 3])
BASIS_Q = rns.RnsBasis(CHAIN_Q)
BASIS_P = rns.RnsBasis(CHAIN_P)


def test_basis_tables():
    for q, q_hat, q_hat_inv in zip(BASIS_Q.moduli, BASIS_Q.q_hat, BASIS_Q.q_hat_inv):
        assert q_hat == BASIS_Q.product // q
        assert (q_hat % q) * q_hat_inv % q == 1


def test_basis_rejects_duplicates():
    with pytest.raises(ValueError):
        rns.RnsBasis([7, 7])


def test_basis_rejects_empty():
    with pytest.raises(ValueError):
        rns.RnsBasis([])


def test_compose_decompose_roundtrip():
    rng = np.random.default_rng(0)
    values = rng.integers(0, 2**60, size=10).astype(object) % BASIS_Q.product
    limbs = BASIS_Q.decompose(values)
    assert (BASIS_Q.compose(limbs) == values).all()


def test_compose_signed_centres():
    small_negative = np.array([-5], dtype=object)
    limbs = BASIS_Q.decompose(small_negative)
    assert BASIS_Q.compose_signed(limbs)[0] == -5


def test_subbasis():
    sub = BASIS_Q.subbasis(0, 2)
    assert sub.moduli == BASIS_Q.moduli[:2]


def test_bconv_exact_matches_value():
    rng = np.random.default_rng(1)
    values = rng.integers(0, 2**50, size=8).astype(object) % BASIS_Q.product
    limbs = BASIS_Q.decompose(values)
    out = rns.bconv_exact(limbs, BASIS_Q, BASIS_P)
    for limb, p in zip(out, BASIS_P.moduli):
        assert (limb.astype(object) == values % p).all()


def test_bconv_approx_overflow_bounded():
    """bconv_approx residues represent x + u*Q with 0 <= u < len(from_basis)."""
    rng = np.random.default_rng(2)
    values = rng.integers(0, 2**50, size=32).astype(object) % BASIS_Q.product
    limbs = BASIS_Q.decompose(values)
    out = rns.bconv_approx(limbs, BASIS_Q, BASIS_P)
    bound = rns.overflow_bound(BASIS_Q)
    for idx, x in enumerate(values):
        candidates = []
        for u in range(bound + 1):
            if all(
                int(out[j][idx]) == (int(x) + u * BASIS_Q.product) % p
                for j, p in enumerate(BASIS_P.moduli)
            ):
                candidates.append(u)
        assert candidates, f"no overflow u in [0, {bound}] explains coefficient {idx}"
        assert min(candidates) < bound


def test_bconv_limb_count_checked():
    with pytest.raises(ValueError):
        rns.bconv_approx([np.zeros(4, dtype=object)], BASIS_Q, BASIS_P)


def test_bconv_weights_equivalence():
    """Algorithm 2 (scalar-mul + GEMM with bconv_weights) == Algorithm 1."""
    rng = np.random.default_rng(3)
    n = 16
    values = rng.integers(0, 2**60, size=n).astype(object) % BASIS_Q.product
    limbs = BASIS_Q.decompose(values)
    via_alg1 = rns.bconv_approx(limbs, BASIS_Q, BASIS_P)
    # Algorithm 2: y[i] = [x_i * qhat_inv]_{q_i}, then GEMM by B[i, j].
    scaled = np.stack(
        [
            (np.asarray(limb, dtype=object) * inv) % q
            for limb, q, inv in zip(limbs, BASIS_Q.moduli, BASIS_Q.q_hat_inv)
        ]
    )  # (alpha, N)
    b_matrix = rns.bconv_weights(BASIS_Q, BASIS_P).T.astype(object)  # (alpha, alpha')
    gemm = scaled.T @ b_matrix  # (N, alpha')
    for j, p in enumerate(BASIS_P.moduli):
        assert (gemm[:, j] % p == via_alg1[j].astype(object)).all()


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**100))
def test_property_bconv_exact_any_value(value):
    value %= BASIS_Q.product
    limbs = BASIS_Q.decompose(np.array([value], dtype=object))
    out = rns.bconv_exact(limbs, BASIS_Q, BASIS_P)
    for limb, p in zip(out, BASIS_P.moduli):
        assert int(limb.astype(object)[0]) == value % p


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**100))
def test_property_crt_roundtrip(value):
    value %= BASIS_P.product
    limbs = BASIS_P.decompose(np.array([value], dtype=object))
    assert int(BASIS_P.compose(limbs)[0]) == value
