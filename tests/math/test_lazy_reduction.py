"""Property tests: lazy-reduction GEMM kernels at boundary moduli.

Neo's Algorithm 4 accumulates 128-bit products and reduces once per
accumulator instead of once per term.  Correctness hinges on the slack
bound: at most ``lazy_max_terms`` products may be folded before the high
words could overflow 64 bits.  These tests pin that bound and the
bit-exactness of :meth:`~repro.math.modstack.ModulusStack.lazy_mul_sum`
against eager per-step reduction, at the nastiest moduli:

* just below ``2**62`` (the Barrett ceiling -- almost no slack, so the
  chunked accumulation actually splits), and
* just above ``2**31`` (the Barrett floor -- maximal slack).
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.math import modarith
from repro.math.modstack import ModulusStack
from repro.math.primes import ntt_primes
from repro.math.rns import RnsBasis, bconv_weights

# Odd moduli hugging the two Barrett-range boundaries.
high_moduli = st.integers(min_value=2**62 - 2**20, max_value=2**62 - 1).map(
    lambda q: q | 1
)
low_moduli = st.integers(min_value=2**31 + 1, max_value=2**31 + 2**20).map(
    lambda q: q | 1
)
boundary_moduli = st.one_of(high_moduli, low_moduli)


def _random_operands(q, n_terms, width, seed):
    rng = np.random.default_rng(seed)
    a = rng.integers(0, q, size=(n_terms, width), dtype=np.uint64)
    b = rng.integers(0, q, size=(n_terms, width), dtype=np.uint64)
    return a, b


def _eager_reference(a, b, q):
    """Fold the term axis with exact integers, reduced once per step."""
    acc = [0] * a.shape[1]
    for k in range(a.shape[0]):
        for j in range(a.shape[1]):
            acc[j] = (acc[j] + int(a[k, j]) * int(b[k, j])) % q
    return acc


@settings(max_examples=60, deadline=None)
@given(boundary_moduli, st.integers(min_value=1, max_value=40), st.integers(0, 2**32))
def test_lazy_mul_sum_matches_eager(q, n_terms, seed):
    """Lazy accumulation is bit-identical to eager per-step reduction."""
    stack = ModulusStack([q])
    assert stack.native
    a, b = _random_operands(q, n_terms, width=4, seed=seed)
    got = stack.lazy_mul_sum(a[None], b[None], axis=1)
    assert got.dtype == np.uint64
    assert list(got[0].astype(object)) == _eager_reference(a, b, q)


@settings(max_examples=40, deadline=None)
@given(high_moduli, st.integers(0, 2**32))
def test_chunked_accumulation_at_barrett_ceiling(q, seed):
    """Near ``2**62`` the slack forces chunking; the result stays exact."""
    stack = ModulusStack([q])
    chunk = stack.lazy_max_terms()
    # (q-1)^2 has a ~2**60 high word, so only a handful of terms fit.
    assert chunk < 32
    n_terms = 3 * chunk + 1  # guarantees several chunk boundaries
    a, b = _random_operands(q, n_terms, width=2, seed=seed)
    got = stack.lazy_mul_sum(a[None], b[None], axis=1)
    assert list(got[0].astype(object)) == _eager_reference(a, b, q)


@settings(max_examples=60, deadline=None)
@given(boundary_moduli)
def test_slack_bound_is_tight_and_safe(q):
    """``lazy_max_terms`` is the largest K whose high words cannot overflow."""
    stack = ModulusStack([q])
    terms = stack.lazy_max_terms()
    hi_max = ((q - 1) * (q - 1)) >> 64
    # Safe: K terms of worst-case high word plus K low-word carries fit u64.
    assert terms * (hi_max + 1) <= 2**64 - 1
    # Tight: one more term could overflow the high-word accumulator.
    assert (terms + 1) * (hi_max + 1) > 2**64 - 1
    assert stack.lazy_slack_bits() == terms.bit_length() - 1
    assert terms >= 1


@settings(max_examples=20, deadline=None)
@given(boundary_moduli)
def test_worst_case_operands_do_not_overflow(q):
    """A full chunk of all-maximal products still reduces exactly."""
    stack = ModulusStack([q])
    chunk = stack.lazy_max_terms()
    n_terms = min(2 * chunk, 64)  # cross one boundary, keep the test fast
    a = np.full((1, n_terms, 2), q - 1, dtype=np.uint64)
    got = stack.lazy_mul_sum(a, a, axis=1)
    want = (n_terms * (q - 1) * (q - 1)) % q
    assert all(int(v) == want for v in got[0])


#: Real NTT primes hugging the Barrett boundaries (prime, hence coprime).
_CEILING_PRIMES = tuple(ntt_primes(62, 64, 2))
_FLOOR_PRIMES = tuple(ntt_primes(32, 64, 2))


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(
        [
            _CEILING_PRIMES,
            _FLOOR_PRIMES,
            (_CEILING_PRIMES[0], _FLOOR_PRIMES[0]),
        ]
    ),
    # (N,) limbs, and the (BS, N) batch of a ciphertext batch.
    st.sampled_from([(3,), (2, 5)]),
    st.integers(0, 2**32),
)
def test_bconv_matmul_matches_object_gemm(moduli, shape, seed):
    """The padded conversion GEMM equals the exact object-dtype matmul."""
    rng = np.random.default_rng(seed)
    from_basis = RnsBasis(ntt_primes(40, 64, 2))
    to_basis = RnsBasis(moduli)
    stack = ModulusStack(to_basis.moduli)
    scaled = np.stack(
        [
            rng.integers(0, int(f), size=shape, dtype=np.uint64)
            for f in from_basis.moduli
        ]
    )
    weights = bconv_weights(from_basis, to_basis)
    got = stack.bconv_matmul(
        scaled, weights, operand_bound=max(from_basis.moduli)
    )
    assert got.shape == (len(to_basis),) + shape
    for j, p in enumerate(to_basis.moduli):
        for c in np.ndindex(shape):
            want = (
                sum(
                    int(scaled[(i,) + c]) * int(weights[j, i])
                    for i in range(len(from_basis))
                )
                % p
            )
            assert int(got[(j,) + c]) == want


def test_operand_bound_shrinks_chunk():
    """A larger declared operand bound must shrink the safe chunk size."""
    q = 2**40 + 15
    stack = ModulusStack([q])
    assert stack.lazy_max_terms(2**61) <= stack.lazy_max_terms()
    # Bounds below q_max are ignored (q_max dominates the product).
    assert stack.lazy_max_terms(3) == stack.lazy_max_terms()


def test_lazy_mul_sum_object_path_matches_native():
    """The object fallback computes the same residues as the native kernel."""
    q = 2**61 - 1  # Mersenne, odd, inside the Barrett range [2**31, 2**62)
    rng = np.random.default_rng(5)
    a = rng.integers(0, q, size=(1, 7, 3), dtype=np.uint64)
    b = rng.integers(0, q, size=(1, 7, 3), dtype=np.uint64)
    native = ModulusStack([q])
    assert native.native
    got_native = native.lazy_mul_sum(a, b, axis=1)
    with modarith.object_backend():
        oracle = ModulusStack([q])
        assert not oracle.native
        got_object = oracle.lazy_mul_sum(
            a.astype(object), b.astype(object), axis=1
        )
    assert got_object.dtype == object
    assert np.array_equal(got_native.astype(object), got_object)
