"""The paper's core numerical trick, executed: wide modular GEMMs on FP64.

Section 3.4 of the paper argues that a 36-bit modular GEMM needs only
**3** FP64 plane products (bit-slicing B into 12-bit planes, all partial
sums below 2**53) versus **25** INT8 plane products -- and 48-bit needs
4 vs 36.  This example runs both decompositions numerically, checks them
bit-exact against integer GEMM, and then runs the engine's four-step GEMM
NTT (float64 matmuls over 16-bit splits) against the butterfly NTT.

Run:  python examples/tensor_core_gemm.py
"""

import numpy as np

from repro.gpu.tensorcore import (
    fp64_gemm_mod,
    int8_gemm_mod,
    plan_fp64_split,
    plan_int8_split,
    reference_gemm_mod,
)
from repro.math.ntt import NttStack
from repro.math.primes import ntt_primes


def demonstrate_gemm(wordsize):
    q = ntt_primes(wordsize, 64, 1)[0]
    rng = np.random.default_rng(wordsize)
    m, n, k = 32, 16, 16
    a = rng.integers(0, int(q), size=(m, k), dtype=np.uint64).astype(object) % q
    b = rng.integers(0, int(q), size=(k, n), dtype=np.uint64).astype(object) % q

    fp64_plan = plan_fp64_split(wordsize, wordsize, k)
    int8_plan = plan_int8_split(wordsize, wordsize)
    want = reference_gemm_mod(a, b, q)
    fp64 = fp64_gemm_mod(a, b, q)
    int8 = int8_gemm_mod(a, b, q)
    assert (np.asarray(fp64, dtype=object) == np.asarray(want, dtype=object)).all()
    assert (np.asarray(int8, dtype=object) == np.asarray(want, dtype=object)).all()
    print(
        f"WordSize {wordsize}: FP64 path = {fp64_plan.products} plane products "
        f"({fp64_plan.a_planes}x{fp64_plan.b_planes}, "
        f"{fp64_plan.a_bits}/{fp64_plan.b_bits} bits), "
        f"INT8 path = {int8_plan.products} plane products -- both bit-exact"
    )


def demonstrate_ntt():
    degree = 1 << 12
    moduli = ntt_primes(30, degree, 2)
    rng = np.random.default_rng(0)
    coeffs = np.stack(
        [rng.integers(0, q, size=(2, degree), dtype=np.uint64) for q in moduli]
    )
    stack = NttStack(degree, moduli)  # four-step GEMM path at this size
    spectrum = stack.forward(coeffs)
    butterflies = np.stack(
        [plan.forward(limb.copy()) for plan, limb in zip(stack.plans, coeffs)]
    )
    assert (spectrum == butterflies).all()
    assert (stack.inverse(spectrum) == coeffs).all()
    print(
        f"four-step GEMM NTT (N={degree}, {len(moduli)} x 30-bit primes, "
        "batch 2): forward/inverse bit-exact against the butterfly stages"
    )


def main():
    demonstrate_gemm(36)
    demonstrate_gemm(48)
    demonstrate_ntt()
    print("OK: the FP64 tensor-core mapping is exact, as Section 3.4 claims")


if __name__ == "__main__":
    main()
