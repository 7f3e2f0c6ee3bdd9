"""Number-theoretic transforms over NTT-friendly prime fields.

Two functionally equivalent implementations are provided:

* :class:`NttPlan` -- the classic iterative negacyclic NTT (Cooley-Tukey
  forward / Gentleman-Sande inverse with merged ``psi`` twisting).  Every
  butterfly stage runs as one vectorised numpy expression over all blocks
  at once; on the native backends the twiddle products use Shoup's trick
  against per-stage precomputed constant columns.  This is the bit-exact
  reference.
* :class:`NttStack` -- the same transform batched across a whole RNS limb
  stack: one call moves an ``(L, ..., N)`` double-CRT tensor between the
  coefficient and evaluation domains, with per-limb twiddle tables stacked
  into ``(L, N)`` arrays so no Python-level per-limb loop remains.  At
  ``N >= 2**12`` over sub-``2**31`` moduli it runs the paper's four-step
  GEMM NTT (Section 4.4, Fig. 9), with the ``psi`` twist and bit-reversal
  folded into the constant matrices.

Both agree element-for-element; the test-suite asserts it.

Plans are memoised in a bounded LRU cache (same discipline as
:mod:`repro.core.trace_cache`; ``math`` must not import ``core``, so the
cache is local but its counters share the unified
:class:`repro.telemetry.stats.CacheStats` vocabulary and register with the
process-wide cache directory); see :func:`clear_plan_cache` /
:func:`plan_cache_stats`.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from . import modarith
from ..telemetry.stats import CacheStats, register_cache
from .primes import root_of_unity

_U64 = np.uint64


def _bit_reverse_permutation(n: int) -> np.ndarray:
    """Indices of the bit-reversal permutation for power-of-two `n`."""
    bits = n.bit_length() - 1
    indices = np.arange(n)
    reversed_indices = np.zeros(n, dtype=np.int64)
    for bit in range(bits):
        reversed_indices |= ((indices >> bit) & 1) << (bits - 1 - bit)
    return reversed_indices


def is_power_of_two(n: int) -> bool:
    """True when `n` is a positive power of two."""
    return n > 0 and (n & (n - 1)) == 0


def _shoup_table(values: np.ndarray, modulus: int) -> np.ndarray:
    """Per-entry Shoup constants ``floor(v * 2**64 / q)`` as ``uint64``."""
    return np.array(
        [modarith.shoup_precompute(int(v), modulus) for v in values.ravel()],
        dtype=_U64,
    ).reshape(values.shape)


class NttPlan:
    """Precomputed tables for the negacyclic NTT of a fixed ``(degree, q)``.

    The transform maps coefficient vectors of ``Z_q[X]/(X^N + 1)`` to their
    evaluations at the odd powers of a primitive ``2N``-th root ``psi``;
    multiplication becomes element-wise in that domain.

    The backend (``uint64`` vs object) is captured at construction time:
    plans built inside :func:`modarith.object_backend` keep exact
    object-dtype tables for their whole lifetime, which is what lets the
    benchmarks race the two backends on identical transforms.
    """

    def __init__(self, degree: int, modulus: int):
        if not is_power_of_two(degree):
            raise ValueError(f"degree must be a power of two, got {degree}")
        if (modulus - 1) % (2 * degree) != 0:
            raise ValueError(f"modulus {modulus} is not NTT-friendly for degree {degree}")
        self.degree = degree
        self.modulus = modulus
        self.native = modarith.uses_native_backend(modulus)
        self.psi = root_of_unity(2 * degree, modulus)
        self.psi_inv = modarith.inv_mod(self.psi, modulus)
        self.degree_inv = modarith.inv_mod(degree, modulus)
        #: Residues below ``2**31`` admit the two-multiply ``mulhi_op32``.
        self._op32 = self.native and modulus < 2**31
        rev = _bit_reverse_permutation(degree)
        powers = self._power_table(self.psi)
        inv_powers = self._power_table(self.psi_inv)
        self._psi_rev = powers[rev]
        self._psi_inv_rev = inv_powers[rev]
        if self.native:
            self._psi_rev_shoup = _shoup_table(self._psi_rev, modulus)
            self._psi_inv_rev_shoup = _shoup_table(self._psi_inv_rev, modulus)
            self._n_inv = _U64(self.degree_inv)
            self._n_inv_shoup = _U64(
                modarith.shoup_precompute(self.degree_inv, modulus)
            )

    def _power_table(self, base: int) -> np.ndarray:
        table = np.empty(self.degree, dtype=object)
        value = 1
        for i in range(self.degree):
            table[i] = value
            value = value * base % self.modulus
        if self.native:
            return table.astype(_U64)
        return table

    def _check_shape(self, arr: np.ndarray):
        if arr.ndim < 1 or arr.shape[-1] != self.degree:
            raise ValueError(
                f"last axis must have length {self.degree}, got shape {arr.shape}"
            )

    # -- butterfly stages ----------------------------------------------------

    def forward(self, coeffs: np.ndarray) -> np.ndarray:
        """Negacyclic forward NTT (Cooley-Tukey; composes with
        :meth:`inverse` to the identity).

        Accepts a single coefficient vector or a *batch*: any array whose
        last axis has length ``degree`` -- each stage processes every block
        of every batch row in one vectorised expression (the paper's
        BatchSize dimension costs no extra Python overhead).
        """
        q = self.modulus
        a = modarith.asarray_mod(coeffs, q)
        self._check_shape(a)
        if self.native and a.dtype != object:
            return self._forward_native(np.ascontiguousarray(a))
        return self._forward_object(a)

    def _forward_native(self, a: np.ndarray) -> np.ndarray:
        """Vectorised CT stages: every block of every batch row at once."""
        lead = a.shape[:-1]
        n = self.degree
        q = _U64(self.modulus)
        m, t = 1, n
        while m < n:
            t //= 2
            blocks = a.reshape(lead + (m, 2 * t))
            lo = blocks[..., :t]
            hi = blocks[..., t:]
            w = self._psi_rev[m : 2 * m].reshape((m, 1))
            w_shoup = self._psi_rev_shoup[m : 2 * m].reshape((m, 1))
            v = modarith.shoup_mul_mod(hi, w, w_shoup, q, operand32=self._op32)
            s = lo + v
            d = lo + (q - v)
            blocks[..., :t] = np.where(s >= q, s - q, s)
            blocks[..., t:] = np.where(d >= q, d - q, d)
            m *= 2
        return a

    def _forward_object(self, a: np.ndarray) -> np.ndarray:
        """Reference CT stages on exact Python integers (per-block loop)."""
        q = self.modulus
        t = self.degree
        m = 1
        while m < self.degree:
            t //= 2
            for i in range(m):
                j1 = 2 * i * t
                s = self._psi_rev[m + i]
                lo = a[..., j1 : j1 + t]
                hi = a[..., j1 + t : j1 + 2 * t]
                v = modarith.scalar_mul_mod(hi, int(s), q)
                new_lo = modarith.add_mod(lo, v, q)
                new_hi = modarith.sub_mod(lo, v, q)
                a[..., j1 : j1 + t] = new_lo
                a[..., j1 + t : j1 + 2 * t] = new_hi
            m *= 2
        return a

    def inverse(self, values: np.ndarray) -> np.ndarray:
        """Negacyclic inverse NTT (Gentleman-Sande); batches like
        :meth:`forward`."""
        q = self.modulus
        a = modarith.asarray_mod(values, q)
        self._check_shape(a)
        if self.native and a.dtype != object:
            return self._inverse_native(np.ascontiguousarray(a))
        return self._inverse_object(a)

    def _inverse_native(self, a: np.ndarray) -> np.ndarray:
        """Vectorised GS stages: every block of every batch row at once."""
        lead = a.shape[:-1]
        n = self.degree
        q = _U64(self.modulus)
        t, m = 1, n
        while m > 1:
            h = m // 2
            blocks = a.reshape(lead + (h, 2 * t))
            lo = blocks[..., :t]
            hi = blocks[..., t:]
            s = lo + hi
            d = lo + (q - hi)
            diff = np.where(d >= q, d - q, d)
            w = self._psi_inv_rev[h : 2 * h].reshape((h, 1))
            w_shoup = self._psi_inv_rev_shoup[h : 2 * h].reshape((h, 1))
            blocks[..., :t] = np.where(s >= q, s - q, s)
            blocks[..., t:] = modarith.shoup_mul_mod(
                diff, w, w_shoup, q, operand32=self._op32
            )
            t *= 2
            m = h
        return modarith.shoup_mul_mod(
            a, self._n_inv, self._n_inv_shoup, q, operand32=self._op32
        )

    def _inverse_object(self, a: np.ndarray) -> np.ndarray:
        """Reference GS stages on exact Python integers (per-block loop)."""
        q = self.modulus
        t = 1
        m = self.degree
        while m > 1:
            j1 = 0
            h = m // 2
            for i in range(h):
                s = self._psi_inv_rev[h + i]
                lo = a[..., j1 : j1 + t]
                hi = a[..., j1 + t : j1 + 2 * t]
                total = modarith.add_mod(lo, hi, q)
                scaled_diff = modarith.scalar_mul_mod(
                    modarith.sub_mod(lo, hi, q), int(s), q
                )
                a[..., j1 : j1 + t] = total
                a[..., j1 + t : j1 + 2 * t] = scaled_diff
                j1 += 2 * t
            t *= 2
            m = h
        return modarith.scalar_mul_mod(a, self.degree_inv, q)


class NttStack:
    """Batched negacyclic NTT across a whole RNS limb stack.

    Wraps one :class:`NttPlan` per limb and, when every modulus sits on a
    native backend, stacks their twiddle tables into ``(L, N)`` arrays so a
    single sequence of vectorised butterfly stages transforms the entire
    ``(L, ..., N)`` double-CRT tensor.  Mixed or object-backed bases fall
    back to a per-limb loop over the underlying plans (the oracle path).

    Large transforms over sub-``2**31`` moduli additionally run as the
    paper's four-step GEMM NTT (Section 4.4): the twist and bit-reversal
    are folded into two constant ``sqrt(N) x sqrt(N)`` matrices whose
    products run as exact float64 BLAS matmuls over 16-bit operand splits
    -- the CPU analogue of Neo's tensor-core MMA path.  Bit-identical to
    the butterfly stages.
    """

    def __init__(self, degree: int, moduli: Sequence[int]):
        self.degree = degree
        self.moduli = tuple(int(q) for q in moduli)
        self.plans: List[NttPlan] = [get_plan(degree, q) for q in self.moduli]
        self.native = all(plan.native for plan in self.plans)
        self._op32 = self.native and all(q < 2**31 for q in self.moduli)
        self._gemm_fwd = None
        self._gemm_inv = None
        if self.native:
            self._q = np.array(self.moduli, dtype=_U64)
            self._psi_rev = np.stack([p._psi_rev for p in self.plans])
            self._psi_rev_shoup = np.stack([p._psi_rev_shoup for p in self.plans])
            self._psi_inv_rev = np.stack([p._psi_inv_rev for p in self.plans])
            self._psi_inv_rev_shoup = np.stack(
                [p._psi_inv_rev_shoup for p in self.plans]
            )
            self._n_inv = np.array([p._n_inv for p in self.plans], dtype=_U64)
            self._n_inv_shoup = np.array(
                [p._n_inv_shoup for p in self.plans], dtype=_U64
            )

    def _check(self, arr: np.ndarray):
        if arr.ndim < 2 or arr.shape[0] != len(self.moduli):
            raise ValueError(
                f"expected a ({len(self.moduli)}, ..., {self.degree}) stack, "
                f"got shape {arr.shape}"
            )
        if arr.shape[-1] != self.degree:
            raise ValueError(
                f"last axis must have length {self.degree}, got shape {arr.shape}"
            )

    def _cols(self, table: np.ndarray, lo: int, hi: int, ndim: int) -> np.ndarray:
        """Slice stacked per-limb twiddles into a broadcast column block.

        `ndim` is the rank of the blocked view ``(L, batch..., m, t)``; the
        slice lands on the limb and block axes with ones in between.
        """
        L = len(self.moduli)
        return table[:, lo:hi].reshape((L,) + (1,) * (ndim - 3) + (hi - lo, 1))

    def _q_col(self, ndim: int) -> np.ndarray:
        return self._q.reshape((len(self.moduli),) + (1,) * (ndim - 1))

    #: Elements per cache-blocked slab of a batched transform.  Butterfly
    #: stages allocate several working-set-sized temporaries per stage, so
    #: slabs are kept small enough that those temporaries stay cache
    #: resident instead of streaming through memory 2 log2(N) times.
    _BLOCK_ELEMS = 1 << 17

    def forward(self, stack: np.ndarray) -> np.ndarray:
        """Forward NTT of every limb of an ``(L, ..., N)`` stack at once."""
        self._check(stack)
        if not self.native or stack.dtype == object:
            return np.stack(
                [plan.forward(limb) for plan, limb in zip(self.plans, stack)]
            )
        if self._gemm_ok:
            return self._gemm_transform(stack, inverse=False)
        return self._blocked(stack, self._forward_native)

    def _blocked(self, stack: np.ndarray, kernel) -> np.ndarray:
        """Apply `kernel` over cache-sized batch slabs of a big stack."""
        L = len(self.moduli)
        n = self.degree
        batch = int(np.prod(stack.shape[1:-1], dtype=np.int64)) if stack.ndim > 2 else 1
        step = max(1, self._BLOCK_ELEMS // (L * n))
        if batch <= step:
            return kernel(
                stack.copy()
                if stack.flags["C_CONTIGUOUS"]
                else np.ascontiguousarray(stack)
            )
        flat = stack.reshape(L, batch, n)
        out = np.empty((L, batch, n), dtype=_U64)
        for s in range(0, batch, step):
            out[:, s : s + step] = kernel(np.ascontiguousarray(flat[:, s : s + step]))
        return out.reshape(stack.shape)

    # -- four-step GEMM path (Neo Section 4.4 on float64 BLAS) ---------------

    #: Transforms at or above this size route through the GEMM NTT when all
    #: moduli are below ``2**31``; smaller ones keep the butterfly stages
    #: (matmul setup would dominate).  Exposed for tests to override.
    _GEMM_MIN_DEGREE = 1 << 12

    @property
    def _gemm_ok(self) -> bool:
        return self._op32 and self.degree >= self._GEMM_MIN_DEGREE

    @staticmethod
    def _pow_table(base: int, length: int, q: int) -> np.ndarray:
        """``base**i mod q`` for ``i < length`` by vectorised doubling."""
        t = np.empty(length, dtype=_U64)
        t[0] = 1
        filled = 1
        while filled < length:
            step = min(filled, length - filled)
            mult = _U64(pow(base, filled, q))
            t[filled : filled + step] = t[:step] * mult % _U64(q)
            filled += step
        return t

    @staticmethod
    def _shoup_table_fast(values: np.ndarray, q: int) -> np.ndarray:
        """Vectorised ``floor(v * 2**64 / q)`` for ``q < 2**32``."""
        v = values.astype(_U64)
        q64 = _U64(q)
        t1 = v << _U64(32)
        d1 = t1 // q64
        t2 = (t1 - d1 * q64) << _U64(32)
        return (d1 << _U64(32)) + t2 // q64

    @staticmethod
    def _split16(w: np.ndarray):
        """16-bit operand split as float64 triplet ``(hi, lo, hi+lo)``."""
        hi = (w >> _U64(16)).astype(np.float64)
        lo = (w & _U64(0xFFFF)).astype(np.float64)
        return hi, lo, hi + lo

    def _gemm_tables(self, inverse: bool):
        """Constant matrices of the four-step split, twist/bit-rev folded in.

        Forward maps ``x.reshape(a, b)`` through a left ``(a, a)`` matmul,
        an elementwise Shoup twiddle, and a right ``(b, b)`` matmul so the
        flat result *is* the butterfly output: the negacyclic ``psi`` twist
        rides in the matrix entries and the bit-reversal permutes the
        constant rows/columns instead of the data.  The inverse mirrors it
        with ``omega**-1`` powers and ``N**-1 psi**-j`` folded in.
        """
        cached = self._gemm_inv if inverse else self._gemm_fwd
        if cached is not None:
            return cached
        n = self.degree
        half = (n.bit_length() - 1) // 2
        a, b = 1 << half, n >> half
        rev_a = _bit_reverse_permutation(a)
        rev_b = _bit_reverse_permutation(b)
        j1 = np.arange(a)
        j2 = np.arange(b)
        left, tw, right = [], [], []
        for plan in self.plans:
            q = plan.modulus
            omega = plan.psi * plan.psi % q
            if inverse:
                omega = modarith.inv_mod(omega, q)
            pw = self._pow_table(omega, n, q)
            psi = self._pow_table(
                plan.psi_inv if inverse else plan.psi, max(a, b) * b + 1, q
            )
            if inverse:
                # WAI[j1, i1] = psi^{-j1 b} w^{b j1 rev_a(i1)};  left factor
                mat_l = (
                    psi[j1 * b, None] * pw[(b * np.outer(j1, rev_a[j1])) % n]
                ) % _U64(q)
                # TWI[i1, j2] = w^{j2 rev_a(i1)} psi^{-j2} / N
                n_inv = _U64(plan.degree_inv)
                tw_q = (
                    pw[np.outer(rev_a[j1], j2) % n] * psi[j2][None, :] % _U64(q)
                ) * n_inv % _U64(q)
                # WBI[i2, j2] = w^{a rev_b(i2) j2}
                mat_r = pw[(a * np.outer(rev_b[j2], j2)) % n]
            else:
                # WA[r, j1] = psi^{j1 b} w^{b j1 rev_a(r)};  rows r = rev(k1)
                mat_l = (
                    psi[j1 * b][None, :] * pw[(b * np.outer(rev_a[j1], j1)) % n]
                ) % _U64(q)
                # TW[r, j2] = psi^{j2} w^{j2 rev_a(r)}
                tw_q = psi[j2][None, :] * pw[np.outer(rev_a[j1], j2) % n] % _U64(q)
                # WB[j2, c] = w^{a j2 rev_b(c)};  cols c = rev(k2)
                mat_r = pw[(a * np.outer(j2, rev_b[j2])) % n]
            left.append(mat_l)
            tw.append((tw_q, self._shoup_table_fast(tw_q, q)))
            right.append(mat_r)
        L = len(self.moduli)
        # With n-term contractions of unsplit data against the 2**16-weight
        # half of the matrix, float64 sums stay exact iff
        # ``n * (q-1) * (2**16 - 1) < 2**53`` -- then two GEMMs suffice and
        # only the constant matrix is split.  Otherwise the data splits too
        # (three GEMMs, Karatsuba).
        q_max = max(self.moduli)
        tables = {
            "a": a,
            "b": b,
            "left": tuple(
                s[:, None] for s in map(np.stack, zip(*map(self._split16, left)))
            ),
            "right": tuple(
                s[:, None] for s in map(np.stack, zip(*map(self._split16, right)))
            ),
            "left_two": a * (q_max - 1) * ((1 << 16) - 1) < 1 << 53,
            "right_two": b * (q_max - 1) * ((1 << 16) - 1) < 1 << 53,
            "tw": np.stack([t[0] for t in tw])[:, None],
            "tw_shoup": np.stack([t[1] for t in tw])[:, None],
            "q": self._q.reshape(L, 1, 1, 1),
            "c32": np.array(
                [(1 << 32) % q for q in self.moduli], dtype=_U64
            ).reshape(L, 1, 1, 1),
        }
        if inverse:
            self._gemm_inv = tables
        else:
            self._gemm_fwd = tables
        return tables

    def _gemm_mod(
        self, data: np.ndarray, w, t, left: bool, two: bool
    ) -> np.ndarray:
        """Exact modular matmul via float64 GEMMs over 16-bit matrix splits.

        When `two` (small moduli), unsplit data against each matrix half
        stays exact in float64: two GEMMs recombined as
        ``(hh mod q) 2**16 + ll``.  Otherwise the data splits too and a
        Karatsuba third GEMM recovers the cross terms; either way the
        uint64 recombination stays under ``2**63`` before its single
        reduction.
        """
        wh, wl, ws = w
        q = t["q"]
        if two:
            df = data.astype(np.float64)
            hh = (wh @ df) if left else (df @ wh)
            ll = (wl @ df) if left else (df @ wl)
            r = (hh.astype(_U64) % q) << _U64(16)
            r += ll.astype(_U64)
            return r % q
        dh = (data >> _U64(16)).astype(np.float64)
        dl = (data & _U64(0xFFFF)).astype(np.float64)
        if left:
            hh = wh @ dh
            ll = wl @ dl
            mid = ws @ (dh + dl) - hh - ll
        else:
            hh = dh @ wh
            ll = dl @ wl
            mid = (dh + dl) @ ws - hh - ll
        r = (hh.astype(_U64) % q) * t["c32"]
        r += mid.astype(_U64) << _U64(16)
        r += ll.astype(_U64)
        return r % q

    def _gemm_transform(self, stack: np.ndarray, inverse: bool) -> np.ndarray:
        t = self._gemm_tables(inverse)
        a, b = t["a"], t["b"]
        L = len(self.moduli)
        batch = (
            int(np.prod(stack.shape[1:-1], dtype=np.int64)) if stack.ndim > 2 else 1
        )
        x = stack.reshape(L, batch, a, b)
        if inverse:
            x = self._gemm_mod(x, t["right"], t, left=False, two=t["right_two"])
            x = modarith.shoup_mul_mod(
                x, t["tw"], t["tw_shoup"], t["q"], operand32=True
            )
            x = self._gemm_mod(x, t["left"], t, left=True, two=t["left_two"])
        else:
            x = self._gemm_mod(x, t["left"], t, left=True, two=t["left_two"])
            x = modarith.shoup_mul_mod(
                x, t["tw"], t["tw_shoup"], t["q"], operand32=True
            )
            x = self._gemm_mod(x, t["right"], t, left=False, two=t["right_two"])
        return x.reshape(stack.shape)

    def _forward_native(self, a: np.ndarray) -> np.ndarray:
        lead = a.shape[:-1]
        n = self.degree
        q = self._q_col(a.ndim + 1)
        m, t = 1, n
        while m < n:
            t //= 2
            blocks = a.reshape(lead + (m, 2 * t))
            lo = blocks[..., :t]
            hi = blocks[..., t:]
            w = self._cols(self._psi_rev, m, 2 * m, blocks.ndim)
            w_shoup = self._cols(self._psi_rev_shoup, m, 2 * m, blocks.ndim)
            v = modarith.shoup_mul_mod(hi, w, w_shoup, q, operand32=self._op32)
            s = lo + v
            d = lo + (q - v)
            blocks[..., :t] = np.where(s >= q, s - q, s)
            blocks[..., t:] = np.where(d >= q, d - q, d)
            m *= 2
        return a

    def inverse(self, stack: np.ndarray) -> np.ndarray:
        """Inverse NTT of every limb of an ``(L, ..., N)`` stack at once."""
        self._check(stack)
        if not self.native or stack.dtype == object:
            return np.stack(
                [plan.inverse(limb) for plan, limb in zip(self.plans, stack)]
            )
        if self._gemm_ok:
            return self._gemm_transform(stack, inverse=True)
        return self._blocked(stack, self._inverse_native)

    def _inverse_native(self, a: np.ndarray) -> np.ndarray:
        lead = a.shape[:-1]
        n = self.degree
        q = self._q_col(a.ndim + 1)
        t, m = 1, n
        while m > 1:
            h = m // 2
            blocks = a.reshape(lead + (h, 2 * t))
            lo = blocks[..., :t]
            hi = blocks[..., t:]
            s = lo + hi
            d = lo + (q - hi)
            diff = np.where(d >= q, d - q, d)
            w = self._cols(self._psi_inv_rev, h, 2 * h, blocks.ndim)
            w_shoup = self._cols(self._psi_inv_rev_shoup, h, 2 * h, blocks.ndim)
            blocks[..., :t] = np.where(s >= q, s - q, s)
            blocks[..., t:] = modarith.shoup_mul_mod(
                diff, w, w_shoup, q, operand32=self._op32
            )
            t *= 2
            m = h
        L = len(self.moduli)
        col = (L,) + (1,) * (a.ndim - 1)
        return modarith.shoup_mul_mod(
            a,
            self._n_inv.reshape(col),
            self._n_inv_shoup.reshape(col),
            self._q_col(a.ndim),
            operand32=self._op32,
        )


# ---------------------------------------------------------------------------
# Bounded LRU plan cache (the trace-cache discipline, local to the math layer)
# ---------------------------------------------------------------------------


#: The unified cache-counters type (one vocabulary for every cache in the
#: process); the old per-module name is kept as an alias.
PlanCacheStats = CacheStats


class PlanCache:
    """An LRU-bounded memo of constructed transform plans.

    Twiddle tables are a few megabytes at bootstrapping degrees, and a
    long-lived service cycling through parameter sets must not grow its
    plan memo without bound -- the same reasoning as
    :class:`repro.core.trace_cache.TraceCache`, which this mirrors
    (``math`` cannot import ``core``).
    """

    def __init__(self, maxsize: int = 256):
        self.maxsize = maxsize
        self._entries: "OrderedDict[Tuple, object]" = OrderedDict()
        self._stats = PlanCacheStats()
        self._lock = threading.RLock()

    def get_or_build(
        self,
        key: Tuple,
        builder: Callable[[], object],
        build_outside_lock: bool = False,
    ):
        """Return the cached entry for `key`, building it on a miss.

        With ``build_outside_lock`` the lock guards only the LRU bookkeeping
        (lookup, insert, evict) and `builder` runs unlocked -- concurrent
        misses may build twice, but the first insert wins and every caller
        gets the winning entry.  Use it when building is expensive (key
        decomposition, weight tensors) so other lanes are never stalled
        behind a build.
        """
        with self._lock:
            cached = self._entries.get(key)
            if cached is not None:
                self._entries.move_to_end(key)
                self._stats.hits += 1
                return cached
            self._stats.misses += 1
            if not build_outside_lock:
                plan = builder()
                self._insert(key, plan)
                return plan
        plan = builder()
        with self._lock:
            winner = self._entries.get(key)
            if winner is not None:
                return winner  # a concurrent build landed first
            self._insert(key, plan)
            return plan

    def _insert(self, key: Tuple, plan: object) -> None:
        """Insert under the held lock, evicting LRU entries past maxsize."""
        if self.maxsize > 0:
            self._entries[key] = plan
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                self._stats.evictions += 1

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._stats = PlanCacheStats()

    @property
    def stats(self) -> PlanCacheStats:
        with self._lock:
            return self._stats.snapshot()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Tuple) -> bool:
        with self._lock:
            return key in self._entries


_PLAN_CACHE = PlanCache(maxsize=256)
_STACK_CACHE = PlanCache(maxsize=64)

register_cache("ntt_plans", lambda: _PLAN_CACHE.stats, lambda: len(_PLAN_CACHE))
register_cache("ntt_stacks", lambda: _STACK_CACHE.stats,
               lambda: len(_STACK_CACHE))


def get_plan(degree: int, modulus: int) -> NttPlan:
    """Return the cached :class:`NttPlan` for ``(degree, modulus)``.

    The backend kind is part of the key, so plans requested under
    :func:`modarith.object_backend` never alias the native ones.
    """
    key = (degree, modulus, modarith.backend_kind(modulus))
    return _PLAN_CACHE.get_or_build(key, lambda: NttPlan(degree, modulus))


def get_stack(degree: int, moduli: Sequence[int]) -> NttStack:
    """Return the cached :class:`NttStack` for ``(degree, moduli)``."""
    moduli = tuple(int(q) for q in moduli)
    key = (degree, moduli, tuple(modarith.backend_kind(q) for q in moduli))
    return _STACK_CACHE.get_or_build(key, lambda: NttStack(degree, moduli))


def clear_plan_cache() -> None:
    """Drop every cached plan/stack and reset the counters."""
    _PLAN_CACHE.clear()
    _STACK_CACHE.clear()


def plan_cache_stats() -> Dict[str, Dict[str, float]]:
    """Point-in-time counters for the plan and stack caches."""
    return {
        "plans": _PLAN_CACHE.stats.as_dict(),
        "stacks": _STACK_CACHE.stats.as_dict(),
    }
