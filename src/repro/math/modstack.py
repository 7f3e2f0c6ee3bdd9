"""Limb-stacked modular arithmetic over a whole RNS basis at once.

The double-CRT layout stores one residue array per RNS limb; GPU FHE
libraries keep those limbs contiguous in a single ``(num_limbs, N)`` tensor
and run every element-wise kernel across the whole stack in one launch.
:class:`ModulusStack` is the numpy mirror of that idea: per-limb moduli,
Barrett constants and bit-width shifts are materialised as broadcastable
columns so that ``add/sub/neg/mul/scalar_mul`` over an ``(L, ..., N)``
stack are single vectorised expressions -- no Python-level per-limb loop.

When every modulus fits the native ``uint64`` backends the stack dtype is
``uint64``; a single limb at or above ``2**62`` demotes the whole stack to
the exact object backend (the reference oracle path).
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

import numpy as np

from . import modarith

_U64 = np.uint64


class ModulusStack:
    """Vectorised mod-arithmetic context for an ordered tuple of moduli.

    Arrays handled by a stack have shape ``(L, ..., N)``: leading limb axis,
    then optional batch axes, then the coefficient axis.  All per-limb
    constants broadcast from column vectors ``(L, 1, ..., 1)``.
    """

    _CACHE: Dict[Tuple[Tuple[int, ...], bool], "ModulusStack"] = {}

    def __init__(self, moduli: Sequence[int]):
        self.moduli: Tuple[int, ...] = tuple(int(q) for q in moduli)
        if not self.moduli:
            raise ValueError("a modulus stack needs at least one modulus")
        if any(q <= 1 for q in self.moduli):
            raise ValueError("all moduli must be > 1")
        self.native = all(modarith.uses_native_backend(q) for q in self.moduli)
        #: Residues below ``2**31`` admit the two-multiply ``mulhi_op32``.
        self._op32 = self.native and all(q < 2**31 for q in self.moduli)
        if self.native:
            self._q = np.array(self.moduli, dtype=_U64)
            bits = [q.bit_length() for q in self.moduli]
            self._s_lo = np.array([k - 1 for k in bits], dtype=_U64)
            self._s_lo_c = np.array([64 - (k - 1) for k in bits], dtype=_U64)
            self._s_hi = np.array([k + 1 for k in bits], dtype=_U64)
            self._s_hi_c = np.array([64 - (k + 1) for k in bits], dtype=_U64)
            self._mu = np.array(
                [(1 << (2 * k)) // q for k, q in zip(bits, self.moduli)],
                dtype=_U64,
            )
            # Lazy-reduction constants: R = 2**64 mod q_i (with its Shoup
            # companion) folds the high word of a 128-bit accumulator.
            r64 = [(1 << 64) % q for q in self.moduli]
            self._r64 = np.array(r64, dtype=_U64)
            self._r64_shoup = np.array(
                [modarith.shoup_precompute(r, q) for r, q in zip(r64, self.moduli)],
                dtype=_U64,
            )
        else:
            self._q = np.array(self.moduli, dtype=object)

    @classmethod
    def for_moduli(cls, moduli: Sequence[int]) -> "ModulusStack":
        """The cached stack for `moduli` under the current backend policy."""
        key = (tuple(int(q) for q in moduli), modarith._BARRETT_ENABLED)
        stack = cls._CACHE.get(key)
        if stack is None:
            stack = cls(key[0])
            cls._CACHE[key] = stack
        return stack

    @property
    def dtype(self):
        return np.uint64 if self.native else object

    def __len__(self) -> int:
        return len(self.moduli)

    # -- shaping ------------------------------------------------------------

    def _col(self, arr: np.ndarray, ndim: int) -> np.ndarray:
        """Reshape a per-limb ``(L,)`` constant to broadcast over `ndim` axes."""
        return arr.reshape((len(self.moduli),) + (1,) * (ndim - 1))

    @staticmethod
    def _align(a: np.ndarray, b: np.ndarray):
        """Insert batch axes after the limb axis so two stacks broadcast.

        Stacks are ``(L, batch..., N)``; numpy aligns trailing axes, so a
        rank difference means missing *batch* dims, which belong between
        the limb and coefficient axes rather than in front.
        """
        while a.ndim < b.ndim:
            a = np.expand_dims(a, 1)
        while b.ndim < a.ndim:
            b = np.expand_dims(b, 1)
        return a, b

    def q_col(self, ndim: int) -> np.ndarray:
        return self._col(self._q, ndim)

    # -- coercion -----------------------------------------------------------

    def stack_limbs(self, limbs: Sequence[np.ndarray]) -> np.ndarray:
        """Stack per-limb residue arrays into one reduced ``(L, ..., N)`` array."""
        if len(limbs) != len(self.moduli):
            raise ValueError(
                f"expected {len(self.moduli)} limb arrays, got {len(limbs)}"
            )
        reduced = [
            modarith.asarray_mod(limb, q) for limb, q in zip(limbs, self.moduli)
        ]
        if self.native:
            return np.stack(reduced)
        return np.stack([np.asarray(limb, dtype=object) for limb in reduced])

    def reduce(self, stack: np.ndarray) -> np.ndarray:
        """Reduce an integer stack limb-wise into ``[0, q_i)``."""
        stack = np.asarray(stack)
        if self.native and stack.dtype != object:
            if np.issubdtype(stack.dtype, np.signedinteger):
                q = self._col(self._q.astype(np.int64), stack.ndim)
                return (stack.astype(np.int64, copy=False) % q).astype(_U64)
            return stack.astype(_U64, copy=False) % self.q_col(stack.ndim)
        stack = np.asarray(stack, dtype=object)
        reduced = stack % self._col(self._q, stack.ndim)
        if self.native:
            return reduced.astype(_U64)
        return reduced

    def zeros(self, shape) -> np.ndarray:
        shape = (len(self.moduli),) + tuple(shape)
        if self.native:
            return np.zeros(shape, dtype=_U64)
        out = np.empty(shape, dtype=object)
        out[...] = 0
        return out

    # -- element-wise ring operations ---------------------------------------

    def add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        a, b = self._align(a, b)
        q = self._col(self._q, a.ndim)
        if self.native:
            s = a + b
            return np.where(s >= q, s - q, s)
        return (a + b) % q

    def sub(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        a, b = self._align(a, b)
        q = self._col(self._q, a.ndim)
        if self.native:
            s = a + (q - b)
            return np.where(s >= q, s - q, s)
        return (a - b) % q

    def neg(self, a: np.ndarray) -> np.ndarray:
        q = self._col(self._q, a.ndim)
        if self.native:
            return np.where(a == 0, a, q - a)
        return (-a) % q

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Element-wise product of two reduced stacks (Barrett per limb)."""
        a, b = self._align(a, b)
        if not self.native:
            return (a * b) % self._col(self._q, a.ndim)
        ndim = max(a.ndim, b.ndim)
        hi, lo = modarith.mul128(a, b)
        approx = (hi << self._col(self._s_lo_c, ndim)) | (
            lo >> self._col(self._s_lo, ndim)
        )
        q2_hi, q2_lo = modarith.mul128(approx, self._col(self._mu, ndim))
        quot = (q2_hi << self._col(self._s_hi_c, ndim)) | (
            q2_lo >> self._col(self._s_hi, ndim)
        )
        q = self._col(self._q, ndim)
        r = lo - quot * q
        r = np.where(r >= q, r - q, r)
        return np.where(r >= q, r - q, r)

    def scalar_mul(self, a: np.ndarray, scalars: Sequence[int]) -> np.ndarray:
        """Multiply limb ``i`` by Python-int ``scalars[i]``."""
        if len(scalars) != len(self.moduli):
            raise ValueError("need one scalar per limb")
        reduced = [int(s) % q for s, q in zip(scalars, self.moduli)]
        if not self.native:
            w = self._col(np.array(reduced, dtype=object), a.ndim)
            return (a * w) % self._col(self._q, a.ndim)
        w = self._col(np.array(reduced, dtype=_U64), a.ndim)
        w_shoup = self._col(
            np.array(
                [modarith.shoup_precompute(s, q) for s, q in zip(reduced, self.moduli)],
                dtype=_U64,
            ),
            a.ndim,
        )
        return modarith.shoup_mul_mod(
            a, w, w_shoup, self._col(self._q, a.ndim), operand32=self._op32
        )

    def broadcast_scalar_mul(self, a: np.ndarray, scalar: int) -> np.ndarray:
        """Multiply every limb by the same Python integer (reduced per limb)."""
        return self.scalar_mul(a, [scalar] * len(self.moduli))

    # -- lazy-reduction GEMM kernels (Neo Algorithms 2 and 4) -----------------

    def lazy_max_terms(self, operand_bound: int = 0) -> int:
        """How many 128-bit products one lazy accumulator can absorb.

        Each term contributes at most ``hi_max + 1`` to the high word (its
        own high word plus a possible carry out of the low word), so the
        accumulator stays below ``2**64`` for
        ``floor((2**64 - 1) / (hi_max + 1))`` terms -- the slack-bit bound
        that plays the role of Algorithm 4's "valid proportion": it tells
        how far reduction can be deferred before the accumulator would
        wrap.  ``operand_bound`` (exclusive) bounds the *other* factor when
        it is not reduced by this stack's own moduli (BConv inputs arrive
        reduced by the source basis).
        """
        q_max = max(self.moduli)
        other = max(int(operand_bound), q_max)
        hi_max = ((q_max - 1) * (other - 1)) >> 64
        terms = ((1 << 64) - 1) // (hi_max + 1)
        if terms < 1:
            raise ValueError(
                f"no slack bits left for lazy accumulation (q_max={q_max}, "
                f"operand_bound={other}); reduce eagerly instead"
            )
        return terms

    def lazy_slack_bits(self, operand_bound: int = 0) -> int:
        """Bits of headroom per accumulated term (``log2`` of the term cap)."""
        return self.lazy_max_terms(operand_bound).bit_length() - 1

    def reduce128(self, hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
        """Reduce ``hi * 2**64 + lo`` limb-wise into ``[0, q_i)``.

        The single reduction that lazy accumulation defers to: fold the high
        word through ``R = 2**64 mod q`` (Shoup), add the reduced low word,
        one conditional subtraction.
        """
        ndim = max(hi.ndim, lo.ndim)
        q = self._col(self._q, ndim)
        term = modarith.shoup_mul_mod(
            hi % q, self._col(self._r64, ndim), self._col(self._r64_shoup, ndim), q
        )
        s = term + lo % q
        return np.where(s >= q, s - q, s)

    def lazy_mul_sum(
        self, a: np.ndarray, b: np.ndarray, axis: int, operand_bound: int = 0
    ) -> np.ndarray:
        """``sum_k a[.., k, ..] * b[.., k, ..] mod q_i`` with lazy reduction.

        The multiply-accumulate at the heart of the paper's GEMM kernels
        (Algorithm 4): full 128-bit products from the 32-bit limb splitting
        accumulate as ``(hi, lo)`` word pairs with carry tracking, and each
        accumulator is reduced *once* per :meth:`lazy_max_terms`-sized chunk
        instead of once per term.  `a` and `b` broadcast together as
        ``(L, ..., N)`` stacks; `axis` (>= 1, never the limb axis) is folded.
        The result is bit-identical to eager per-term reduction -- the sum
        is computed exactly modulo each limb.
        """
        a = np.asarray(a)
        b = np.asarray(b)
        if axis == 0:
            raise ValueError("cannot fold the limb axis")
        if not self.native or a.dtype == object or b.dtype == object:
            a = np.asarray(a, dtype=object)
            b = np.asarray(b, dtype=object)
            total = (a * b).sum(axis=axis)
            reduced = total % self._col(self._q, total.ndim)
            return reduced.astype(_U64) if self.native else reduced
        shape = np.broadcast_shapes(a.shape, b.shape)
        if shape[0] != len(self.moduli):
            raise ValueError(
                f"expected limb axis of {len(self.moduli)}, got shape {shape}"
            )
        a = np.broadcast_to(a, shape)
        b = np.broadcast_to(b, shape)
        n_terms = shape[axis]
        out_shape = shape[:axis] + shape[axis + 1 :]
        q_max = max(self.moduli)
        other = max(int(operand_bound), q_max)
        prod_max = (q_max - 1) * (other - 1)
        if prod_max <= ((1 << 64) - 1) >> 2:
            # Fast-backend moduli: whole products fit one uint64 word, so
            # the accumulator is a plain sum -- one multiply and one add per
            # term, one ``%`` per chunk (at least 4 terms deep by the bound
            # above).  Bit-identical to the (hi, lo) path: both compute the
            # exact sum modulo each limb.
            chunk = ((1 << 64) - 1) // max(prod_max, 1)
            q = self._col(self._q, len(out_shape))
            out = None
            for start in range(0, n_terms, chunk):
                stop = min(start + chunk, n_terms)
                acc = np.zeros(out_shape, dtype=_U64)
                for k in range(start, stop):
                    idx = (slice(None),) * axis + (k,)
                    acc += a[idx] * b[idx]
                part = acc % q
                out = part if out is None else self.add(out, part)
            if out is None:
                return np.zeros(out_shape, dtype=_U64)
            return out
        chunk = self.lazy_max_terms(operand_bound)
        out = None
        for start in range(0, n_terms, chunk):
            stop = min(start + chunk, n_terms)
            hi_acc = np.zeros(out_shape, dtype=_U64)
            lo_acc = np.zeros(out_shape, dtype=_U64)
            for k in range(start, stop):
                idx = (slice(None),) * axis + (k,)
                hi, lo = modarith.mul128(a[idx], b[idx])
                lo_acc = lo_acc + lo  # wraps mod 2**64
                carry = (lo_acc < lo).astype(_U64)
                hi_acc = hi_acc + hi + carry
            part = self.reduce128(hi_acc, lo_acc)
            out = part if out is None else self.add(out, part)
        if out is None:
            return np.zeros(out_shape, dtype=_U64)
        return out

    def divide_exact_drop(
        self, keep: np.ndarray, tail: np.ndarray, drop_modulus: int
    ) -> np.ndarray:
        """Round-divide by one dropped limb: ``(x - [x]_{q_drop}) / q_drop``.

        The Rescale epilogue over this stack's (kept) moduli: broadcast the
        dropped limb's residues into every kept limb, subtract, multiply by
        the cached inverse of the dropped modulus.  This is exactly the
        stack arithmetic of the evaluator's single-limb Rescale, exposed so
        fused GEMM epilogues (the op-plan compiler's folded rescale) stay
        bit-identical to the standalone operation.
        """
        correction = self.reduce(np.asarray(tail)[None, ...])
        diff = self.sub(keep, correction)
        inverses = [
            modarith.inv_mod(int(drop_modulus) % q, q) for q in self.moduli
        ]
        return self.scalar_mul(diff, inverses)

    def bconv_matmul(
        self, scaled: np.ndarray, weights: np.ndarray, operand_bound: int = 0
    ) -> np.ndarray:
        """Base conversion as one batched matmul (the paper's Algorithm 2).

        ``scaled`` holds the per-source-limb scaled residues
        ``y_i = [x_i * q_hat_inv_i]_{q_i}`` laid out as ``(*G, K, *B, N)``
        (optional group axes ``G`` such as the digit index, folded source
        axis ``K``, batch axes ``B``); ``weights`` is the conversion matrix
        ``(L, *G, K)`` with ``W[j, .., i] = q_hat_i mod p_j`` over this
        stack's target moduli.  Returns the ``(L, *G, *B, N)`` output stack
        -- every target limb of every group in one lazy-reduced GEMM.
        """
        w = np.asarray(weights)
        scaled = np.asarray(scaled)
        n_group = w.ndim - 2
        trailing = scaled.ndim - n_group - 1
        if trailing < 1:
            raise ValueError(
                f"scaled shape {scaled.shape} too small for weights {w.shape}"
            )
        w_col = w.reshape(w.shape + (1,) * trailing)
        return self.lazy_mul_sum(
            w_col, scaled[None, ...], axis=1 + n_group, operand_bound=operand_bound
        )
