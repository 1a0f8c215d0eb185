"""Twiddle factor production for the truncated transforms.

Butterfly coefficients are powers of a root psi of order 2^m.  The
transform kernels consume them through two channels:

* ``pair_stream`` -- a generator yielding ``(i, psi^bit_reverse(i, m-1))``
  for ``i = 1, ..., q-1``.  Pairs are produced blockwise: q is split
  along its binary digits, and within each block the factors form a
  geometric progression, so each pair after the first in a block costs
  one multiplication.  A full drain costs at most ``q + 4m``
  multiplications and O(1) space.  Block-internal order is
  bit-reversed; consumers must not rely on ascending ``i``.

* ``twiddle_forward`` / ``twiddle_inverse`` -- one-off factors
  ``psi^(2^k * bit_reverse(q, m-k-1))`` and its reciprocal, computed by
  square-and-multiply at O(m) multiplications each.  The inverse uses
  the complementary positive exponent ``2^m - 2^k * bit_reverse(q,
  m-k-1)``, so no field inversion is needed.

Every product, powers included, is a ``ring.mul_root``: powers run
``pow_by_squaring`` over it, so a counting ring sees each one.
"""

from __future__ import annotations

from .ring import pow_by_squaring

__all__ = ["bit_reverse", "pair_stream", "twiddle_forward", "twiddle_inverse"]


def bit_reverse(i: int, k: int) -> int:
    """Reverse the k low bits of i.  Requires 0 <= i < 2^k."""
    if k < 0 or i >> k:
        raise ValueError(f"index {i} does not fit in {k} bits")
    out = 0
    for _ in range(k):
        out = (out << 1) | (i & 1)
        i >>= 1
    return out


def pair_stream(ring, m: int, psi: int, q: int):
    """Yield (i, psi^bit_reverse(i, m-1)) for i = 1, ..., q-1.

    psi must have order 2^m in the ring and q must lie in
    [1, 2^(m-1)].  Yields nothing when q = 1.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    if not 1 <= q <= 1 << (m - 1):
        raise ValueError("q must lie in [1, 2^(m-1)]")
    return _pairs(ring, m, psi, q)


def _pairs(ring, m, psi, q):
    # One run per binary digit of q, highest first.  A run of 2^bits
    # indices i past offset has factors scale * step^j, where the low bits
    # of i are bit_reverse(j, bits); they are counted in that reversed
    # order in place, as offset has no bits below 2^bits.  The first run
    # has offset 0 and scale None (the identity, never multiplied by),
    # so it skips j = 0.
    bits = q.bit_length() - 1
    lift = min(m - 1 - bits, 1)
    seed = pow_by_squaring(ring.mul_root, psi, 1 << (m - 1 - bits - lift))
    step = pow_by_squaring(ring.mul_root, seed, 1 << lift)
    offset = 0
    scale = None
    while True:
        i = offset
        term = scale
        if i:
            yield i, term
        for _ in range(1, 1 << bits):
            bit = 1 << (bits - 1)
            while i & bit:
                i ^= bit
                bit >>= 1
            i |= bit
            term = step if term is None else ring.mul_root(term, step)
            yield i, term
        offset += 1 << bits
        if offset == q:
            return
        prev_bits = bits
        bits = (q - offset).bit_length() - 1
        scale = seed if scale is None else ring.mul_root(scale, seed)
        seed = pow_by_squaring(ring.mul_root, seed, 1 << (prev_bits - bits))
        step = ring.mul_root(seed, seed)


def twiddle_forward(ring, m: int, psi: int, k: int, q: int) -> int:
    """Return psi^(2^k * bit_reverse(q, m-k-1))."""
    return pow_by_squaring(ring.mul_root, psi, _exponent(m, k, q))


def twiddle_inverse(ring, m: int, psi: int, k: int, q: int) -> int:
    """Return psi^(-2^k * bit_reverse(q, m-k-1)), as a positive power.

    The exponent used is 2^m - 2^k * bit_reverse(q, m-k-1), which is
    congruent mod the order 2^m of psi, so no inversion is required.
    """
    return pow_by_squaring(ring.mul_root, psi, (1 << m) - _exponent(m, k, q))


def _exponent(m: int, k: int, q: int) -> int:
    if not 0 <= k <= m - 1:
        raise ValueError("k must lie in [0, m-1]")
    if not 0 <= q < 1 << (m - k - 1):
        raise ValueError("q must lie in [0, 2^(m-k-1))")
    return (1 << k) * bit_reverse(q, m - k - 1)
