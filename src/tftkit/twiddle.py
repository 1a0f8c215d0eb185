"""Twiddle factor production for the truncated transforms.

Butterfly coefficients are powers of a root psi of order 2^m, and a
coefficient depends only on its block index: at every level, block i
uses psi^bit_reverse(i, m-1).  The radix-4 step over levels (k, k-1)
needs, for its block i, b = psi^bit_reverse(2i, m-1) =
psi^bit_reverse(i, m-2): the level-k twiddle is b*b and the level-(k-1)
ones are b and b*psi^(2^(m-2)).  The transform kernels consume them
through two channels:

* ``pair_stream`` -- a generator yielding ``(i, psi^bit_reverse(i, m-1))``
  for ``i = 1, ..., q-1``, which the radix-4 step draws with m-1 in
  place of m and the same psi.  Pairs are produced blockwise: q is split
  along its binary digits, and within each block the factors form a
  geometric progression, so each pair after the first in a block costs
  one multiplication.  A full drain costs at most ``q + 4m``
  multiplications and O(1) space.  Block-internal order is
  bit-reversed; consumers must not rely on ascending ``i``.

* ``twiddle_forward`` / ``twiddle_inverse`` -- the factor
  ``psi^bit_reverse(q, m-1)`` of one block q and its reciprocal, one
  ``root_power`` each, costed as square-and-multiply at O(m)
  multiplications.  The
  inverse uses the complementary positive exponent
  ``2^m - bit_reverse(q, m-1)``, so no field inversion is needed.

Every product is a ``ring.mul_root`` and every power a
``ring.root_power``, which a counting ring counts as the products
``pow_by_squaring`` makes over ``mul_root``; a plain field takes it by
builtin pow.
"""

from __future__ import annotations

from operator import index

__all__ = ["bit_reverse", "pair_stream", "twiddle_forward", "twiddle_inverse"]


def bit_reverse(i: int, k: int) -> int:
    """Reverse the k low bits of i.  Requires 0 <= i < 2^k."""
    if k < 0 or i >> k:
        raise ValueError(f"index {i} does not fit in {k} bits")
    # loop over i's own bits, then shift: no int in the loop outgrows i
    n = i.bit_length()
    out = 0
    for _ in range(n):
        out = (out << 1) | (i & 1)
        i >>= 1
    return out << (k - n)


def pair_stream(ring, m: int, psi: int, q: int):
    """Yield (i, psi^bit_reverse(i, m-1)) for i = 1, ..., q-1.

    The exponents hold for any psi; the order of psi only gives them a
    meaning.  With psi of order 2^m these are the butterfly twiddles of
    one level; with psi of order 2^(m+1) they are the radix-4 block
    twiddles b.  m and q must be integers with q in [1, 2^(m-1)].
    Yields nothing when q = 1.
    """
    m, q = index(m), index(q)
    if m < 1 or not 1 <= q <= 1 << (m - 1):
        raise ValueError(f"need m >= 1 and q in [1, 2^(m-1)], got m={m}, q={q}")
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
    seed = ring.root_power(psi, 1 << (m - 1 - bits - lift))
    step = ring.root_power(seed, 1 << lift)
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
        seed = ring.root_power(seed, 1 << (prev_bits - bits))
        step = ring.mul_root(seed, seed)


def twiddle_forward(ring, m: int, psi: int, q: int) -> int:
    """Return psi^bit_reverse(q, m-1), the factor of block q.  ValueError
    unless m >= 1 and 0 <= q < 2^(m-1)."""
    return ring.root_power(psi, bit_reverse(q, m - 1))


def twiddle_inverse(ring, m: int, psi: int, q: int) -> int:
    """Return psi^-bit_reverse(q, m-1) as the positive power
    psi^(2^m - bit_reverse(q, m-1)), so no inversion is required; m and
    q are checked as for ``twiddle_forward``."""
    return ring.root_power(psi, (1 << m) - bit_reverse(q, m - 1))
