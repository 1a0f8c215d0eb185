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
  the complementary positive exponent ``2^k * (2^(m-k) - bit_reverse(q,
  m-k-1))``, so no field inversion is needed.

Every product, powers included, is a ``ring.mul_root``: powers run
``pow_by_squaring`` over it, so a counting ring sees each one.
"""

from __future__ import annotations

from .bits import bit_reverse
from .ring import pow_by_squaring

__all__ = ["pair_stream", "twiddle_forward", "twiddle_inverse"]


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
    bits = q.bit_length() - 1
    scale = 1
    lift = min(m - 1 - bits, 1)
    seed = pow_by_squaring(ring.mul_root, psi, 1 << (m - 1 - bits - lift))
    step = pow_by_squaring(ring.mul_root, seed, 1 << lift)
    term = scale
    rev = 0
    for j in range(1, 1 << bits):
        # incrementally reversed counter: rev == bit_reverse(j, bits)
        bit = 1 << (bits - 1)
        while rev & bit:
            rev ^= bit
            bit >>= 1
        rev |= bit
        # the accumulator starts at the identity; never multiply by it
        term = step if j == 1 else ring.mul_root(term, step)
        yield rev, term
    offset = 1 << bits
    while q > offset:
        prev_bits = bits
        bits = (q - offset).bit_length() - 1
        scale = seed if scale == 1 else ring.mul_root(scale, seed)
        seed = pow_by_squaring(ring.mul_root, seed, 1 << (prev_bits - bits))
        step = ring.mul_root(seed, seed)
        term = scale
        yield offset, term
        rev = 0
        for j in range(1, 1 << bits):
            bit = 1 << (bits - 1)
            while rev & bit:
                rev ^= bit
                bit >>= 1
            rev |= bit
            term = ring.mul_root(term, step)
            yield offset + rev, term
        offset += 1 << bits


def twiddle_forward(ring, m: int, psi: int, k: int, q: int) -> int:
    """Return psi^(2^k * bit_reverse(q, m-k-1))."""
    if not 0 <= k <= m - 1:
        raise ValueError("k must lie in [0, m-1]")
    if not 0 <= q < 1 << (m - k - 1):
        raise ValueError("q must lie in [0, 2^(m-k-1))")
    return pow_by_squaring(ring.mul_root, psi, (1 << k) * bit_reverse(q, m - k - 1))


def twiddle_inverse(ring, m: int, psi: int, k: int, q: int) -> int:
    """Return psi^(-2^k * bit_reverse(q, m-k-1)), as a positive power.

    The exponent used is 2^k * (2^(m-k) - bit_reverse(q, m-k-1)), which
    is congruent mod the order 2^m of psi, so no inversion is required.
    """
    if not 0 <= k <= m - 1:
        raise ValueError("k must lie in [0, m-1]")
    if not 0 <= q < 1 << (m - k - 1):
        raise ValueError("q must lie in [0, 2^(m-k-1))")
    exponent = (1 << k) * ((1 << (m - k)) - bit_reverse(q, m - k - 1))
    return pow_by_squaring(ring.mul_root, psi, exponent)
