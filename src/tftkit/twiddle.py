"""Twiddle factor production for the truncated transforms.

Butterfly coefficients are powers of a root psi of order 2^m, and a
coefficient depends only on its block index: at every level, block i
uses psi^bit_reverse(i, m-1).  The radix-4 step over levels (k, k-1)
needs, for its block i, b = psi^bit_reverse(2i, m-1) =
psi^bit_reverse(i, m-2): the level-k twiddle is b*b and the level-(k-1)
ones are b and b*psi^(2^(m-2)).  The transform kernels consume them
through two channels:

* ``pair_stream`` -- a generator of the factors
  ``psi^bit_reverse(i, m-1)`` for ``i = 1, ..., q-1`` as geometric runs,
  which the radix-4 step draws with m-1 in place of m and the same psi.
  q is split along its binary digits, one run per digit, and within a
  run the factors form a geometric progression: a run
  ``(i, n, b, step, bits)`` is n blocks from block i on, visited in the
  bit-reversed order of their low ``bits`` bits, with factors b,
  b*step, b*step^2, ...  The consumer makes the n - 1 products inside
  a run, the generator the others; a full drain costs at most
  ``q + 4m`` multiplications in all, and O(1) space.

* ``twiddle_forward`` / ``twiddle_inverse`` -- the factor
  ``psi^bit_reverse(q, m-1)`` of one block q and its reciprocal, one
  ``root_power`` each, costed as square-and-multiply at O(m)
  multiplications; the leftover block of a level pair takes these.  The
  inverse uses the complementary positive exponent
  ``2^m - bit_reverse(q, m-1)``, so no field inversion is needed.  The
  rightmost-branch passes take the same powers with the exponent from
  ``tft.branch_levels``, which reads it off ell's bits.

Every product is a ``ring.mul_root`` and every power a
``ring.root_power``, which both rings take by builtin pow and a
counting ring counts as the products ``pow_by_squaring`` makes over
``mul_root``.
"""

from operator import index

__all__ = ["bit_reverse", "pair_stream", "twiddle_forward", "twiddle_inverse"]


def bit_reverse(i: int, k: int) -> int:
    """Reverse the k low bits of i.  Requires 0 <= i < 2^k."""
    if k < 0 or i >> k:
        raise ValueError(f"index {i} does not fit in {k} bits")
    # bin(i | 1 << k) is "0b1" and then i's k bits; reverse those
    return int(bin(i | 1 << k)[:2:-1] or "0", 2)


def pair_stream(ring, m: int, psi: int, q: int):
    """Yield the factors psi^bit_reverse(i, m-1), i = 1, ..., q-1, as runs
    (i, n, b, step, bits): n blocks from block i on, visited in the
    bit-reversed order of their low bits bits, with factors b, b*step,
    b*step^2, ...

    One run per binary digit of q, highest first.  The first run skips
    block 0: it is (2^(bits-1), 2^bits - 1, step, step, bits).  The
    exponents hold for any psi; the order of psi only gives them a
    meaning.  With psi of order 2^m these are the butterfly twiddles of
    one level; with psi of order 2^(m+1) they are the radix-4 block
    twiddles b.  m and q must be integers with q in [1, 2^(m-1)].
    Yields nothing when q = 1.
    """
    m, q = index(m), index(q)
    if m < 1 or not 1 <= q <= 1 << (m - 1):
        raise ValueError(f"need m >= 1 and q in [1, 2^(m-1)], got m={m}, q={q}")
    return _runs(ring, m, psi, q)


def _runs(ring, m, psi, q):
    # A run of 2^bits blocks past offset has factors scale * step^j, where
    # the low bits of the block are bit_reverse(j, bits); offset has no
    # bits below 2^bits.  The first run has offset 0 and the identity as
    # its scale, never multiplied by, so it starts at j = 1.
    bits = q.bit_length() - 1
    lift = min(m - 1 - bits, 1)
    seed = ring.root_power(psi, 1 << (m - 1 - bits - lift))
    step = ring.root_power(seed, 1 << lift)
    if bits:
        yield 1 << (bits - 1), (1 << bits) - 1, step, step, bits
    offset = 1 << bits
    scale = None
    while offset < q:
        prev_bits = bits
        bits = (q - offset).bit_length() - 1
        scale = seed if scale is None else ring.mul_root(scale, seed)
        seed = ring.root_power(seed, 1 << (prev_bits - bits))
        step = ring.mul_root(seed, seed)
        yield offset, 1 << bits, scale, step, bits
        offset += 1 << bits


def twiddle_forward(ring, m: int, psi: int, q: int) -> int:
    """Return psi^bit_reverse(q, m-1), the factor of block q.  ValueError
    unless m >= 1 and 0 <= q < 2^(m-1)."""
    return ring.root_power(psi, bit_reverse(q, m - 1))


def twiddle_inverse(ring, m: int, psi: int, q: int) -> int:
    """Return psi^-bit_reverse(q, m-1) as the positive power
    psi^(2^m - bit_reverse(q, m-1)), so no inversion is required; m and
    q are checked as for ``twiddle_forward``."""
    return ring.root_power(psi, (1 << m) - bit_reverse(q, m - 1))
