"""In-place inverse truncated Fourier transform.

``itft_in_place`` undoes ``tft_in_place``: given the ell evaluations it
recovers the ell coefficients, in the same buffer, with O(1) scratch.

A plain reversal of the forward pass would need an inverse butterfly
per forward butterfly, and the inverse of [[1,a],[1,-a]] drags in a
factor 2^-1 at every level.  Instead the kernel tracks the transform
scaled by 2^level: the inverse butterfly then becomes the division-free
[[1,1],[a',-a']] with a' the reciprocal twiddle, and all the deferred
halvings collapse into one final scaling pass by powers of 2^-1.

Passes, mirroring the forward kernel in reverse, each a function of
(plan, buffer, ring):

1. ``ascend_levels``: ascending butterfly levels over the completed
   prefix, two per sweep, one ``inverse_radix4`` call per level pair:
   block 0, then the blocks of the pair stream seeded with psi^-1,
   whose runs of reciprocal twiddles the ring walks itself; a leftover
   half block and the unpaired top level go through ``fold`` and
   ``inverse_butterflies``, the leftover's twiddle a power of the same
   psi^-1 by ``twiddle_forward``;
2. ``branch_recombine``: descending rightmost-branch pass recombining
   head entries with the entries the forward kernel kept at their
   mirrors, 2^(m-1) below the missing slots (x <- x - a*y, and the
   halving branch x <- (x + a*y)/2);
3. ``branch_finish``: re-descent finishing the tail entries
   (x <- 2x - a*y, the doubling an addition);
4. ``scale_and_close``: the forward kernel's pass-1 fold, then one
   sweep by (2^-1)^m, or by (2^-1)^(m-1) on the entries the fold skips.

Passes 2-4 touch O(ell) entries in block runs.  Passes 2-3 take each
level's two runs from ``tft.branch_level``, where dist > 0 says the
partial block has a tail, and only pick ring members by that sign:
pass 2 runs ``recombine``, or ``axpy`` then ``scale`` by 1/2, on the
second run; pass 3 runs ``inverse_butterflies``, or ``double``, on both.
Pass 4 is ``fold_tail`` and three ``scale`` runs.
"""

from .ring import pow_by_squaring
from .tft import TransformPlan, branch_level, checked_ring, fold_tail
# pair_stream and twiddle_inverse stay bound here for the benchmark's
# tracer, as pair_stream does in tft.py; no pass calls either
from .twiddle import bit_reverse, pair_stream, twiddle_forward, twiddle_inverse  # noqa: F401

__all__ = ["itft_in_place"]


def itft_in_place(plan: TransformPlan, buffer, ring=None) -> None:
    """Overwrite buffer, holding a forward-transform image, with its
    preimage.  ring, the errors raised and the ell = 1 case are as for
    ``tft_in_place``.
    """
    ring = checked_ring(plan, buffer, ring)
    if plan.ell == 1:
        buffer[0] %= ring.modulus
        return
    ascend_levels(plan, buffer, ring)
    branch_recombine(plan, buffer, ring)
    branch_finish(plan, buffer, ring)
    scale_and_close(plan, buffer, ring)


def ascend_levels(plan: TransformPlan, buffer, ring) -> None:
    """Pass 1: the forward pass 4 in reverse, level pair by level pair
    from the bottom, each pair one ``inverse_radix4`` call that takes
    block 0 by itself, then the unpaired top level; [[1,1],[a,-a]] needs
    no halving.  The reciprocal twiddles are those of the pair stream
    seeded with psi^-1, built once when ell >= 6, exactly when some
    level pair has a block past block 0 (ell >= 8) or a leftover block
    (ell = 6, 7); a leftover block's twiddle is a power of it too.
    iota^-1 = -iota = p - iota."""
    ell = plan.ell
    m = plan.m
    iota = plan.iota
    psi_inv = ring.root_power(plan.psi, (1 << m) - 1) if ell >= 6 else None
    for k in range(1, m - 1, 2):
        size = 1 << (k - 1)
        q = ell >> (k + 1)
        if ell >> k & 1:
            alpha = twiddle_forward(ring, m, psi_inv, 2 * q)
            ring.inverse_butterflies(buffer, 4 * q * size, (4 * q + 1) * size, size, alpha)
        ring.inverse_radix4(buffer, size, iota, m - 1, psi_inv, q)
    if m % 2 == 0:
        size = 1 << (m - 2)
        ring.fold(buffer, 0, size, size)
        if ell >> (m - 1) > 1:
            ring.inverse_butterflies(buffer, 2 * size, 3 * size, size, ring.modulus - iota)


def branch_recombine(plan: TransformPlan, buffer, ring) -> None:
    """Pass 2: descending recombination of head and mirrored entries, on
    each level's second run."""
    rev = bit_reverse(plan.ell % (1 << plan.m), plan.m)
    for k in range(plan.m - 2, plan.v, -1):
        e, _, _, dist, lo2, hi2, dist2 = branch_level(plan, rev, k)
        alpha = ring.root_power(plan.psi, e)
        if dist > 0:
            ring.recombine(buffer, lo2, hi2, dist2, alpha)
        else:
            ring.axpy(buffer, lo2, hi2, dist2, alpha)
            ring.scale(buffer, lo2, hi2, plan.half)


def branch_finish(plan: TransformPlan, buffer, ring) -> None:
    """Pass 3: re-descent finishing the tail entries over both runs: the
    butterflies of [[1,1],[a',-a']] with the reciprocal twiddle
    a' = psi^(2^m - e) when the partial block has a tail, else the
    doubling step x <- 2x - a*y."""
    rev = bit_reverse(plan.ell % (1 << plan.m), plan.m)
    for k in range(plan.v, plan.m - 1):
        e, lo, hi, dist, lo2, hi2, dist2 = branch_level(plan, rev, k)
        if dist > 0:
            alpha = ring.root_power(plan.psi, (1 << plan.m) - e)
            ring.inverse_butterflies(buffer, lo, hi, dist, alpha)
            ring.inverse_butterflies(buffer, lo2, hi2, dist2, alpha)
        else:
            alpha = ring.root_power(plan.psi, e)
            ring.double(buffer, lo, hi, dist, alpha)
            ring.double(buffer, lo2, hi2, dist2, alpha)


def scale_and_close(plan: TransformPlan, buffer, ring) -> None:
    """Pass 4: the forward kernel's pass 1, ``fold_tail``, closes the top
    level, then one sweep in three runs settles the deferred halvings."""
    fold_tail(plan, buffer, ring)
    m = plan.m
    half = plan.half
    half_len = 1 << (m - 1)
    lo = plan.ell - half_len
    middle = pow_by_squaring(ring.mul_pow2, half, m - 1)
    # at m = 1 no entry is in the middle and middle is 1: take half itself
    folded = ring.mul_pow2(half, middle) if m > 1 else half
    ring.scale(buffer, 0, lo, folded)
    ring.scale(buffer, lo, half_len, middle)
    ring.scale(buffer, half_len, plan.ell, folded)
