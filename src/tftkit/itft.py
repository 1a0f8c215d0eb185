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
   prefix, reciprocal twiddles drained from the pair generator seeded
   with psi^-1, run through the ring's block operations (``fold``,
   ``inverse_butterflies``);
2. ``branch_recombine``: descending rightmost-branch pass recombining
   head and borrowed entries (x <- x - a*y, and the halving branch
   x <- (x + a*y)/2);
3. ``branch_finish``: re-descent finishing the tail entries
   (x <- 2x - a*y, the doubling an addition);
4. ``scale_and_close``: the forward kernel's pass-1 fold, then one
   sweep by (2^-1)^m, or by (2^-1)^(m-1) on the entries the fold skips.

Passes 2-3 touch O(ell) entries and stay scalar.
"""

from __future__ import annotations

from .ring import pow_by_squaring
from .tft import TransformPlan, branch_levels, checked_ring
from .twiddle import pair_stream, twiddle_forward, twiddle_inverse

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
    """Pass 1: ascending levels; [[1,1],[a,-a]] needs no halving."""
    ell = plan.ell
    m = plan.m
    psi_inv = None
    for k in range(m - 1):
        size = 1 << k
        ring.fold(buffer, 0, size, size)
        q = ell >> (k + 1)
        if q < 2:
            continue
        if psi_inv is None:
            psi_inv = pow_by_squaring(ring.mul_root, plan.psi, (1 << m) - 1)
        ring.inverse_butterflies(buffer, size, pair_stream(ring, m, psi_inv, q))


def branch_recombine(plan: TransformPlan, buffer, ring) -> None:
    """Pass 2: descending recombination of head and borrowed entries."""
    m = plan.m
    psi = plan.psi
    half = plan.half
    add = ring.add
    sub = ring.sub
    mul = ring.mul_root
    mul2 = ring.mul_pow2
    for q, r, size, head, alias, aliased_head in branch_levels(plan, range(m - 2, plan.v, -1)):
        alpha = twiddle_forward(ring, m, psi, q)
        if r > size:
            for j in range(r - size, size):
                buffer[alias + j] = sub(
                    buffer[head + j], mul(alpha, buffer[alias + j])
                )
        else:
            for j in range(r, size):
                buffer[aliased_head + j] = mul2(
                    half,
                    add(buffer[aliased_head + j], mul(alpha, buffer[alias + j])),
                )


def branch_finish(plan: TransformPlan, buffer, ring) -> None:
    """Pass 3: re-descent finishing the tail entries."""
    m = plan.m
    psi = plan.psi
    add = ring.add
    sub = ring.sub
    mul = ring.mul_root
    for q, r, size, head, alias, aliased_head in branch_levels(plan, range(plan.v, m - 1)):
        if r > size:
            alpha = twiddle_inverse(ring, m, psi, q)
            tail = head + size
            for j in range(r - size):
                u = buffer[head + j]
                w = buffer[tail + j]
                buffer[head + j] = add(u, w)
                buffer[tail + j] = mul(alpha, sub(u, w))
            for j in range(r - size, size):
                u = buffer[head + j]
                w = buffer[alias + j]
                buffer[head + j] = add(u, w)
                buffer[alias + j] = mul(alpha, sub(u, w))
        else:
            alpha = twiddle_forward(ring, m, psi, q)
            for j in range(r):
                u = buffer[head + j]
                buffer[head + j] = sub(add(u, u), mul(alpha, buffer[alias + j]))
            for j in range(r, size):
                u = buffer[aliased_head + j]
                buffer[aliased_head + j] = sub(
                    add(u, u), mul(alpha, buffer[alias + j])
                )


def scale_and_close(plan: TransformPlan, buffer, ring) -> None:
    """Pass 4: the forward kernel's pass-1 fold closes the top level, then
    one sweep settles the deferred halvings."""
    m = plan.m
    half = plan.half
    half_len = 1 << (m - 1)
    lo = plan.ell - half_len
    mul2 = ring.mul_pow2
    ring.fold(buffer, 0, lo, half_len)
    middle = pow_by_squaring(mul2, half, m - 1)
    # at m = 1 no entry is in the middle and middle is 1: take half itself
    folded = mul2(half, middle) if m > 1 else half
    for j in range(plan.ell):
        buffer[j] = mul2(middle if lo <= j < half_len else folded, buffer[j])
