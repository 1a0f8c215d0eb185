"""In-place inverse truncated Fourier transform.

``itft_in_place`` undoes ``tft_in_place``: given the ell evaluations it
recovers the ell coefficients, in the same buffer, with O(1) scratch.

A plain reversal of the forward pass would need an inverse butterfly
per forward butterfly, and the inverse of [[1,a],[1,-a]] drags in a
factor 2^-1 at every level.  Instead the kernel tracks the transform
scaled by 2^level: the inverse butterfly then becomes the division-free
[[1,1],[a',-a']] with a' the reciprocal twiddle, and all the deferred
halvings collapse into one final scaling pass by powers of 2^-1.

Passes, mirroring the forward kernel in reverse:

1. ascending butterfly levels over the completed prefix, reciprocal
   twiddles drained from the pair generator seeded with psi^-1;
2. descending rightmost-branch pass recombining head and borrowed
   entries (x <- x - a*y, and the halving branch x <- (x + a*y)/2);
3. re-descent finishing the tail entries (x <- 2x - a*y, the doubling
   an addition);
4. final scaling of the middle segment by (2^-1)^(m-1) and closing
   scaled butterflies on the folded head.
"""

from __future__ import annotations

from .tft import TransformPlan, branch_levels
from .twiddle import pair_stream, twiddle_forward, twiddle_inverse

__all__ = ["itft_in_place"]


def itft_in_place(plan: TransformPlan, buffer, ring=None) -> None:
    """Overwrite buffer, holding a forward-transform image, with its
    preimage.

    ring defaults to plan.field; pass an instrumented ring with the
    same modulus to observe operation counts.
    """
    if ring is None:
        ring = plan.field
    ell = plan.ell
    if len(buffer) != ell:
        raise ValueError(f"buffer length {len(buffer)} != plan length {ell}")
    if ell == 1:
        return

    m = plan.m
    v = plan.v
    psi = plan.psi
    half = plan.half
    add = ring.add
    sub = ring.sub
    mul = ring.mul_root
    mul2 = ring.mul_pow2
    half_len = 1 << (m - 1)

    # pass 1: ascending levels; [[1,1],[a,-a]] needs no halving
    psi_inv = None
    for k in range(m - 1):
        q = ell >> (k + 1)
        size = 1 << k
        for j in range(size):
            jj = size + j
            u = buffer[j]
            w = buffer[jj]
            buffer[j] = add(u, w)
            buffer[jj] = sub(u, w)
        if q < 2:
            continue
        if psi_inv is None:
            psi_inv = ring.pow_root(psi, (1 << m) - 1)
        for i, alpha in pair_stream(ring, m, psi_inv, q):
            base = i << (k + 1)
            for j in range(base, base + size):
                jj = size + j
                u = buffer[j]
                w = buffer[jj]
                buffer[j] = add(u, w)
                buffer[jj] = mul(alpha, sub(u, w))

    # pass 2: descending recombination of head and borrowed entries
    for k, q, r, size, head, alias, aliased_head in branch_levels(plan, range(m - 2, v, -1)):
        alpha = twiddle_forward(ring, m, psi, k, q)
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

    # pass 3: re-descent finishing the tail entries
    for k, q, r, size, head, alias, aliased_head in branch_levels(plan, range(v, m - 1)):
        if r > size:
            alpha = twiddle_inverse(ring, m, psi, k, q)
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
            alpha = twiddle_forward(ring, m, psi, k, q)
            for j in range(r):
                u = buffer[head + j]
                buffer[head + j] = sub(add(u, u), mul(alpha, buffer[alias + j]))
            for j in range(r, size):
                u = buffer[aliased_head + j]
                buffer[aliased_head + j] = sub(
                    add(u, u), mul(alpha, buffer[alias + j])
                )

    # pass 4: settle the deferred halvings in one scaling sweep
    scale = ring.pow_pow2(half, m - 1)
    for j in range(ell - half_len, half_len):
        buffer[j] = mul2(scale, buffer[j])
    scale = mul2(half, scale)
    for j in range(ell - half_len):
        jj = half_len + j
        u = buffer[j]
        w = buffer[jj]
        buffer[j] = mul2(scale, add(u, w))
        buffer[jj] = mul2(scale, sub(u, w))
