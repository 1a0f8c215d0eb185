"""In-place forward truncated Fourier transform.

``tft_in_place`` overwrites a length-ell buffer (a_0, ..., a_{ell-1})
with the evaluations f(psi^bit_reverse(i, m)) for i < ell, where f is
the polynomial with the buffer as coefficients, m = ceil(log2 ell), and
psi has order 2^m.  No auxiliary array is allocated: every read and
write lands inside the buffer, and the scratch state is a handful of
scalars.

The kernel runs in four passes, each a function of (plan, buffer, ring):

1. ``fold_tail``: fold the tail half onto the head (the missing inputs
   beyond ell are zero, so the first butterfly level degenerates to
   sums/differences that fit in place);
2. ``branch_descent``: descend the rightmost branch of the butterfly
   tree, producing the tail entries of each level; where a full
   butterfly would need a slot that does not exist, a division-free 2x2
   step [[0,1],[1,-a]] stashes the surviving combination instead;
3. ``branch_restore``: walk back up restoring the head entries the
   descent borrowed, via the inverse step [[2a,1],[1,0]] (the doubling
   is an addition, so the pass divides by nothing);
4. ``prefix_levels``: run plain butterfly levels over the completed
   prefix, with twiddles drained from the streaming pair generator.

Passes 1 and 4 hand whole levels to the ring's block operations
(``fold``, ``butterflies``); the rightmost-branch passes 2-3 touch
O(ell) entries and stay scalar, one ring call per operation.

Multiplication counts stay within (ell/2)log2(ell) + O(ell) ring
multiplications and ell*floor(log2 ell) + 2*ell additions; the exact
bounds are asserted in the test suite against instrumented rings.
"""

from __future__ import annotations

from operator import index

from ._frozen import Frozen
from .ring import PrimeField
from .twiddle import pair_stream, twiddle_forward

__all__ = ["TransformPlan", "make_plan", "tft_in_place"]


class TransformPlan(Frozen):
    """Shared per-length state for the forward and inverse transforms.

    field -- the PrimeField the transforms run over
    ell   -- transform length, 1 <= ell <= 2^field.two_adicity
    m     -- ceil(log2 ell); 0 when ell = 1
    v     -- largest v with 2^v dividing ell
    psi   -- element of order 2^m (the evaluation-point generator)
    half  -- inverse of 2, used only by the inverse transform
    """

    __slots__ = ("field", "ell", "m", "v", "psi", "half")


def make_plan(field: PrimeField, ell: int) -> TransformPlan:
    ell = index(ell)
    if ell < 1:
        raise ValueError("transform length must be at least 1")
    m = (ell - 1).bit_length()
    if m > field.two_adicity:
        raise ValueError(
            f"length {ell} exceeds the 2^{field.two_adicity} transform "
            f"capacity of the field"
        )
    v = (ell & -ell).bit_length() - 1
    # (p + 1) / 2 is the inverse of 2 for odd p, without an exponentiation
    half = (field.modulus + 1) // 2
    return TransformPlan(field, ell, m, v, field.root_of_order(m), half)


def branch_levels(plan: TransformPlan, ks):
    """Yield the rightmost-branch geometry of each level k in ks, as
    (q, r, size, head, alias, aliased_head).

    At level k the buffer holds 2q complete blocks of size = 2^k and
    r = ell - 2^k * 2q entries past them, in the partial butterfly block
    q; its twiddle is twiddle_forward(ring, m, psi, q), as every level's
    block q has.  With q' = q - 2^(m-k-2):

        head          2^k * 2q       start of the partial block
        alias         2^k * (2q'+1)  the borrowed slots
        aliased_head  2^k * 2q'      the head the borrowed slots pair with

    The partial block's own tail, 2^k * (2q+1) = head + size, exists
    only when r > size, so the kernels derive it there.
    """
    ell = plan.ell
    m = plan.m
    for k in ks:
        q = ell >> (k + 1)
        qp = q - (1 << (m - k - 2))
        head = q << (k + 1)
        yield q, ell - head, 1 << k, head, (2 * qp + 1) << k, qp << (k + 1)


def checked_ring(plan: TransformPlan, buffer, ring):
    """The ring a kernel runs on, after the buffer/ring contract checks
    both kernels share.

    ring defaults to plan.field and must share its modulus; buffer must
    have plan.ell entries, each of type int exactly (numpy scalars and
    floats would compute in their own arithmetic; bool is refused with
    them).  The scan allocates a few hundred bytes, freed before pass 1.
    """
    if ring is None:
        ring = plan.field
    elif ring.modulus != plan.field.modulus:
        raise ValueError(
            f"ring modulus {ring.modulus} != plan modulus {plan.field.modulus}"
        )
    if len(buffer) != plan.ell:
        raise ValueError(f"buffer length {len(buffer)} != plan length {plan.ell}")
    bad = set(map(type, buffer)) - {int}
    if bad:
        names = ", ".join(sorted(kind.__name__ for kind in bad))
        raise TypeError(f"buffer entries must be Python ints, got {names}")
    return ring


def tft_in_place(plan: TransformPlan, buffer, ring=None) -> None:
    """Overwrite buffer with its truncated Fourier transform.

    ring defaults to plan.field; pass an instrumented ring with the
    same modulus to observe operation counts.  Raises ValueError when
    the buffer length or the ring's modulus does not match the plan,
    and TypeError when an entry is not a Python int.  At ell = 1 the
    transform is the identity, so the entry is only reduced mod p.
    """
    ring = checked_ring(plan, buffer, ring)
    if plan.ell == 1:
        buffer[0] %= ring.modulus
        return
    fold_tail(plan, buffer, ring)
    branch_descent(plan, buffer, ring)
    branch_restore(plan, buffer, ring)
    prefix_levels(plan, buffer, ring)


def fold_tail(plan: TransformPlan, buffer, ring) -> None:
    """Pass 1: fold the tail half onto the head."""
    half_len = 1 << (plan.m - 1)
    ring.fold(buffer, 0, plan.ell - half_len, half_len)


def branch_descent(plan: TransformPlan, buffer, ring) -> None:
    """Pass 2: rightmost-branch descent (runs only when ell < 2^m)."""
    m = plan.m
    psi = plan.psi
    add = ring.add
    sub = ring.sub
    mul = ring.mul_root
    for q, r, size, head, alias, aliased_head in branch_levels(plan, range(m - 2, plan.v - 1, -1)):
        alpha = twiddle_forward(ring, m, psi, q)
        if r > size:
            tail = head + size
            for j in range(r - size):
                u = buffer[head + j]
                w = buffer[tail + j]
                t = mul(alpha, w)
                buffer[head + j] = add(u, t)
                buffer[tail + j] = sub(u, t)
            for j in range(r - size, size):
                # [[0,1],[1,-alpha]]: keep only the surviving combination,
                # parking the partner where pass 3 can recover it
                u = buffer[head + j]
                w = buffer[alias + j]
                buffer[head + j] = w
                buffer[alias + j] = sub(u, mul(alpha, w))
        else:
            for j in range(r):
                buffer[head + j] = add(buffer[head + j], mul(alpha, buffer[alias + j]))
            for j in range(r, size):
                buffer[aliased_head + j] = add(
                    buffer[aliased_head + j], mul(alpha, buffer[alias + j])
                )


def branch_restore(plan: TransformPlan, buffer, ring) -> None:
    """Pass 3: restore the borrowed head entries, bottom level upward."""
    m = plan.m
    psi = plan.psi
    add = ring.add
    sub = ring.sub
    mul = ring.mul_root
    for q, r, size, head, alias, aliased_head in branch_levels(plan, range(plan.v + 1, m - 1)):
        alpha = twiddle_forward(ring, m, psi, q)
        if r > size:
            for j in range(r - size, size):
                # [[2a,1],[1,0]] undoes the parking step; 2au = au + au
                u = buffer[head + j]
                w = buffer[alias + j]
                t = mul(alpha, u)
                buffer[head + j] = add(add(t, t), w)
                buffer[alias + j] = u
        else:
            for j in range(r, size):
                buffer[aliased_head + j] = sub(
                    buffer[aliased_head + j], mul(alpha, buffer[alias + j])
                )


def prefix_levels(plan: TransformPlan, buffer, ring) -> None:
    """Pass 4: butterfly levels over the completed prefix; block 0 is a
    fold, the twiddles of blocks 1..q-1 come from the pair stream."""
    ell = plan.ell
    m = plan.m
    psi = plan.psi
    for k in range(m - 2, -1, -1):
        size = 1 << k
        ring.fold(buffer, 0, size, size)
        q = ell >> (k + 1)
        if q > 1:
            ring.butterflies(buffer, size, pair_stream(ring, m, psi, q))
