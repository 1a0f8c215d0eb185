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
   butterfly would need a slot j >= ell, a division-free 2x2 step
   [[0,1],[1,-a]] keeps the surviving combination at the slot's mirror
   j - 2^(m-1) instead, inside [ell - 2^(m-1), 2^(m-1)): the entries
   pass 1 leaves unpaired;
3. ``branch_restore``: walk back up restoring the mirrored entries, via
   the inverse step [[2a,1],[1,0]] (the doubling is an addition, so the
   pass divides by nothing);
4. ``prefix_levels``: run the butterfly levels over the completed
   prefix two at a time, each pair in one radix-4 sweep: block 0, and
   then the blocks and twiddles of the geometric runs of one pair
   stream, which the ring walks itself from (m-1, psi, q).

Passes 1 and 4 hand whole levels to the ring's block operations
(``fold``, one ``radix4`` call per level pair, and ``butterflies`` for
a leftover half block and the unpaired top level).  The
rightmost-branch passes 2-3 touch O(ell) entries, also as block runs.
``branch_level`` is their one source of geometry: per level it returns
two runs of pairs (j, j + dist), with dist > 0 exactly when the
partial block has a tail.  By that sign the passes only pick the ring
members for the runs: ``butterflies`` then ``park``, or ``axpy``
twice, on the way down; ``restore`` or ``axpy`` on the second run on
the way up.

Multiplication counts stay within (ell/2)log2(ell) + O(ell) ring
multiplications and ell*floor(log2 ell) + 2*ell additions; the exact
bounds are asserted in the test suite against instrumented rings.
"""

from operator import index

from ._frozen import Frozen
from .ring import PrimeField
# pair_stream is not called here: the ring's radix-4 members walk its
# runs themselves.  The name stays bound because perfbench/spans.py
# rebinds it in this module, and tests/test_public_names.py requires
# every name it rebinds to be bound, until the benchmark is rekeyed.
from .twiddle import bit_reverse, pair_stream, twiddle_forward  # noqa: F401

__all__ = ["TransformPlan", "make_plan", "tft_in_place"]


class TransformPlan(Frozen):
    """Per-length state for both transforms, derived from (field, ell).

    field -- the PrimeField the transforms run over
    ell   -- transform length, 1 <= ell <= 2^field.two_adicity (else
             ValueError); operator.index refuses a float or a str
    m     -- ceil(log2 ell); 0 when ell = 1
    v     -- largest v with 2^v dividing ell
    psi   -- element of order 2^m (the evaluation-point generator)
    half  -- inverse of 2, used only by the inverse transform
    iota  -- field.root_of_order(2), which is psi^(2^(m-2)) whenever
             m >= 2: the twiddle ratio inside a radix-4 block; None when
             the field's two-adicity is below 2 (then m <= 1)
    """

    __slots__ = ("field", "ell", "m", "v", "psi", "half", "iota")

    def __init__(self, field: PrimeField, ell: int) -> None:
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
        iota = field.root_of_order(2) if field.two_adicity >= 2 else None
        super().__init__(field, ell, m, v, field.root_of_order(m), half, iota)


make_plan = TransformPlan


def branch_level(plan: TransformPlan, rev: int, k: int):
    """The rightmost-branch geometry of level k, as (e, lo, hi, dist,
    lo2, hi2, dist2): the twiddle exponent and the level's two runs,
    each the pairs (j, j + dist) for j in [lo, hi).  rev is
    bit_reverse(ell % 2^m, m), which a pass computes once for all its
    levels.

    At level k the buffer holds complete blocks of size = 2^k up to
    head = 2^k * 2q, q = ell >> (k+1), and ell - head entries past them,
    in the partial butterfly block q; its twiddle is psi^e with
    e = bit_reverse(q, m-1), as every level's block q has.  q is ell's
    bits above k, so e is rev shifted left by k and cut to m-1 bits
    (ell = 2^m has no such levels).

    Between them the two runs take each pair (j, j + size) of the
    partial block once, starting at lo = head.  A slot j >= ell that the
    block lacks is kept at its mirror j - 2^(m-1), inside
    [ell - 2^(m-1), 2^(m-1)): the entries the top-level fold leaves
    unpaired.  dist > 0 exactly when the block has a tail,
    ell > head + size: the first run is its full butterflies (dist =
    size) and the second its tail against mirrored partners (dist2 < 0).
    Otherwise dist < 0: the first run pairs the slots below ell with
    their partners' mirrors, and the second pairs the mirrors of the
    slots at ell and above with their partners (dist2 = size).
    """
    ell = plan.ell
    half_len = 1 << (plan.m - 1)
    e = (rev << k) & (half_len - 1)
    size = 1 << k
    head = ell >> (k + 1) << (k + 1)
    if ell > head + size:
        return e, head, ell - size, size, ell - size, head + size, size - half_len
    return e, head, ell, size - half_len, ell - half_len, head + size - half_len, size


def checked_ring(plan: TransformPlan, buffer, ring):
    """The ring a kernel runs on, after the buffer/ring contract checks
    both kernels share.

    ring defaults to plan.field and must share its modulus; buffer must
    have plan.ell entries, each of type int exactly (numpy scalars and
    floats would compute in their own arithmetic; bool is refused with
    them).  The scan allocates one small set, freed before pass 1.
    """
    if ring is None:
        ring = plan.field
    elif ring.modulus != plan.field.modulus:
        raise ValueError(
            f"ring modulus {ring.modulus} != plan modulus {plan.field.modulus}"
        )
    if len(buffer) != plan.ell:
        raise ValueError(f"buffer length {len(buffer)} != plan length {plan.ell}")
    bad = set(map(type, buffer))  # one set: a difference would make two more
    bad.discard(int)
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
    """Pass 1: fold the tail half_len onto the head."""
    half_len = 1 << (plan.m - 1)
    ring.fold(buffer, 0, plan.ell - half_len, half_len)


def branch_descent(plan: TransformPlan, buffer, ring) -> None:
    """Pass 2: rightmost-branch descent (runs only when ell < 2^m); each
    level is the two runs of its ``branch_level``, each one ring call."""
    rev = bit_reverse(plan.ell % (1 << plan.m), plan.m)
    for k in range(plan.m - 2, plan.v - 1, -1):
        e, lo, hi, dist, lo2, hi2, dist2 = branch_level(plan, rev, k)
        alpha = ring.root_power(plan.psi, e)
        if dist > 0:
            ring.butterflies(buffer, lo, hi, dist, alpha)
            # [[0,1],[1,-alpha]]: keep only the surviving combination,
            # parking the partner at its mirror, where pass 3 recovers it
            ring.park(buffer, lo2, hi2, dist2, alpha)
        else:
            ring.axpy(buffer, lo, hi, dist, alpha)
            ring.axpy(buffer, lo2, hi2, dist2, alpha)


def branch_restore(plan: TransformPlan, buffer, ring) -> None:
    """Pass 3: restore the mirrored entries of each level's second run,
    bottom level upward."""
    rev = bit_reverse(plan.ell % (1 << plan.m), plan.m)
    for k in range(plan.v + 1, plan.m - 1):
        e, _, _, dist, lo2, hi2, dist2 = branch_level(plan, rev, k)
        alpha = ring.root_power(plan.psi, e)
        if dist > 0:
            # [[2a,1],[1,0]] undoes the parking step
            ring.restore(buffer, lo2, hi2, dist2, alpha)
        else:
            # x - alpha*y as x + (p - alpha)*y: the same residue and counts
            ring.axpy(buffer, lo2, hi2, dist2, ring.modulus - alpha)


def prefix_levels(plan: TransformPlan, buffer, ring) -> None:
    """Pass 4: butterfly levels m-2 .. 0 over the completed prefix, two
    per sweep, paired from the bottom: (1, 0), (3, 2), ...

    A pair (k, k-1) with size = 2^(k-1) and q = ell >> (k+1) runs
    blocks 0..q-1 of 4*size entries through one ``ring.radix4`` call,
    each with b = psi^bit_reverse(i, m-2): level k's twiddle is b*b and
    level k-1's are b and b*iota.  The call takes block 0 (b = 1) by
    itself and blocks 1..q-1 as the geometric runs of the pair stream
    of m-1, which it walks from (m-1, psi, q) (none when q = 1); when
    bit k of ell is set, the level-(k-1) block 2q is left over, with its
    own twiddle.
    An odd level count leaves level m-2 unpaired: a fold, and block 1
    when ell = 2^m.
    """
    ell = plan.ell
    m = plan.m
    psi = plan.psi
    iota = plan.iota
    if m % 2 == 0:
        size = 1 << (m - 2)
        ring.fold(buffer, 0, size, size)
        if ell >> (m - 1) > 1:
            ring.butterflies(buffer, 2 * size, 3 * size, size, iota)
    for k in reversed(range(1, m - 1, 2)):
        size = 1 << (k - 1)
        q = ell >> (k + 1)
        ring.radix4(buffer, size, iota, m - 1, psi, q)
        if ell >> k & 1:
            alpha = twiddle_forward(ring, m, psi, 2 * q)
            ring.butterflies(buffer, 4 * q * size, (4 * q + 1) * size, size, alpha)
