"""Polynomial multiplication through the truncated transform.

The product of f and g has len(f) + len(g) - 1 coefficients, so that
many evaluation points determine it exactly: transform both inputs at
precisely that length, multiply pointwise, transform back.  Because
nothing is padded to a power of two, the operation count grows smoothly
with the output length instead of doubling whenever it crosses one.

Both transforms run in place on a list of ints.  For p < 2^64 only one
factor is such a list at a time: the other waits packed in an
``array``, so the product holds one list as large as its output and one
packed copy beside it.  The kernels never run on the array, where they
take longer.
"""

from operator import index

from .itft import itft_in_place
from .tft import make_plan, tft_in_place

__all__ = ["tft_polymul"]


def pack(values, p: int):
    """The residues mod p in values, packed: in an ``array`` of "I"
    (4-byte) items below 2^32, of "Q" (8-byte) items below 2^64.  Above
    that they stay in a list of ints: values itself when it is one."""
    if p >= 1 << 64:
        return values if type(values) is list else list(values)
    from array import array  # here, so that only a product or a selftest loads it

    return array("I" if p < 1 << 32 else "Q", values)


def tft_polymul(f, g, field, ring=None) -> list[int]:
    """Exact product coefficients, length len(f) + len(g) - 1.

    Coefficients may be any integer-like values (anything with
    __index__, such as numpy integers); they are reduced mod p first.
    f and g may be any iterables, each read once and never changed, so
    a generator that gives up its values as they are read lets the
    caller's copy go while the transform buffers fill.  Since the
    factors are read before they are checked, a non-integer coefficient
    raises TypeError before the ValueError of an empty factor or of a
    product beyond capacity.

    The output length must not exceed the field's transform capacity
    2^two_adicity.  ring defaults to the field itself; pass a counting
    ring to measure the cost.

    While f is transformed, g waits in an array of 4-byte items when
    p < 2^32, or of 8-byte items when p < 2^64; then f's transform waits
    so while g is transformed, multiplied into and transformed back in
    its own list, the one returned.  Beside the output the product thus
    holds 4 or 8 bytes an entry, where a second list of ints holds about
    40.  Larger moduli keep both factors as lists.
    """
    if ring is None:
        ring = field
    p = field.modulus
    # index(), unlike int(), rejects floats instead of truncating them
    fbuf = [index(x) % p for x in f]
    gbuf = [index(x) % p for x in g]
    if not fbuf or not gbuf:
        raise ValueError("inputs must be nonempty")
    ell = len(fbuf) + len(gbuf) - 1
    plan = make_plan(field, ell)
    gbuf = pack(gbuf, p)
    fbuf += [0] * (ell - len(fbuf))
    tft_in_place(plan, fbuf, ring)
    fbuf = pack(fbuf, p)
    gbuf = list(gbuf)
    gbuf += [0] * (ell - len(gbuf))
    tft_in_place(plan, gbuf, ring)
    mul = ring.mul
    for i in range(ell):
        gbuf[i] = mul(fbuf[i], gbuf[i])
    del fbuf
    itft_in_place(plan, gbuf, ring)
    return gbuf

