"""Polynomial multiplication through the truncated transform.

The product of f and g has len(f) + len(g) - 1 coefficients, so that
many evaluation points determine it exactly: transform both inputs at
precisely that length, multiply pointwise, transform back.  Because
nothing is padded to a power of two, the operation count grows smoothly
with the output length instead of doubling whenever it crosses one.
"""

from __future__ import annotations

from operator import index

from .itft import itft_in_place
from .tft import make_plan, tft_in_place

__all__ = ["tft_polymul", "operation_profile"]


def tft_polymul(f, g, field, ring=None) -> list[int]:
    """Exact product coefficients, length len(f) + len(g) - 1.

    Coefficients may be any integer-like values (anything with
    __index__, such as numpy integers); they are reduced mod p first.

    The output length must not exceed the field's transform capacity
    2^two_adicity.  ring defaults to the field itself; pass a counting
    ring to measure the cost.
    """
    if len(f) == 0 or len(g) == 0:
        raise ValueError("inputs must be nonempty")
    if ring is None:
        ring = field
    p = field.modulus
    ell = len(f) + len(g) - 1
    plan = make_plan(field, ell)
    # index(), unlike int(), rejects floats instead of truncating them
    fbuf = [index(x) % p for x in f] + [0] * (ell - len(f))
    gbuf = [index(x) % p for x in g] + [0] * (ell - len(g))
    tft_in_place(plan, fbuf, ring)
    tft_in_place(plan, gbuf, ring)
    mul = ring.mul
    for i in range(ell):
        fbuf[i] = mul(fbuf[i], gbuf[i])
    itft_in_place(plan, fbuf, ring)
    return fbuf


def operation_profile(field, lengths) -> dict[int, int]:
    """Total operation count of a balanced product per output length.

    For each requested output length ell, multiplies factors of
    ceil((ell+1)/2) and floor((ell+1)/2) coefficients under a counting
    ring and records the sum of all four counter classes.  Counts are
    input-independent, so zero coefficients measure the real cost.
    """
    from .instrumentation import CountingField

    profile: dict[int, int] = {}
    for ell in lengths:
        if ell < 1:
            raise ValueError("output lengths must be at least 1")
        size_f = (ell + 2) // 2
        size_g = ell + 1 - size_f
        ring = CountingField(field.modulus)
        tft_polymul([0] * size_f, [0] * size_g, field, ring)
        profile[ell] = ring.counters.total
    return profile
