"""Bit reversal of transform indices."""

from __future__ import annotations


def bit_reverse(i: int, k: int) -> int:
    """Reverse the k low bits of i.  Requires 0 <= i < 2^k."""
    if k < 0 or i >> k:
        raise ValueError(f"index {i} does not fit in {k} bits")
    out = 0
    for _ in range(k):
        out = (out << 1) | (i & 1)
        i >>= 1
    return out

