"""Brute-force references for testing the fast kernels against.

Everything here is deliberately independent of the transform code: no
shared exponentiation helpers or bit reversal, arithmetic through
builtin pow and explicit remainders, bit reversal by reversing the
binary string, pure Python throughout.  No function changes its
inputs, but for the list direct_differences is given to overwrite.
They are slow by design; tests keep lengths small.

``direct_differences`` is the one direct evaluation: it overwrites each
entry of a given list with the polynomial's value there minus that
entry, a group of four points at a time, holding no generator, iterator
chain or per-group container.  ``naive_tft`` passes it a list of zeros,
so the list comes back holding the values; the selftest's oracle family
passes it the kernel's output, which comes back all zeros exactly when
every entry was the value.
"""

__all__ = ["naive_tft", "direct_differences", "naive_polymul"]


def naive_tft(field, psi: int, ell: int, a) -> list[int]:
    """Evaluate the polynomial with coefficients a at the ell points
    psi^bit_reverse(i, m), i < ell: ``direct_differences`` from zeros.

    m = ceil(log2 ell); psi must have order exactly 2^m.
    """
    return direct_differences(field, psi, ell, a, [0] * ell)


def direct_differences(field, psi: int, ell: int, a, out: list) -> list:
    """Set out[j] to the polynomial's value at the point j of naive_tft
    minus out[j], for each j < ell, and return out.

    The values are residues in [0, p) and the differences are exact, not
    reduced, so out comes back all zeros exactly when it held the values
    themselves, as canonical residues.

    Points 2j and 2j+1 are x and -x, as psi^(2^(m-1)) = -1, and points
    4j+2 and 4j+3 are ix and -ix, with i = psi^(2^(m-2)) a square root
    of -1.  With A0..A3 the polynomials of a's coefficients at indices
    0..3 mod 4, each taken at x^4, a group of four points is

        f(+-x)  = (A0 + x^2 A2) +- x (A1 + x^2 A3)
        f(+-ix) = (A0 - x^2 A2) +- ix (A1 - x^2 A3)

    so one Horner pass, four coefficients a step from the end, gives a
    group's values in ell/4 steps.  A group that ell cuts short sets
    only its first points; an odd ell leaves its last point unpaired.
    a may be any sequence of Python ints, an ``array`` included; it is
    read by index, never copied.  Raises ValueError for a bad length or
    psi, or when a or out does not hold ell entries, and TypeError when
    an entry of a is not an int.
    """
    p = field.modulus
    _check_point_generator(p, psi, ell, a)
    if len(out) != ell:
        raise ValueError(f"expected {ell} outputs, got {len(out)}")
    m = (ell - 1).bit_length()
    # i for m >= 2; below that a group has at most two points and i is unread
    i = pow(psi, 1 << m >> 2, p)
    digits = f"0{m}b"  # bit reversal by string reversal, its format made once
    # the top step is the coefficients from low up, with zeros above a[ell - 1]
    low = ell & -4
    top0 = a[low] if low < ell else 0
    top1 = a[low + 1] if low + 1 < ell else 0
    top2 = a[low + 2] if low + 2 < ell else 0
    for start in range(0, ell, 4):
        x = pow(psi, int(format(start, digits)[::-1], 2), p)
        x2 = x * x % p
        z = x2 * x2 % p
        a0, a1, a2, a3 = top0, top1, top2, 0
        k = low
        while k:  # indexes a step's lowest coefficient, no iterator made
            k -= 4
            a3 = (a3 * z + a[k + 3]) % p
            a2 = (a2 * z + a[k + 2]) % p
            a1 = (a1 * z + a[k + 1]) % p
            a0 = (a0 * z + a[k]) % p
        even, odd = a0 + x2 * a2, x * (a1 + x2 * a3)
        out[start] = (even + odd) % p - out[start]
        if start + 1 < ell:
            out[start + 1] = (even - odd) % p - out[start + 1]
        if start + 2 < ell:
            even, odd = a0 - x2 * a2, i * x * (a1 - x2 * a3)
            out[start + 2] = (even + odd) % p - out[start + 2]
            if start + 3 < ell:
                out[start + 3] = (even - odd) % p - out[start + 3]
    return out


def naive_polymul(field, f, g) -> list[int]:
    """Schoolbook product of two coefficient sequences, length
    len(f) + len(g) - 1."""
    p = field.modulus
    if len(f) == 0 or len(g) == 0:
        raise ValueError("inputs must be nonempty")
    out = [0] * (len(f) + len(g) - 1)
    for i, x in enumerate(f):
        for j, y in enumerate(g):
            out[i + j] = (out[i + j] + x * y) % p
    return out


def _check_point_generator(p: int, psi: int, ell: int, a) -> None:
    if ell < 1:
        raise ValueError("length must be at least 1")
    if len(a) != ell:
        raise ValueError(f"expected {ell} values, got {len(a)}")
    bad = set(map(type, a))  # one pass, as tft.checked_ring scans a buffer
    bad.discard(int)
    if bad:
        names = ", ".join(sorted(kind.__name__ for kind in bad))
        raise TypeError(f"coefficients must be Python ints, got {names}")
    m = (ell - 1).bit_length()
    if m == 0:
        if psi % p != 1:
            raise ValueError("psi must be 1 for a length-1 transform")
    elif pow(psi, 1 << (m - 1), p) != p - 1:
        raise ValueError("psi must have order 2^ceil(log2 ell)")
