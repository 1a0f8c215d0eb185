"""Brute-force references for testing the fast kernels against.

Everything here is deliberately independent of the transform code: no
shared exponentiation helpers or bit reversal, arithmetic through
builtin pow and explicit remainders, bit reversal by reversing the
binary string, pure Python throughout.  No function changes its
inputs, but for the list direct_differences is given to overwrite.
They are slow by design; tests keep lengths small.

``direct_differences`` is the one direct evaluation: it overwrites each
entry of a given list with the polynomial's value there minus that
entry, a coset of eight points at a time, holding no generator, iterator
chain or per-coset container.  ``naive_tft`` passes it a list of zeros,
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

    Points 8j..8j+7 are the coset x{1, -1, i, -i, w, -w, iw, -iw}, with
    x = psi^bit_reverse(8j, m), i = psi^(2^(m-2)) a square root of -1
    and w = psi^(2^(m-3)) one of i.  With A0..A7 the polynomials of a's
    coefficients at indices 0..7 mod 8, each taken at x^8, and

        E_r = A_r + x^4 A_(r+4),  D_r = A_r - x^4 A_(r+4)  (r < 4),

    the coset is two groups of four, the second at y = wx, y^2 = i x^2:

        f(+-x)  = (E0 + x^2 E2) +- x (E1 + x^2 E3)
        f(+-ix) = (E0 - x^2 E2) +- ix (E1 - x^2 E3)
        f(+-y)  = (D0 + y^2 D2) +- y (D1 + y^2 D3)
        f(+-iy) = (D0 - y^2 D2) +- iy (D1 - y^2 D3)

    so one Horner pass, eight coefficients a step from the end, gives a
    coset's values in ell/8 steps.  A coset that ell cuts short sets
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
    # i for m >= 2; below that a coset has at most two points and i is
    # unread.  w is made where a coset's second group needs it, and the
    # bit-reversal format per coset: every int or str held through the
    # loop adds to the peak of the selftest's oracle family
    i = pow(psi, 1 << m >> 2, p)
    # the top step is the coefficients from low up, with zeros above a[ell - 1]
    low = ell & -8
    top = ell - low
    for start in range(0, ell, 8):
        x = pow(psi, int(format(start, f"0{m}b")[::-1], 2), p)
        # z is the power of x a stage multiplies by: x^8 in the Horner
        # pass, x^4 in the fold to two groups, x^2 in each group
        z = pow(x, 8, p)
        a0 = a[low] if top else 0
        a1 = a[low + 1] if top > 1 else 0
        a2 = a[low + 2] if top > 2 else 0
        a3 = a[low + 3] if top > 3 else 0
        a4 = a[low + 4] if top > 4 else 0
        a5 = a[low + 5] if top > 5 else 0
        a6 = a[low + 6] if top > 6 else 0
        a7 = 0
        k = low
        while k:  # indexes a step's lowest coefficient, no iterator made
            k -= 8
            a7 = (a7 * z + a[k + 7]) % p
            a6 = (a6 * z + a[k + 6]) % p
            a5 = (a5 * z + a[k + 5]) % p
            a4 = (a4 * z + a[k + 4]) % p
            a3 = (a3 * z + a[k + 3]) % p
            a2 = (a2 * z + a[k + 2]) % p
            a1 = (a1 * z + a[k + 1]) % p
            a0 = (a0 * z + a[k]) % p
        # a0..a3 become E_r, reduced, and a4..a7 D_r, each through the
        # product x^4 A_(r+4) stored in a_(r+4): no int beyond the eight
        z = pow(x, 4, p)
        a4 = z * a4 % p
        a0, a4 = (a0 + a4) % p, a0 - a4
        a5 = z * a5 % p
        a1, a5 = (a1 + a5) % p, a1 - a5
        a6 = z * a6 % p
        a2, a6 = (a2 + a6) % p, a2 - a6
        a7 = z * a7 % p
        a3, a7 = (a3 + a7) % p, a3 - a7
        z = x * x % p
        even, odd = a0 + z * a2, x * (a1 + z * a3)
        out[start] = (even + odd) % p - out[start]
        if start + 1 < ell:
            out[start + 1] = (even - odd) % p - out[start + 1]
        if start + 2 < ell:  # ix reduced first, so its product is one digit shorter
            even, odd = a0 - z * a2, i * x % p * (a1 - z * a3)
            out[start + 2] = (even + odd) % p - out[start + 2]
            if start + 3 < ell:
                out[start + 3] = (even - odd) % p - out[start + 3]
        if start + 4 < ell:
            x = pow(psi, 1 << m >> 3, p) * x % p  # y = wx, whose square is i x^2
            z = i * z % p
            a0, a1 = a4, a5  # D_r, so the group reads as the first and E_r is freed
            a2, a3 = a6, a7
            even, odd = a0 + z * a2, x * (a1 + z * a3)
            out[start + 4] = (even + odd) % p - out[start + 4]
            if start + 5 < ell:
                out[start + 5] = (even - odd) % p - out[start + 5]
            if start + 6 < ell:
                even, odd = a0 - z * a2, i * x % p * (a1 - z * a3)
                out[start + 6] = (even + odd) % p - out[start + 6]
                if start + 7 < ell:
                    out[start + 7] = (even - odd) % p - out[start + 7]
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
