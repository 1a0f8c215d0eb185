"""Brute-force references for testing the fast kernels against.

Everything here is deliberately independent of the transform code: no
shared exponentiation helpers or bit reversal, arithmetic through
builtin pow and explicit remainders.  ``naive_tft`` builds its points
by doubling, as bit_reverse(i + 2^(k-1), m) = bit_reverse(i, m) +
2^(m-k) for i < 2^(k-1); ``reference_tft`` reverses the binary
string.  All functions are pure and leave their inputs untouched.  They
are slow by design; tests keep lengths small, except for
``reference_tft``: an out-of-place radix-2 transform in O(ell log ell),
which checks the kernels at lengths the O(ell^2) evaluation cannot
reach.

Only ``naive_tft`` uses numpy: one Horner loop over an array of
evaluation points, in uint64 for moduli below 2^32 (products stay
under 2^64 since (p-1)*p < 2^64) and over Python ints (dtype=object)
above.  It imports numpy on its first call, so importing the package
(and every CLI command that calls no oracle) does not pay for it.
"""

__all__ = ["naive_tft", "naive_polymul", "reference_tft"]

_NUMPY_LIMIT = 1 << 32


def _bitrev(i: int, k: int) -> int:
    return int(format(i, f"0{k}b")[::-1], 2)


def naive_tft(field, psi: int, ell: int, a) -> list[int]:
    """Evaluate the polynomial with coefficients a at the ell points
    psi^bit_reverse(i, m), i < ell, by Horner's rule.

    m = ceil(log2 ell); psi must have order exactly 2^m.
    """
    p = field.modulus
    _check_point_generator(p, psi, ell, a)
    points = [1]
    shift = (ell - 1).bit_length()
    while len(points) < ell:
        shift -= 1
        factor = pow(psi, 1 << shift, p)
        points += [x * factor % p for x in points[: ell - len(points)]]
    import numpy as np

    dtype = np.uint64 if p < _NUMPY_LIMIT else object
    pts = np.array(points, dtype=dtype)
    del points
    vals = np.zeros(ell, dtype=dtype)
    for c in reversed(a):
        vals = (vals * pts + c % p) % p
    return [int(x) for x in vals]


def reference_tft(field, psi: int, ell: int, a) -> list[int]:
    """The outputs of naive_tft, by an out-of-place radix-2 transform.

    Zero-pads a to 2^m, m = ceil(log2 ell), and runs Cooley-Tukey levels
    m-1..0 over only the blocks that start below ell: at level k, block
    i holds [i*2^(k+1), (i+1)*2^(k+1)) and its twiddle is
    psi^bit_reverse(i, m-1).  Entry j < ell of the result is then the
    polynomial's value at psi^bit_reverse(j, m).  O(ell log ell)
    products, in a new list of 2^m entries.
    """
    p = field.modulus
    _check_point_generator(p, psi, ell, a)
    m = (ell - 1).bit_length()
    buf = [x % p for x in a] + [0] * ((1 << m) - ell)
    for k in reversed(range(m)):
        half = 1 << k
        for i, lo in enumerate(range(0, ell, 2 * half)):
            w = pow(psi, _bitrev(i, m - 1), p)
            mid, hi = lo + half, lo + 2 * half
            ys = [y * w % p for y in buf[mid:hi]]
            xs = buf[lo:mid]
            buf[lo:mid] = [(x + y) % p for x, y in zip(xs, ys)]
            buf[mid:hi] = [(x - y) % p for x, y in zip(xs, ys)]
    return buf[:ell]


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
    m = (ell - 1).bit_length()
    if m == 0:
        if psi % p != 1:
            raise ValueError("psi must be 1 for a length-1 transform")
    elif pow(psi, 1 << (m - 1), p) != p - 1:
        raise ValueError("psi must have order 2^ceil(log2 ell)")
