"""Brute-force references for testing the fast kernels against.

Everything here is deliberately independent of the transform code: no
shared exponentiation helpers or bit reversal, arithmetic through
builtin pow and explicit remainders.  ``naive_tft`` builds its points
by doubling, as bit_reverse(i + 2^(k-1), m) = bit_reverse(i, m) +
2^(m-k) for i < 2^(k-1); ``naive_itft_solve`` and ``reference_tft``
reverse the binary string.  All functions are pure and leave their
inputs untouched.  They are slow by design; tests keep lengths small,
except for ``reference_tft``: an out-of-place radix-2 transform in
O(ell log ell), which checks the kernels at lengths the O(ell^2)
evaluation cannot reach.

Only ``naive_tft`` uses numpy: one Horner loop over an array of
evaluation points, in uint64 for moduli below 2^32 (products stay
under 2^64 since (p-1)*p < 2^64) and over Python ints (dtype=object)
above.  It imports numpy on its first call, so importing the package
(and every CLI command that calls no oracle) does not pay for it.
"""

__all__ = ["naive_dft", "naive_tft", "naive_itft_solve", "naive_polymul", "reference_tft"]

_NUMPY_LIMIT = 1 << 32


def _bitrev(i: int, k: int) -> int:
    return int(format(i, f"0{k}b")[::-1], 2)


def naive_dft(field, omega: int, a) -> list[int]:
    """Length-n discrete Fourier transform in natural order, O(n^2).

    out[i] = sum_j a[j] * omega^(i*j).  n must be a power of two and
    omega must have order exactly n.
    """
    p = field.modulus
    n = len(a)
    if n == 0 or n & (n - 1):
        raise ValueError("input length must be a power of two")
    if pow(omega, n, p) != 1 or (n > 1 and pow(omega, n // 2, p) != p - 1):
        raise ValueError("omega must have order equal to the input length")
    powers = [pow(omega, j, p) for j in range(n)]
    return [
        sum(x % p * powers[i * j % n] for j, x in enumerate(a)) % p
        for i in range(n)
    ]


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


def naive_itft_solve(field, psi: int, ell: int, values) -> list[int]:
    """Invert naive_tft by Gaussian elimination on the ell x ell
    evaluation matrix M[i][j] = psi^(bit_reverse(i, m) * j).

    O(ell^3); intended for small cross-checks of the fast inverse.
    """
    p = field.modulus
    _check_point_generator(p, psi, ell, values)
    m = (ell - 1).bit_length()
    rows = [
        [pow(psi, _bitrev(i, m) * j, p) for j in range(ell)] + [values[i] % p]
        for i in range(ell)
    ]
    for col in range(ell):
        pivot = None
        for r in range(col, ell):
            if rows[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            raise ArithmeticError("evaluation matrix is singular")
        rows[col], rows[pivot] = rows[pivot], rows[col]
        inv = pow(rows[col][col], p - 2, p)
        rows[col] = [x * inv % p for x in rows[col]]
        for r in range(ell):
            if r != col and rows[r][col]:
                f = rows[r][col]
                rows[r] = [(x - f * y) % p for x, y in zip(rows[r], rows[col])]
    return [rows[i][ell] for i in range(ell)]


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
