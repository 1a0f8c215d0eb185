"""Brute-force transforms that only the tests use: the natural-order DFT
that the power-of-two case is checked against, and the inverse of
``naive_tft`` by Gaussian elimination.  Like ``tftkit.oracle``, they use
no transform code, leave their inputs untouched and are slow by design.
"""

from tftkit.oracle import _bitrev, _check_point_generator


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
