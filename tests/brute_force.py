"""Brute-force references that only the tests use: the natural-order DFT
that the power-of-two case is checked against, the inverse of
``naive_tft`` by Gaussian elimination, ``reference_tft``, an
out-of-place radix-2 transform in O(ell log ell) that checks the kernels
at lengths the O(ell^2) evaluation cannot reach, and ``expand_runs``,
the pairs a stream of twiddle runs stands for.  Like ``tftkit.oracle``,
they use no transform code, leave their inputs untouched and are slow
by design.
"""

from tftkit.oracle import _check_point_generator


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


def expand_runs(mul, runs):
    """The pairs (i, twiddle) of runs (i, n, b, step, bits), as
    ``tftkit.twiddle.pair_stream`` yields them: the n blocks from i on
    whose low bits count bit_reverse(j, bits) upward from the j of i,
    with twiddles b, mul(b, step), ..."""
    for i, n, b, step, bits in runs:
        low = i & ((1 << bits) - 1)
        j = _bitrev(low, bits)
        assert j + n <= 1 << bits, (i, n, bits)
        for t in range(n):
            if t:
                b = mul(b, step)
            yield i - low + _bitrev(j + t, bits), b
