"""The streaming run generator and the one-off butterfly coefficients.

The generator's contract: runs whose expansion is the pairs
(i, psi^bit_reverse(i, m-1)) for i = 1 .. q-1, for any psi, at most
q + 4m multiplications for a full drain (the expansion's included),
O(1) state.  Consumers may not rely on the order, but it is pinned
here: runs along the binary digits of q, bit-reversed inside each run.
The runs are expanded from their definition, block indices by
bit_reverse and twiddles through the ring's mul_root, and the
brute-force comparisons recompute every factor from scratch with
builtin pow, for psi of order 2^m and of order 2^(m+1), the root the
radix-4 step passes with m-1 in place of m.
"""

import pytest

from tftkit.instrumentation import CountingField
from tftkit.ring import pow_by_squaring
from tftkit.twiddle import pair_stream, twiddle_forward, twiddle_inverse


def _bitrev(i, k):
    return int(format(i, f"0{k}b")[::-1], 2) if k else 0


def brute_pairs(p, psi, m, q):
    return {(i, pow(psi, _bitrev(i, m - 1), p)) for i in range(1, q)}


def ordered_brute_pairs(p, psi, m, q):
    # one run per binary digit of q, highest first; inside a run of 2^b
    # indices the low b bits count in bit-reversed order, and i = 0 is skipped
    out = []
    offset = 0
    while offset < q:
        b = (q - offset).bit_length() - 1
        for j in range(1 << b):
            i = offset + _bitrev(j, b)
            if i:
                out.append((i, pow(psi, _bitrev(i, m - 1), p)))
        offset += 1 << b
    return out


def expand(mul, runs):
    """The pairs (i, twiddle) of runs (i, n, b, step, bits): the n blocks
    from i on whose low bits count bit_reverse(j, bits) upward from the
    j of i, with twiddles b, mul(b, step), ..."""
    for i, n, b, step, bits in runs:
        low = i & ((1 << bits) - 1)
        j = _bitrev(low, bits)
        assert j + n <= 1 << bits, (i, n, bits)
        for t in range(n):
            if t:
                b = mul(b, step)
            yield i - low + _bitrev(j + t, bits), b


def test_small_field_drain_order(f17):
    # m=3, psi of order 8, q=4: one run of three blocks, bit-reversed
    assert list(pair_stream(f17, 3, 9, 4)) == [(2, 3, 9, 9, 2)]
    assert list(expand(f17.mul_root, pair_stream(f17, 3, 9, 4))) == [(2, 9), (1, 13), (3, 15)]


def test_q_one_yields_nothing(f17):
    assert list(pair_stream(f17, 3, 9, 1)) == []
    assert list(pair_stream(f17, 1, 16, 1)) == []


def test_matches_brute_force(field):
    p = field.modulus
    for m in range(1, 9):
        for order in (m, m + 1):
            psi = field.root_of_order(order)
            for q in range(1, (1 << (m - 1)) + 1):
                got = set(expand(field.mul_root, pair_stream(field, m, psi, q)))
                assert got == brute_pairs(p, psi, m, q), (m, order, q)


def test_matches_ordered_reference(field):
    p = field.modulus
    for m in range(1, 9):
        for order in (m, m + 1):
            psi = field.root_of_order(order)
            for q in range(1, (1 << (m - 1)) + 1):
                want = ordered_brute_pairs(p, psi, m, q)
                got = list(expand(field.mul_root, pair_stream(field, m, psi, q)))
                assert got == want, (m, order, q)


def test_drain_multiplication_budget(field):
    for m in range(1, 9):
        psi = field.root_of_order(m)
        for q in range(1, (1 << (m - 1)) + 1):
            ring = CountingField(field.modulus)
            n = sum(1 for _ in expand(ring.mul_root, pair_stream(ring, m, psi, q)))
            assert n == q - 1
            c = ring.counters
            assert c.mul_root <= q + 4 * m, (m, q, c.mul_root)
            assert c.mul_pow2 == c.add_sub == c.mul_other == 0


def test_never_multiplies_by_the_identity(field):
    for m in range(1, 9):
        psi = field.root_of_order(m)
        for q in range(1, (1 << (m - 1)) + 1):
            ring = _NoIdentityProducts(field)
            for _ in expand(ring.mul_root, pair_stream(ring, m, psi, q)):
                pass


class _NoIdentityProducts:
    def __init__(self, inner):
        self.inner = inner
        self.modulus = inner.modulus

    def mul_root(self, x, y):
        assert x != 1 and y != 1
        return self.inner.mul_root(x, y)

    def root_power(self, x, e):
        # over the checked product, not builtin pow: every product of a
        # power is still checked
        return pow_by_squaring(self.mul_root, x, e)


def test_validation_is_eager(f17):
    # errors surface at the call, not at the first next()
    with pytest.raises(ValueError):
        pair_stream(f17, 0, 1, 1)
    with pytest.raises(ValueError):
        pair_stream(f17, 3, 9, 0)
    with pytest.raises(ValueError):
        pair_stream(f17, 3, 9, 5)  # q > 2^(m-1)
    with pytest.raises(TypeError):
        pair_stream(f17, 3, 9, 2.0)
    with pytest.raises(TypeError):
        pair_stream(f17, 3.0, 9, 2)
    with pytest.raises(TypeError):
        pair_stream(f17, "3", 9, 2)


def test_one_off_factors_small_field(f17):
    assert twiddle_forward(f17, 2, 13, 1) == 13
    assert twiddle_forward(f17, 3, 9, 1) == 13  # 9^bit_reverse(1, 2) = 9^2
    assert twiddle_inverse(f17, 2, 13, 1) == 4  # 13 * 4 = 52 = 1 mod 17


def test_forward_inverse_cancel(field):
    for m in range(1, 7):
        psi = field.root_of_order(m)
        for q in range(1 << (m - 1)):
            a = twiddle_forward(field, m, psi, q)
            b = twiddle_inverse(field, m, psi, q)
            assert a == pow(psi, _bitrev(q, m - 1), field.modulus)
            assert field.mul(a, b) == 1


def test_one_off_factor_range_checks(f17):
    for fn in (twiddle_forward, twiddle_inverse):
        with pytest.raises(ValueError):
            fn(f17, 3, 9, 4)  # q >= 2^(m-1)
        with pytest.raises(ValueError):
            fn(f17, 3, 9, -1)
        with pytest.raises(ValueError):
            fn(f17, 0, 1, 0)  # m < 1
        with pytest.raises(TypeError):
            fn(f17, 3, 9, 1.0)
