"""The power-of-two case: at l = 2^k the truncated transform is the
classical radix-2 FFT, with its output in bit-reversed order."""

import random

import pytest

from tftkit import bit_reverse
from tftkit.instrumentation import CountingField
from tftkit.itft import itft_in_place
from tftkit.oracle import naive_dft
from tftkit.tft import make_plan, tft_in_place


def test_identity_monomial(f17):
    # f(x) = x over Z/17; the plan's psi = 13 has order 4
    plan = make_plan(f17, 4)
    assert plan.psi == 13
    buf = [0, 1, 0, 0]
    tft_in_place(plan, buf)
    assert buf == [1, 16, 13, 4]  # entry j holds f(13^bit_reverse(j, 2))
    assert [buf[bit_reverse(i, 2)] for i in range(4)] == [1, 13, 16, 4]


def test_size_one_is_identity(f17):
    buf = [7]
    tft_in_place(make_plan(f17, 1), buf)
    assert buf == [7]
    itft_in_place(make_plan(f17, 1), buf)
    assert buf == [7]


def test_matches_oracle(field, f17):
    rng = random.Random(20260817)
    for fld, max_pp in ((f17, 4), (field, 6)):
        p = fld.modulus
        for pp in range(max_pp + 1):
            plan = make_plan(fld, 1 << pp)
            a = [rng.randrange(p) for _ in range(1 << pp)]
            buf = list(a)
            tft_in_place(plan, buf)
            natural = [buf[bit_reverse(i, pp)] for i in range(1 << pp)]
            assert natural == naive_dft(fld, plan.psi, a)


def test_inverse_round_trip(field):
    rng = random.Random(5)
    plan = make_plan(field, 32)
    a = [rng.randrange(field.modulus) for _ in range(32)]
    buf = list(a)
    tft_in_place(plan, buf)
    itft_in_place(plan, buf)
    assert buf == a


def test_operation_counts(field):
    # adds are exactly n log2 n; root products within (n/2) log2 n + n + 16
    for pp in range(11):
        n = 1 << pp
        ring = CountingField(field.modulus)
        tft_in_place(make_plan(field, n), [0] * n, ring)
        c = ring.counters
        assert c.add_sub == n * pp
        assert c.mul_root <= (n // 2) * pp + n + 16
        assert c.mul_pow2 == 0 and c.mul_other == 0
    ring = CountingField(field.modulus)
    tft_in_place(make_plan(field, 8), [0] * 8, ring)
    assert ring.counters.mul_root == 7


def test_rejects_bad_arguments(f17):
    with pytest.raises(ValueError):
        make_plan(f17, 0)
    with pytest.raises(ValueError):
        tft_in_place(make_plan(f17, 4), [1, 2, 3])  # wrong length
    with pytest.raises(ValueError):
        itft_in_place(make_plan(f17, 4), [1, 2, 3])
    with pytest.raises(ValueError):
        make_plan(f17, 32)  # needs order 32, the field caps at 16


def test_output_layout_is_bit_reversed(f17):
    # evaluations of a random degree-7 polynomial, checked point by point
    rng = random.Random(99)
    a = [rng.randrange(17) for _ in range(8)]
    plan = make_plan(f17, 8)
    buf = list(a)
    tft_in_place(plan, buf)
    for j in range(8):
        x = pow(plan.psi, bit_reverse(j, 3), 17)
        want = sum(c * pow(x, i, 17) for i, c in enumerate(a)) % 17
        assert buf[j] == want
