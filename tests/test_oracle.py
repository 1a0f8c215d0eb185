"""The brute-force references themselves deserve a few checks: they are
the ground truth everything else is compared against.  ``naive_tft``
runs one numpy Horner loop, in uint64 below 2^32 and over Python ints
(dtype=object) above; ``naive_dft`` computes with Python ints at every
modulus, and a 64-bit modulus checks both against direct evaluation."""

import random

import pytest

from tftkit.oracle import naive_dft, naive_itft_solve, naive_polymul, naive_tft, reference_tft
from tftkit.ring import PrimeField
from tftkit.tft import make_plan, tft_in_place

# 2^64 - 2^32 + 1, two-adicity 32: runs naive_tft's loop over Python ints
BIG_P = 18446744069414584321


def test_dft_known_values(f17):
    assert naive_dft(f17, 13, [0, 1, 0, 0]) == [1, 13, 16, 4]
    assert naive_dft(f17, 1, [9]) == [9]
    assert naive_dft(f17, 16, [3, 5]) == [8, 15]


def test_dft_input_validation(f17):
    with pytest.raises(ValueError):
        naive_dft(f17, 13, [1, 2, 3])  # not a power of two
    with pytest.raises(ValueError):
        naive_dft(f17, 13, [])
    with pytest.raises(ValueError):
        naive_dft(f17, 16, [1, 2, 3, 4])  # order 2, need 4


def test_tft_is_a_permuted_dft_at_powers_of_two(f17):
    rng = random.Random(21)
    for m in range(5):
        n = 1 << m
        psi = f17.root_of_order(m)
        a = [rng.randrange(17) for _ in range(n)]
        natural = naive_dft(f17, psi, a)
        shuffled = naive_tft(f17, psi, n, a)
        def rev(i):
            return int(format(i, f"0{m}b")[::-1], 2) if m else 0
        assert shuffled == [natural[rev(i)] for i in range(n)]


def _horner_at_reversed_powers(p, psi, ell, a):
    m = (ell - 1).bit_length()
    out = []
    for i in range(ell):
        x = pow(psi, int(format(i, f"0{m}b")[::-1], 2), p)
        acc = 0
        for c in reversed(a):
            acc = (acc * x + c) % p
        out.append(acc)
    return out


def test_tft_points_built_by_doubling_are_the_reversed_powers(field):
    # naive_tft builds its points by doubling; here each one is its own pow
    rng = random.Random(24)
    for fld, lengths in ((field, range(1, 301)), (PrimeField.from_modulus(BIG_P), (1, 2, 5, 33, 100))):
        p = fld.modulus
        for ell in lengths:
            psi = fld.root_of_order((ell - 1).bit_length())
            a = [rng.randrange(p) for _ in range(ell)]
            assert naive_tft(fld, psi, ell, a) == _horner_at_reversed_powers(p, psi, ell, a), ell


def test_tft_length_one(f17):
    assert naive_tft(f17, 1, 1, [25]) == [8]
    with pytest.raises(ValueError):
        naive_tft(f17, 13, 1, [3])  # psi must be 1 when a single point


def test_tft_validation(f17):
    with pytest.raises(ValueError):
        naive_tft(f17, 9, 3, [1, 2])  # length mismatch
    with pytest.raises(ValueError):
        naive_tft(f17, 13, 5, [0] * 5)  # 13 has order 4, need 8
    with pytest.raises(ValueError):
        naive_tft(f17, 9, 0, [])


def test_reference_matches_direct_evaluation(field):
    # the out-of-place reference checks the kernels far beyond naive_tft's
    # range; here it meets naive_tft on every length up to 129, and at a
    # modulus above 2^32, where naive_tft runs over Python ints
    rng = random.Random(25)
    big = PrimeField.from_modulus(BIG_P)
    for fld, lengths in ((field, range(1, 130)), (big, (1, 2, 3, 7, 33, 100))):
        p = fld.modulus
        for ell in lengths:
            psi = fld.root_of_order((ell - 1).bit_length())
            a = [rng.randrange(p) for _ in range(ell)]
            assert reference_tft(fld, psi, ell, a) == naive_tft(fld, psi, ell, a), ell
    assert reference_tft(field, 1, 1, [field.modulus + 5]) == [5]


def test_reference_validation(f17):
    for psi, ell, a in ((9, 3, [1, 2]), (13, 5, [0] * 5), (9, 0, []), (13, 1, [3])):
        with pytest.raises(ValueError):
            reference_tft(f17, psi, ell, a)


def test_solver_inverts_the_evaluator(f17):
    rng = random.Random(22)
    for ell in range(1, 13):
        psi = f17.root_of_order((ell - 1).bit_length())
        a = [rng.randrange(17) for _ in range(ell)]
        vals = naive_tft(f17, psi, ell, a)
        assert naive_itft_solve(f17, psi, ell, vals) == a


def test_polymul_known_product(f17):
    assert naive_polymul(f17, [1, 2, 3], [4, 5]) == [4, 13, 5, 15]
    assert naive_polymul(f17, [16], [16]) == [1]
    assert naive_polymul(f17, [0, 0], [0]) == [0, 0]


def test_polymul_rejects_empty(f17):
    with pytest.raises(ValueError):
        naive_polymul(f17, [], [1])
    with pytest.raises(ValueError):
        naive_polymul(f17, [1], [])


def test_inputs_are_not_mutated(f17):
    a = [3, 1, 4, 1]
    b = list(a)
    naive_dft(f17, 13, a)
    naive_tft(f17, 13, 4, a)
    naive_itft_solve(f17, 13, 4, a)
    naive_polymul(f17, a, a)
    reference_tft(f17, 13, 4, a)
    assert a == b


def test_big_modulus_fallback_agrees_with_kernels():
    fld = PrimeField.from_modulus(BIG_P)
    assert fld.two_adicity == 32
    rng = random.Random(23)
    for ell in (1, 2, 3, 7, 12, 16):
        plan = make_plan(fld, ell)
        a = [rng.randrange(BIG_P) for _ in range(ell)]
        buf = list(a)
        tft_in_place(plan, buf)
        assert buf == naive_tft(fld, plan.psi, ell, a)
        assert naive_itft_solve(fld, plan.psi, ell, buf) == a


def test_big_modulus_dft_path():
    fld = PrimeField.from_modulus(BIG_P)
    omega = fld.root_of_order(2)
    a = [1, 2, 3, 4]
    got = naive_dft(fld, omega, a)
    # direct evaluation, no shared helpers
    want = [
        sum(c * pow(omega, i * j, BIG_P) for j, c in enumerate(a)) % BIG_P
        for i in range(4)
    ]
    assert got == want


def test_residues_are_canonicalized(f17):
    # oracle inputs may be unreduced; outputs must be in [0, p)
    assert naive_tft(f17, 13, 4, [18, -1, 0, 0]) == naive_tft(f17, 13, 4, [1, 16, 0, 0])
    assert naive_polymul(f17, [18], [2]) == [2]
