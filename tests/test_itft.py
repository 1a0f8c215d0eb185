"""Inverse transform: hand values, round trips, solver cross-check, counts."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from tftkit.instrumentation import AuditBuffer, CountingField
from tftkit.itft import itft_in_place
from tftkit.oracle import naive_itft_solve
from tftkit.ring import PrimeField
from tftkit.tft import make_plan, tft_in_place


def test_hand_checked_values(f17):
    buf = [6, 2, 7]
    itft_in_place(make_plan(f17, 3), buf)
    assert buf == [1, 2, 3]

    buf = [1, 1]
    itft_in_place(make_plan(f17, 2), buf)
    assert buf == [1, 0]

    buf = [9]
    itft_in_place(make_plan(f17, 1), buf)
    assert buf == [9]


def test_buffer_length_must_match_plan(f17):
    with pytest.raises(ValueError):
        itft_in_place(make_plan(f17, 3), [1, 2, 3, 4])


def test_round_trip_small_field(f17):
    rng = random.Random(11)
    for ell in range(1, 17):
        plan = make_plan(f17, ell)
        for _ in range(8):
            a = [rng.randrange(17) for _ in range(ell)]
            buf = list(a)
            tft_in_place(plan, buf)
            itft_in_place(plan, buf)
            assert buf == a, ell


def test_round_trip_both_directions(field):
    rng = random.Random(12)
    p = field.modulus
    for ell in range(1, 65):
        plan = make_plan(field, ell)
        a = [rng.randrange(p) for _ in range(ell)]
        buf = list(a)
        tft_in_place(plan, buf)
        itft_in_place(plan, buf)
        assert buf == a, ell
        b = [rng.randrange(p) for _ in range(ell)]
        buf = list(b)
        itft_in_place(plan, buf)
        tft_in_place(plan, buf)
        assert buf == b, ell


def test_matches_gaussian_elimination(f17, field):
    rng = random.Random(13)
    for fld, top in ((f17, 16), (field, 24)):
        p = fld.modulus
        for ell in range(1, top + 1):
            plan = make_plan(fld, ell)
            vals = [rng.randrange(p) for _ in range(ell)]
            buf = list(vals)
            itft_in_place(plan, buf)
            assert buf == naive_itft_solve(fld, plan.psi, ell, vals), (p, ell)


INVERSE_COUNTS = {
    # ell: (mul_root, mul_pow2, add_sub)
    1: (0, 0, 0),
    2: (0, 2, 2),
    3: (1, 4, 6),
    4: (1, 5, 8),
    5: (7, 8, 17),
    6: (9, 8, 18),
    7: (16, 9, 23),
    8: (11, 10, 24),
}


def test_frozen_operation_counts(field):
    for ell, want in INVERSE_COUNTS.items():
        ring = CountingField(field.modulus)
        itft_in_place(make_plan(field, ell), [0] * ell, ring)
        c = ring.counters
        assert (c.mul_root, c.mul_pow2, c.add_sub) == want, ell
        assert c.mul_other == 0


def test_stays_inside_the_buffer(field):
    rng = random.Random(14)
    for ell in (1, 2, 3, 5, 12, 31, 64, 100):
        buf = AuditBuffer([rng.randrange(field.modulus) for _ in range(ell)])
        itft_in_place(make_plan(field, ell), buf)
        assert not buf.oob
        if ell > 1:
            assert buf.lo >= 0 and buf.hi <= ell - 1


@settings(max_examples=60)
@given(st.lists(st.integers(0, 16), min_size=1, max_size=16))
def test_round_trip_property(a):
    f = PrimeField.from_modulus(17)
    plan = make_plan(f, len(a))
    buf = list(a)
    tft_in_place(plan, buf)
    itft_in_place(plan, buf)
    assert buf == a
