"""Inverse transform: hand values, round trips, solver cross-check, counts."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from brute_force import naive_itft_solve
from tftkit import itft
from tftkit.instrumentation import AuditBuffer, CountingField, TallyRing
from tftkit.itft import ascend_levels, itft_in_place
from tftkit.ring import PrimeField
from tftkit.tft import make_plan, tft_in_place
from tftkit.twiddle import twiddle_inverse


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


class _RootPowers(TallyRing):
    """A TallyRing that records each root_power call's (x, e)."""

    __slots__ = ("powers",)

    def __init__(self, modulus):
        super().__init__(modulus)
        self.powers = []

    def root_power(self, x, e):
        self.powers.append((x, e))
        return super().root_power(x, e)


def test_psi_inverse_is_built_once_and_only_when_needed(field, monkeypatch):
    # ascend_levels builds psi^-1 once, before its loop, exactly when
    # l >= 8 (the bottom level pair then has a block past block 0); below
    # that only the leftover blocks of l = 6 and 7 take twiddle_inverse
    inverse_at = set()
    lengths = [*range(2, 1100), *((1 << k) + d for k in range(13, 18) for d in (-1, 0, 1, 5))]
    for ell in lengths:
        plan = make_plan(field, ell)

        def recorded(ring, m, psi, q, ell=ell):
            # on a ring of its own: at l = 6 the leftover twiddle is psi^7,
            # which is psi^-1 but is not the pair stream's seed
            inverse_at.add(ell)
            return twiddle_inverse(TallyRing(ring.modulus), m, psi, q)

        monkeypatch.setattr(itft, "twiddle_inverse", recorded)
        ring = _RootPowers(field.modulus)
        ascend_levels(plan, [0] * ell, ring)
        assert ring.powers.count((plan.psi, (1 << plan.m) - 1)) == (ell >= 8), ell
        itft_in_place(plan, [0] * ell, TallyRing(field.modulus))
    assert inverse_at == {6, 7}


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
