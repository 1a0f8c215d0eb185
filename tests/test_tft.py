"""Forward truncated transform: plan construction, values, counts."""

import pickle
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tftkit.instrumentation import AuditBuffer, CountingField
from tftkit.itft import itft_in_place
from tftkit.oracle import naive_tft
from tftkit.ring import PrimeField
from tftkit.tft import TransformPlan, make_plan, tft_in_place


def test_plan_fields(f17):
    plan = make_plan(f17, 5)
    assert plan.ell == 5 and plan.m == 3 and plan.v == 0
    assert plan.psi == 9  # order 8 in Z/17
    assert plan.half == 9
    assert make_plan(f17, 1).m == 0
    assert make_plan(f17, 8).v == 3
    assert make_plan(f17, 12).v == 2
    assert make_plan(f17, 16).m == 4


def test_plan_rejects_bad_lengths(f17):
    with pytest.raises(ValueError):
        make_plan(f17, 0)
    with pytest.raises(ValueError):
        make_plan(f17, 17)  # needs order-32 roots, field caps at 2^4
    for bad in (5.0, "5"):
        with pytest.raises(TypeError):
            make_plan(f17, bad)
    assert type(make_plan(f17, True).ell) is int
    # m, v, psi and half are derived from ell, never passed in: psi = 13
    # has order 4, half = 8 is not the inverse of 2
    for derived in ((3, 0, 13, 9), (3, 0, 9, 8)):
        with pytest.raises(TypeError):
            TransformPlan(f17, 5, *derived)


def test_plan_is_immutable(f17):
    plan = make_plan(f17, 5)
    with pytest.raises(AttributeError):
        plan.ell = 6


def test_plans_compare_by_value(f17, field):
    a, b = make_plan(field, 1000), make_plan(field, 1000)
    assert a == b and hash(a) == hash(b)
    assert a != make_plan(field, 1001)
    assert make_plan(f17, 5) != make_plan(PrimeField(97), 5)
    assert TransformPlan(f17, 5) == make_plan(f17, 5) == TransformPlan(field=f17, ell=5)
    assert repr(make_plan(f17, 5)) == (
        "TransformPlan(field=PrimeField(modulus=17, two_adicity=4, "
        "generator_root=3), ell=5, m=3, v=0, psi=9, half=9)"
    )
    assert pickle.loads(pickle.dumps(a)) == a


def test_plan_half_inverts_two(f17, field):
    for fld in (f17, field):
        assert 2 * make_plan(fld, 3).half % fld.modulus == 1


def test_hand_checked_values(f17):
    plan = make_plan(f17, 3)
    buf = [1, 2, 3]
    tft_in_place(plan, buf)
    assert buf == [6, 2, 7]

    buf = [1, 0, 0, 0]
    tft_in_place(make_plan(f17, 4), buf)
    assert buf == [1, 1, 1, 1]  # constant polynomial

    buf = [1, 0]
    tft_in_place(make_plan(f17, 2), buf)
    assert buf == [1, 1]

    buf = [5]
    tft_in_place(make_plan(f17, 1), buf)
    assert buf == [5]


def test_buffer_length_must_match_plan(f17):
    with pytest.raises(ValueError):
        tft_in_place(make_plan(f17, 3), [1, 2])


def test_matches_oracle_small_field(f17):
    rng = random.Random(1)
    for ell in range(1, 17):
        plan = make_plan(f17, ell)
        for _ in range(8):
            a = [rng.randrange(17) for _ in range(ell)]
            buf = list(a)
            tft_in_place(plan, buf)
            assert buf == naive_tft(f17, plan.psi, ell, a), ell


def test_matches_oracle_default_field(field):
    rng = random.Random(2)
    p = field.modulus
    for ell in range(1, 65):
        plan = make_plan(field, ell)
        a = [rng.randrange(p) for _ in range(ell)]
        buf = list(a)
        tft_in_place(plan, buf)
        assert buf == naive_tft(field, plan.psi, ell, a), ell


# Exact operation counts for the first few lengths, frozen once the
# kernel settled.  Any change here is a real change in issued work.
FORWARD_COUNTS = {
    # ell: (mul_root, mul_pow2, add_sub)
    1: (0, 0, 0),
    2: (0, 0, 2),
    3: (1, 0, 5),
    4: (1, 0, 8),
    5: (8, 0, 14),
    6: (8, 0, 16),
    7: (13, 0, 22),
    8: (8, 0, 24),
}


def test_frozen_operation_counts(field):
    for ell, want in FORWARD_COUNTS.items():
        ring = CountingField(field.modulus)
        tft_in_place(make_plan(field, ell), [0] * ell, ring)
        c = ring.counters
        assert (c.mul_root, c.mul_pow2, c.add_sub) == want, ell
        assert c.mul_other == 0


def test_never_multiplies_by_one(field):
    # On an all-zero buffer every product has a twiddle or scale operand,
    # so an operand equal to 1 means an identity factor slipped through.  The
    # block operations multiply inside the ring, so their twiddles are
    # checked as they are drawn from the pair stream.
    class Guard:
        def __init__(self, inner):
            self.inner = inner
            self.modulus = inner.modulus

        def __getattr__(self, name):
            return getattr(self.inner, name)

        def mul_root(self, x, y):
            assert x != 1 and y != 1, (x, y)
            return self.inner.mul_root(x, y)

        def mul_pow2(self, x, y):
            assert x != 1 and y != 1, (x, y)
            return self.inner.mul_pow2(x, y)

        def butterflies(self, buffer, size, pairs):
            self.inner.butterflies(buffer, size, self._checked(pairs))

        def inverse_butterflies(self, buffer, size, pairs):
            self.inner.inverse_butterflies(buffer, size, self._checked(pairs))

        @staticmethod
        def _checked(pairs):
            for i, alpha in pairs:
                assert alpha != 1, (i, alpha)
                yield i, alpha

    for kernel in (tft_in_place, itft_in_place):
        for ell in range(1, 129):
            kernel(make_plan(field, ell), [0] * ell, Guard(field))


def test_buffer_ring_contract(field):
    # numpy integers would wrap in their dtype, floats would compute in
    # floating point, and a ring over another prime gives wrong values
    plan = make_plan(field, 100)
    values = range(900000000, 900000100)
    for kernel in (tft_in_place, itft_in_place):
        for dtype in ("uint64", "int32"):
            with pytest.raises(TypeError):
                kernel(plan, np.array(values, dtype=dtype))
        with pytest.raises(TypeError):
            kernel(plan, [float(x) for x in values])
        with pytest.raises(ValueError):
            kernel(plan, list(values), CountingField(7340033))  # 7 * 2^20 + 1
        # a float modulus would compare equal to the plan's and compute in
        # floating point; a numpy integer one is converted to an int
        with pytest.raises(TypeError):
            kernel(plan, list(values), CountingField(float(field.modulus)))
        buf = list(values)
        kernel(plan, buf, CountingField(np.int64(field.modulus)))
        assert {type(x) for x in buf} == {int}


def test_every_entry_is_type_checked(field):
    # the scan covers the whole buffer, not only its first entry; bool is
    # an int subclass but is refused with the other int look-alikes
    plan = make_plan(field, 5)
    for kernel in (tft_in_place, itft_in_place):
        for index in (1, 4):
            buf = [1, 2, 3, 4, 5]
            buf[index] = 2.5
            with pytest.raises(TypeError, match="float"):
                kernel(plan, buf)
            assert buf[:index] == [1, 2, 3, 4, 5][:index]  # nothing computed
        with pytest.raises(TypeError, match="bool"):
            kernel(plan, [1, True, 3, 4, 5])
        audited = AuditBuffer([1, 2, 3, 4, 5])
        kernel(plan, audited)
        assert not audited.oob and (audited.lo, audited.hi) == (0, 4)


def test_length_one_reduces_its_entry(field):
    # at l = 1 the transform is the identity on residues: the entry comes
    # back canonical, as every entry does at l >= 2, with no ring call
    p = field.modulus
    plan = make_plan(field, 1)
    for kernel in (tft_in_place, itft_in_place):
        for value, want in ((p + 5, 5), (-1, p - 1), (7, 7)):
            buf = [value]
            ring = CountingField(p)
            kernel(plan, buf, ring)
            assert buf == [want], (kernel.__name__, value)
            assert ring.counters.total == 0


def test_stays_inside_the_buffer(field):
    rng = random.Random(4)
    for ell in (1, 2, 3, 5, 12, 31, 64, 100):
        buf = AuditBuffer([rng.randrange(field.modulus) for _ in range(ell)])
        tft_in_place(make_plan(field, ell), buf)
        assert not buf.oob
        if ell > 1:
            assert buf.lo >= 0 and buf.hi <= ell - 1


@settings(max_examples=60)
@given(
    st.integers(min_value=1, max_value=16).flatmap(
        lambda ell: st.tuples(
            st.lists(st.integers(0, 16), min_size=ell, max_size=ell),
            st.lists(st.integers(0, 16), min_size=ell, max_size=ell),
            st.integers(0, 16),
        )
    )
)
def test_transform_is_linear(data):
    a, b, c = data
    f = PrimeField.from_modulus(17)
    plan = make_plan(f, len(a))
    combo = [(x + c * y) % 17 for x, y in zip(a, b)]
    ta, tb, tc = list(a), list(b), combo
    tft_in_place(plan, ta)
    tft_in_place(plan, tb)
    tft_in_place(plan, tc)
    assert tc == [(x + c * y) % 17 for x, y in zip(ta, tb)]


def test_plan_type_is_reusable(f17):
    # one plan, many buffers
    plan = make_plan(f17, 6)
    assert isinstance(plan, TransformPlan)
    out = []
    for a in ([0, 1, 2, 3, 4, 5], [5, 4, 3, 2, 1, 0]):
        buf = list(a)
        tft_in_place(plan, buf)
        out.append(buf)
    assert out[0] != out[1]
    assert out[0] == naive_tft(f17, plan.psi, 6, [0, 1, 2, 3, 4, 5])
