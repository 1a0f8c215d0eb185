"""Forward truncated transform: plan construction, values, counts."""

import pickle
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tftkit.instrumentation import AuditBuffer, CountingField, TallyRing
from tftkit.itft import branch_finish, branch_recombine, itft_in_place, scale_and_close
from tftkit.oracle import naive_polymul, naive_tft
from tftkit.polymul import tft_polymul
from tftkit.ring import PrimeField, pow_by_squaring
from tftkit.tft import (
    TransformPlan,
    branch_descent,
    branch_levels,
    branch_restore,
    make_plan,
    tft_in_place,
)
from tftkit.twiddle import bit_reverse


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
        "generator_root=3), ell=5, m=3, v=0, psi=9, half=9, iota=13)"
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
    5: (7, 0, 14),
    6: (5, 0, 16),
    7: (10, 0, 22),
    8: (7, 0, 24),
}


def test_frozen_operation_counts(field):
    for ell, want in FORWARD_COUNTS.items():
        ring = CountingField(field.modulus)
        tft_in_place(make_plan(field, ell), [0] * ell, ring)
        c = ring.counters
        assert (c.mul_root, c.mul_pow2, c.add_sub) == want, ell
        assert c.mul_other == 0


class NoIdentityGuard:
    """A ring that fails on any product by 1.

    On an all-zero buffer every product has a twiddle or scale operand,
    so an operand equal to 1 means an identity factor slipped through.
    The block operations multiply inside the ring, so the guard checks
    their twiddles: alpha of a radix-2 or 2x2 run (p - alpha for the
    forward restore pass's axpy, which is what it multiplies by), c of
    a non-empty scale run, and b, b*b, b*iota and -b*iota of each
    radix-4 block, expanding each run the pair stream yields to b,
    b*step, ... over its own checked mul_root, so every product the
    loop makes inside a run is checked too.  Its root_power runs
    pow_by_squaring over the checked mul_root, never builtin pow, so
    each product of a power is checked as well.  It has the sixteen
    protocol members, no forwarding of any other, and a tally of the
    radix-4 blocks it checked in each direction.
    """

    def __init__(self, inner):
        self.inner = inner
        self.modulus = inner.modulus
        self.fold = inner.fold
        self.radix4_blocks = {"radix4": 0, "inverse_radix4": 0}

    def mul(self, x, y):
        assert x != 1 and y != 1, (x, y)
        return self.inner.mul(x, y)

    def mul_root(self, x, y):
        assert x != 1 and y != 1, (x, y)
        return self.inner.mul_root(x, y)

    def mul_pow2(self, x, y):
        assert x != 1 and y != 1, (x, y)
        return self.inner.mul_pow2(x, y)

    def root_power(self, x, e):
        return pow_by_squaring(self.mul_root, x, e)

    def scale(self, buffer, lo, hi, c):
        assert c != 1 or hi <= lo, (lo, hi)
        self.inner.scale(buffer, lo, hi, c)

    def _run(self, name, buffer, lo, hi, dist, alpha):
        assert alpha != 1, (name, lo, hi, dist)
        getattr(self.inner, name)(buffer, lo, hi, dist, alpha)

    def butterflies(self, buffer, lo, hi, dist, alpha):
        self._run("butterflies", buffer, lo, hi, dist, alpha)

    def inverse_butterflies(self, buffer, lo, hi, dist, alpha):
        self._run("inverse_butterflies", buffer, lo, hi, dist, alpha)

    def axpy(self, buffer, lo, hi, dist, alpha):
        self._run("axpy", buffer, lo, hi, dist, alpha)

    def park(self, buffer, lo, hi, dist, alpha):
        self._run("park", buffer, lo, hi, dist, alpha)

    def restore(self, buffer, lo, hi, dist, alpha):
        self._run("restore", buffer, lo, hi, dist, alpha)

    def recombine(self, buffer, lo, hi, dist, alpha):
        self._run("recombine", buffer, lo, hi, dist, alpha)

    def double(self, buffer, lo, hi, dist, alpha):
        self._run("double", buffer, lo, hi, dist, alpha)

    def radix4(self, buffer, size, iota, runs):
        self.inner.radix4(buffer, size, iota, self._checked("radix4", runs, iota))

    def inverse_radix4(self, buffer, size, iota, runs):
        self.inner.inverse_radix4(
            buffer, size, iota, self._checked("inverse_radix4", runs, iota)
        )

    def _checked(self, name, runs, iota):
        p = self.modulus
        for run in runs:
            _, n, b, step, _ = run
            for t in range(n):
                if t:
                    b = self.mul_root(b, step)
                assert 1 not in (b, b * b % p, b * iota % p, (p - b) * iota % p), (run, t)
            self.radix4_blocks[name] += n
            yield run


def test_never_multiplies_by_one(field):
    for kernel in (tft_in_place, itft_in_place):
        for ell in range(1, 129):
            kernel(make_plan(field, ell), [0] * ell, NoIdentityGuard(field))


def test_radix4_twiddles_are_never_one(field):
    # the guard's radix-4 check is not vacuous: both directions hand it
    # blocks, each with b, b*b, b*iota and -b*iota all different from 1
    guard = NoIdentityGuard(field)
    for kernel in (tft_in_place, itft_in_place):
        for ell in range(1, 129):
            kernel(make_plan(field, ell), [0] * ell, guard)
    assert all(guard.radix4_blocks.values()), guard.radix4_blocks


class _ScalarCalls:
    """Forwards every member to a ring and counts the scalar calls."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def __getattr__(self, name):
        member = getattr(self.inner, name)
        if name not in ("mul", "mul_root", "mul_pow2"):
            return member

        def counted(x, y):
            self.calls += 1
            return member(x, y)

        return counted


def test_branch_passes_make_no_per_entry_ring_call(field):
    # the special 2x2 steps and the closing sweep are block runs: on a
    # field, whose root_power is builtin pow, those passes reach the
    # scalar members only for the closing power of 2^-1 and its one
    # extra product, at most 2*m calls, however long their runs are
    passes = (branch_descent, branch_restore, branch_recombine, branch_finish, scale_and_close)
    for ell in range(2, 300):
        plan = make_plan(field, ell)
        ring = _ScalarCalls(field)
        buf = [0] * ell
        for run_pass in passes:
            run_pass(plan, buf, ring)
        assert ring.calls <= 2 * plan.m, (ell, ring.calls)


def test_kernels_make_no_scalar_call_per_radix4_block(field):
    # the radix-4 loops step their twiddles inline, and the pair stream
    # makes at most two scalar products per run, at most m runs per level
    # pair; with the inverse's closing power of 2^-1 (at most 2*m calls),
    # a whole kernel on a field makes at most m*m + 2*m scalar ring calls,
    # far fewer than its radix-4 blocks
    for ell in (4096, 5000, 16385):
        plan = make_plan(field, ell)
        m = plan.m
        blocks = sum(max((ell >> (k + 1)) - 1, 0) for k in range(1, m - 1, 2))
        assert m * m + 2 * m < blocks / 4, (ell, blocks)
        for kernel in (tft_in_place, itft_in_place):
            ring = _ScalarCalls(field)
            kernel(plan, [0] * ell, ring)
            assert ring.calls <= m * m + 2 * m, (ell, kernel.__name__, ring.calls)


class _BlockCalls(TallyRing):
    """A TallyRing that also counts its fold and radix-4 calls."""

    __slots__ = ("folds", "pairs")

    def __init__(self, modulus):
        super().__init__(modulus)
        self.folds = self.pairs = 0

    def fold(self, buffer, lo, hi, dist):
        self.folds += 1
        super().fold(buffer, lo, hi, dist)

    def radix4(self, buffer, size, iota, runs):
        self.pairs += 1
        super().radix4(buffer, size, iota, runs)

    inverse_radix4 = radix4


def test_each_level_pair_is_one_ring_call(field):
    # a level pair's block 0 goes inside its radix-4 call, so each kernel
    # makes one radix-4 call per pair, floor((m-1)/2), and folds only in
    # its O(ell) pass and at the unpaired top level: 1 + [m even]
    for ell in range(2, 1100):
        plan = make_plan(field, ell)
        m = plan.m
        for kernel in (tft_in_place, itft_in_place):
            ring = _BlockCalls(field.modulus)
            kernel(plan, [0] * ell, ring)
            assert (ring.pairs, ring.folds) == ((m - 1) // 2, 1 + (m % 2 == 0)), (
                kernel.__name__, ell
            )


def test_branch_exponents_are_the_block_twiddle_exponents(field):
    # branch_levels reads e off ell's bits, reversed once; at every level
    # the branch passes visit (v..m-2, none at a power of two) it must be
    # bit_reverse(q, m-1), the twiddle exponent of the partial block q
    lengths = list(range(2, 4097))
    lengths += [(1 << k) + d for k in range(13, 18) for d in (-1, 0, 1, 5)]
    for ell in lengths:
        plan = make_plan(field, ell)
        ks = range(plan.v, plan.m - 1)
        levels = list(branch_levels(plan, ks))
        assert len(levels) == max(plan.m - 1 - plan.v, 0), ell
        for k, (e, _, head) in zip(ks, levels):
            q = head >> (k + 1)
            assert e == bit_reverse(q, plan.m - 1), (ell, q)


class _BranchCalls:
    """A ring that records each block call's (lo, hi, dist) and computes
    nothing: the rightmost-branch passes' members, with scale at dist 0."""

    def __init__(self, modulus):
        self.modulus = modulus
        self.calls = []

    def root_power(self, x, e):
        return 1

    def _block(self, buffer, lo, hi, dist, alpha):
        self.calls.append((lo, hi, dist))

    butterflies = inverse_butterflies = park = restore = recombine = axpy = double = _block

    def scale(self, buffer, lo, hi, c):
        self.calls.append((lo, hi, 0))


def test_branch_passes_touch_only_the_mirror_range(field):
    # a slot j >= l that a partial block lacks is kept at its mirror
    # j - 2^(m-1): every entry the four branch passes touch lies in
    # [l - 2^(m-1), l), so the head [0, l - 2^(m-1)) that the top-level
    # fold paired with the tail stays untouched
    lengths = list(range(2, 4097))
    lengths += [(1 << k) + d for k in range(13, 18) for d in (-1, 1, 5)]
    runs = 0
    for ell in lengths:
        plan = make_plan(field, ell)
        first = ell - (1 << (plan.m - 1))
        for branch_pass in (branch_descent, branch_restore, branch_recombine, branch_finish):
            ring = _BranchCalls(field.modulus)
            branch_pass(plan, None, ring)
            runs += bool(ring.calls)
            for lo, hi, dist in ring.calls:
                if lo < hi:
                    assert first <= min(lo, lo + dist) and max(hi, hi + dist) <= ell, (
                        branch_pass.__name__, ell, lo, hi, dist
                    )
    # the (length, pass) runs that make a call at all
    assert runs == 16370, runs


def test_fields_with_small_two_adicity():
    # p - 1 = odd * 2^s with s = 1, 2, 1, 2, 3: every length up to 2^s,
    # where a field with s < 2 has no iota and pass 4 has at most one level
    rng = random.Random(15)
    for p, s in ((3, 1), (5, 2), (7, 1), (13, 2), (41, 3)):
        f = PrimeField(p)
        assert f.two_adicity == s
        for ell in range(1, (1 << s) + 1):
            plan = make_plan(f, ell)
            assert (plan.iota is None) == (s < 2)
            for _ in range(4):
                a = [rng.randrange(p) for _ in range(ell)]
                buf = list(a)
                tft_in_place(plan, buf)
                assert buf == naive_tft(f, plan.psi, ell, a), (p, ell)
                itft_in_place(plan, buf)
                assert buf == a, (p, ell)
        g = [rng.randrange(p) for _ in range(1 << (s - 1))]
        h = [rng.randrange(p) for _ in range((1 << (s - 1)) + 1)]
        assert tft_polymul(g, h, f) == naive_polymul(f, g, h), p


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
