import pickle
import random
import sys

import pytest

from tftkit.cli import CSV_HEADER
from tftkit.instrumentation import (
    AuditBuffer,
    BoundReport,
    CountingField,
    OpCounters,
    TallyRing,
    bound_check,
    measure_transform,
)
from tftkit.itft import itft_in_place
from tftkit.ring import PrimeField, pow_by_squaring
from tftkit.tft import make_plan, tft_in_place


def test_counters_default_to_zero():
    c = OpCounters()
    assert (c.mul_root, c.mul_pow2, c.add_sub, c.mul_other) == (0, 0, 0, 0)
    assert c.total == 0
    assert OpCounters(mul_root=2, add_sub=5).total == 7


def test_counters_and_reports_are_frozen_values():
    c = OpCounters(mul_root=1, add_sub=8)
    with pytest.raises(AttributeError):
        c.add_sub = 9
    assert c == OpCounters(1, 0, 8, 0) and hash(c) == hash(OpCounters(1, 0, 8, 0))
    assert c != OpCounters(mul_root=1, add_sub=9)
    assert OpCounters() == OpCounters(0, 0, 0, 0)
    assert OpCounters(1, 2, 3, 4).total == 10
    assert repr(c) == "OpCounters(mul_root=1, mul_pow2=0, add_sub=8, mul_other=0)"

    rep = bound_check(4, c, "forward")
    with pytest.raises(AttributeError):
        rep.ell = 5
    same = BoundReport(4, c, "forward")
    assert rep == same and hash(rep) == hash(same)
    assert rep != bound_check(4, c, "inverse")
    assert repr(rep) == (
        f"BoundReport(ell=4, kind='forward', counters={c!r}, "
        "add_bound=16, root_bound=84, pow2_bound=0)"
    )
    assert pickle.loads(pickle.dumps(rep)) == rep


def test_counting_field_classifies_operations():
    ring = CountingField(17)
    assert ring.add(9, 12) == 4  # outside the protocol, kept for the benchmark
    c = ring.counters
    assert c.add_sub == 1 and c.total == 1

    ring.reset()
    ring.mul_root(2, 3)
    ring.mul_pow2(9, 4)
    ring.mul(5, 7)
    c = ring.counters
    assert (c.mul_root, c.mul_pow2, c.mul_other, c.add_sub) == (1, 1, 1, 0)


def test_counting_field_pow_costs():
    ring = CountingField(17)
    assert pow_by_squaring(ring.mul_root, 9, 1) == 9
    assert ring.counters.mul_root == 0  # exponent 1 costs nothing
    ring.reset()
    pow_by_squaring(ring.mul_root, 9, 8)
    assert ring.counters.mul_root == 3  # three squarings
    ring.reset()
    pow_by_squaring(ring.mul_pow2, 9, 4)
    assert ring.counters.mul_pow2 == 2
    ring.reset()
    assert pow_by_squaring(ring.mul, 3, 0) == 1
    assert ring.counters.total == 0


# the step each run stands for on (x, y) = (x_j, x_{j+dist}), written as
# the scalar ring calls it replaces, and its (mul_root, add_sub) cost
_PAIR_STEPS = {
    "fold": (lambda p, a, x, y: ((x + y) % p, (x - y) % p), 0, 2),
    "butterflies": (lambda p, a, x, y: ((x + a * y) % p, (x - a * y) % p), 1, 2),
    "inverse_butterflies": (lambda p, a, x, y: ((x + y) % p, a * (x - y) % p), 1, 2),
    "axpy": (lambda p, a, x, y: ((x + a * y % p) % p, y), 1, 1),
    "park": (lambda p, a, x, y: (y, (x - a * y % p) % p), 1, 1),
    "restore": (lambda p, a, x, y: ((2 * (a * x % p) % p + y) % p, x), 1, 2),
    "recombine": (lambda p, a, x, y: (x, (x - a * y % p) % p), 1, 1),
    "double": (lambda p, a, x, y: ((2 * x % p - a * y % p) % p, y), 1, 2),
}


def _scalar_block_op(p, name, data, lo, hi, dist, alpha):
    """The loop each pair run stands for, one pair at a time."""
    step = _PAIR_STEPS[name][0]
    buf = list(data)
    for j in range(lo, hi):
        buf[j], buf[j + dist] = step(p, alpha, buf[j], buf[j + dist])
    return buf


def test_block_operations_match_scalar_loops(field):
    # each case is (lo, hi, dist): a higher partner, a lower one (as
    # the branch passes pair head + j with the borrowed slots below), and
    # an empty run, which touches nothing and counts nothing
    rng = random.Random(9)
    p = field.modulus
    n = 64
    data = [rng.randrange(p) for _ in range(n)]
    runs = [(0, 20, 32), (5, 9, 4), (16, 32, 16), (40, 52, -23), (7, 7, 3)]
    for name, (_, roots, adds) in _PAIR_STEPS.items():
        for lo, hi, dist in runs:
            alpha = rng.randrange(2, p)
            args = (lo, hi, dist) if name == "fold" else (lo, hi, dist, alpha)
            want = _scalar_block_op(p, name, data, lo, hi, dist, alpha)
            touched = (min(lo, lo + dist), max(hi, hi + dist) - 1) if hi > lo else (None, None)
            for ring in (field, CountingField(p)):
                buf = AuditBuffer(data)
                getattr(ring, name)(buf, *args)
                assert buf.inner == want, (name, args)
                assert not buf.oob and (buf.lo, buf.hi) == touched, (name, args)
                if isinstance(ring, CountingField):
                    want_counts = OpCounters(mul_root=roots * (hi - lo), add_sub=adds * (hi - lo))
                    assert ring.counters == want_counts, (name, args)
    for lo, hi, _ in runs:
        c = rng.randrange(2, p)
        want = [c * x % p if lo <= j < hi else x for j, x in enumerate(data)]
        for ring in (field, CountingField(p)):
            buf = AuditBuffer(data)
            ring.scale(buf, lo, hi, c)
            assert buf.inner == want, ("scale", lo, hi)
            assert not buf.oob and (buf.lo, buf.hi) == ((lo, hi - 1) if hi > lo else (None, None))
            if isinstance(ring, CountingField):
                assert ring.counters == OpCounters(mul_pow2=hi - lo), ("scale", lo, hi)


def test_root_power_is_pow_at_the_cost_of_pow_by_squaring(field):
    # the plain field may take builtin pow; the counting ring must count
    # what square-and-multiply over a counted mul_root makes
    rng = random.Random(11)
    p = field.modulus
    for e in (0, 1, 2, 3, 1 << 20, (1 << 20) - 1, (1 << 23) - 1, rng.randrange(1 << 23)):
        x = rng.randrange(2, p)
        ring, reference = CountingField(p), CountingField(p)
        assert field.root_power(x, e) == ring.root_power(x, e) == pow(x, e, p), e
        assert pow_by_squaring(reference.mul_root, x, e) == pow(x, e, p)
        assert ring.counters == reference.counters, e


def test_root_power_tally_is_the_square_and_multiply_count():
    # CountingField counts a power in closed form; pow_by_squaring over a
    # counting mul_root is the definition it must match
    exponents = list(range(4097))
    exponents += [(1 << k) + d for k in range(24) for d in (-1, 0, 1)]
    ring, reference = CountingField(17), CountingField(17)
    for e in exponents:
        ring.reset()
        reference.reset()
        assert ring.root_power(3, e) == pow_by_squaring(reference.mul_root, 3, e)
        assert ring.counters == reference.counters, e
    with pytest.raises(ValueError):
        ring.root_power(3, -1)


def test_radix4_step_is_two_radix2_levels(field):
    # one radix-4 sweep over blocks of 4*size equals the two radix-2
    # levels it merges: forward 2*size then size, inverse size then 2*size.
    # Block 0 is always swept, as its two folds and one radix-2 block with
    # iota (p - iota inverse); the runs are a one-block run (bits = 0) and
    # the first-run shape (2, 3, b, step, 2), blocks 2, 1, 3 with twiddles
    # b, b*step, b*step^2
    rng = random.Random(10)
    p = field.modulus
    iota = field.root_of_order(2)
    for size in (1, 2, 4, 32):
        n = 4 * size * 5
        data = [rng.randrange(p) for _ in range(n)]
        b4, b, step = (rng.randrange(2, p) for _ in range(3))
        runs = [(4, 1, b4, rng.randrange(2, p), 0), (2, 3, b, step, 2)]
        blocks = [(4, b4), (2, b), (1, b * step % p), (3, b * step * step % p)]
        forward0 = list(data)
        field.fold(forward0, 0, 2 * size, 2 * size)
        field.fold(forward0, 0, size, size)
        field.butterflies(forward0, 2 * size, 3 * size, size, iota)
        inverse0 = list(data)
        field.fold(inverse0, 0, size, size)
        field.inverse_butterflies(inverse0, 2 * size, 3 * size, size, p - iota)
        field.fold(inverse0, 0, 2 * size, 2 * size)
        forward = list(forward0)
        inverse = list(inverse0)
        for i, c in blocks:
            x0, x2 = 4 * size * i, 4 * size * i + 2 * size
            field.butterflies(forward, x0, x2, 2 * size, c * c % p)
            field.butterflies(forward, x0, x0 + size, size, c)
            field.butterflies(forward, x2, x2 + size, size, c * iota % p)
            field.inverse_butterflies(inverse, x0, x0 + size, size, c)
            field.inverse_butterflies(inverse, x2, x2 + size, size, c * (p - iota) % p)
            field.inverse_butterflies(inverse, x0, x2, 2 * size, c * c % p)
        for name, want, want0 in (
            ("radix4", forward, forward0), ("inverse_radix4", inverse, inverse0)
        ):
            for ring in (field, CountingField(p)):
                buf = AuditBuffer(data)
                getattr(ring, name)(buf, size, iota, iter(runs))
                assert buf.inner == want, (name, size)
                assert not buf.oob and (buf.lo, buf.hi) == (0, 20 * size - 1)
                if isinstance(ring, CountingField):
                    # block 0: size and 8*size; (4*size + 3)*n - 1 per run of n
                    want_counts = OpCounters(mul_root=17 * size + 10, add_sub=40 * size)
                    assert ring.counters == want_counts, (name, size)
            # no runs: block 0 alone
            ring = CountingField(p)
            buf = AuditBuffer(data)
            getattr(ring, name)(buf, size, iota, ())
            assert buf.inner == want0 and want0[4 * size:] == data[4 * size:], (name, size)
            assert (buf.lo, buf.hi) == (0, 4 * size - 1)
            assert ring.counters == OpCounters(mul_root=size, add_sub=8 * size)


def test_counted_ring_is_fresh(field):
    ring = CountingField(field.modulus)
    assert ring.modulus == field.modulus
    assert ring.counters.total == 0


def test_audit_buffer_tracks_extremes():
    buf = AuditBuffer([10, 20, 30, 40])
    assert len(buf) == 4
    assert buf.lo is None and buf.hi is None and not buf.oob
    assert buf[1] == 20
    buf[2] = 7
    assert buf.inner[2] == 7
    assert (buf.lo, buf.hi) == (1, 2)
    assert not buf.oob


def test_audit_buffer_flags_escapes():
    buf = AuditBuffer([1, 2, 3])
    with pytest.raises(IndexError):
        buf[3]
    assert buf.oob
    buf = AuditBuffer([1, 2, 3])
    with pytest.raises(IndexError):
        buf[-1] = 5  # no wrap-around indexing under audit
    assert buf.oob
    buf = AuditBuffer([1, 2, 3])
    with pytest.raises(IndexError):
        buf[0:2]
    assert buf.oob


def test_bound_report_verdict():
    ok = OpCounters(mul_root=1, mul_pow2=0, add_sub=8, mul_other=0)
    rep = bound_check(4, ok, "forward")
    assert rep.passed
    assert rep.csv_row() == "4,forward,1,0,8,16,84,0,1"
    assert len(rep.csv_row().split(",")) == len(CSV_HEADER.split(","))

    stray = OpCounters(mul_root=1, add_sub=8, mul_other=1)
    assert not bound_check(4, stray, "forward").passed
    heavy = OpCounters(add_sub=10 ** 6)
    assert not bound_check(4, heavy, "forward").passed
    rep = bound_check(4, heavy, "forward")
    assert rep.csv_row().endswith(",0")


def test_bound_check_kinds():
    c = OpCounters()
    assert bound_check(8, c, "forward").add_bound == 8 * 3 + 16
    assert bound_check(8, c, "inverse").add_bound == 8 * 3 + 24
    assert bound_check(8, c, "inverse").pow2_bound == 8 + 2 * 3 + 4
    with pytest.raises(ValueError):
        bound_check(8, c, "fft")  # no such kind; the power-of-two claim is in test_fft
    with pytest.raises(ValueError):
        bound_check(0, c, "forward")
    with pytest.raises(ValueError):
        bound_check(8, c, "sideways")
    # the bounds are derived from ell and kind, never passed in
    with pytest.raises(TypeError):
        BoundReport(4, "forward", c, 16, 84, 0)
    with pytest.raises(TypeError):
        BoundReport(4.0, c, "forward")
    assert BoundReport(ell=8, counters=c, kind="inverse") == bound_check(8, c, "inverse")


def test_forward_bound_uses_binary_split():
    # ell = 12 = 8 + 4: split term is 8/2*3 + 4/2*2 = 16
    rep = bound_check(12, OpCounters(), "forward")
    m = 4
    assert rep.root_bound == 16 + 24 + 8 * (m + 1) ** 2


# the seven benchmark lengths, and 2^k-1, 2^k, 2^k+1, 2^k+5 for k = 13..17
ROADMAP_LENGTHS = (1000, 1024, 1025, 4096, 5000, 65536, 100000)
EXTREMAL_LENGTHS = tuple(
    ell for k in range(13, 18) for ell in ((1 << k) - 1, 1 << k, (1 << k) + 1, (1 << k) + 5)
)


def test_measure_transform_matches_direct_run(field):
    # measure_transform runs the kernels on a TallyRing over a buffer that
    # holds only a length; the bound gates read its counts, so they must
    # be the counts of the kernels run in full on CountingField
    for ell in (*range(1, 513), *EXTREMAL_LENGTHS, *ROADMAP_LENGTHS):
        plan = make_plan(field, ell)
        for kind, kernel in (("forward", tft_in_place), ("inverse", itft_in_place)):
            ring = CountingField(field.modulus)
            kernel(plan, [0] * ell, ring)
            assert measure_transform(field, ell, kind) == ring.counters, (kind, ell)
    with pytest.raises(ValueError):
        measure_transform(field, 4, "fft")


def _fresh(arg):
    # a radix-4 call drains its runs, so each ring gets its own iterator
    return iter(arg) if isinstance(arg, list) else arg


def test_tally_ring_counts_block_operations_without_touching_the_buffer(field):
    # each block member tallies what CountingField's does on the same
    # arguments, empty and negative-distance runs included, and reads or
    # writes no entry
    rng = random.Random(12)
    p = field.modulus
    iota = field.root_of_order(2)
    data = [rng.randrange(p) for _ in range(160)]
    calls = [
        (name, (lo, hi, dist) if name == "fold" else (lo, hi, dist, rng.randrange(2, p)))
        for name in _PAIR_STEPS
        for lo, hi, dist in ((0, 20, 32), (40, 52, -23), (7, 7, 3), (9, 5, 2))
    ]
    calls += [("scale", (lo, hi, 3)) for lo, hi in ((3, 40), (8, 8))]
    for size in (1, 4):
        runs = [(4, 1, 5, 7, 0), (2, 3, 11, 13, 2)]
        calls += [(name, (size, iota, runs)) for name in ("radix4", "inverse_radix4")]
    for name, args in calls:
        tally, counted = TallyRing(p), CountingField(p)
        buf = AuditBuffer(data)
        getattr(tally, name)(buf, *map(_fresh, args))
        getattr(counted, name)(list(data), *map(_fresh, args))
        assert buf.inner == data and buf.lo is None, (name, args)
        assert tally.counters == counted.counters, (name, args)
        with pytest.raises(TypeError):  # PrimeField's arity, not any
            getattr(tally, name)(buf, *args[:-1])


def test_measure_transform_reaches_the_field_capacity(field):
    top = 1 << field.two_adicity
    for kind in ("forward", "inverse"):
        assert measure_transform(field, 1, kind) == OpCounters()
        assert bound_check(top, measure_transform(field, top, kind), kind).passed
        with pytest.raises(ValueError):
            measure_transform(field, top + 1, kind)


def test_measure_transform_names_the_longest_countable_length():
    # len() of the counting buffer holds at most sys.maxsize (2^63 - 1 on
    # 64-bit builds); this field's two-adicity of 75 allows longer lengths
    field = PrimeField.from_modulus(5 * 2**75 + 1)
    for kind in ("forward", "inverse"):
        for ell in (2**62 + 5, sys.maxsize):
            assert bound_check(ell, measure_transform(field, ell, kind), kind).passed
        for ell in (sys.maxsize + 1, 2**75):
            with pytest.raises(ValueError, match=f"exceeds {sys.maxsize}"):
                measure_transform(field, ell, kind)


def test_counts_ignore_buffer_contents(field):
    rng = random.Random(31)
    p = field.modulus
    for kind, kernel in (("forward", tft_in_place), ("inverse", itft_in_place)):
        plan = make_plan(field, 13)
        seen = set()
        for _ in range(3):
            ring = CountingField(field.modulus)
            kernel(plan, [rng.randrange(p) for _ in range(13)], ring)
            seen.add(ring.counters)
        assert len(seen) == 1, kind
