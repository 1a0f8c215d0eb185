import pickle
import random

import pytest

from tftkit.cli import CSV_HEADER
from tftkit.instrumentation import (
    AuditBuffer,
    BoundReport,
    CountingField,
    OpCounters,
    bound_check,
    measure_transform,
)
from tftkit.itft import itft_in_place
from tftkit.ring import pow_by_squaring
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
    ring.add(9, 12)
    ring.sub(3, 5)
    c = ring.counters
    assert c.add_sub == 2 and c.total == 2

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


def _scalar_block_op(p, name, data, args):
    """The loop each block operation stands for, one element at a time."""
    buf = list(data)
    if name == "fold":
        lo, hi, dist = args
        for j in range(lo, hi):
            u, w = buf[j], buf[j + dist]
            buf[j], buf[j + dist] = (u + w) % p, (u - w) % p
        return buf
    size, pairs = args
    for i, alpha in pairs:
        for j in range(2 * size * i, 2 * size * i + size):
            u, w = buf[j], buf[j + size]
            if name == "butterflies":
                buf[j], buf[j + size] = (u + alpha * w) % p, (u - alpha * w) % p
            else:
                buf[j], buf[j + size] = (u + w) % p, alpha * (u - w) % p
    return buf


def test_block_operations_match_scalar_loops(field):
    rng = random.Random(9)
    p = field.modulus
    n = 64
    data = [rng.randrange(p) for _ in range(n)]
    cases = [("fold", (0, 20, 32), 0, 40), ("fold", (5, 9, 4), 0, 8), ("fold", (7, 7, 3), 0, 0)]
    for size in (1, 4, 16):
        blocks = rng.sample(range(n // (2 * size)), 2)
        pairs = [(i, rng.randrange(p)) for i in blocks]
        for name in ("butterflies", "inverse_butterflies"):
            cases.append((name, (size, pairs), 2 * size, 4 * size))
            cases.append((name, (size, []), 0, 0))
    for name, args, mul_root, add_sub in cases:
        want = _scalar_block_op(p, name, data, args)
        for ring in (field, CountingField(p)):
            buf = AuditBuffer(data)
            if name == "fold":
                ring.fold(buf, *args)
            else:
                getattr(ring, name)(buf, args[0], iter(args[1]))
            assert buf.inner == want, (name, args)
            assert not buf.oob
            if isinstance(ring, CountingField):
                assert ring.counters == OpCounters(mul_root=mul_root, add_sub=add_sub)


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


def test_measure_transform_matches_direct_run(field):
    for ell in (1, 5, 8, 33):
        plan = make_plan(field, ell)
        for kind, kernel in (("forward", tft_in_place), ("inverse", itft_in_place)):
            ring = CountingField(field.modulus)
            kernel(plan, [0] * ell, ring)
            assert measure_transform(field, ell, kind) == ring.counters
    with pytest.raises(ValueError):
        measure_transform(field, 4, "fft")


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
