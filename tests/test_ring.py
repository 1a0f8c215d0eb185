import inspect
import pickle
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from tftkit.instrumentation import CountingField, TallyRing
from tftkit.itft import itft_in_place
from tftkit.polymul import tft_polymul
from tftkit.ring import DEFAULT_MODULUS, PrimeField, is_probable_prime, pow_by_squaring
from tftkit.tft import make_plan, tft_in_place

PROTOCOL = (
    "modulus",
    "add",
    "sub",
    "mul",
    "mul_root",
    "mul_pow2",
    "fold",
    "butterflies",
    "inverse_butterflies",
    "radix4",
    "inverse_radix4",
    "root_power",
    "axpy",
    "park",
    "restore",
    "recombine",
    "double",
    "scale",
)


class MinimalRing:
    """Exactly the documented ring protocol, delegating to a CountingField.

    No __getattr__: a kernel that reaches for any other member fails
    with AttributeError.
    """

    __slots__ = PROTOCOL + ("inner",)

    def __init__(self, modulus):
        self.inner = CountingField(modulus)
        for name in PROTOCOL:
            setattr(self, name, getattr(self.inner, name))


def test_from_modulus_small(f17):
    assert f17.modulus == 17
    assert f17.two_adicity == 4
    g = f17.generator_root
    assert pow(g, 8, 17) == 16  # order exactly 2^4
    assert pow(g, 16, 17) == 1


def test_from_modulus_default(field):
    assert field.modulus == DEFAULT_MODULUS
    assert field.two_adicity == 23
    g = field.generator_root
    assert pow(g, 1 << 22, DEFAULT_MODULUS) == DEFAULT_MODULUS - 1


def test_rejects_bad_moduli():
    psi_12 = 318665857834031151167461  # strong pseudoprime to bases 2..37
    psi_13 = 3317044064679887385961981  # to 2..41: refused, not trusted
    for bad in (0, 1, 2, 4, 15, 998244351, psi_12, psi_13):
        with pytest.raises(ValueError):
            PrimeField.from_modulus(bad)


def test_rejects_inconsistent_parameters():
    with pytest.raises(ValueError):
        PrimeField(15)  # composite
    with pytest.raises(TypeError):
        PrimeField(17, 4, 3)  # two_adicity and generator_root are derived
    for bad in (7.0, 17.0, "17"):
        with pytest.raises(TypeError):
            PrimeField(bad)
    converted = PrimeField(np.int64(17))
    assert converted == PrimeField(17) and type(converted.modulus) is int


def test_field_is_a_frozen_value(f17, field):
    with pytest.raises(AttributeError):
        f17.modulus = 19
    same = PrimeField(17)
    assert same == f17 and hash(same) == hash(f17)
    assert {f17: "f17"}[same] == "f17"
    assert f17 != field and f17 != PrimeField(97)
    assert repr(f17) == "PrimeField(modulus=17, two_adicity=4, generator_root=3)"
    assert pickle.loads(pickle.dumps(field)) == field


def test_rings_share_block_operation_signatures():
    # the kernels call the block operations positionally, so the two
    # shipped rings must not drift apart when a member's shape changes
    for name in PROTOCOL[PROTOCOL.index("fold"):]:
        params = [
            list(inspect.signature(getattr(ring, name)).parameters)
            for ring in (PrimeField, CountingField, TallyRing)
        ]
        assert params[0] == params[1] == params[2], name


def test_basic_arithmetic(f17):
    assert f17.add(9, 12) == 4
    assert f17.sub(3, 5) == 15
    assert f17.mul(5, 7) == 1


def test_tagged_products_are_plain_products():
    assert PrimeField.mul_root is PrimeField.mul
    assert PrimeField.mul_pow2 is PrimeField.mul


def test_root_of_order(f17):
    assert f17.root_of_order(0) == 1
    assert f17.root_of_order(1) == 16
    for m in range(1, 5):
        r = f17.root_of_order(m)
        assert pow(r, 1 << (m - 1), 17) == 16
    with pytest.raises(ValueError):
        f17.root_of_order(5)
    with pytest.raises(ValueError):
        f17.root_of_order(-1)


@given(
    st.integers(min_value=0, max_value=16),
    st.integers(min_value=0, max_value=16),
    st.integers(min_value=0, max_value=16),
)
def test_field_identities(x, y, z):
    f = PrimeField.from_modulus(17)
    assert f.add(x, y) == f.add(y, x)
    assert f.mul(x, y) == f.mul(y, x)
    assert f.mul(x, f.add(y, z)) == f.add(f.mul(x, y), f.mul(x, z))
    assert f.add(f.sub(x, y), y) == x


def test_pow_by_squaring_call_counts():
    calls = []

    def mul(a, b):
        calls.append((a, b))
        return a * b

    assert pow_by_squaring(mul, 7, 0) == 1
    assert calls == []
    assert pow_by_squaring(mul, 7, 1) == 7
    assert calls == []
    assert pow_by_squaring(mul, 2, 8) == 256
    assert len(calls) == 3  # e = 2^d squares d times, multiplies never
    calls.clear()
    pow_by_squaring(mul, 2, 11)  # 0b1011
    assert len(calls) <= 2 * 3 + 1
    with pytest.raises(ValueError):
        pow_by_squaring(mul, 2, -1)


def test_probable_prime_spot_checks():
    assert is_probable_prime(2)
    assert is_probable_prime(998244353)
    assert is_probable_prime(18446744069414584321)
    assert not is_probable_prime(1)
    assert not is_probable_prime(998244353 * 3)
    assert not is_probable_prime(3215031751)  # strong pseudoprime to 2,3,5,7
    assert not is_probable_prime(318665857834031151167461)  # psi_12


def test_kernels_need_only_the_ring_protocol(field):
    p = field.modulus
    rng = random.Random(5)
    assert {n for n in dir(MinimalRing(p)) if not n.startswith("_")} == {*PROTOCOL, "inner"}
    for kernel in (tft_in_place, itft_in_place):
        for ell in range(1, 131):
            plan = make_plan(field, ell)
            data = [rng.randrange(p) for _ in range(ell)]
            minimal, direct = MinimalRing(p), CountingField(p)
            got, want = list(data), list(data)
            kernel(plan, got, minimal)
            kernel(plan, want, direct)
            assert got == want, (kernel.__name__, ell)
            assert minimal.inner.counters == direct.counters, (kernel.__name__, ell)
    for size_f, size_g in ((1, 1), (3, 5), (64, 64)):
        f = [rng.randrange(p) for _ in range(size_f)]
        g = [rng.randrange(p) for _ in range(size_g)]
        minimal, direct = MinimalRing(p), CountingField(p)
        assert tft_polymul(f, g, field, minimal) == tft_polymul(f, g, field, direct)
        assert minimal.inner.counters == direct.counters


class RecordingRing:
    """A PrimeField that records the name of every member looked up on it."""

    __slots__ = ("inner", "seen")

    def __init__(self, modulus):
        self.inner = PrimeField(modulus)
        self.seen = set()

    def __getattr__(self, name):
        self.seen.add(name)
        return getattr(self.inner, name)


def test_kernels_and_products_use_the_protocol_but_add_and_sub(field):
    # add and sub stay in the protocol for callers outside the package;
    # the kernels and tft_polymul use every other member, and no other name
    p = field.modulus
    rng = random.Random(6)
    ring = RecordingRing(p)
    for ell in (*range(1, 301), 1025, 4097, 5000):
        plan = make_plan(field, ell)
        data = [rng.randrange(p) for _ in range(ell)]
        for kernel in (tft_in_place, itft_in_place):
            got = list(data)
            kernel(plan, got, ring)
            want = list(data)
            kernel(plan, want)
            assert got == want, (kernel.__name__, ell)
        size_f = (ell + 2) // 2
        f, g = data[:size_f], data[: ell + 1 - size_f]
        assert tft_polymul(f, g, field, ring) == tft_polymul(f, g, field)
    assert ring.seen == set(PROTOCOL) - {"add", "sub"}
