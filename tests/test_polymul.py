import random
import sys
from array import array

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tftkit.instrumentation import CountingField, TallyRing
from tftkit.oracle import naive_polymul
from tftkit.polymul import tft_polymul
from tftkit.ring import DEFAULT_MODULUS, PrimeField
from tftkit.tft import make_plan, tft_in_place


def test_known_product(f17):
    assert tft_polymul([1, 2, 3], [4, 5], f17) == [4, 13, 5, 15]


def test_multiply_by_constant_one(f17):
    f = [3, 1, 4, 1, 5]
    assert tft_polymul(f, [1], f17) == f


def test_rejects_empty_inputs(f17):
    with pytest.raises(ValueError):
        tft_polymul([], [1], f17)
    with pytest.raises(ValueError):
        tft_polymul([1], [], f17)
    for f, g in ((iter([]), [1]), ([1, 2], (x for x in ()))):
        with pytest.raises(ValueError, match="inputs must be nonempty"):
            tft_polymul(f, g, f17)


def test_inputs_survive(f17):
    f, g = [1, 2], [3, 4, 5]
    tft_polymul(f, g, f17)
    assert f == [1, 2] and g == [3, 4, 5]
    f, g = list(range(40, 26, -1)), [16, 17, 18]  # unreduced, and padded to 16
    tft_polymul(f, g, f17)
    assert f == list(range(40, 26, -1)) and g == [16, 17, 18]


class _CountingIterable:
    """An iterable that counts how often it is iterated and read."""

    def __init__(self, values):
        self.values = values
        self.iterations = self.reads = 0

    def __iter__(self):
        self.iterations += 1
        for value in self.values:
            self.reads += 1
            yield value


def _read_once_shapes():
    yield 1, 1
    for n in (2, 3, 17, 300):
        yield 1, n
        yield n, 1
    yield from ((2, 299), (299, 2), (5, 300), (300, 7), (64, 237), (300, 300))


def test_any_iterable_gives_the_list_product(field):
    # tft_polymul reads each factor once, so generators and iterators,
    # which can be read only once, give the product of the same lists
    rng = random.Random(43)
    p = field.modulus
    for size_f, size_g in _read_once_shapes():
        f = [rng.randrange(p) for _ in range(size_f)]
        g = [rng.randrange(p) for _ in range(size_g)]
        want = tft_polymul(f, g, field)
        assert want == naive_polymul(field, f, g), (size_f, size_g)
        assert tft_polymul((x for x in f), iter(g), field) == want, (size_f, size_g)
        assert tft_polymul(iter(f), (x for x in g), field) == want, (size_f, size_g)
        counted = _CountingIterable(f), _CountingIterable(g)
        assert tft_polymul(*counted, field) == want, (size_f, size_g)
        assert [(c.iterations, c.reads) for c in counted] == [(1, size_f), (1, size_g)]


def test_type_error_comes_before_value_errors(f17):
    # the factors are read before they are checked: a non-integer
    # coefficient is reported first, even beside an empty factor or in a
    # product beyond f17's capacity of 16 coefficients
    with pytest.raises(ValueError):
        tft_polymul([1] * 20, [1], f17)
    with pytest.raises(TypeError):
        tft_polymul([1] * 19 + [1.5], [1], f17)
    with pytest.raises(TypeError):
        tft_polymul([1.5], [], f17)


class _PointwiseLog:
    """The field's ring, with each general product logged: in a product,
    mul runs only for the pointwise step."""

    def __init__(self, field):
        self.field, self.modulus, self.calls = field, field.modulus, []

    def __getattr__(self, name):
        return getattr(self.field, name)

    def mul(self, x, y):
        self.calls.append((x, y))
        return self.field.mul(x, y)


def _transform(field, values, ell):
    buf = values + [0] * (ell - len(values))
    tft_in_place(make_plan(field, ell), buf)
    return buf


@pytest.mark.parametrize(
    "modulus, itemsize",
    [(DEFAULT_MODULUS, 4), (2**64 - 2**32 + 1, 8), (5 * 2**75 + 1, None)],
)
def test_each_storage_path_gives_the_product(modulus, itemsize, monkeypatch):
    # the factor out of its transform waits in an array of itemsize-byte
    # items, or, beyond 64 bits, in its list; every path gives the
    # schoolbook product, as a list of exact ints, through the pointwise
    # products of f's and g's transforms in that order
    packed = []

    def logged_array(code, values):
        made = array(code, values)
        packed.append(made.itemsize)
        return made

    monkeypatch.setattr(sys.modules["array"], "array", logged_array)
    field = PrimeField.from_modulus(modulus)
    p = field.modulus
    rng = random.Random(47)
    for size_f, size_g in _read_once_shapes():
        for top in (False, True):  # random residues, then all p - 1
            f = [p - 1 if top else rng.randrange(p) for _ in range(size_f)]
            g = [p - 1 if top else rng.randrange(p) for _ in range(size_g)]
            ell = size_f + size_g - 1
            packed.clear()
            ring = _PointwiseLog(field)
            out = tft_polymul(f, g, field, ring)
            assert out == naive_polymul(field, f, g), (size_f, size_g)
            assert type(out) is list and all(type(x) is int for x in out)
            assert packed == ([itemsize] * 2 if itemsize else [])
            pairs = zip(_transform(field, f, ell), _transform(field, g, ell))
            assert ring.calls == list(pairs), (size_f, size_g)


def test_output_length(field):
    out = tft_polymul([0] * 7, [0] * 12, field)
    assert len(out) == 18
    assert out == [0] * 18


def test_matches_schoolbook(field, f17):
    rng = random.Random(41)
    for fld in (f17, field):
        p = fld.modulus
        cap = 8 if p == 17 else 40
        for _ in range(30):
            f = [rng.randrange(p) for _ in range(rng.randint(1, cap))]
            g = [rng.randrange(p) for _ in range(rng.randint(1, cap))]
            assert tft_polymul(f, g, fld) == naive_polymul(fld, f, g)


def test_unreduced_inputs_are_canonicalized(f17):
    assert tft_polymul([18], [19], f17) == naive_polymul(f17, [18], [19]) == [2]


def test_integer_like_coefficients(field):
    f = list(range(900000000, 900000100))
    g = [3, 1, 4]
    want = naive_polymul(field, f, g)
    for dtype in ("uint64", "int32"):
        out = tft_polymul(np.array(f, dtype=dtype), np.array(g, dtype=dtype), field)
        assert out == want and all(type(x) is int for x in out)
    with pytest.raises(TypeError):
        tft_polymul([1.0, 2.0], g, field)


def test_counted_run_reports_all_classes(field):
    ring = CountingField(field.modulus)
    tft_polymul([1, 2, 3, 4], [5, 6, 7], field, ring)
    c = ring.counters
    assert c.add_sub > 0 and c.mul_root > 0 and c.mul_pow2 > 0
    assert c.mul_other == 6  # one pointwise product per output coefficient


def operation_profile(field, lengths) -> dict[int, int]:
    """Total operation count of a balanced product per output length.

    For each requested output length ell, multiplies factors of
    ceil((ell+1)/2) and floor((ell+1)/2) coefficients under a tally ring
    and records the sum of all four counter classes.  Counts are
    input-independent, and the tally ring counts each block operation
    without running it, so zero coefficients measure the real cost.
    """
    profile: dict[int, int] = {}
    for ell in lengths:
        if ell < 1:
            raise ValueError("output lengths must be at least 1")
        size_f = (ell + 2) // 2
        size_g = ell + 1 - size_f
        ring = TallyRing(field.modulus)
        tft_polymul([0] * size_f, [0] * size_g, field, ring)
        profile[ell] = ring.counters.total
    return profile


def test_operation_profile_shape(field):
    lengths = [8, 16, 32]
    profile = operation_profile(field, lengths)
    assert sorted(profile) == lengths
    assert all(v > 0 for v in profile.values())
    assert profile[32] > profile[8]


def test_operation_profile_counts_the_product_run(field):
    # the tally ring skips the block loops; the totals must still be what
    # a product that runs them costs
    profile = operation_profile(field, range(1, 70))
    for ell, total in profile.items():
        ring = CountingField(field.modulus)
        size_f = (ell + 2) // 2
        tft_polymul([0] * size_f, [0] * (ell + 1 - size_f), field, ring)
        assert total == ring.counters.total, ell


@settings(max_examples=40)
@given(
    st.lists(st.integers(0, 16), min_size=1, max_size=8),
    st.lists(st.integers(0, 16), min_size=1, max_size=8),
)
def test_product_commutes(f, g):
    fld = PrimeField.from_modulus(17)
    assert tft_polymul(f, g, fld) == tft_polymul(g, f, fld)


@settings(max_examples=25)
@given(
    st.lists(st.integers(0, 16), min_size=1, max_size=6),
    st.lists(st.integers(0, 16), min_size=1, max_size=6),
    st.lists(st.integers(0, 16), min_size=1, max_size=6),
)
def test_product_associates(f, g, h):
    fld = PrimeField.from_modulus(17)
    assert tft_polymul(tft_polymul(f, g, fld), h, fld) == tft_polymul(
        f, tft_polymul(g, h, fld), fld
    )
