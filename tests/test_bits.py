import pytest
from hypothesis import given, strategies as st

from tftkit import bit_reverse


def test_known_reversals():
    assert bit_reverse(0, 0) == 0
    assert bit_reverse(0, 5) == 0
    assert bit_reverse(1, 1) == 1
    assert bit_reverse(1, 3) == 4
    assert bit_reverse(6, 3) == 3  # 110 -> 011
    assert bit_reverse(5, 4) == 10  # 0101 -> 1010


def test_rejects_indices_that_do_not_fit():
    with pytest.raises(ValueError):
        bit_reverse(4, 2)
    with pytest.raises(ValueError):
        bit_reverse(1, 0)
    with pytest.raises(ValueError):
        bit_reverse(0, -1)


@given(st.integers(min_value=0, max_value=12), st.data())
def test_reversal_is_an_involution(k, data):
    i = data.draw(st.integers(min_value=0, max_value=(1 << k) - 1))
    assert bit_reverse(bit_reverse(i, k), k) == i


def test_reversal_matches_string_reversal():
    for k in range(1, 8):
        for i in range(1 << k):
            assert bit_reverse(i, k) == int(format(i, f"0{k}b")[::-1], 2)
