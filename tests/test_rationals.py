from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from combisig.errors import InstanceFormatError
from combisig.rationals import ONE, ZERO, as_fraction


def test_constants():
    assert ZERO == 0 and ONE == 1
    assert isinstance(ZERO, Fraction) and isinstance(ONE, Fraction)


@pytest.mark.parametrize(
    "raw,expected",
    [
        (3, Fraction(3)),
        ("3/4", Fraction(3, 4)),
        ("-7/2", Fraction(-7, 2)),
        ("5", Fraction(5)),
        (Fraction(9, 11), Fraction(9, 11)),
        ("0", Fraction(0)),
    ],
)
def test_as_fraction_accepts(raw, expected):
    assert as_fraction(raw) == expected


@pytest.mark.parametrize("raw", [0.5, True, False, None, [], "3/0", "abc", object()])
def test_as_fraction_rejects(raw):
    with pytest.raises(InstanceFormatError):
        as_fraction(raw)


@given(st.fractions(max_denominator=10**6))
def test_round_trip(q):
    assert as_fraction(str(q)) == q
