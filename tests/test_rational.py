from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from satpoly.errors import InputError
from satpoly.rational import format_rational, parse_rational


def test_parse_integer_and_fraction():
    assert parse_rational("3") == Fraction(3)
    assert parse_rational("-7/14") == Fraction(-1, 2)
    assert parse_rational("0") == 0


@pytest.mark.parametrize("bad", ["", "1.5", "1/", "/2", "a", "1/0", "--3"])
def test_parse_rejects_garbage(bad):
    with pytest.raises(InputError):
        parse_rational(bad)


def test_format_never_decimal():
    assert format_rational(Fraction(1, 7)) == "1/7"
    assert format_rational(Fraction(4, 2)) == "2"
    assert format_rational(Fraction(-3, 9)) == "-1/3"


@given(st.integers(-10**12, 10**12), st.integers(1, 10**9))
def test_roundtrip_is_canonical(num, den):
    q = Fraction(num, den)
    text = format_rational(q)
    assert parse_rational(text) == q
    # canonical form is unique: re-rendering the parsed value is stable
    assert format_rational(parse_rational(text)) == text


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize(
    "den, den_text",
    [(1, ""), (3, "3"), (10**4400 + 1, "1" + "0" * 4399 + "1")],
    ids=["int", "short-den", "long-den"],
)
def test_format_past_the_int_digit_limit(sign, den, den_text):
    """The expected texts are built from digit strings, never by str() of a long int."""
    text = format_rational(Fraction(sign * (10**5000 + 7), den))
    num_text, _, tail = text.partition("/")
    assert num_text == ("-" if sign < 0 else "") + "1" + "0" * 4999 + "7"
    assert tail == den_text
