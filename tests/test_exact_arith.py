"""Tests for rational parsing and formatting."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from phenkf.exact_arith import (
    RationalParseError,
    _exact,
    approx_text,
    format_rational,
    parse_rational,
)


@pytest.mark.parametrize(
    "text, expected",
    [
        ("3/4", Fraction(3, 4)),
        ("7", Fraction(7)),
        ("-2", Fraction(-2)),
        ("+5/10", Fraction(1, 2)),
        (" 3 / 4 ", Fraction(3, 4)),
        ("0", Fraction(0)),
        ("6/-4", Fraction(-3, 2)),
    ],
)
def test_parse_rational(text, expected):
    assert parse_rational(text) == expected


@pytest.mark.parametrize("text", ["", "1/0", "a/b", "1.5", "1/2/3", "1 2", "/3"])
def test_parse_rational_rejects(text):
    with pytest.raises(RationalParseError):
        parse_rational(text)


def test_format_rational():
    assert format_rational(Fraction(3, 4)) == "3/4"
    assert format_rational(Fraction(5)) == "5"
    assert format_rational(Fraction(-1, 3)) == "-1/3"
    assert format_rational(Fraction(2, 4)) == "1/2"


def test_approx_text():
    assert approx_text(Fraction(1, 2)) == "0.5"
    assert approx_text(Fraction(1, 3)) == "0.333333333333"


@given(st.fractions())
def test_parse_format_roundtrip(q):
    assert parse_rational(format_rational(q)) == q


@given(st.integers(), st.integers(min_value=1))
def test_parse_plain_ratio(num, den):
    assert parse_rational(f"{num}/{den}") == Fraction(num, den)


@given(st.integers(-10**30, 10**30), st.integers(1, 10**12))
def test_exact_division_is_checked(quotient, divisor):
    assert _exact(quotient * divisor, divisor) == quotient
    assert _exact(quotient * -divisor, -divisor) == quotient
    if divisor > 1:
        with pytest.raises(ArithmeticError, match=f"inexact division by {divisor}"):
            _exact(quotient * divisor + 1, divisor)
