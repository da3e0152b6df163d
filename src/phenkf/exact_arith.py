"""Exact rational arithmetic.

Every correctness-bearing quantity in this package is a Rational.  Floats
appear only in clearly labeled approximate renderings for human output.
"""

import re
from fractions import Fraction

# Canonical-form arbitrary-precision rationals.  Fraction already keeps
# gcd(num, den) == 1 and den > 0, so normalization is free.
Rational = Fraction

_RATIONAL_RE = re.compile(r"\s*([+-]?\d+)\s*(?:/\s*([+-]?\d+)\s*)?$")


class RationalParseError(ValueError):
    """Input string is not an integer or p/q fraction."""


def parse_rational(text: str) -> Rational:
    """Parse "p", "p/q", or "-p/q" into a Rational.

    Rejects floats, empty strings, and zero denominators.
    """
    if not isinstance(text, str):
        raise RationalParseError(f"expected string, got {type(text).__name__}")
    m = _RATIONAL_RE.fullmatch(text)
    if m is None:
        raise RationalParseError(f"not a rational literal: {text!r}")
    num = int(m.group(1))
    den = int(m.group(2)) if m.group(2) is not None else 1
    if den == 0:
        raise RationalParseError(f"zero denominator: {text!r}")
    return Rational(num, den)


def format_rational(q) -> str:
    """Render as "p/q", or "p" when the denominator is 1."""
    if type(q) is not Rational:
        q = Rational(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def _fields_json(record, **renamed) -> dict:
    """A NamedTuple's fields in order, under their names or `renamed`'s:
    each Rational formatted, a tuple of codes as their words, a tuple of
    records as their as_dict(), and every other value as it is."""
    return {renamed.get(name, name): _json_value(value) for name, value in zip(record._fields, record)}


def _json_value(value):
    if type(value) is Rational:
        return format_rational(value)
    if type(value) is tuple:
        return [item.as_dict() if hasattr(item, "as_dict") else item.word for item in value]
    return value


class _LazyList(list):
    """A sized sequence of `length` items that `items()` makes afresh each
    time it is iterated, so a json encoder with indent writes them one by
    one and nothing holds them all.  The list itself stays empty: only len()
    and iteration see the items, so read it through list(...)."""

    def __init__(self, items, length: int):
        super().__init__()
        self._items, self._length = items, length

    def __iter__(self):
        return iter(self._items())

    def __len__(self) -> int:
        return self._length


def _exact(numerator: int, denominator: int) -> int:
    """numerator / denominator, which must leave no remainder: the one checked
    division of the package's fraction-free integer arithmetic.  Raises
    ArithmeticError if it is inexact."""
    quotient, remainder = divmod(numerator, denominator)
    if remainder:
        raise ArithmeticError(f"inexact division by {denominator}")
    return quotient


def approx_text(q) -> str:
    """Float rendering to 12 digits, for display only; never in comparisons."""
    return format(float(Rational(q)), ".12g")
