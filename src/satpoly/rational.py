"""Exact rational scalars and their textual form.

``Rational`` is the standard-library ``fractions.Fraction``: always
canonical (reduced, positive denominator) and exact under arithmetic.
The textual format is ``p/q`` or ``p`` in ASCII digits, with an optional
leading minus; decimals are never read or written.
"""

from __future__ import annotations

import re
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from satpoly.errors import InputError

Rational = Fraction

_RATIONAL_RE = re.compile(r"^-?[0-9]+(/[0-9]+)?$")


def parse_rational(text: str) -> Rational:
    """Parse ``p`` or ``p/q`` into a canonical rational."""
    text = text.strip()
    if not _RATIONAL_RE.match(text):
        raise InputError(f"not a rational literal: {text!r}")
    num, _, den = text.partition("/")
    try:  # int() refuses more digits than sys.get_int_max_str_digits() allows
        return Fraction(int(num), int(den or 1))
    except ValueError:
        raise InputError(f"rational literal too long: {len(text)} characters") from None
    except ZeroDivisionError:
        raise InputError(f"zero denominator: {text!r}") from None


@lru_cache(maxsize=64)
def parse_token(token: str) -> int | Rational:
    """``parse_rational(token)``, as an ``int`` when integral.

    Every text reader reads its values here.  The one shared cache parses
    each distinct token of a dense text once; its values are immutable, so
    sharing them is safe, and an error is not cached.
    """
    value = parse_rational(token)
    return value.numerator if value.denominator == 1 else value


def parse_int(tokens: Sequence[str], index: int, what: str) -> int:
    """The integer ``tokens[index]``, ASCII ``-?[0-9]+`` (bare ``int()`` also takes
    ``+2``, ``1_0`` and non-ASCII digits); anything else is an InputError."""
    if index >= len(tokens):
        raise InputError(f"missing integer in {what}")
    token = tokens[index]
    digits = token.removeprefix("-")
    if digits.isdigit() and digits.isascii():
        try:
            return int(token)
        except ValueError:  # more digits than sys.get_int_max_str_digits() allows
            pass
    raise InputError(f"not an integer in {what}: {token!r}")


def content_lines(text: str) -> list[str]:
    """The non-blank lines of ``text``, each stripped of a ``#`` comment."""
    return [line for raw in text.splitlines() if (line := raw.split("#", 1)[0].strip())]


def format_rational(value: Rational) -> str:
    """Render a rational as ``p`` or ``p/q`` (never a decimal)."""
    value = Fraction(value)
    try:
        if value.denominator == 1:
            return str(value.numerator)
        return f"{value.numerator}/{value.denominator}"
    except ValueError:  # str() refuses ints past sys.get_int_max_str_digits()
        # decimal reads an int's binary digits, so its str() has no such limit
        num = str(Decimal(value.numerator))
        return num if value.denominator == 1 else f"{num}/{Decimal(value.denominator)}"


def format_vector(values) -> str:
    return " ".join(format_rational(v) for v in values)
