"""Exact rational scalars.

Everything in this package is computed over Q, with coefficients kept in
lowest terms; there is no floating point anywhere.  The tensor kernel
(``twistlog.tensor``) does its arithmetic on Python ints over one common
denominator per tensor, so the scalar type ``Rat`` -- the stdlib
``fractions.Fraction`` -- appears only where coefficients are handed out
one by one: the ``Tensor.terms`` view, single coefficients, and parsing.
Output is written from the ints themselves, by ``ratio_to_string``.
``BACKEND`` names the type in benchmark records.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd

Rat = Fraction
BACKEND = "fraction"

ZERO = Rat(0)
ONE = Rat(1)


_RATIONAL = re.compile(r"\s*(-?[0-9]+)(?:/([0-9]+))?\s*", re.ASCII)


def rat_from_string(s: str):
    """Parse 'p/q' or a bare integer 'p' in ASCII digits, with an optional
    minus sign.  No point, exponent, underscore or plus sign: the cost of a
    parse is bounded by the length of the string."""
    if not isinstance(s, str):
        raise ValueError(f"coefficient must be a string, got {type(s).__name__}")
    match = _RATIONAL.fullmatch(s)
    if match is None:
        raise ValueError(f"malformed coefficient string {s!r}")
    p, q = match.groups()
    if q is not None and not int(q):
        raise ValueError(f"coefficient {s!r} has zero denominator")
    return Rat(int(p), 1 if q is None else int(q))


def rat_to_string(q) -> str:
    """Canonical 'p/q' form, denominator always written, lowest terms."""
    return f"{q.numerator}/{q.denominator}"


def ratio_to_string(p: int, q: int) -> str:
    """rat_to_string of p/q, for ints p and q > 0, with one gcd and no Rat."""
    g = gcd(p, q)
    return f"{p // g}/{q // g}"
