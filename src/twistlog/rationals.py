"""Exact rational scalars.

Everything in this package is computed over Q, with coefficients kept in
lowest terms; there is no floating point anywhere.  The tensor kernel
(``twistlog.tensor``) does its arithmetic on Python ints over one common
denominator per tensor, so the scalar type ``Rat`` -- the stdlib
``fractions.Fraction`` -- appears only where coefficients are handed out
one by one: the ``Tensor.terms`` view, single coefficients, and parsing
and printing.  ``BACKEND`` names the type in benchmark records.
"""

from __future__ import annotations

from fractions import Fraction

Rat = Fraction
BACKEND = "fraction"

ZERO = Rat(0)
ONE = Rat(1)


def rat_from_string(s: str):
    """Parse a decimal-integer fraction string: 'p/q' or a bare integer 'p'."""
    if not isinstance(s, str):
        raise ValueError(f"coefficient must be a string, got {type(s).__name__}")
    try:
        return Rat(s.strip())
    except ZeroDivisionError:
        raise ValueError(f"coefficient {s!r} has zero denominator") from None
    except ValueError:
        raise ValueError(f"malformed coefficient string {s!r}") from None


def rat_to_string(q) -> str:
    """Canonical 'p/q' form, denominator always written, lowest terms."""
    return f"{q.numerator}/{q.denominator}"
