"""Exact rational scalars.

Everything in this package is computed over Q, with coefficients kept in
lowest terms; there is no floating point anywhere.  The tensor kernel
(``twistlog.tensor``) does its arithmetic on Python ints over one common
denominator per tensor, so the scalar type below appears only where
coefficients are handed out one by one: the ``Tensor.terms`` view, single
coefficients, and parsing and printing.  Two interchangeable backends
provide it:

* ``gmpy2.mpq`` (default when installed) -- C-implemented;
* ``fractions.Fraction`` -- pure stdlib fallback.

Set ``TWISTLOG_RATIONALS=fraction`` (or ``gmpy2``) to force a backend.
Both are exact and auto-normalized, so results are bit-identical; only the
runtime differs.  ``benchmarks/bench_rationals.py`` compares them.  Its
gmpy2 figures in the README were taken before the integer kernel; with
the kernel no longer doing per-term rational arithmetic, how much gmpy2
still gains has not been measured (the reference machine has no gmpy2).
"""

from __future__ import annotations

import os
from fractions import Fraction

_requested = os.environ.get("TWISTLOG_RATIONALS", "auto").lower()

if _requested in ("auto", "gmpy2"):
    try:
        from gmpy2 import mpq as Rat

        BACKEND = "gmpy2"
    except ImportError:
        if _requested == "gmpy2":
            raise
        Rat = Fraction
        BACKEND = "fraction"
elif _requested == "fraction":
    Rat = Fraction
    BACKEND = "fraction"
else:
    raise ValueError(
        f"TWISTLOG_RATIONALS={_requested!r}: expected 'auto', 'gmpy2' or 'fraction'"
    )

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
    return f"{int(q.numerator)}/{int(q.denominator)}"
