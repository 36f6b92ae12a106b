"""Scalar type: exactness, parsing and printing."""

from fractions import Fraction

import pytest

from twistlog.rationals import BACKEND, Rat, rat_from_string, rat_to_string


def test_backend_is_known():
    assert BACKEND == "fraction"
    assert Rat is Fraction


def test_exact_arithmetic():
    third = Rat(1, 3)
    assert third * 3 == 1
    assert Rat(1, 10) + Rat(2, 10) == Rat(3, 10)
    # auto-normalization to lowest terms
    assert Rat(6, 8) == Rat(3, 4)


def test_print_is_canonical_and_reparses():
    # denominator always written, lowest terms; printing then parsing is exact
    assert rat_to_string(Rat(3, 4)) == "3/4"
    assert rat_to_string(Rat(1)) == "1/1"
    assert rat_to_string(Rat(0)) == "0/1"
    assert rat_to_string(Rat(-6, 8)) == "-3/4"
    for q in (Rat(0), Rat(7), Rat(-22, 7), Rat(5, 120)):
        assert rat_from_string(rat_to_string(q)) == q


def test_parse_normalizes():
    assert rat_from_string("6/8") == Rat(3, 4)
    assert rat_from_string(" 2/6 ") == Rat(1, 3)


def test_parse_rejects_garbage():
    for text in ("", "a", "1/0", "1/2/3"):
        with pytest.raises(ValueError):
            rat_from_string(text)
    with pytest.raises(ValueError):
        rat_from_string(None)
