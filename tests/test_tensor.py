"""Truncated tensor algebra: contexts, arithmetic, grading, wedges, JSON."""

import random

import pytest

from twistlog.rationals import Rat
from twistlog.tensor import (
    AlgebraContext,
    Tensor,
    antipode,
    antisymmetrize,
    basis_tensor,
    filtration_degree,
    graded_part,
    intersection,
    monomial_tensor,
    one_tensor,
    scalar_tensor,
    symplectic_form,
    tensor_from_json,
    tensor_from_scaled,
    tensor_to_json,
    truncate,
    zero_tensor,
)


def random_tensor(rng, ctx, max_degree=None, terms=4):
    cap = ctx.truncation if max_degree is None else max_degree
    out = zero_tensor(ctx)
    for _ in range(terms):
        mono = tuple(rng.randrange(ctx.dim) for _ in range(rng.randint(0, cap)))
        out = out + monomial_tensor(ctx, mono, Rat(rng.randint(-4, 4), rng.randint(1, 3)))
    return out


def test_context_validation():
    ctx = AlgebraContext(2, 4)
    assert ctx.dim == 4
    with pytest.raises(ValueError):
        AlgebraContext(0, 4)
    with pytest.raises(ValueError):
        AlgebraContext(1, 1)


def test_basis_names_round_trip():
    ctx = AlgebraContext(3, 3)
    names = [ctx.basis_name(i) for i in range(ctx.dim)]
    assert names == ["A1", "B1", "A2", "B2", "A3", "B3"]
    for i, name in enumerate(names):
        assert ctx.basis_index(name) == i
    # names are ASCII [AB][1-9][0-9]*, matched in full
    for bad in ("C1", "A4", "a1", "A01", "A\u0661", "A+1", "A 1", "A1 ", "A", ""):
        with pytest.raises(ValueError):
            ctx.basis_index(bad)
    with pytest.raises(ValueError):
        ctx.basis_name(6)


def test_intersection_form():
    ctx = AlgebraContext(2, 2)
    # (A_i . B_i) = 1, antisymmetric, zero otherwise
    assert intersection(ctx, 0, 1) == 1
    assert intersection(ctx, 1, 0) == -1
    assert intersection(ctx, 0, 0) == 0
    assert intersection(ctx, 0, 3) == 0
    assert intersection(ctx, 2, 3) == 1


def test_constructor_drops_zeros_and_checks_degree():
    ctx = AlgebraContext(1, 3)
    t = Tensor(ctx, {(0,): Rat(0), (1,): Rat(2)})
    assert t.terms == {(1,): Rat(2)}
    with pytest.raises(ValueError):
        Tensor(ctx, {(0, 0, 0, 0): Rat(1)})
    with pytest.raises(ValueError):
        Tensor(ctx, {(5,): Rat(1)})
    with pytest.raises(ValueError, match="denominator must be positive, got 0"):
        tensor_from_scaled(ctx, {}, 0)


def test_arithmetic_basics():
    ctx = AlgebraContext(1, 4)
    a = basis_tensor(ctx, 0)
    b = basis_tensor(ctx, 1)
    assert a + b - a == b
    assert a - a == 0
    assert (a * b).terms == {(0, 1): Rat(1)}
    assert a.scale(2) / 2 == a
    assert -(-a) == a
    assert 1 + a == one_tensor(ctx) + a
    assert 2 * a == a.scale(2)


def test_products_truncate():
    ctx = AlgebraContext(1, 3)
    abc = monomial_tensor(ctx, (0, 1, 0))
    a = basis_tensor(ctx, 0)
    assert abc * a == 0
    # mixed degrees keep what fits
    t = (one_tensor(ctx) + abc) * a
    assert t == a


def test_context_mismatch_rejected():
    t1 = basis_tensor(AlgebraContext(1, 3), 0)
    t2 = basis_tensor(AlgebraContext(1, 4), 0)
    with pytest.raises(ValueError):
        t1 + t2
    with pytest.raises(ValueError):
        t1 * t2


def test_coefficient_and_degrees():
    ctx = AlgebraContext(1, 4)
    t = monomial_tensor(ctx, (0, 1), Rat(5)) + scalar_tensor(ctx, 3)
    assert t.coefficient((0, 1)) == 5
    assert t.coefficient((1, 0)) == 0
    assert t.degrees() == [0, 2]


def test_symplectic_form_terms():
    ctx = AlgebraContext(2, 3)
    omega = symplectic_form(ctx)
    assert omega.terms == {
        (0, 1): Rat(1),
        (1, 0): Rat(-1),
        (2, 3): Rat(1),
        (3, 2): Rat(-1),
    }


def test_grading_and_filtration():
    ctx = AlgebraContext(1, 4)
    t = scalar_tensor(ctx, 2) + basis_tensor(ctx, 0) + monomial_tensor(ctx, (0, 1, 1))
    assert graded_part(t, 0) == scalar_tensor(ctx, 2)
    assert graded_part(t, 3) == monomial_tensor(ctx, (0, 1, 1))
    assert graded_part(t, 2) == 0
    with pytest.raises(ValueError):
        graded_part(t, 5)
    assert filtration_degree(t) == 0
    assert filtration_degree(t - scalar_tensor(ctx, 2)) == 1
    assert filtration_degree(zero_tensor(ctx)) == 5


def test_truncate_lowers_and_raises():
    ctx4 = AlgebraContext(1, 4)
    ctx2 = AlgebraContext(1, 2)
    t = basis_tensor(ctx4, 0) + monomial_tensor(ctx4, (0, 1, 1))
    down = truncate(t, ctx2)
    assert down.ctx == ctx2 and down.terms == {(0,): Rat(1)}
    up = truncate(down, ctx4)
    assert up.ctx == ctx4 and up.terms == down.terms
    with pytest.raises(ValueError):
        truncate(t, AlgebraContext(2, 4))


def test_wedge_embed_degree_two_is_bracket():
    # the wedge X ^ Y embeds as 2 antisymmetrize(XY)
    ctx = AlgebraContext(2, 3)
    x, y = basis_tensor(ctx, 0), basis_tensor(ctx, 3)
    assert antisymmetrize(x * y).scale(2) == x * y - y * x


def test_wedge_embed_antisymmetry():
    ctx = AlgebraContext(2, 3)
    x, y, z = (basis_tensor(ctx, i) for i in (0, 1, 2))
    w = antisymmetrize(x * y * z).scale(6)
    assert antisymmetrize(y * x * z).scale(6) == -w
    assert antisymmetrize(x * x * z) == 0
    assert antisymmetrize(w) == w


def test_antisymmetrize_is_projector():
    rng = random.Random(4021)
    ctx = AlgebraContext(2, 4)
    for _ in range(20):
        t = random_tensor(rng, ctx)
        p = antisymmetrize(t)
        assert antisymmetrize(p) == p
    # symmetric monomials die, low degrees pass through
    assert antisymmetrize(monomial_tensor(ctx, (0, 0))) == 0
    low = scalar_tensor(ctx, 5) + basis_tensor(ctx, 1)
    assert antisymmetrize(low) == low


def test_json_round_trip_and_canonical_order():
    rng = random.Random(90125)
    ctx = AlgebraContext(2, 4)
    for _ in range(20):
        t = random_tensor(rng, ctx)
        obj = tensor_to_json(t)
        assert obj["terms"] == sorted(obj["terms"], key=lambda e: e["mono"])
        assert tensor_from_json(obj) == t
        assert tensor_from_json(obj, ctx) == t


def test_json_validation():
    ctx = AlgebraContext(1, 2)
    good = tensor_to_json(basis_tensor(ctx, 0))
    with pytest.raises(ValueError):
        tensor_from_json([])
    with pytest.raises(ValueError):
        tensor_from_json({k: v for k, v in good.items() if k != "terms"})
    with pytest.raises(ValueError):
        tensor_from_json(good, AlgebraContext(1, 3))
    dup = dict(good, terms=[{"mono": [0], "coeff": "1/1"}, {"mono": [0], "coeff": "2/1"}])
    with pytest.raises(ValueError):
        tensor_from_json(dup)
    zero = dict(good, terms=[{"mono": [0], "coeff": "0/1"}])
    with pytest.raises(ValueError):
        tensor_from_json(zero)


def test_float_coefficients_are_refused():
    ctx = AlgebraContext(1, 3)
    a = basis_tensor(ctx, 0)
    for make in (
        lambda: Tensor(ctx, {(0,): 0.1}),
        lambda: monomial_tensor(ctx, (0, 1), 0.5),
        lambda: scalar_tensor(ctx, 2.0),
        lambda: a.scale(0.5),
        lambda: a * 0.5,
        lambda: 0.5 * a,
        lambda: a / 2.0,
    ):
        with pytest.raises(ValueError, match="float"):
            make()
    # exact inputs still go through
    assert Tensor(ctx, {(0,): "1/10"}) == a.scale(Rat(1, 10))


def test_string_coefficients_use_the_one_grammar():
    ctx = AlgebraContext(1, 3)
    a = basis_tensor(ctx, 0)
    for text in ("0.5", "1e3", "1_000", "+3"):
        for make in (
            lambda: Tensor(ctx, {(0,): text}),
            lambda: scalar_tensor(ctx, text),
            lambda: a.scale(text),
            lambda: a / text,
        ):
            with pytest.raises(ValueError, match="malformed"):
                make()
    assert a.scale("-3/6") == a.scale(Rat(-1, 2))


def test_json_monomial_indices_must_be_ints():
    ctx = AlgebraContext(1, 2)
    good = tensor_to_json(basis_tensor(ctx, 0))
    for index in (0.0, True, "0"):
        bad = dict(good, terms=[{"mono": [index], "coeff": "1/1"}])
        with pytest.raises(ValueError, match="monomial index"):
            tensor_from_json(bad)
    for terms in (5, [["mono", [0]]], [{"mono": [0]}], [{"mono": 0, "coeff": "1/1"}]):
        with pytest.raises(ValueError):
            tensor_from_json(dict(good, terms=terms))


def test_context_fields_must_be_ints():
    for genus, truncation in (("2", 3), (2, 3.0), (True, 3), (None, 3)):
        with pytest.raises(ValueError, match="must be an integer"):
            AlgebraContext(genus, truncation)
    with pytest.raises(ValueError):
        tensor_from_json({"genus": "2", "truncation": 3, "terms": []})


def test_monomial_indices_must_be_exact_ints():
    ctx = AlgebraContext(1, 3)
    t = monomial_tensor(ctx, (0, 1))
    for make in (
        lambda: Tensor(ctx, {(0.0, 1): 1}),
        lambda: Tensor(ctx, {(True,): 1}),
        lambda: basis_tensor(ctx, 1.0),
        lambda: basis_tensor(ctx, True),
        lambda: monomial_tensor(ctx, (0, 1.0)),
        lambda: monomial_tensor(ctx, (False, 1)),
        lambda: t.coefficient((0.0, 1)),
        lambda: t.coefficient((False, True)),
    ):
        with pytest.raises(ValueError, match="basis index must be an integer"):
            make()
    with pytest.raises(ValueError, match="out of range"):
        t.coefficient((0, 2))
    assert t.coefficient((0, 1)) == 1


def test_bool_coefficients_are_refused():
    ctx = AlgebraContext(1, 3)
    a = basis_tensor(ctx, 0)
    for make in (
        lambda: Tensor(ctx, {(0,): True}),
        lambda: monomial_tensor(ctx, (0, 1), False),
        lambda: scalar_tensor(ctx, True),
        lambda: a.scale(True),
    ):
        with pytest.raises(ValueError, match="bool"):
            make()


def test_equality_with_unrelated_objects_is_false():
    ctx = AlgebraContext(1, 3)
    t = basis_tensor(ctx, 0)
    assert not t == None  # noqa: E711 -- the operator itself is under test
    assert t != None  # noqa: E711
    assert not t == [1]
    assert not t == object()
    assert t in [None, t]
    assert None not in [t]
    assert scalar_tensor(ctx, 2) == 2 == scalar_tensor(ctx, "2")
    assert scalar_tensor(ctx, Rat(1, 2)) != "1/2"
    assert zero_tensor(ctx) == 0 and t != 0
    for value in (1.5, 0.0):
        with pytest.raises(ValueError, match="float"):
            t == value
    with pytest.raises(ValueError, match="bool"):
        zero_tensor(ctx) == False  # noqa: E712


def test_scalar_tensors_hash_as_the_values_they_equal():
    ctx = AlgebraContext(2, 3)
    assert 1 in {one_tensor(ctx)}
    assert {zero_tensor(ctx): "z"}.get(0) == "z"
    assert {Rat(3, 2): "q"}.get(scalar_tensor(ctx, Rat(3, 2))) == "q"
    assert {basis_tensor(ctx, 0): "a"}.get(basis_tensor(ctx, 0)) == "a"


def test_equality_never_parses_strings():
    ctx = AlgebraContext(1, 3)
    t, one = basis_tensor(ctx, 0), one_tensor(ctx)
    for text in ("abc", "1", "1/1", "0"):
        assert not t == text and t != text
        assert not text == t and text != t
        assert not one == text and not text == one
    assert t in ["abc", t] and "abc" not in [t]
    # a malformed string is still refused as a coefficient
    for make in (
        lambda: Tensor(ctx, {(0,): "abc"}),
        lambda: scalar_tensor(ctx, "abc"),
        lambda: t.scale("abc"),
        lambda: t + "abc",
        lambda: "abc" + t,
    ):
        with pytest.raises(ValueError, match="malformed"):
            make()


def test_antipode_reverses_words_with_sign():
    rng = random.Random(2718)
    for genus, cap in ((1, 6), (2, 5), (3, 4)):
        ctx = AlgebraContext(genus, cap)
        for _ in range(6):
            t = random_tensor(rng, ctx, terms=8)
            slow = Tensor(ctx, {
                mono[::-1]: c * (-1) ** len(mono) for mono, c in t.terms.items()
            })
            assert antipode(t) == slow


def test_antipode_is_an_involutive_anti_automorphism():
    rng = random.Random(1618)
    for genus, cap in ((1, 7), (2, 5)):
        ctx = AlgebraContext(genus, cap)
        for _ in range(6):
            a, b = random_tensor(rng, ctx, terms=6), random_tensor(rng, ctx, terms=6)
            assert antipode(antipode(a)) == a
            assert antipode(a * b) == antipode(b) * antipode(a)
            assert antipode(a + b) == antipode(a) + antipode(b)
