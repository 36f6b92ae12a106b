"""Substitution endomorphisms and the triangular generator-image solve."""

import random

import pytest

from twistlog.endomorphism import Endomorphism, solve_generator_images
from twistlog.rationals import Rat
from twistlog.tensor import (
    AlgebraContext,
    basis_tensor,
    one_tensor,
    truncate,
    zero_tensor,
)

from algebra_tools import monomial_tensor


def random_triangular_values(rng, ctx):
    """U(X_j) = X_j + junk of degree >= 2."""
    out = []
    for j in range(ctx.dim):
        v = basis_tensor(ctx, j)
        for _ in range(rng.randint(0, 2)):
            mono = tuple(
                rng.randrange(ctx.dim) for _ in range(rng.randint(2, ctx.truncation))
            )
            v = v + monomial_tensor(ctx, mono, Rat(rng.randint(-2, 2), rng.randint(1, 2)))
        out.append(v)
    return out


def random_tensor_1(rng, ctx, terms=3):
    out = zero_tensor(ctx)
    for _ in range(terms):
        mono = tuple(rng.randrange(ctx.dim) for _ in range(rng.randint(1, ctx.truncation)))
        out = out + monomial_tensor(ctx, mono, Rat(rng.randint(-3, 3), rng.randint(1, 2)))
    return out


def test_validation():
    ctx = AlgebraContext(1, 3)
    with pytest.raises(ValueError):
        Endomorphism(ctx, [basis_tensor(ctx, 0)])  # wrong count
    with pytest.raises(ValueError):
        Endomorphism(ctx, [one_tensor(ctx), basis_tensor(ctx, 1)])  # constant term
    other = AlgebraContext(1, 4)
    with pytest.raises(ValueError):
        Endomorphism(ctx, [basis_tensor(other, 0), basis_tensor(ctx, 1)])


def test_apply_is_multiplicative():
    rng = random.Random(515)
    ctx = AlgebraContext(2, 4)
    for _ in range(10):
        endo = Endomorphism(ctx, random_triangular_values(rng, ctx))
        t1 = random_tensor_1(rng, ctx)
        t2 = random_tensor_1(rng, ctx)
        assert endo.apply(t1 * t2) == endo.apply(t1) * endo.apply(t2)
        assert endo.apply(one_tensor(ctx)) == one_tensor(ctx)
    with pytest.raises(ValueError):
        endo.apply(random_tensor_1(rng, AlgebraContext(2, 3)))


def test_value_table_is_built_once_per_endomorphism():
    rng = random.Random(919)
    ctx = AlgebraContext(2, 4)
    endo = Endomorphism(ctx, random_triangular_values(rng, ctx))
    assert endo._table is None
    t = random_tensor_1(rng, ctx)
    first = endo.apply(t)
    table = endo._table
    assert table is not None
    assert endo.apply(t) == first
    endo.apply(random_tensor_1(rng, ctx))
    assert endo._table is table


def test_solve_round_trip():
    rng = random.Random(717)
    ctx = AlgebraContext(2, 4)
    for _ in range(10):
        endo = Endomorphism(ctx, random_triangular_values(rng, ctx))
        sources = random_triangular_values(rng, ctx)
        targets = [endo.apply(s) for s in sources]
        solved = solve_generator_images(ctx, sources, targets)
        assert solved == list(endo.h_values)


def test_solve_in_a_lower_context_matches_truncated_full_solve():
    rng = random.Random(818)
    ctx = AlgebraContext(2, 5)
    low = AlgebraContext(2, 3)
    endo = Endomorphism(ctx, random_triangular_values(rng, ctx))
    sources = random_triangular_values(rng, ctx)
    targets = [endo.apply(s) for s in sources]
    lowered = solve_generator_images(low, sources, targets)
    full = solve_generator_images(ctx, sources, targets)
    for c, f in zip(lowered, full):
        assert c == truncate(f, low)


def test_solve_validation():
    ctx = AlgebraContext(1, 3)
    a, b = basis_tensor(ctx, 0), basis_tensor(ctx, 1)
    with pytest.raises(ValueError):
        solve_generator_images(ctx, [a], [a])  # wrong count
    with pytest.raises(ValueError):
        solve_generator_images(ctx, [b, a], [a, b])  # not unit-triangular
    with pytest.raises(ValueError):
        solve_generator_images(ctx, [a + one_tensor(ctx), b], [a, b])
