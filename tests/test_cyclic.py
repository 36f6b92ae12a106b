"""Cyclic operators nu, N and the necklace bracket with its oracle."""

import random

import pytest

from twistlog.cyclic import cyclic_n, is_nu_invariant, necklace_bracket, nu
from twistlog.derivation import commutator, from_tensor
from twistlog.rationals import Rat
from twistlog.tensor import (
    AlgebraContext,
    Tensor,
    basis_tensor,
    monomial_tensor,
    one_tensor,
    symplectic_form,
    zero_tensor,
)


def random_nu_invariant(rng, ctx, degree):
    acc = zero_tensor(ctx)
    for _ in range(rng.randint(1, 2)):
        mono = tuple(rng.randrange(ctx.dim) for _ in range(degree))
        acc = acc + monomial_tensor(ctx, mono, Rat(rng.randint(-3, 3), rng.randint(1, 3)))
    return cyclic_n(acc)


def test_nu_rotates():
    ctx = AlgebraContext(1, 4)
    t = monomial_tensor(ctx, (0, 1, 1), Rat(3))
    assert nu(t) == monomial_tensor(ctx, (1, 1, 0), Rat(3))
    # degrees 0 and 1 are fixed
    low = one_tensor(ctx) + basis_tensor(ctx, 0)
    assert nu(low) == low
    assert nu(nu(nu(t))) == t


def test_cyclic_n_sums_rotations():
    ctx = AlgebraContext(1, 4)
    ab = monomial_tensor(ctx, (0, 1))
    assert cyclic_n(ab) == ab + monomial_tensor(ctx, (1, 0))
    # degree 0 dies, a full rotation class collapses with multiplicity
    assert cyclic_n(one_tensor(ctx)) == 0
    aa = monomial_tensor(ctx, (0, 0))
    assert cyclic_n(aa) == aa.scale(2)


def test_is_nu_invariant():
    ctx = AlgebraContext(1, 3)
    assert is_nu_invariant(cyclic_n(monomial_tensor(ctx, (0, 1, 1))))
    assert not is_nu_invariant(monomial_tensor(ctx, (0, 1)))
    # omega is nu-ANTI-invariant: rotation swaps AB and BA
    assert nu(symplectic_form(ctx)) == -symplectic_form(ctx)


def test_necklace_bracket_small_example():
    ctx = AlgebraContext(1, 5)
    u = cyclic_n(monomial_tensor(ctx, (0, 1)))  # A1B1 + B1A1
    v = cyclic_n(monomial_tensor(ctx, (1,)))  # B1
    assert necklace_bracket(u, v) == -basis_tensor(ctx, 1)


def test_necklace_bracket_validation():
    ctx = AlgebraContext(1, 4)
    good = cyclic_n(monomial_tensor(ctx, (0, 1)))
    with pytest.raises(ValueError):
        necklace_bracket(monomial_tensor(ctx, (0, 1)), good)
    with pytest.raises(ValueError):
        necklace_bracket(good, one_tensor(ctx) + good)
    other = cyclic_n(monomial_tensor(AlgebraContext(1, 3), (0, 1)))
    with pytest.raises(ValueError):
        necklace_bracket(good, other)


def test_necklace_bracket_equals_derivation_commutator():
    # dual-route check: the cyclic double-sum formula against the honest
    # commutator of the named derivations
    rng = random.Random(60611)
    checked = 0
    while checked < 30:
        genus = rng.choice((1, 2))
        ctx = AlgebraContext(genus, 5)
        du = rng.randint(1, 4)
        dv = rng.randint(1, 5 - du)
        u = random_nu_invariant(rng, ctx, du)
        v = random_nu_invariant(rng, ctx, dv)
        if not u or not v:
            continue
        assert from_tensor(necklace_bracket(u, v)) == commutator(
            from_tensor(u), from_tensor(v)
        )
        checked += 1


def test_necklace_bracket_antisymmetry():
    rng = random.Random(424242)
    ctx = AlgebraContext(2, 5)
    for _ in range(10):
        u = random_nu_invariant(rng, ctx, rng.randint(2, 3))
        v = random_nu_invariant(rng, ctx, rng.randint(1, 2))
        assert necklace_bracket(u, v) == -necklace_bracket(v, u)
