"""Derivations of the truncated algebra: naming duality, Leibniz, exp, and
the omega-ideal quotient."""

import random
from fractions import Fraction

import pytest

from twistlog.cyclic import cyclic_n
from twistlog.derivation import (
    Derivation,
    OmegaIdealContext,
    apply,
    commutator,
    derivation_from_json,
    derivation_to_json,
    exp_derivation,
    from_tensor,
    graded_component,
    is_symplectic_derivation,
    omega_ideal_equal,
    omega_ideal_reduce,
    to_tensor,
)
from twistlog.rationals import Rat
from twistlog.tensor import (
    AlgebraContext,
    Tensor,
    basis_tensor,
    monomial_tensor,
    one_tensor,
    scalar_tensor,
    symplectic_form,
    zero_tensor,
)


def random_naming_tensor(rng, ctx, min_degree=2, terms=3):
    """Random element of T-hat_{min_degree}, the naming side of the duality."""
    out = zero_tensor(ctx)
    for _ in range(terms):
        mono = tuple(
            rng.randrange(ctx.dim)
            for _ in range(rng.randint(min_degree, ctx.truncation))
        )
        out = out + monomial_tensor(ctx, mono, Rat(rng.randint(-3, 3), rng.randint(1, 2)))
    return out


def test_from_tensor_examples():
    # X u acts as Y -> (Y . X) u; only the partner letter pairs
    ctx = AlgebraContext(1, 3)
    d = from_tensor(basis_tensor(ctx, 1))  # B1 tensor 1
    assert d.values[0] == one_tensor(ctx)  # (A1 . B1) = +1
    assert d.values[1] == 0
    d = from_tensor(monomial_tensor(ctx, (0, 0)))  # A1 tensor A1
    assert d.values[1] == -basis_tensor(ctx, 0)  # (B1 . A1) = -1
    assert d.values[0] == 0
    with pytest.raises(ValueError):
        from_tensor(one_tensor(ctx))


def test_naming_round_trips():
    rng = random.Random(11213)
    ctx = AlgebraContext(2, 5)
    for _ in range(15):
        t = random_naming_tensor(rng, ctx, min_degree=1)
        assert to_tensor(from_tensor(t)) == t
    # opposite direction, for derivations whose values leave headroom
    for _ in range(15):
        d = from_tensor(random_naming_tensor(rng, ctx, min_degree=1))
        assert from_tensor(to_tensor(d)) == d


def test_apply_leibniz():
    rng = random.Random(31415)
    ctx = AlgebraContext(2, 5)
    for _ in range(15):
        d = from_tensor(random_naming_tensor(rng, ctx))
        t1 = random_naming_tensor(rng, ctx, min_degree=1)
        t2 = random_naming_tensor(rng, ctx, min_degree=1)
        assert apply(d, t1 * t2) == apply(d, t1) * t2 + t1 * apply(d, t2)
    assert apply(d, scalar_tensor(ctx, 7)) == 0


def test_apply_matches_values_on_h():
    rng = random.Random(999)
    ctx = AlgebraContext(2, 4)
    d = from_tensor(random_naming_tensor(rng, ctx))
    for j in range(ctx.dim):
        assert apply(d, basis_tensor(ctx, j)) == d.values[j]


def test_derivation_vector_space_ops():
    rng = random.Random(241)
    ctx = AlgebraContext(1, 4)
    d1 = from_tensor(random_naming_tensor(rng, ctx))
    d2 = from_tensor(random_naming_tensor(rng, ctx))
    t = random_naming_tensor(rng, ctx, min_degree=1)
    assert apply(d1 + d2, t) == apply(d1, t) + apply(d2, t)
    assert apply(d1 - d2, t) == apply(d1, t) - apply(d2, t)
    assert apply(d1.scale(3), t) == apply(d1, t).scale(3)
    assert apply(-d1, t) == -apply(d1, t)
    with pytest.raises(ValueError):
        d1 + from_tensor(random_naming_tensor(rng, AlgebraContext(1, 3)))


def test_commutator_is_a_derivation():
    rng = random.Random(653)
    ctx = AlgebraContext(2, 4)
    d1 = from_tensor(random_naming_tensor(rng, ctx))
    d2 = from_tensor(random_naming_tensor(rng, ctx))
    c = commutator(d1, d2)
    t1 = random_naming_tensor(rng, ctx, min_degree=1)
    t2 = random_naming_tensor(rng, ctx, min_degree=1)
    assert apply(c, t1 * t2) == apply(c, t1) * t2 + t1 * apply(c, t2)
    assert apply(c, t1) == apply(d1, apply(d2, t1)) - apply(d2, apply(d1, t1))


def test_graded_component():
    ctx = AlgebraContext(1, 4)
    t = monomial_tensor(ctx, (0, 1)) + monomial_tensor(ctx, (1, 0, 0, 1))
    d = from_tensor(t)
    assert to_tensor(graded_component(d, 2)) == monomial_tensor(ctx, (0, 1))
    assert to_tensor(graded_component(d, 4)) == monomial_tensor(ctx, (1, 0, 0, 1))
    assert not graded_component(d, 3)
    assert not graded_component(d, 9)
    with pytest.raises(ValueError):
        graded_component(d, 0)


def test_image_of_n_kills_omega():
    # tensors in the image of N name symplectic derivations; others need not
    rng = random.Random(77801)
    ctx = AlgebraContext(2, 4)
    for _ in range(15):
        d = from_tensor(cyclic_n(random_naming_tensor(rng, ctx, min_degree=1)))
        assert is_symplectic_derivation(d)
        assert apply(d, symplectic_form(ctx)) == 0
    skew = from_tensor(monomial_tensor(AlgebraContext(1, 3), (0, 0, 1)))
    assert not is_symplectic_derivation(skew)


def test_symplectic_derivations_close_under_bracket():
    rng = random.Random(40547)
    ctx = AlgebraContext(2, 5)
    for _ in range(10):
        d1 = from_tensor(cyclic_n(random_naming_tensor(rng, ctx, min_degree=1)))
        d2 = from_tensor(cyclic_n(random_naming_tensor(rng, ctx, min_degree=1)))
        assert is_symplectic_derivation(commutator(d1, d2))


def test_exp_derivation_terminates_and_multiplies():
    rng = random.Random(2025)
    ctx = AlgebraContext(2, 4)
    for _ in range(10):
        # degree >= 3 naming tensors raise filtration, so exp is a finite sum
        d = from_tensor(random_naming_tensor(rng, ctx, min_degree=3))
        t1 = random_naming_tensor(rng, ctx, min_degree=1)
        t2 = random_naming_tensor(rng, ctx, min_degree=1)
        assert exp_derivation(d, t1 * t2) == exp_derivation(d, t1) * exp_derivation(d, t2)
    zero = Derivation(ctx, [zero_tensor(ctx)] * ctx.dim)
    t = random_naming_tensor(rng, ctx, min_degree=1)
    assert exp_derivation(zero, t) == t


def test_exp_derivation_certifies_termination():
    # A1 tensor B1 names D(B1) = -B1, which is degree-preserving of infinite
    # order; the runaway series must be caught, not looped forever
    ctx = AlgebraContext(1, 3)
    d = from_tensor(monomial_tensor(ctx, (0, 1)))
    with pytest.raises(ArithmeticError):
        exp_derivation(d, basis_tensor(ctx, 1), max_terms=8)
    with pytest.raises(ValueError):
        exp_derivation(d, basis_tensor(ctx, 1), max_terms=0)


def test_omega_ideal_reduce():
    rng = random.Random(86420)
    ctx = AlgebraContext(2, 4)
    ideal = OmegaIdealContext(ctx)
    omega = symplectic_form(ctx)
    assert omega_ideal_reduce(omega, ideal) == 0
    for _ in range(10):
        u = random_naming_tensor(rng, ctx, min_degree=1, terms=1)
        v = random_naming_tensor(rng, ctx, min_degree=1, terms=1)
        t = random_naming_tensor(rng, ctx, min_degree=1)
        assert omega_ideal_reduce(u * omega * v, ideal) == 0
        assert omega_ideal_equal(t, t + u * omega, ideal)
        # reduction is a projector with a canonical residual
        r = omega_ideal_reduce(t, ideal)
        assert omega_ideal_reduce(r, ideal) == r
    # degrees 0 and 1 are untouched
    low = scalar_tensor(ctx, 3) + basis_tensor(ctx, 2)
    assert omega_ideal_reduce(low, ideal) == low
    with pytest.raises(ValueError):
        omega_ideal_reduce(basis_tensor(AlgebraContext(2, 3), 0), ideal)


def _omega_normal_form(ctx, terms):
    """Oracle: rewrite A1 B1 -> B1 A1 - sum_{i>=2} [A_i, B_i] on tuple
    words with Fraction coefficients until no word contains A1 B1.  It
    rewrites at the rightmost occurrence; the normal form is unique, so the
    place of each rewrite must not matter."""
    rhs = [((1, 0), 1)]
    for i in range(1, ctx.genus):
        rhs += [((2 * i, 2 * i + 1), -1), ((2 * i + 1, 2 * i), 1)]
    todo = {tuple(w): Fraction(c) for w, c in terms.items()}
    done = {}
    while todo:
        word, coeff = todo.popitem()
        spots = [k for k in range(len(word) - 1) if word[k:k + 2] == (0, 1)]
        if not spots:
            done[word] = done.get(word, 0) + coeff
            continue
        k = spots[-1]
        for pair, c in rhs:
            w2 = word[:k] + pair + word[k + 2:]
            todo[w2] = todo.get(w2, 0) + c * coeff
    return {w: c for w, c in done.items() if c}


@pytest.mark.parametrize("genus, truncation", [(1, 6), (2, 5), (3, 4)])
def test_omega_ideal_reduce_matches_the_rewriting_oracle(genus, truncation):
    rng = random.Random(1000 * genus + truncation)
    ctx = AlgebraContext(genus, truncation)
    ideal = OmegaIdealContext(ctx)
    for _ in range(30):
        terms = {}
        for _ in range(rng.randint(1, 12)):
            word = [rng.randrange(ctx.dim) for _ in range(rng.randint(0, truncation))]
            # plant copies of A1 B1, which random words over 2g letters rarely hold
            while len(word) + 2 <= truncation and rng.random() < 0.6:
                k = rng.randint(0, len(word))
                word[k:k] = [0, 1]
            terms[tuple(word)] = Fraction(rng.randint(-4, 4), rng.randint(1, 6))
        t = Tensor(ctx, terms)
        assert omega_ideal_reduce(t, ideal) == Tensor(ctx, _omega_normal_form(ctx, terms))


def test_derivation_json_round_trip():
    rng = random.Random(5150)
    ctx = AlgebraContext(2, 4)
    for _ in range(10):
        d = from_tensor(random_naming_tensor(rng, ctx, min_degree=1))
        obj = derivation_to_json(d)
        assert obj["view"] == "tensor"
        assert derivation_from_json(obj) == d
        assert derivation_from_json(obj, ctx) == d
    with pytest.raises(ValueError):
        derivation_from_json({"genus": 2, "truncation": 4, "terms": []})
