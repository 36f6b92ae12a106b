"""Lie structure: bracketing map, membership test, exp/log, BCH, Lyndon form."""

import functools
import random

import pytest

from twistlog.lie import (
    exp,
    is_lie,
    log,
    lyndon_bracket_form,
    lyndon_bracket_forms,
    phi,
)
from twistlog.expansion import load_fixture
from twistlog.johnson import johnson_component, l_invariant
from twistlog.suite import built_expansion
from twistlog.words import twist, word_from_string
from twistlog.rationals import Rat
from twistlog.tensor import (
    AlgebraContext,
    Tensor,
    antipode,
    basis_tensor,
    graded_part,
    one_tensor,
    scalar_tensor,
    symplectic_form,
    zero_tensor,
)

from algebra_tools import bracket, bracket_tree_tensor, monomial_tensor


def random_lie(rng, ctx, brackets=3):
    """Random span of iterated brackets of basis vectors."""
    out = zero_tensor(ctx)
    for _ in range(brackets):
        t = basis_tensor(ctx, rng.randrange(ctx.dim))
        for _ in range(rng.randint(0, ctx.truncation - 1)):
            t = bracket(basis_tensor(ctx, rng.randrange(ctx.dim)), t)
        out = out + t.scale(Rat(rng.randint(-3, 3), rng.randint(1, 4)))
    return out


def test_bracket_antisymmetry_and_jacobi():
    rng = random.Random(1202)
    ctx = AlgebraContext(2, 5)
    for _ in range(10):
        x, y, z = (random_lie(rng, ctx, brackets=2) for _ in range(3))
        assert bracket(x, y) == -bracket(y, x)
        jac = (
            bracket(x, bracket(y, z))
            + bracket(y, bracket(z, x))
            + bracket(z, bracket(x, y))
        )
        assert jac == 0


def test_phi_on_monomials():
    ctx = AlgebraContext(1, 3)
    a, b = basis_tensor(ctx, 0), basis_tensor(ctx, 1)
    assert phi(a) == a
    assert phi(a * b) == bracket(a, b)
    # right-nested: Phi(XYZ) = [X,[Y,Z]]
    assert phi(a * b * a) == bracket(a, bracket(b, a))
    with pytest.raises(ValueError):
        phi(one_tensor(ctx))


def test_is_lie():
    ctx = AlgebraContext(2, 4)
    assert is_lie(symplectic_form(ctx))
    assert is_lie(zero_tensor(ctx))
    a, b = basis_tensor(ctx, 0), basis_tensor(ctx, 1)
    assert is_lie(a + bracket(a, bracket(a, b)).scale(Rat(3, 7)))
    assert not is_lie(a * b)
    assert not is_lie(one_tensor(ctx))
    rng = random.Random(88)
    for _ in range(10):
        assert is_lie(random_lie(rng, ctx))


def test_exp_log_inverse():
    rng = random.Random(314)
    ctx = AlgebraContext(2, 4)
    for _ in range(10):
        t = random_lie(rng, ctx)
        assert log(exp(t)) == t
    u = one_tensor(ctx) + basis_tensor(ctx, 0) + monomial_tensor(ctx, (1, 1), Rat(2, 3))
    assert exp(log(u)) == u


def test_exp_log_validation():
    ctx = AlgebraContext(1, 2)
    with pytest.raises(ValueError):
        exp(one_tensor(ctx))
    with pytest.raises(ValueError):
        log(basis_tensor(ctx, 0))
    with pytest.raises(ValueError):
        log(scalar_tensor(ctx, 2) + basis_tensor(ctx, 0))


def test_bch_classical_coefficients():
    # the BCH product log(exp(a) exp(b)) from the exp and log series; the
    # tabulated low-degree coefficients come out rather than going in
    ctx = AlgebraContext(1, 4)
    a, b = basis_tensor(ctx, 0), basis_tensor(ctx, 1)
    w = log(exp(a) * exp(b))
    assert graded_part(w, 1) == a + b
    assert graded_part(w, 2) == bracket(a, b).scale(Rat(1, 2))
    deg3 = bracket(a, bracket(a, b)).scale(Rat(1, 12)) + bracket(
        b, bracket(b, a)
    ).scale(Rat(1, 12))
    assert graded_part(w, 3) == deg3
    assert graded_part(w, 4) == bracket(b, bracket(a, bracket(a, b))).scale(Rat(-1, 24))


def test_bch_group_law():
    rng = random.Random(2718)
    ctx = AlgebraContext(2, 4)
    for _ in range(5):
        x, y = random_lie(rng, ctx, 2), random_lie(rng, ctx, 2)
        z = log(exp(x) * exp(y))
        assert is_lie(z)
        assert exp(z) == exp(x) * exp(y)
    assert log(exp(x) * exp(-x)) == 0


def test_lyndon_bracket_form_round_trip():
    rng = random.Random(555)
    ctx = AlgebraContext(2, 4)
    for _ in range(10):
        t = random_lie(rng, ctx)
        rebuilt = zero_tensor(ctx)
        for coeff, tree in lyndon_bracket_form(t):
            rebuilt = rebuilt + bracket_tree_tensor(ctx, tree).scale(coeff)
        assert rebuilt == t


def test_lyndon_bracket_form_rejects_non_lie():
    ctx = AlgebraContext(1, 3)
    a, b = basis_tensor(ctx, 0), basis_tensor(ctx, 1)
    with pytest.raises(ValueError):
        lyndon_bracket_form(a * b)


def test_lyndon_bracket_form_names_the_first_non_lyndon_word():
    ctx = AlgebraContext(1, 3)
    a, b = basis_tensor(ctx, 0), basis_tensor(ctx, 1)
    # A1 B1 peels [A1,B1] and leaves B1 A1, which is not a Lyndon word
    with pytest.raises(ValueError, match="not a Lyndon word"):
        lyndon_bracket_form(a * b)
    with pytest.raises(ValueError, match="not a Lyndon word"):
        lyndon_bracket_form(monomial_tensor(ctx, (1, 0, 0)))
    # the lowest degree that is not Lie is named; higher ones are not looked at
    t = monomial_tensor(ctx, (0, 0, 0)) + monomial_tensor(ctx, (1, 0))
    with pytest.raises(ValueError, match=r"not a Lyndon word: \(1, 0\)$"):
        lyndon_bracket_form(t)



def _lyndon_words(dim, n):
    """Brute force: words strictly less than each proper rotation."""
    words = [()]
    for _ in range(n):
        words = [w + (x,) for w in words for x in range(dim)]
    return [w for w in words if all(w < w[k:] + w[:k] for k in range(1, n))]


def _standard_tree(w, lyndon):
    """Split at the longest proper suffix that is a Lyndon word."""
    if len(w) == 1:
        return w[0]
    cut = next(k for k in range(1, len(w)) if w[k:] in lyndon)
    return (_standard_tree(w[:cut], lyndon), _standard_tree(w[cut:], lyndon))


@functools.lru_cache(maxsize=None)
def _expand(tree):
    """Integer expansion of a bracket tree, as a monomial -> int dict."""
    if isinstance(tree, int):
        return {(tree,): 1}
    out = {}
    for u, cu in _expand(tree[0]).items():
        for v, cv in _expand(tree[1]).items():
            out[u + v] = out.get(u + v, 0) + cu * cv
            out[v + u] = out.get(v + u, 0) - cu * cv
    return out


def _combine(pairs):
    out = {}
    for coeff, tree in pairs:
        for m, c in _expand(tree).items():
            out[m] = out.get(m, 0) + coeff * c
    return out


def test_shared_memo_forms_equal_separate_forms():
    theta = built_expansion(2, 5)
    values = []
    for word in ("a1", "a1 b2", "b1 A2 B1 a2", "a1 a1 b1"):
        values += l_invariant(theta, word_from_string(2, word)).values
    for kind, h in (("nonsep", None), ("sep", 1), ("sep", 2)):
        for k in (1, 2, 3):
            values += johnson_component(theta, twist(2, kind, h), k).values
    # a value that is not Lie, and values over another alphabet, in between
    values.insert(5, values[0] * values[1] + values[2])
    values[9:9] = l_invariant(load_fixture("fixture-genus1"), word_from_string(1, "a1 b1")).values
    separate = []
    for v in values:
        try:
            separate.append(lyndon_bracket_form(v))
        except ValueError:
            separate.append(None)
    assert separate[5] is None and sum(form is None for form in separate) == 1
    assert lyndon_bracket_forms(values) == separate


def test_lyndon_bracket_form_round_trips_beyond_ten_thousand_terms():
    # genus 2 has 11464 Lyndon words in degrees 1..8; with a nonzero
    # coefficient on each, the Lyndon form has one term per word.  The
    # coefficients are k/12, summed as integers k and divided once.
    rng = random.Random(11464)
    ctx = AlgebraContext(2, 8)
    words = [w for n in range(1, 9) for w in _lyndon_words(ctx.dim, n)]
    assert len(words) == 11464
    lyndon = set(words)
    wanted = [(rng.choice([-5, -3, -1, 1, 2, 7]), _standard_tree(w, lyndon)) for w in sorted(words)]
    t = Tensor(ctx, {m: Rat(k, 12) for m, k in _combine(wanted).items()})
    form = lyndon_bracket_form(t)
    # wanted -> t -> form is the round trip: form gives back every term
    assert form == [(Rat(k, 12), tree) for k, tree in wanted]


def test_bracket_tree_tensor_checks_its_tree():
    ctx = AlgebraContext(1, 3)
    a, b = basis_tensor(ctx, 0), basis_tensor(ctx, 1)
    assert bracket_tree_tensor(ctx, (0, (0, 1))) == bracket(a, bracket(a, b))
    assert bracket_tree_tensor(ctx, ((0, 1), (0, 1))) == 0  # [u, u]
    assert bracket_tree_tensor(ctx, (0, (1, (0, 1)))) == 0  # above the truncation
    for tree in ([0, 1], (0, 1, 0), (0, "B1"), (0, 2), (0, 1.0)):
        with pytest.raises(ValueError):
            bracket_tree_tensor(ctx, tree)


def test_antipode_of_exp_is_exp_of_minus_for_lie_elements():
    rng = random.Random(4242)
    for ctx in (AlgebraContext(1, 6), AlgebraContext(2, 5)):
        for _ in range(8):
            u = random_lie(rng, ctx)
            assert antipode(exp(u)) == exp(-u)
    for theta in (load_fixture("fixture-genus1"), load_fixture("fixture-genus2")):
        for u in theta.logs:
            assert antipode(exp(u)) == exp(-u)
    # S(u) = -u fails for the non-Lie u = X_1 X_2, and so does the identity
    ctx = AlgebraContext(1, 4)
    u = monomial_tensor(ctx, (0, 1))
    assert antipode(exp(u)) != exp(-u)


def test_lyndon_form_exists_exactly_for_lie_tensors():
    rng = random.Random(6174)
    lie_count = 0
    for ctx in (AlgebraContext(1, 5), AlgebraContext(2, 4)):
        for trial in range(60):
            t = random_lie(rng, ctx)
            if trial % 3:  # perturb by a few monomials, at times a constant
                for _ in range(rng.randint(1, 2)):
                    degree = rng.randint(0 if trial % 3 == 1 else 1, ctx.truncation)
                    mono = tuple(rng.randrange(ctx.dim) for _ in range(degree))
                    t = t + monomial_tensor(ctx, mono, Rat(rng.randint(-2, 2), 1))
            lie = is_lie(t)
            lie_count += lie
            try:
                lyndon_bracket_form(t)
            except ValueError:
                assert not lie, t
            else:
                assert lie, t
    assert 40 <= lie_count <= 80  # both outcomes are well represented
