"""The scaled-integer kernels against a slow dict/Fraction oracle.

The oracle below is the plain textbook arithmetic on monomial -> Fraction
dicts, with no shared code path with ``twistlog.tensor``, the derivation
kernel or the substitution kernel.  Random tensors
at genus 1-3 and truncation <= 5 carry random rationals; genus 3 gives
dim 6, so monomial codes are base 6, not a power of two.  Dense tensors of
up to 40 monomials with small coefficients at genus 1-2 exercise both loop
orders of the product, merged degrees whose sums cancel, and full blocks
of one degree in the square kernel.  Two loops are also checked against
the slower forms they replaced, kept here: ``add_block_product`` adding
into terms already held, against the left block outermost whatever its
size, on blocks larger on the left, larger on the right and of equal size,
with sums that cancel to 0 (and products whose accumulated degree cancels
stay canonical); and ``_half_n_square``'s one-loop diagonal against two
``add_product`` calls per code, on dense tensors at genus 1-3 and
truncation <= 5 with a diagonal degree.  Phi's flat bracketing steps are
checked against the first-letter recursion they replaced, and the output
writers against their old bodies on the ``Tensor.terms`` view.  Later
tests pin maps built on the kernels (the wedge embedding
k! antisymmetrize(v_1 ... v_k), bracket trees, Johnson components) against
the sums they stand for, written out term by term.  The last ones keep the
rational re-proof of ell(zeta) = omega that the integer letters replaced:
the four-factor boundary product over rational exponentials at N+1, whose
verdicts the integer route must repeat word for word.  The log series of an
endomorphism, which the ``connecting`` check once took, judges connecting
automorphisms through log U, and the check on U itself must agree.
"""

import json
import random
import time
from fractions import Fraction
from itertools import permutations, product
from math import factorial, gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

from twistlog import cyclic, expansion
from twistlog.cyclic import cyclic_n, necklace_bracket
from twistlog.derivation import Derivation, apply, exp_derivation, from_tensor, to_tensor
from twistlog.endomorphism import Endomorphism
from twistlog.expansion import (
    Expansion,
    _boundary_value,
    _integral_scale,
    build_symplectic,
    connecting_automorphism,
    evaluate,
    expansion_from_json,
    expansion_to_json,
    exponential_expansion,
    load_fixture,
    moved_expansion,
    restrict,
    standard_expansion,
    symplectic_failures,
)
from twistlog.johnson import _half_n_square, johnson_components, total_johnson
from twistlog.cli import _pretty_tensors, main
from twistlog.lie import (
    _bracket_steps,
    exp,
    integral_exp,
    is_lie,
    log,
    lyndon_bracket_forms,
    phi,
)
from twistlog.rationals import rat_to_string
from twistlog.suite import _connecting_failures, built_expansion
from twistlog.tensor import (
    AlgebraContext,
    Tensor,
    add_block_product,
    antipode,
    antisymmetrize,
    basis_tensor,
    decode_monomial,
    encode_monomial,
    filtration_degree,
    graded_part,
    graded_scale,
    one_tensor,
    scaled_terms,
    symplectic_form,
    tensor_from_scaled,
    tensor_to_json,
    truncate,
    zero_tensor,
)
from twistlog.words import (
    GroupWord,
    boundary_word,
    compose,
    generator_word,
    homology_inverse,
    twist,
)

from algebra_tools import bracket, bracket_tree_tensor, lambda3_derivation, monomial_tensor

# -- the oracle -----------------------------------------------------------------


def o_add(a, b):
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, 0) + c
    return {m: c for m, c in out.items() if c}


def o_mul(a, b, cap):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            if len(m1) + len(m2) <= cap:
                out[m1 + m2] = out.get(m1 + m2, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def o_exp(u, cap):
    """sum u^n / n!, for u with no constant term."""
    out, power = {(): Fraction(1)}, {(): Fraction(1)}
    for n in range(1, cap + 1):
        power = {m: c / n for m, c in o_mul(power, u, cap).items()}
        out = o_add(out, power)
    return out


def o_log(a, cap):
    """sum (-1)^(n-1) / n (a - 1)^n, for a with constant term 1."""
    u = o_add(a, {(): Fraction(-1)})
    out, power = {}, {(): Fraction(1)}
    for n in range(1, cap + 1):
        power = o_mul(power, u, cap)
        out = o_add(out, {m: c * Fraction((-1) ** (n - 1), n) for m, c in power.items()})
    return out


def o_wedge(vectors, cap):
    """sum over permutations s of sign(s) v_s(1) ... v_s(k), the sign
    counted by inversions."""
    k = len(vectors)
    out = {}
    for perm in permutations(range(k)):
        inversions = sum(perm[i] > perm[j] for i in range(k) for j in range(i + 1, k))
        prod = {(): Fraction(-1 if inversions % 2 else 1)}
        for p in perm:
            prod = o_mul(prod, vectors[p], cap)
        out = o_add(out, prod)
    return out


def o_cyclic_n(a):
    out = {}
    for m, c in a.items():
        for k in range(len(m)):
            out = o_add(out, {m[k:] + m[:k]: c})
    return out


def o_half_n_square(a, cap):
    return {w: c / 2 for w, c in o_cyclic_n(o_mul(a, a, cap)).items()}


def o_accumulate_block_product(out, degree, left, right, shift):
    """add_block_product into an ``out[degree]`` that already holds terms,
    by the loop it once had: the left block outermost, whatever its size."""
    acc = out[degree]
    get, items = acc.get, right.items()
    for a, ca in left.items():
        base = a * shift
        for b, cb in items:
            k = base + b
            acc[k] = get(k, 0) + ca * cb


def o_half_n_square_by_calls(t, ctx):
    """_half_n_square as it once was: each diagonal code by two
    ``add_product`` calls, aa alone and a against a fresh slice of the codes
    after it."""
    cap, dim = ctx.truncation, ctx.dim
    blocks, den = scaled_terms(t)
    degrees = sorted(blocks)
    sums = {}
    for i, p in enumerate(degrees):
        items = list(blocks[p].items())
        if 0 < 2 * p <= cap:
            table, acc, shift = cyclic.orbits(dim, 2 * p), sums.setdefault(2 * p, {}), dim**p
            for j, (a, ca) in enumerate(items):
                table.add_product(acc, ((a, ca),), ((a, ca),), shift)
                table.add_product(acc, ((a, 2 * ca),), items[j + 1:], shift)
        doubled = [(a, 2 * c) for a, c in items]
        for q in degrees[i + 1:]:
            if p + q > cap:
                break
            cyclic.orbits(dim, p + q).add_product(
                sums.setdefault(p + q, {}), doubled, blocks[q].items(), dim**q
            )
    return cyclic.necklace_tensor(ctx, sums, 2 * den * den)


def o_pairing(x, y):
    """(x . y) on basis indices: (A_k . B_k) = 1 = -(B_k . A_k)."""
    if x ^ 1 != y:
        return 0
    return 1 if x % 2 == 0 else -1


def o_necklace_bracket(u, v, cap):
    """The cyclic double sum over the monomials of nu-invariant u and v,
    each degree-n monomial weighted 1/n, as u = N(u_n / n) degreewise."""
    out = {}
    for x, cx in u.items():
        for y, cy in v.items():
            n, m = len(x), len(y)
            if not 0 < n + m - 2 <= cap:
                continue
            for i in range(n):
                for j in range(m):
                    sign = o_pairing(x[i], y[j])
                    if sign:
                        w = x[i + 1:] + x[:i] + y[j + 1:] + y[:j]
                        out = o_add(out, o_cyclic_n({w: -sign * cx * cy / (n * m)}))
    return out


def o_phi(a):
    def bracketed(m):  # [m_1, [m_2, ... m_n]] as a dict
        if len(m) == 1:
            return {m: 1}
        inner = bracketed(m[1:])
        left = {(m[0],) + w: c for w, c in inner.items()}
        return o_add(left, {w + (m[0],): -c for w, c in inner.items()})

    out = {}
    for m, c in a.items():
        out = o_add(out, {w: c * e for w, e in bracketed(m).items()})
    return out


def o_phi_tails(block, n, dim):
    """sum_x X_x Phi(t_x) of a degree-n block {code: int} written as
    sum_x X_x t_x, n >= 2, by the first-letter recursion."""
    top = dim ** (n - 1)
    tails = {}
    for code, c in block.items():
        x, tail = divmod(code, top)
        tails.setdefault(x, {})[tail] = c
    return {
        x * top + sub: c
        for x, tail in tails.items()
        for sub, c in o_phi_codes(tail, n - 1, dim).items()
    }


def o_phi_codes(block, n, dim):
    """Phi of a degree-n block {code: int}, with no zeros, by the first-letter
    recursion Phi(sum_x X_x t_x) = sum_x [X_x, Phi(t_x)]."""
    if n == 1:
        return {k: c for k, c in block.items() if c}
    top = dim ** (n - 1)
    out = {}
    for code, c in o_phi_tails(block, n, dim).items():
        x, sub = divmod(code, top)
        out[code] = out.get(code, 0) + c
        out[sub * dim + x] = out.get(sub * dim + x, 0) - c
    return {k: c for k, c in out.items() if c}


def o_tensor_to_json(t):
    """tensor_to_json's body on the Rat view."""
    return {
        "genus": t.ctx.genus,
        "truncation": t.ctx.truncation,
        "terms": [
            {"mono": list(map(int, mono)), "coeff": rat_to_string(t.terms[mono])}
            for mono in sorted(t.terms)
        ],
    }


def o_format_bracket_tree(ctx, tree):
    """A bracket tree's text, written recursively: [left,right]."""
    if isinstance(tree, int):
        return ctx.basis_name(tree)
    left, right = tree
    return f"[{o_format_bracket_tree(ctx, left)},{o_format_bracket_tree(ctx, right)}]"


def o_pretty_tensors(tensors):
    """The CLI's pretty lines on the Rat view, each tree written by
    o_format_bracket_tree."""
    lines = []
    for t, form in zip(tensors, lyndon_bracket_forms(tensors)):
        if not t:
            lines.append("0")
            continue
        ctx = t.ctx
        if form is None:
            pieces = []
            for mono in sorted(t.terms, key=lambda m: (len(m), m)):
                name = "1" if not mono else "".join(ctx.basis_name(i) for i in mono)
                pieces.append(f"{rat_to_string(t.terms[mono])} {name}")
        else:
            pieces = [f"{rat_to_string(c)} {o_format_bracket_tree(ctx, tree)}" for c, tree in form]
        lines.append("  +  ".join(pieces))
    return lines


def o_derive(values, a, cap):
    """Leibniz, monomial by monomial: each letter in turn is replaced by its
    value, and words above the cap are dropped."""
    out = {}
    for m, c in a.items():
        for k, letter in enumerate(m):
            for v, vc in values[letter].items():
                w = m[:k] + v + m[k + 1 :]
                if len(w) <= cap:
                    out = o_add(out, {w: c * vc})
    return out


def o_substitute(values, a, cap):
    """Each monomial becomes the product of its letters' values."""
    out = {}
    for m, c in a.items():
        prod = {(): c}
        for letter in m:
            prod = o_mul(prod, values[letter], cap)
        out = o_add(out, prod)
    return out


# -- strategies -----------------------------------------------------------------

contexts = st.builds(AlgebraContext, st.integers(1, 3), st.integers(2, 5))
rationals = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12))


# small coefficients on few letters, so that sums of products often cancel
small = st.sampled_from([Fraction(c) for c in (-2, -1, 1, 2)] + [Fraction(1, 2), Fraction(-1, 3)])


@st.composite
def fraction_dicts(draw, ctx, min_degree=0, max_degree=None, max_size=8, coefficients=rationals):
    mono = st.lists(
        st.integers(0, ctx.dim - 1),
        min_size=min_degree,
        max_size=ctx.truncation if max_degree is None else max_degree,
    ).map(tuple)
    raw = draw(st.dictionaries(mono, coefficients, max_size=max_size))
    return {m: c for m, c in raw.items() if c}


def dense_dicts(ctx, min_degree=0, max_degree=None):
    """Up to 40 monomials: enough for blocks larger than their partners on
    either side of a product, and for dense blocks of one degree."""
    return fraction_dicts(ctx, min_degree, max_degree, max_size=40, coefficients=small)


dense_contexts = st.builds(AlgebraContext, st.integers(1, 2), st.integers(2, 5))


@st.composite
def tensor_pairs(draw, min_degree=0, count=2):
    ctx = draw(contexts)
    return ctx, [draw(fraction_dicts(ctx, min_degree)) for _ in range(count)]


def assert_canonical(t):
    blocks, den = scaled_terms(t)
    nums = [c for block in blocks.values() for c in block.values()]
    assert den > 0
    assert all(blocks.values())
    assert all(type(c) is int and c for c in nums)
    assert gcd(den, *nums) == 1


def checked(t, expected):
    assert_canonical(t)
    assert dict(t.terms) == expected
    return t


# -- kernel == oracle -----------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(tensor_pairs(), rationals)
def test_kernel_ops_match_the_oracle(case, q):
    ctx, (a, b) = case
    ta, tb = Tensor(ctx, a), Tensor(ctx, b)
    checked(ta, a)
    checked(ta + tb, o_add(a, b))
    checked(ta - tb, o_add(a, {m: -c for m, c in b.items()}))
    checked(ta * tb, o_mul(a, b, ctx.truncation))
    checked(ta.scale(q), {m: c * q for m, c in a.items() if c * q})
    checked(graded_scale(ta, q), {m: c * q ** len(m) for m, c in a.items() if c * q ** len(m)})
    checked(cyclic_n(ta), o_cyclic_n({m: c for m, c in a.items() if m}))


@settings(max_examples=60, deadline=None)
@given(tensor_pairs(min_degree=1, count=1))
def test_phi_matches_the_oracle(case):
    ctx, (a,) = case
    checked(phi(Tensor(ctx, a)), o_phi(a))


@st.composite
def phi_blocks(draw):
    """(dim, n, block): a degree-n block {code: int} at dim 2, 4 or 6, n in
    1..7, either dense (up to 80 codes) or sparse (1 to 6 codes)."""
    dim = draw(st.sampled_from([2, 4, 6]))
    n = draw(st.integers(1, 7))
    rng = draw(st.randoms(use_true_random=False))
    count = min(dim**n, 80) if draw(st.booleans()) else rng.randint(1, min(dim**n, 6))
    codes = rng.sample(range(dim**n), count)
    return dim, n, {k: rng.choice([-3, -2, -1, 1, 2, 3]) for k in codes}


def _random_tree(rng, n, dim):
    """A random bracket tree with n leaves in range(dim)."""
    if n == 1:
        return rng.randrange(dim)
    k = rng.randint(1, n - 1)
    return (_random_tree(rng, k, dim), _random_tree(rng, n - k, dim))


def _phi_agrees_with_the_oracles(dim, n, block):
    """Phi of the block by the flat steps, checked against both oracles, the
    builder's tails and Phi, and phi and is_lie on its tensor; returns
    whether the block is Lie."""
    expected = o_phi_codes(block, n, dim)
    assert _bracket_steps(block, dim, range(1, n)) == expected
    by_words = o_phi({decode_monomial(k, n, dim): Fraction(c) for k, c in block.items()})
    assert {decode_monomial(k, n, dim): c for k, c in expected.items()} == by_words
    if n >= 2:
        tails = _bracket_steps(block, dim, range(1, n - 1))
        assert tails == o_phi_tails(block, n, dim)
        assert _bracket_steps(tails, dim, range(n - 1, n)) == expected
    lie = expected == {k: c * n for k, c in block.items()}
    t = tensor_from_scaled(AlgebraContext(dim // 2, max(n, 2)), {n: dict(block)})
    checked(phi(t), by_words)
    assert is_lie(t) == lie
    return lie


@settings(max_examples=100, deadline=None)
@given(phi_blocks())
def test_flat_phi_matches_the_first_letter_recursion(case):
    dim, n, block = case
    before = dict(block)
    _phi_agrees_with_the_oracles(dim, n, block)
    assert block == before  # the steps never write into their input


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([2, 4, 6]), st.integers(1, 7), st.randoms(use_true_random=False))
def test_flat_phi_on_lie_and_non_lie_blocks(dim, n, rng):
    # a sum of random bracket trees of degree n is Lie; adding a power of one
    # letter, which Phi sends to 0, makes it not Lie
    ctx = AlgebraContext(dim // 2, max(n, 2))
    lie = zero_tensor(ctx)
    for _ in range(rng.randint(1, 4)):
        tree = _random_tree(rng, n, dim)
        lie = lie + bracket_tree_tensor(ctx, tree).scale(rng.choice([-2, -1, 1, 3]))
    if not lie:
        return
    blocks, _ = scaled_terms(lie)
    assert _phi_agrees_with_the_oracles(dim, n, blocks[n])
    if n >= 2:
        # a Lie element has no term x^n, so this adds one
        spoiled = {**blocks[n], encode_monomial([rng.randrange(dim)] * n, dim): 1}
        assert not _phi_agrees_with_the_oracles(dim, n, spoiled)


@settings(max_examples=60, deadline=None)
@given(tensor_pairs(count=1))
def test_tensor_writers_match_their_rat_view_bodies(case):
    ctx, (a,) = case
    t = Tensor(ctx, a)
    assert tensor_to_json(t) == o_tensor_to_json(t)
    assert _pretty_tensors([t]) == o_pretty_tensors([t])


def test_tensor_writers_on_a_constant_term_and_crossed_orders():
    # (0, 1) < (1,) as tuples, but (1,) comes first by degree; over den 1
    ctx = AlgebraContext(1, 3)
    t = Tensor(ctx, {(): 3, (1,): -2, (0, 1): 5, (1, 0, 0): -1})
    assert [term["mono"] for term in tensor_to_json(t)["terms"]] == [[], [0, 1], [1], [1, 0, 0]]
    assert tensor_to_json(t) == o_tensor_to_json(t)
    assert _pretty_tensors([t]) == ["3/1 1  +  -2/1 B1  +  5/1 A1B1  +  -1/1 B1A1A1"]
    assert _pretty_tensors([t]) == o_pretty_tensors([t])
    halves = t.scale(Fraction(-1, 2))
    assert tensor_to_json(halves) == o_tensor_to_json(halves)
    assert _pretty_tensors([halves, zero_tensor(ctx)]) == o_pretty_tensors([halves, zero_tensor(ctx)])


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.randoms(use_true_random=False))
def test_tree_texts_written_once_per_call_match_format_bracket_tree(genus, rng):
    # Lie tensors of mixed degrees, passed together so they share subtrees,
    # with a non-Lie one among them
    ctx = AlgebraContext(genus, 5)
    tensors = []
    for _ in range(rng.randint(1, 4)):
        t = zero_tensor(ctx)
        for _ in range(rng.randint(1, 5)):
            tree = _random_tree(rng, rng.randint(1, 5), ctx.dim)
            t = t + bracket_tree_tensor(ctx, tree).scale(Fraction(rng.randint(-4, 4), rng.randint(1, 6)))
        tensors.append(t)
    tensors.insert(rng.randint(0, len(tensors)), tensors[0] * tensors[0] + 1)
    assert _pretty_tensors(tensors) == o_pretty_tensors(tensors)


@settings(max_examples=60, deadline=None)
@given(tensor_pairs(count=1))
def test_fraction_built_and_kernel_built_tensors_are_one_value(case):
    ctx, (a,) = case
    from_fractions = Tensor(ctx, a)
    from_ops = zero_tensor(ctx)
    for m, c in a.items():
        from_ops = from_ops + monomial_tensor(ctx, m).scale(c)
    assert_canonical(from_ops)
    assert from_ops == from_fractions
    assert hash(from_ops) == hash(from_fractions)
    assert scaled_terms(from_ops) == scaled_terms(from_fractions)


# -- the monomial code ----------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda g: st.lists(st.lists(st.integers(0, 2 * g - 1), max_size=6).map(tuple),
                       min_size=2, max_size=2).map(lambda ms: (2 * g, ms))))
def test_codes_round_trip_and_keep_tuple_order_per_degree(case):
    dim, (m1, m2) = case
    for m in (m1, m2):
        assert decode_monomial(encode_monomial(m, dim), len(m), dim) == m
    if len(m1) == len(m2):
        assert (encode_monomial(m1, dim) < encode_monomial(m2, dim)) == (m1 < m2)


PERIODIC = [(0, 1, 0, 1), (2, 2, 2), (0, 0, 1, 0, 0, 1), (1, 0, 1, 0), (5, 4, 5, 4)]


def test_cyclic_operators_on_periodic_necklaces():
    # orbits smaller than the degree, alone and mixed with their rotations
    # and with aperiodic words of the same necklace length
    ctx = AlgebraContext(3, 6)
    cases = [{m: Fraction(1)} for m in PERIODIC]
    cases.append({(0, 1, 0, 1): Fraction(2), (1, 0, 1, 0): Fraction(-1, 3), (0, 1, 1, 0): Fraction(5)})
    cases.append({(2, 2, 2): Fraction(1, 2), (0, 0, 1, 0, 0, 1): Fraction(-7),
                  (0, 1, 0, 0, 1, 0): Fraction(7), (3,): Fraction(4), (): Fraction(9)})
    for a in cases:
        t = Tensor(ctx, a)
        positive = {m: c for m, c in a.items() if m}
        checked(cyclic_n(t), o_cyclic_n(positive))


@settings(max_examples=60, deadline=None)
@given(tensor_pairs(count=1))
def test_half_n_square_matches_the_oracle(case):
    # at the tensor's own truncation and one degree above, as the loop
    # invariant uses it
    ctx, (a,) = case
    t = Tensor(ctx, a)
    for cap in (ctx.truncation, ctx.truncation + 1):
        checked(_half_n_square(t, AlgebraContext(ctx.genus, cap)), o_half_n_square(a, cap))


def test_half_n_square_on_single_degrees_and_periodic_squares():
    ctx = AlgebraContext(3, 6)
    cases = [
        {(0,): Fraction(1), (1,): Fraction(-2)},  # degree 1 alone
        {(0, 1): Fraction(1, 3), (1, 0): Fraction(-1, 3)},  # squares to (0,1,0,1) and (1,0,1,0)
        {(2,): Fraction(1), (2, 2): Fraction(3)},  # (2,2,2) from both orders
        {(0, 0, 1): Fraction(5, 2)},  # squares to (0,0,1,0,0,1)
        {(0,): Fraction(1), (0, 1): Fraction(1, 2), (5, 4, 5): Fraction(-7), (): Fraction(4)},
    ]
    for a in cases:
        checked(_half_n_square(Tensor(ctx, a), ctx), o_half_n_square(a, ctx.truncation))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_dense_products_match_the_oracle(data):
    # a dense block against a dense or a one-to-three-monomial partner, on
    # both sides, so the kernel walks either block innermost
    ctx = data.draw(dense_contexts)
    a = data.draw(dense_dicts(ctx))
    b = data.draw(st.one_of(dense_dicts(ctx), fraction_dicts(ctx, max_size=3, coefficients=small)))
    ta, tb = Tensor(ctx, a), Tensor(ctx, b)
    checked(ta * tb, o_mul(a, b, ctx.truncation))
    checked(tb * ta, o_mul(b, a, ctx.truncation))
    checked(cyclic_n(ta), o_cyclic_n({m: c for m, c in a.items() if m}))


def test_product_drops_a_merged_degree_that_cancels():
    # (1 + X)(X - 1) = XX - 1 and (1 + X)(1 - X) = 1 - XX: degree 1 gets X
    # from two pairs, summing to 0; the second right factor has the unit
    # block, so its degree-1 block starts as a copy of the left one
    ctx = AlgebraContext(1, 3)
    a = {(): Fraction(1), (0,): Fraction(1)}
    for sign in (1, -1):
        b = {(0,): Fraction(sign), (): Fraction(-sign)}
        product = checked(Tensor(ctx, a) * Tensor(ctx, b), o_mul(a, b, ctx.truncation))
        assert sorted(scaled_terms(product)[0]) == [0, 2]


def test_a_block_times_the_unit_block_is_a_fresh_copy():
    left = {3: 5, 7: -2}
    out = {}
    add_block_product(out, 2, left, {0: 1}, 1)
    assert out[2] == left and out[2] is not left
    add_block_product(out, 2, {3: 1}, {0: 1}, 1)
    assert out[2] == {3: 6, 7: -2} and left == {3: 5, 7: -2}
    # {0: 1} of degree 1 is the first basis vector, not the unit
    out = {}
    add_block_product(out, 3, left, {0: 1}, 4)
    assert out[3] == {12: 5, 28: -2}


def _random_block(rng, space, size):
    """``size`` distinct codes below ``space`` with small nonzero numerators."""
    return {k: rng.choice([-3, -2, -1, 1, 2, 3]) for k in rng.sample(range(space), size)}


@settings(max_examples=120, deadline=None)
@given(st.sampled_from([2, 4, 6]), st.integers(0, 3), st.integers(0, 3),
       st.sampled_from(["left", "right", "equal"]), st.randoms(use_true_random=False))
def test_accumulated_block_products_match_the_left_outermost_loop(dim, p, q, larger, rng):
    # out[p + q] already holds terms, some of them the negated products of
    # chosen pairs, so that those sums cancel to 0 on both loop orders
    lspace, rspace = dim**p, dim**q
    if larger == "equal":
        lsize = rsize = rng.randint(1, min(lspace, rspace, 30))
    else:
        big, small = (lspace, rspace) if larger == "left" else (rspace, lspace)
        assume(big > 1)
        low = rng.randint(1, min(small, big - 1, 4))
        high = rng.randint(low + 1, min(big, 60))
        lsize, rsize = (high, low) if larger == "left" else (low, high)
    left, right = _random_block(rng, lspace, lsize), _random_block(rng, rspace, rsize)
    shift = dim**q
    held = _random_block(rng, dim ** (p + q), rng.randint(1, min(dim ** (p + q), 20)))
    cancelled = rng.sample(sorted(product(left, right)), rng.randint(1, lsize * rsize))
    for a, b in cancelled:
        held[a * shift + b] = -left[a] * right[b]
    out, expected = {p + q: dict(held)}, {p + q: dict(held)}
    before = (dict(left), dict(right))
    assert add_block_product(out, p + q, left, right, shift) is True
    o_accumulate_block_product(expected, p + q, left, right, shift)
    assert out == expected
    assert (left, right) == before
    assert all(not out[p + q][a * shift + b] for a, b in cancelled)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.randoms(use_true_random=False))
def test_products_whose_accumulated_degree_cancels_stay_canonical(genus, rng):
    # (U + UX)(Y - XY) = UY - UXXY and (Y - YX)(U + XU) = YU - YXXU: degree 4
    # is built fresh from one pair of blocks and cancelled to 0 by the
    # accumulated other pair, whose larger block is U on the left in the
    # first product and XU on the right in the second
    ctx = AlgebraContext(genus, 5)
    dim = ctx.dim

    def random_tensor(degree, size):
        codes = rng.sample(range(dim**degree), min(size, dim**degree))
        return Tensor(ctx, {decode_monomial(k, degree, dim): Fraction(rng.choice([-3, -1, 1, 2]),
                                                                       rng.randint(1, 4))
                            for k in codes})

    u = random_tensor(2, rng.randint(dim, dim * dim))
    x, y = random_tensor(1, rng.randint(1, 2)), random_tensor(1, rng.randint(1, 2))
    for a, b in ((u + u * x, y - x * y), (y - y * x, u + x * u)):
        ab = checked(a * b, o_mul(dict(a.terms), dict(b.terms), ctx.truncation))
        assert sorted(scaled_terms(ab)[0]) == [3, 5]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_log_and_exp_match_the_power_series(data):
    ctx = data.draw(dense_contexts)
    u = data.draw(st.one_of(dense_dicts(ctx, min_degree=1), fraction_dicts(ctx, min_degree=1)))
    one_plus_u = {**u, (): Fraction(1)}
    checked(log(Tensor(ctx, one_plus_u)), o_log(one_plus_u, ctx.truncation))
    checked(exp(Tensor(ctx, u)), o_exp(u, ctx.truncation))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_square_kernel_matches_the_oracle_on_dense_blocks(data):
    # one degree d, so the square is the diagonal kernel alone, at cap 2d
    genus, degree = data.draw(st.integers(1, 2)), data.draw(st.integers(1, 3))
    ctx = AlgebraContext(genus, 2 * degree)
    a = data.draw(dense_dicts(ctx, degree, degree))
    checked(_half_n_square(Tensor(ctx, a), ctx), o_half_n_square(a, ctx.truncation))


@st.composite
def dense_scaled_tensors(draw):
    """A tensor at genus 1-3 and truncation 2-5 with dense random blocks in
    some degrees, always one degree p >= 1 with 2p <= truncation, over a
    denominator of 1 to 6."""
    genus, cap = draw(st.integers(1, 3)), draw(st.integers(2, 5))
    rng = draw(st.randoms(use_true_random=False))
    ctx, dim = AlgebraContext(genus, cap), 2 * genus
    diagonal = rng.randint(1, cap // 2)
    blocks = {}
    for d in range(cap + 1):
        if d == diagonal or rng.random() < 0.6:
            size = min(dim**d, rng.randint(1, 40))
            blocks[d] = _random_block(rng, dim**d, size)
    return ctx, tensor_from_scaled(ctx, blocks, rng.randint(1, 6))


@settings(max_examples=60, deadline=None)
@given(dense_scaled_tensors(), st.booleans())
def test_half_n_square_matches_the_two_call_diagonal(case, cold):
    # at the tensor's truncation and one degree above, as the loop invariant
    # uses it, with the orbit slots filled by the one-loop diagonal or not
    ctx, t = case
    for cap in (ctx.truncation, ctx.truncation + 1):
        up = AlgebraContext(ctx.genus, cap)
        if cold:
            cyclic._ORBITS.clear()
        fast = _half_n_square(t, up)
        assert_canonical(fast)
        assert scaled_terms(fast) == scaled_terms(o_half_n_square_by_calls(t, up))


def _orbit_kernels_match_the_oracles(ctx, a, b):
    """_half_n_square one degree above ctx, cyclic_n, and necklace_bracket
    of the cyclic images, each against its Fraction oracle."""
    up = AlgebraContext(ctx.genus, ctx.truncation + 1)
    checked(_half_n_square(Tensor(ctx, a), up), o_half_n_square(a, up.truncation))
    positive = [{m: c for m, c in d.items() if m} for d in (a, b)]
    u, v = (checked(cyclic_n(Tensor(ctx, d)), o_cyclic_n(d)) for d in positive)
    checked(necklace_bracket(u, v), o_necklace_bracket(dict(u.terms), dict(v.terms), ctx.truncation))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_orbit_kernels_match_the_oracles_on_a_cold_and_a_warm_table(data):
    # the first run fills the orbit slots from empty, the second reads them
    ctx = data.draw(dense_contexts)
    a, b = data.draw(dense_dicts(ctx)), data.draw(dense_dicts(ctx, min_degree=1))
    cyclic._ORBITS.clear()
    _orbit_kernels_match_the_oracles(ctx, a, b)
    _orbit_kernels_match_the_oracles(ctx, a, b)


def test_orbit_kernels_on_periodic_necklaces_cold_and_warm():
    ctx = AlgebraContext(3, 6)
    periodic = {m: Fraction(k + 1, 2) for k, m in enumerate(PERIODIC)}
    halves = {m: c for m, c in periodic.items() if len(m) <= 3}
    cases = [(halves, periodic), ({(2,): Fraction(1), (2, 2): Fraction(-1)}, {(0, 1): Fraction(3)})]
    cyclic._ORBITS.clear()
    for a, b in cases + cases:
        _orbit_kernels_match_the_oracles(ctx, a, b)


# -- algebraic laws -------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(tensor_pairs(count=3))
def test_product_is_associative(case):
    ctx, dicts = case
    a, b, c = (Tensor(ctx, d) for d in dicts)
    assert (a * b) * c == a * (b * c)


@settings(max_examples=40, deadline=None)
@given(tensor_pairs(min_degree=1, count=1))
def test_exp_inverts_log(case):
    ctx, (u,) = case
    x = Tensor(ctx, {**u, (): 1})
    assert exp(log(x)) == x
    assert log(exp(Tensor(ctx, u))) == Tensor(ctx, u)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_derivation_apply_obeys_leibniz(data):
    ctx = data.draw(contexts)
    # values without constant terms never lower degree, so truncation
    # commutes with the derivation and Leibniz holds exactly
    values = [Tensor(ctx, data.draw(fraction_dicts(ctx, 1))) for _ in range(ctx.dim)]
    d = Derivation(ctx, values)
    a, b = (Tensor(ctx, data.draw(fraction_dicts(ctx))) for _ in range(2))
    assert apply(d, a * b) == apply(d, a) * b + a * apply(d, b)


@st.composite
def derivation_cases(draw):
    # values may be empty, have degree-0 parts (they lower degree),
    # degree-1 parts (they keep it) and parts of the truncation degree
    ctx = draw(contexts)
    values = [draw(st.one_of(st.just({}), fraction_dicts(ctx))) for _ in range(ctx.dim)]
    inputs = [draw(fraction_dicts(ctx)) for _ in range(2)]
    inputs[0][()] = draw(rationals) or Fraction(1)
    return ctx, values, inputs


@settings(max_examples=80, deadline=None)
@given(derivation_cases())
def test_derivation_apply_matches_the_oracle(case):
    ctx, values, inputs = case
    d = Derivation(ctx, [Tensor(ctx, v) for v in values])
    for a in inputs:  # the second apply reads the table the first one built
        checked(apply(d, Tensor(ctx, a)), o_derive(values, a, ctx.truncation))


def test_derivation_apply_on_edge_values():
    ctx = AlgebraContext(3, 4)
    t = Tensor(ctx, {(): Fraction(2), (0,): Fraction(1, 3), (1, 5, 0): Fraction(-4), (3, 3, 3, 3): Fraction(5, 7)})
    a = dict(t.terms)
    cases = [
        [Tensor(ctx)] * ctx.dim,  # the zero derivation
        list(from_tensor(Tensor(ctx, {(1,): Fraction(1), (2,): Fraction(-3, 2)})).values),  # degree 0
        [Tensor(ctx, {(j ^ 1,): Fraction(j + 1)}) for j in range(ctx.dim)],  # degree-preserving
        [Tensor(ctx, {(j,) * ctx.truncation: Fraction(1, 2)}) for j in range(ctx.dim)],  # at the cap
    ]
    for vals in cases:
        d = Derivation(ctx, vals)
        checked(apply(d, t), o_derive([dict(v.terms) for v in vals], a, ctx.truncation))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_endomorphism_apply_matches_the_oracle(data):
    ctx = data.draw(contexts)
    values = [data.draw(fraction_dicts(ctx, 1)) for _ in range(ctx.dim)]
    a = data.draw(fraction_dicts(ctx))
    a[()] = data.draw(rationals) or Fraction(1)
    endo = Endomorphism(ctx, [Tensor(ctx, v) for v in values])
    checked(endo.apply(Tensor(ctx, a)), o_substitute(values, a, ctx.truncation))


# -- maps built from the kernels ------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_wedge_embed_matches_the_permutation_sum(data):
    # weighted vectors with at least two basis terms each, so a wedge of
    # equal or dependent vectors can cancel
    genus, k = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 4))
    ctx = AlgebraContext(genus, data.draw(st.integers(max(k, 2), 5)))
    nonzero = rationals.filter(bool)
    letters = st.integers(0, ctx.dim - 1).map(lambda i: (i,))
    vectors = [data.draw(st.dictionaries(letters, nonzero, min_size=2, max_size=ctx.dim))
               for _ in range(k)]
    product = Tensor(ctx, {(): Fraction(1)})
    for v in vectors:
        product = product * Tensor(ctx, v)
    checked(antisymmetrize(product).scale(factorial(k)), o_wedge(vectors, ctx.truncation))


def _depth(tree):
    return 0 if isinstance(tree, int) else 1 + max(map(_depth, tree))


def _nested_bracket(ctx, tree):
    if isinstance(tree, int):
        return basis_tensor(ctx, tree)
    return bracket(_nested_bracket(ctx, tree[0]), _nested_bracket(ctx, tree[1]))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_bracket_tree_tensor_matches_nested_brackets(data):
    # trees above the truncation expand to 0 on both sides
    ctx = AlgebraContext(data.draw(st.integers(1, 3)), data.draw(st.integers(2, 6)))
    leaves = st.integers(0, ctx.dim - 1)
    tree = data.draw(st.recursive(leaves, lambda sub: st.tuples(sub, sub), max_leaves=6)
                     .filter(lambda t: _depth(t) <= 4))
    t = bracket_tree_tensor(ctx, tree)
    assert_canonical(t)
    assert t == _nested_bracket(ctx, tree)


TWISTS = [("nonsep", None), ("sep", 1), ("sep", 2)]


@settings(max_examples=20, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(TWISTS), st.sampled_from([-2, -1, 1, 2])),
                min_size=1, max_size=3),
       st.integers(1, 4))
def test_johnson_components_match_the_explicit_sum(factors, top):
    # tau_k on X_j is the degree-(k+1) part of sum_i inv[i][j] T(phi)(X_i),
    # T(phi) solved in theta restricted to degree top+1
    theta = built_expansion(2, 6)
    ctx = theta.ctx
    phi = twist(2, *factors[0][0], factors[0][1])
    for (kind, h), power in factors[1:]:
        phi = compose(phi, twist(2, kind, h, power))
    values = total_johnson(restrict(theta, top + 1), phi).h_values
    inv = homology_inverse(phi)
    composed = []
    for j in range(ctx.dim):
        acc = zero_tensor(values[0].ctx)
        for i, row in enumerate(inv):
            acc = acc + values[i].scale(row[j])
        composed.append(acc)
    taus = johnson_components(theta, phi, top)
    assert len(taus) == top
    for k, tau in enumerate(taus, start=1):
        assert tau.ctx == ctx
        assert list(tau.values) == [truncate(graded_part(v, k + 1), ctx) for v in composed]


# -- the integer letters and the boundary product -------------------------------


def o_boundary_value(ctx, values):
    """theta(zeta) as the product of e_a e_b S(e_a) S(e_b) over the handles."""
    out = one_tensor(ctx)
    for i in range(ctx.genus):
        ea, eb = values[2 * i], values[2 * i + 1]
        out = out * (ea * eb * antipode(ea) * antipode(eb))
    return out


def o_symplectic_failures(theta):
    """The verdict from the logs lifted to N+1 and their rational exponentials."""
    failures = []
    ext = AlgebraContext(theta.genus, theta.truncation + 1)
    logs = [truncate(t, ext) for t in theta.logs]
    if all(is_lie(t) for t in logs):
        zeta = o_boundary_value(ext, [exp(t) for t in logs])
    else:
        failures.append("a generator log is not Lie")
        zeta = evaluate(Expansion(ext, logs), boundary_word(theta.genus))
    degree = filtration_degree(zeta - exp(symplectic_form(ext)))
    if degree <= ext.truncation:
        failures.append(f"ell(zeta) != omega, first in degree {degree}")
    return failures


LIE_EXPANSIONS = {
    "fixture-genus1": lambda: load_fixture("fixture-genus1"),
    "fixture-genus2": lambda: load_fixture("fixture-genus2"),
    "fixture-massuyeau": lambda: load_fixture("fixture-massuyeau"),
    "built-g1-N8": lambda: built_expansion(1, 8),
    "built-g2-N6": lambda: built_expansion(2, 6),
    "built-g3-N4": lambda: built_expansion(3, 4),
    "moved": lambda: moved_expansion(built_expansion(2, 5), lambda3_derivation(AlgebraContext(2, 5))),
}


@pytest.mark.parametrize("name", [*LIE_EXPANSIONS, "standard"])
def test_integral_exp_matches_the_rational_exp(name):
    theta = LIE_EXPANSIONS.get(name, lambda: standard_expansion(2, 4))()
    lam = _integral_scale(theta.logs, theta.truncation)
    for t in theta.logs:
        for u in (t, -t):
            value = integral_exp(graded_scale(u, lam))
            assert scaled_terms(value)[1] == 1
            assert value == graded_scale(exp(u), lam)


def test_integral_exp_refuses_a_scale_too_small():
    # lam = 1 leaves a log's denominators; an integer u = A1 leaves A1^2 / 2
    for theta in (load_fixture("fixture-genus1"), load_fixture("fixture-genus2")):
        with pytest.raises(ArithmeticError):
            integral_exp(graded_scale(theta.logs[0], 1))
    with pytest.raises(ArithmeticError):
        integral_exp(basis_tensor(AlgebraContext(1, 3), 0))
    # whatever lam it is given, it raises or is right
    theta = load_fixture("fixture-genus2")
    for lam in range(1, 61):
        for t in theta.logs:
            try:
                value = integral_exp(graded_scale(t, lam))
            except ArithmeticError:
                continue
            assert value == graded_scale(exp(t), lam)


@pytest.mark.parametrize("name", [*LIE_EXPANSIONS, "exp-g1", "exp-g2", "exp-g3"])
def test_commutator_handles_match_the_four_factor_product(name):
    if name.startswith("exp-g"):
        theta = exponential_expansion(int(name[-1]), 4)
    else:
        theta = LIE_EXPANSIONS[name]()
    ext = AlgebraContext(theta.genus, theta.truncation + 1)
    values = [exp(truncate(t, ext)) for t in theta.logs]
    expected = o_boundary_value(ext, values)
    assert _boundary_value(ext, values) == expected
    # the values through degree N only, lifted: what the re-proof and the
    # builder pass in
    low = [truncate(truncate(v, theta.ctx), ext) for v in values]
    assert _boundary_value(ext, low) == expected
    lam = theta._letter_scale()
    letters = [truncate(theta._exp_letter(2 * i), ext) for i in range(ext.dim)]
    assert _boundary_value(ext, letters) == graded_scale(expected, lam)


def _admitted(kind):
    payload = json.loads(expansion._data_text(expansion._FIXTURE_FILES[kind]))
    theta = load_fixture(kind)
    return [restrict(theta, n) for n in range(2, payload["max_trusted_degree"])]


def _verdict_cases():
    yield from ((f"{kind} N={t.truncation}", t)
                for kind in ("fixture-genus1", "fixture-genus2", "fixture-massuyeau")
                for t in _admitted(kind))
    yield from ((f"exp g{g} N{n}", exponential_expansion(g, n))
                for g in (1, 2, 3) for n in (3, 4, 5))
    yield from ((f"standard g{g} N{n}", standard_expansion(g, n))
                for g, n in ((1, 3), (2, 4)))


def test_verdicts_match_the_rational_route_word_for_word():
    for label, theta in _verdict_cases():
        fresh = Expansion(theta.ctx, theta.logs, kind=theta.kind)
        assert symplectic_failures(theta) == o_symplectic_failures(fresh), label
        if label.startswith("exp"):
            assert symplectic_failures(theta) == ["ell(zeta) != omega, first in degree 3"]
        if label.startswith("standard"):
            assert symplectic_failures(theta) == [
                "a generator log is not Lie", "ell(zeta) != omega, first in degree 3"
            ]


def test_massuyeau_verdict_one_degree_up_matches_the_rational_route(old_massuyeau):
    theta = load_fixture("fixture-massuyeau")
    assert theta.truncation == 4
    expected = ["ell(zeta) != omega, first in degree 5"]
    assert o_symplectic_failures(theta) == expected
    assert symplectic_failures(theta) == expected


def test_forty_digit_denominators_fail_check_expansion(tmp_path, capsys):
    ctx = AlgebraContext(2, 4)
    a1, b1, a2, b2 = (basis_tensor(ctx, i) for i in range(4))
    logs = [a1, b1, a2, b2]
    logs[0] = a1 + bracket(a2, b2).scale(Fraction(1, 10**40 + 1))
    logs[1] = b1 + bracket(a1, bracket(a1, b2)).scale(Fraction(3, 7**47))
    logs[3] = b2 + bracket(b1, bracket(a2, bracket(a1, b2))).scale(Fraction(-5, 10**39 + 3))
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(expansion_to_json(Expansion(ctx, logs))))
    theta = expansion_from_json(json.loads(path.read_text()))
    assert len(str(theta._letter_scale())) > 80
    start = time.perf_counter()
    assert main(["check-expansion", "--in", str(path)]) == 1
    assert time.perf_counter() - start < 2
    assert "ell(zeta) != omega" in capsys.readouterr().out
    assert symplectic_failures(theta) == o_symplectic_failures(theta)


@pytest.mark.parametrize("name", LIE_EXPANSIONS)
def test_letters_after_a_re_proof_match_a_fresh_expansion(name):
    theta = LIE_EXPANSIONS[name]()
    theta = Expansion(theta.ctx, theta.logs, kind=theta.kind)
    symplectic_failures(theta)
    fresh = Expansion(theta.ctx, theta.logs, kind=theta.kind)
    letters = range(2 * theta.ctx.dim)
    for w in [[x] for x in letters] + [list(p) for p in product(letters, repeat=2)]:
        word = GroupWord(theta.genus, w)
        assert evaluate(theta, word) == evaluate(fresh, word)


# -- connecting automorphisms through log U -------------------------------------


def o_log_h_values(endo):
    """(log U)(X_j) for each basis vector, by the series
    log U = sum (-1)^(k-1) (U - 1)^k / k, which stops by the truncation as
    U - 1 raises filtration."""
    ctx = endo.ctx
    out = []
    for j in range(ctx.dim):
        term = endo.h_values[j] - basis_tensor(ctx, j)
        acc = term
        for k in range(2, ctx.truncation + 1):
            term = endo.apply(term) - term
            acc = acc + term.scale(Fraction((-1) ** (k - 1), k))
        assert not endo.apply(term) - term  # the series has stopped
        out.append(acc)
    return out


def o_connecting_failures(label, theta1, theta2, require_nontrivial=False):
    """The ``connecting`` verdict with its filtration, Lie and omega tests
    made on log U, as the check once made them."""
    ctx = theta1.ctx
    U = connecting_automorphism(theta1, theta2)
    failures = []
    for i in range(ctx.dim):
        gen = generator_word(ctx.genus, i)
        if U.apply(evaluate(theta1, gen)) != evaluate(theta2, gen):
            failures.append(f"{label}: U theta1 != theta2 on generator {i}")
    logs = o_log_h_values(U)
    if require_nontrivial and not any(logs):
        failures.append(f"{label}: U is the identity; vacuous pair")
    for j, w in enumerate(logs):
        if w and filtration_degree(w) < 2:
            failures.append(f"{label}: (log U)(X_{j}) does not raise filtration")
        if not is_lie(w):
            failures.append(f"{label}: (log U)(X_{j}) is not a Lie element")
    if apply(Derivation(ctx, logs), symplectic_form(ctx)):
        failures.append(f"{label}: (log U)|_H does not kill omega")
    u1 = [graded_part(v, 2) for v in U.h_values]
    t = to_tensor(Derivation(ctx, u1))
    if antisymmetrize(t) != t:
        failures.append(f"{label}: u_1 is not in Lambda^3 H")
    return failures


def test_log_h_values_inverts_exp():
    # U = exp(D) for a filtration-raising derivation D: log U recovers D on H
    rng = random.Random(616)
    ctx = AlgebraContext(2, 5)
    for _ in range(5):
        # naming tensors of degree >= 3, so D raises filtration
        naming = zero_tensor(ctx)
        for _ in range(2):
            mono = tuple(
                rng.randrange(ctx.dim) for _ in range(rng.randint(3, ctx.truncation))
            )
            naming = naming + monomial_tensor(ctx, mono, Fraction(rng.randint(-2, 2), 2))
        d = from_tensor(cyclic_n(naming))
        endo = Endomorphism(
            ctx, [exp_derivation(d, basis_tensor(ctx, j)) for j in range(ctx.dim)]
        )
        assert o_log_h_values(endo) == list(d.values)


OMEGA = "(log U)|_H does not kill omega"
NOT_LAMBDA3 = "u_1 is not in Lambda^3 H"
VACUOUS = "U is the identity; vacuous pair"
# each partner of build_symplectic(2, 4), with the failures it must give
CONNECTING_PARTNERS = {
    "exponential": (lambda built: exponential_expansion(2, 4), [OMEGA, NOT_LAMBDA3]),
    "standard": (
        lambda built: standard_expansion(2, 4),
        [*(f"(log U)(X_{j}) is not a Lie element" for j in range(4)), OMEGA, NOT_LAMBDA3],
    ),
    "non-Lie move": (
        lambda built: moved_expansion(built, from_tensor(monomial_tensor(built.ctx, (0, 1, 0, 1)))),
        ["(log U)(X_1) is not a Lie element", OMEGA],
    ),
    "Lambda^3 move": (lambda built: moved_expansion(built, lambda3_derivation(built.ctx)), []),
    "fixture-genus2": (lambda built: load_fixture("fixture-genus2"), [VACUOUS]),
    "itself": (lambda built: built, [VACUOUS]),
}


@pytest.mark.parametrize("label", CONNECTING_PARTNERS)
def test_connecting_verdicts_on_u_match_the_log_route(label):
    make, pinned = CONNECTING_PARTNERS[label]
    built = build_symplectic(2, 4)
    theta2 = make(built)
    expected = o_connecting_failures(label, built, theta2, require_nontrivial=True)
    assert expected == [f"{label}: {f}" for f in pinned]
    assert _connecting_failures(label, built, theta2, require_nontrivial=True) == expected
