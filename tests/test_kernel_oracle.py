"""The scaled-integer kernels against a slow dict/Fraction oracle.

The oracle below is the plain textbook arithmetic on monomial -> Fraction
dicts, with no shared code path with ``twistlog.tensor``, the derivation
kernel or the substitution kernel.  Random tensors
at genus 1-3 and truncation <= 5 carry random rationals; genus 3 gives
dim 6, so monomial codes are base 6, not a power of two.  Dense tensors of
up to 40 monomials with small coefficients at genus 1-2 exercise both loop
orders of the product, merged degrees whose sums cancel, and full blocks
of one degree in the square kernel.  The last tests pin maps built on the
kernels (the wedge embedding k! antisymmetrize(v_1 ... v_k), bracket trees,
Johnson components) against the sums they stand for, written out term by
term.
"""

from fractions import Fraction
from itertools import permutations
from math import factorial, gcd

from hypothesis import given, settings, strategies as st

from twistlog import cyclic
from twistlog.cyclic import cyclic_n, necklace_bracket
from twistlog.derivation import Derivation, apply, from_tensor
from twistlog.endomorphism import Endomorphism
from twistlog.expansion import restrict
from twistlog.johnson import _half_n_square, johnson_components, total_johnson
from twistlog.lie import bracket, bracket_tree_tensor, exp, log, phi
from twistlog.suite import built_expansion
from twistlog.tensor import (
    AlgebraContext,
    Tensor,
    add_block_product,
    antisymmetrize,
    basis_tensor,
    decode_monomial,
    encode_monomial,
    graded_part,
    graded_scale,
    monomial_tensor,
    scaled_terms,
    truncate,
    zero_tensor,
)
from twistlog.words import compose, homology_inverse, twist

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
        assert product.degrees() == [0, 2]


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
