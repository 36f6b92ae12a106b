"""Magnus expansions: evaluation, fixtures, the symplectic builder, and
connecting automorphisms."""

import hashlib
import json
import random
import time
from importlib import resources

import pytest

from twistlog import expansion as expansion_module
from twistlog.expansion import (
    Expansion,
    build_symplectic,
    connecting_automorphism,
    evaluate,
    expansion_from_json,
    expansion_to_json,
    exponential_expansion,
    is_group_like,
    is_symplectic,
    load_fixture,
    log_evaluate,
    restrict,
    standard_expansion,
    symplectic_failures,
)
from twistlog.lie import bracket, exp, is_lie
from twistlog.suite import variant_expansion
from twistlog.rationals import Rat
from twistlog.tensor import (
    AlgebraContext,
    basis_tensor,
    filtration_degree,
    graded_part,
    graded_scale,
    monomial_tensor,
    one_tensor,
    scaled_terms,
    symplectic_form,
    truncate,
    zero_tensor,
)
from twistlog.words import (
    GroupWord,
    boundary_word,
    commutator,
    concat,
    generator_word,
    word_from_string,
)


def random_word(rng, genus, length):
    return GroupWord(
        genus, [(rng.randrange(2 * genus), rng.choice((1, -1))) for _ in range(length)]
    )


def test_standard_expansion_values():
    theta = standard_expansion(1, 3)
    a1 = generator_word(1, 0)
    assert evaluate(theta, a1) == one_tensor(theta.ctx) + basis_tensor(theta.ctx, 0)
    # log(1 + X) has a non-Lie square term, so the expansion is not group-like
    assert not is_group_like(theta)


def test_exponential_expansion():
    theta = exponential_expansion(2, 4)
    assert is_group_like(theta)
    assert not is_symplectic(theta)
    # every group-like expansion satisfies the boundary condition in degree
    # 2, but the test reaches one degree above the truncation, and the
    # exponential expansion fails in degree 3 even at truncation 2
    assert log_evaluate(exponential_expansion(2, 2), boundary_word(2)) == symplectic_form(
        AlgebraContext(2, 2)
    )
    assert symplectic_failures(exponential_expansion(2, 2)) == [
        "ell(zeta) != omega, first in degree 3"
    ]


def test_constructor_validation():
    ctx = AlgebraContext(1, 3)
    a, b = basis_tensor(ctx, 0), basis_tensor(ctx, 1)
    with pytest.raises(ValueError):
        Expansion(ctx, [a])  # wrong count
    with pytest.raises(ValueError):
        Expansion(ctx, [a + one_tensor(ctx), b])  # constant term
    with pytest.raises(ValueError):
        Expansion(ctx, [b, b])  # wrong degree-1 part
    with pytest.raises(ValueError):
        Expansion(ctx, [a, b], kind="bespoke")
    other = AlgebraContext(1, 4)
    with pytest.raises(ValueError):
        Expansion(ctx, [basis_tensor(other, 0), b])


def test_evaluate_is_a_homomorphism():
    rng = random.Random(8128)
    theta = load_fixture("fixture-genus2")
    for _ in range(10):
        u = random_word(rng, 2, rng.randint(0, 5))
        v = random_word(rng, 2, rng.randint(0, 5))
        assert evaluate(theta, concat(u, v)) == evaluate(theta, u) * evaluate(theta, v)
    assert evaluate(theta, GroupWord(2)) == one_tensor(theta.ctx)
    with pytest.raises(ValueError):
        evaluate(theta, random_word(rng, 1, 2))


def test_group_like_values_have_lie_logs():
    rng = random.Random(246)
    theta = load_fixture("fixture-genus1")
    for _ in range(10):
        w = random_word(rng, 1, rng.randint(1, 6))
        assert is_lie(log_evaluate(theta, w))


def test_lower_central_series_filtration():
    # ell of a depth-k iterated commutator starts in degree k
    theta = build_symplectic(2, 5)
    a1, b1, a2 = (generator_word(2, i) for i in (0, 1, 2))
    w2 = commutator(a1, b1)
    w3 = commutator(w2, a2)
    w4 = commutator(w3, b1)
    assert filtration_degree(log_evaluate(theta, w2)) == 2
    assert filtration_degree(log_evaluate(theta, w3)) == 3
    assert filtration_degree(log_evaluate(theta, w4)) == 4


def test_genus1_fixture_log_values():
    # published low-degree values of the genus-1 log on a1
    theta = load_fixture("fixture-genus1")
    ctx = theta.ctx
    a, b = basis_tensor(ctx, 0), basis_tensor(ctx, 1)
    ell = theta.logs[0]
    assert graded_part(ell, 1) == a
    assert graded_part(ell, 2) == bracket(a, b).scale(Rat(1, 2))
    deg3 = bracket(b, bracket(b, a)).scale(Rat(1, 12)) + bracket(
        a, bracket(a, b)
    ).scale(Rat(-1, 8))
    assert graded_part(ell, 3) == deg3


def test_fixtures_are_symplectic():
    for theta in (load_fixture("fixture-genus1"), load_fixture("fixture-genus2")):
        assert is_symplectic(theta)
        assert log_evaluate(theta, boundary_word(theta.genus)) == symplectic_form(theta.ctx)


def test_fixture_trusted_degrees():
    # the default truncation is one below the trusted degree
    assert load_fixture("fixture-genus1").truncation + 1 == 6
    assert load_fixture("fixture-genus2").truncation + 1 == 5
    assert load_fixture("fixture-massuyeau").truncation + 1 == 4
    # asking beyond the trusted degree is an error, not an extrapolation
    with pytest.raises(ValueError):
        load_fixture("fixture-genus1", 6)
    with pytest.raises(ValueError):
        load_fixture("fixture-genus2", 5)
    assert load_fixture("fixture-genus1", 3).truncation == 3
    with pytest.raises(ValueError):
        load_fixture("no-such-fixture")


def test_fixture_refuses_a_malformed_bracket_tree(monkeypatch):
    data_text = expansion_module._data_text
    payload = json.loads(data_text("genus1.json"))
    payload["generators"]["a1"][0][1] = ["A1"]
    edited = json.dumps(payload)
    monkeypatch.setattr(
        expansion_module, "_data_text", lambda name: edited if name == "genus1.json" else data_text(name)
    )
    with pytest.raises(ValueError) as refused:
        load_fixture("fixture-genus1")
    assert str(refused.value) == "malformed bracket tree: ['A1']"


def test_fixture_refuses_a_data_file_missing_a_generator(monkeypatch):
    data_text = expansion_module._data_text
    payload = json.loads(data_text("genus1.json"))
    del payload["generators"]["b1"]
    edited = json.dumps(payload)
    monkeypatch.setattr(
        expansion_module, "_data_text", lambda name: edited if name == "genus1.json" else data_text(name)
    )
    with pytest.raises(ValueError) as refused:
        load_fixture("fixture-genus1")
    assert str(refused.value) == "fixture-genus1 is missing the generators b1"


def test_massuyeau_fixture_is_a_genus1_symplectic_expansion():
    theta = load_fixture("fixture-massuyeau")
    assert theta.genus == 1 and theta.truncation == 3
    assert symplectic_failures(theta) == [] and is_symplectic(theta)
    # another symplectic expansion than the genus-1 fixture, from degree 3 on
    other = load_fixture("fixture-genus1", 3)
    differ = [
        d for d in range(1, 4)
        if any(graded_part(s, d) != graded_part(t, d) for s, t in zip(theta.logs, other.logs))
    ]
    assert differ[0] == 3


def test_the_old_massuyeau_truncation_fails_one_degree_up(old_massuyeau):
    # ell(zeta) = omega through degree 4 but not in degree 5, where it is
    # off by (1/12)[A1,[[[A1,B1],B1],B1]]
    theta = load_fixture("fixture-massuyeau")
    assert theta.truncation == 4
    assert log_evaluate(theta, boundary_word(1)) == symplectic_form(theta.ctx)
    assert symplectic_failures(theta) == ["ell(zeta) != omega, first in degree 5"]
    ext = AlgebraContext(1, 5)
    lifted = Expansion(ext, [truncate(t, ext) for t in theta.logs])
    a, b = basis_tensor(ext, 0), basis_tensor(ext, 1)
    defect = log_evaluate(lifted, boundary_word(1)) - symplectic_form(ext)
    assert defect == bracket(a, bracket(bracket(bracket(a, b), b), b)).scale(Rat(1, 12))


def test_builder_produces_symplectic_expansions():
    for genus, trunc in ((1, 4), (2, 4), (2, 5)):
        theta = build_symplectic(genus, trunc)
        assert is_symplectic(theta)
        assert theta.kind == "built"


def test_builder_reproduces_fixtures():
    # the canonical build agrees with the published tables on the nose
    assert build_symplectic(1, 5) == load_fixture("fixture-genus1")
    assert build_symplectic(2, 4) == load_fixture("fixture-genus2")


def test_builder_idempotent_on_fixture_seed():
    fx = load_fixture("fixture-genus2")
    again = build_symplectic(2, 4, seed=fx)
    assert again.logs == fx.logs


def test_builder_restriction_coherence():
    # restricting a higher build equals building lower directly
    assert restrict(build_symplectic(2, 5), 4) == build_symplectic(2, 4)


def test_restrict_evaluates_as_the_truncated_expansion():
    rng = random.Random(1008)
    for theta in (
        build_symplectic(2, 5),
        standard_expansion(1, 5),
        load_fixture("fixture-genus1"),
        load_fixture("fixture-massuyeau"),
    ):
        assert restrict(theta, theta.truncation) is theta
        with pytest.raises(ValueError):
            restrict(theta, theta.truncation + 1)
        for degree in range(2, theta.truncation):
            low = restrict(theta, degree)
            assert low.truncation == degree and low.kind == theta.kind
            # made once per degree, and equal to a freshly truncated expansion
            assert restrict(theta, degree) is low
            ctx = AlgebraContext(theta.genus, degree)
            assert low == Expansion(ctx, [truncate(t, ctx) for t in theta.logs], kind=theta.kind)
            for _ in range(6):
                w = random_word(rng, theta.genus, rng.randint(0, 6))
                assert evaluate(low, w) == truncate(evaluate(theta, w), low.ctx)


def test_symplectic_failures_are_proved_once_and_returned_fresh():
    theta = exponential_expansion(2, 4)
    first = symplectic_failures(theta)
    assert first == ["ell(zeta) != omega, first in degree 3"]
    first.append("changed by the caller")
    assert symplectic_failures(theta) == ["ell(zeta) != omega, first in degree 3"]
    assert not is_symplectic(theta)
    assert symplectic_failures(theta) == ["ell(zeta) != omega, first in degree 3"]
    assert symplectic_failures(standard_expansion(1, 3)) == [
        "a generator log is not Lie", "ell(zeta) != omega, first in degree 3"
    ]


@pytest.mark.parametrize(
    "genus, truncation, digest",
    [
        (1, 8, "4a2fdb7b2b982c9c"),
        (2, 6, "b53a98ebea30089f"),
        (2, 7, "6a12628b89b2016c"),
        (3, 5, "6eca7a849732d88d"),
        (3, 6, "bfaf9f682253df15"),
        (4, 5, "f16d16ec31b00ca7"),
    ],
)
def test_builder_output_is_pinned(genus, truncation, digest):
    obj = expansion_to_json(build_symplectic(genus, truncation))
    assert hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16] == digest


def _corrupt_boundary_value(monkeypatch, degree_below_pass):
    """Make the builder's theta(zeta) gain A1^k at its first pass, k being
    the pass degree less ``degree_below_pass``."""
    real = expansion_module._boundary_value

    def corrupted(ctx, logs):
        out = real(ctx, logs)
        if ctx.truncation == 3:
            out = out + monomial_tensor(ctx, (0,) * (3 - degree_below_pass))
        return out

    monkeypatch.setattr(expansion_module, "_boundary_value", corrupted)


def test_builder_refuses_a_defect_below_the_pass_degree(monkeypatch):
    _corrupt_boundary_value(monkeypatch, 1)
    with pytest.raises(ArithmeticError, match="defect below degree 3 survived pass 3"):
        build_symplectic(1, 4)


def test_builder_refuses_a_non_lie_defect(monkeypatch):
    _corrupt_boundary_value(monkeypatch, 0)  # Phi(A1^3) = 0 != 3 A1^3
    with pytest.raises(ArithmeticError, match="degree-3 defect failed the Lie certificate"):
        build_symplectic(1, 4)


def test_symplectic_verdict_agrees_with_the_boundary_log(old_massuyeau):
    # the verdict reaches degree N+1; the boundary log there, taken by
    # evaluate and log on the logs lifted one degree up, is its oracle
    for make in (
        lambda: build_symplectic(2, 4),
        lambda: load_fixture("fixture-genus1"),
        lambda: load_fixture("fixture-massuyeau"),
        lambda: exponential_expansion(2, 4),
        lambda: exponential_expansion(1, 2),
        lambda: standard_expansion(2, 4),
        lambda: variant_expansion(1, 5),
    ):
        theta = make()
        fresh = Expansion(theta.ctx, theta.logs, kind=theta.kind)
        ext = AlgebraContext(theta.genus, theta.truncation + 1)
        lifted = Expansion(ext, [truncate(t, ext) for t in theta.logs])
        defect = log_evaluate(lifted, boundary_word(theta.genus)) - symplectic_form(ext)
        witness = [f for f in symplectic_failures(fresh) if f.startswith("ell(zeta)")]
        if defect:
            assert witness == [f"ell(zeta) != omega, first in degree {filtration_degree(defect)}"]
        else:
            assert witness == []
    assert is_symplectic(variant_expansion(1, 5))
    assert not is_symplectic(standard_expansion(2, 4))


def test_builder_refuses_oversized_algebras_at_once():
    start = time.perf_counter()
    with pytest.raises(ValueError, match="monomials"):
        build_symplectic(2, 9)
    with pytest.raises(ValueError, match="monomials"):
        build_symplectic(3, 10**6)
    assert time.perf_counter() - start < 1


def test_builder_seed_validation():
    with pytest.raises(ValueError):
        build_symplectic(2, 4, seed=load_fixture("fixture-genus1"))  # genus mismatch
    with pytest.raises(ValueError):
        build_symplectic(1, 4, seed=standard_expansion(1, 4))  # not group-like


def test_connecting_automorphism_intertwines():
    rng = random.Random(135)
    theta1 = exponential_expansion(1, 4)
    theta2 = build_symplectic(1, 4)
    U = connecting_automorphism(theta1, theta2)
    for _ in range(10):
        w = random_word(rng, 1, rng.randint(0, 5))
        assert U.apply(evaluate(theta1, w)) == evaluate(theta2, w)
    basis = tuple(basis_tensor(theta1.ctx, j) for j in range(theta1.ctx.dim))
    assert U.h_values != basis
    assert connecting_automorphism(theta1, theta1).h_values == basis


def test_connecting_automorphism_validation():
    with pytest.raises(ValueError):
        connecting_automorphism(exponential_expansion(1, 3), exponential_expansion(1, 4))


def test_expansion_json_round_trip():
    for theta in (
        load_fixture("fixture-genus1"),
        load_fixture("fixture-massuyeau"),
        build_symplectic(2, 3),
    ):
        obj = expansion_to_json(theta)
        back = expansion_from_json(obj)
        assert back == theta and back.kind == theta.kind


def test_expansion_json_validation():
    good = expansion_to_json(exponential_expansion(1, 3))
    with pytest.raises(ValueError):
        expansion_from_json("nope")
    with pytest.raises(ValueError):
        expansion_from_json({k: v for k, v in good.items() if k != "kind"})
    dup = dict(good, generators=good["generators"] * 2)
    with pytest.raises(ValueError):
        expansion_from_json(dup)
    bad_name = dict(good, generators=[dict(good["generators"][0], name="c1")])
    with pytest.raises(ValueError):
        expansion_from_json(bad_name)
    # every generator needs a log; the refusal names the missing ones
    one = dict(expansion_to_json(exponential_expansion(2, 3)))
    one["generators"] = one["generators"][:1]
    with pytest.raises(ValueError, match=r"^expansion JSON is missing the generators b1, a2, b2$"):
        expansion_from_json(one)


def _tree_by_products(ctx, tree):
    if isinstance(tree, str):
        return basis_tensor(ctx, ctx.basis_index(tree))
    return bracket(_tree_by_products(ctx, tree[0]), _tree_by_products(ctx, tree[1]))


@pytest.mark.parametrize("kind, filename", [
    ("fixture-genus1", "genus1.json"),
    ("fixture-genus2", "genus2.json"),
    ("fixture-massuyeau", "massuyeau.json"),
])
def test_fixture_logs_equal_their_bracket_products(kind, filename):
    # the loader expands each tree into integer numerators once; here every
    # bracket is a tensor product instead, at each honest truncation
    payload = json.loads(resources.files("twistlog.data").joinpath(filename).read_text())
    for truncation in range(2, payload["max_trusted_degree"]):
        theta = load_fixture(kind, truncation)
        ctx = theta.ctx
        for name, entries in payload["generators"].items():
            acc = zero_tensor(ctx)
            for coeff, tree in entries:
                acc = acc + _tree_by_products(ctx, tree).scale(Rat(coeff))
            index = 2 * int(name[1:]) - 2 + (name[0] == "b")
            assert theta.logs[index] == acc


# -- words in graded integer coordinates, against the plain rational product --


def _plain_evaluate(theta, w):
    """theta(w) as the product of the letters' exponentials over Q."""
    out = one_tensor(theta.ctx)
    for index, sign in w.letters:
        t = theta.logs[index]
        out = out * exp(t if sign == 1 else -t)
    return out


# 10**39 + 3 is prime
BIG_PRIME = 10**39 + 3


def _awkward_expansion(coeff):
    """Genus 1, degree 5, read from its JSON: log a1 = A1 + coeff [A1, B1],
    log b1 = B1."""
    ctx = AlgebraContext(1, 5)
    a, b = basis_tensor(ctx, 0), basis_tensor(ctx, 1)
    theta = Expansion(ctx, [a + bracket(a, b).scale(coeff), b])
    return expansion_from_json(json.loads(json.dumps(expansion_to_json(theta))))


ORACLE_EXPANSIONS = {
    "built-g1": lambda: build_symplectic(1, 6),
    "built-g2": lambda: build_symplectic(2, 5),
    "built-g3": lambda: build_symplectic(3, 4),
    "fixture-genus1": lambda: load_fixture("fixture-genus1"),
    "fixture-genus2": lambda: load_fixture("fixture-genus2"),
    "standard": lambda: standard_expansion(2, 5),
    "exponential": lambda: exponential_expansion(2, 5),
    "quarter": lambda: _awkward_expansion(Rat(1, 4)),
    "seventh": lambda: _awkward_expansion(Rat(1, 7)),
    "big-prime": lambda: _awkward_expansion(Rat(1, BIG_PRIME)),
}


@pytest.mark.parametrize("name", ORACLE_EXPANSIONS)
def test_evaluate_equals_the_plain_rational_product(name):
    theta = ORACLE_EXPANSIONS[name]()
    rng = random.Random(name)
    for length in (0, 1, 2, 3, 6, 10):
        w = random_word(rng, theta.genus, length)
        assert evaluate(theta, w) == _plain_evaluate(theta, w)


@pytest.mark.parametrize("name", ORACLE_EXPANSIONS)
def test_generator_values_are_memoized_and_never_aliased(name):
    # evaluate hands out one shared tensor per generator value; using it in
    # arithmetic must leave it, and every later lookup, equal to exp(+-ell_i)
    theta = ORACLE_EXPANSIONS[name]()
    one = one_tensor(theta.ctx)
    for i, t in enumerate(theta.logs):
        for sign in (1, -1):
            w = GroupWord(theta.genus, [(i, sign)])
            oracle = exp(t if sign == 1 else -t)
            value = evaluate(theta, w)
            assert value == oracle
            assert value * value == oracle * oracle
            assert value + one == oracle + one
            assert graded_scale(value, Rat(2, 3)) == graded_scale(oracle, Rat(2, 3))
            again = evaluate(theta, w)
            assert again is value
            assert again == oracle


@pytest.mark.parametrize("coeff, lam", [
    # 30 holds the primes <= 5 and is the least r with 4 | r**2, yet
    # (1/4 [A1, B1])**2 / 2 = 1/32 [A1, B1]**2 needs 32 | r**4
    (Rat(1, 4), 60),
    (Rat(1, 7), 30 * 7),
    (Rat(1, BIG_PRIME), 30 * BIG_PRIME),
])
def test_letter_scale_covers_awkward_denominators(coeff, lam):
    start = time.perf_counter()
    theta = _awkward_expansion(coeff)
    w = word_from_string(1, "a1 b1 A1 a1 a1 B1")
    assert evaluate(theta, w) == _plain_evaluate(theta, w)
    assert time.perf_counter() - start < 1
    assert theta._letter_scale() == lam
    assert scaled_terms(graded_scale(exp(theta.logs[0]), 30))[1] != 1


def test_letter_scale_of_the_built_and_shipped_expansions():
    for theta in (build_symplectic(2, 5), load_fixture("fixture-genus1"), load_fixture("fixture-genus2")):
        assert theta._letter_scale() == 60


def test_a_letter_scale_too_small_is_refused(monkeypatch):
    monkeypatch.setattr(expansion_module, "_integral_scale", lambda logs, truncation: 30)
    theta = _awkward_expansion(Rat(1, 4))
    with pytest.raises(ArithmeticError, match="not integral"):
        evaluate(theta, word_from_string(1, "a1"))


@pytest.mark.parametrize("make, antipodal", [
    (lambda: build_symplectic(2, 4), True),
    (lambda: load_fixture("fixture-genus1"), True),
    (lambda: load_fixture("fixture-genus2"), True),
    (lambda: standard_expansion(2, 4), False),  # log(1 + X) is not Lie
])
def test_inverse_letters_come_from_the_antipode_when_it_negates_the_log(make, antipodal):
    theta = make()
    for i, t in enumerate(theta.logs):
        assert theta._exp_letter(i, -1) == graded_scale(exp(-t), theta._letter_scale())
        # only the antipode path reads the forward letter
        assert ((i, 1) in theta._exp_cache) == antipodal
