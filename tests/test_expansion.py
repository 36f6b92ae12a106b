"""Magnus expansions: evaluation, fixtures, the symplectic builder, and
connecting automorphisms."""

import hashlib
import json
import random
import time
from importlib import resources

import pytest

from twistlog.expansion import (
    Expansion,
    boundary_log,
    build_symplectic,
    connecting_automorphism,
    evaluate,
    expansion_from_json,
    expansion_to_json,
    exponential_expansion,
    fixture_genus1,
    fixture_genus2,
    fixture_massuyeau_partial,
    fixture_trusted_degree,
    is_group_like,
    is_symplectic,
    load_fixture,
    log_evaluate,
    standard_expansion,
)
from twistlog.lie import bracket, is_lie
from twistlog.rationals import Rat
from twistlog.tensor import (
    AlgebraContext,
    basis_tensor,
    filtration_degree,
    graded_part,
    one_tensor,
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
    # at truncation 2 every group-like expansion satisfies the boundary
    # condition, so the exponential one is symplectic there and only there
    assert is_symplectic(exponential_expansion(2, 2))


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
    theta = fixture_genus2()
    for _ in range(10):
        u = random_word(rng, 2, rng.randint(0, 5))
        v = random_word(rng, 2, rng.randint(0, 5))
        assert evaluate(theta, concat(u, v)) == evaluate(theta, u) * evaluate(theta, v)
    assert evaluate(theta, GroupWord(2)) == one_tensor(theta.ctx)
    with pytest.raises(ValueError):
        evaluate(theta, random_word(rng, 1, 2))


def test_group_like_values_have_lie_logs():
    rng = random.Random(246)
    theta = fixture_genus1()
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
    theta = fixture_genus1()
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
    for theta in (fixture_genus1(), fixture_genus2()):
        assert is_symplectic(theta)
        assert boundary_log(theta) == symplectic_form(theta.ctx)


def test_fixture_trusted_degrees():
    assert fixture_trusted_degree("fixture-genus1") == 6
    assert fixture_trusted_degree("fixture-genus2") == 5
    assert fixture_trusted_degree("fixture-massuyeau-partial") == 5
    assert fixture_genus1().truncation == 5
    assert fixture_genus2().truncation == 4
    # asking beyond the trusted degree is an error, not an extrapolation
    with pytest.raises(ValueError):
        fixture_genus1(truncation=6)
    with pytest.raises(ValueError):
        fixture_genus2(truncation=5)
    assert fixture_genus1(truncation=3).truncation == 3
    with pytest.raises(ValueError):
        load_fixture("fixture-genus1", genus=2)
    with pytest.raises(ValueError):
        load_fixture("no-such-fixture")


def test_partial_fixture():
    theta = fixture_massuyeau_partial()
    assert theta.genus == 2 and theta.partial
    # a1 and b1 are determined, the second handle is not
    assert theta.log_of(0) is not None
    with pytest.raises(ValueError):
        theta.log_of(2)
    with pytest.raises(ValueError):
        evaluate(theta, generator_word(2, 2))
    with pytest.raises(ValueError):
        boundary_log(theta)
    with pytest.raises(ValueError):
        is_symplectic(theta)
    assert is_group_like(theta)  # determined logs are all Lie
    # the data is genus-independent; only the ambient algebra changes
    wide = fixture_massuyeau_partial(genus=3)
    assert wide.genus == 3
    assert evaluate(wide, generator_word(3, 0)).terms == evaluate(
        theta, generator_word(2, 0)
    ).terms


def test_builder_produces_symplectic_expansions():
    for genus, trunc in ((1, 4), (2, 4), (2, 5)):
        theta = build_symplectic(genus, trunc)
        assert is_symplectic(theta)
        assert theta.kind == "built"


def test_builder_reproduces_fixtures():
    # the canonical build agrees with the published tables on the nose
    assert build_symplectic(1, 5) == fixture_genus1()
    assert build_symplectic(2, 4) == fixture_genus2()


def test_builder_idempotent_on_fixture_seed():
    fx = fixture_genus2()
    again = build_symplectic(2, 4, seed=fx)
    assert again.logs == fx.logs


def test_builder_restriction_coherence():
    # restricting a higher build equals building lower directly
    high = build_symplectic(2, 5)
    low = build_symplectic(2, 4)
    for t5, t4 in zip(high.logs, low.logs):
        assert truncate(t5, low.ctx) == t4


@pytest.mark.parametrize(
    "genus, truncation, digest",
    [(2, 6, "b53a98ebea30089f"), (3, 5, "6eca7a849732d88d"), (4, 5, "f16d16ec31b00ca7")],
)
def test_builder_output_is_pinned(genus, truncation, digest):
    obj = expansion_to_json(build_symplectic(genus, truncation))
    assert hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16] == digest


def test_builder_refuses_oversized_algebras_at_once():
    start = time.perf_counter()
    with pytest.raises(ValueError, match="monomials"):
        build_symplectic(2, 9)
    with pytest.raises(ValueError, match="monomials"):
        build_symplectic(3, 10**6)
    assert time.perf_counter() - start < 1


def test_builder_seed_validation():
    with pytest.raises(ValueError):
        build_symplectic(2, 4, seed=fixture_genus1())  # genus mismatch
    with pytest.raises(ValueError):
        build_symplectic(2, 4, seed=fixture_massuyeau_partial())  # partial
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
    assert not U.is_identity()
    assert connecting_automorphism(theta1, theta1).is_identity()


def test_connecting_automorphism_validation():
    with pytest.raises(ValueError):
        connecting_automorphism(exponential_expansion(1, 3), exponential_expansion(1, 4))
    partial = fixture_massuyeau_partial(truncation=4)
    with pytest.raises(ValueError):
        connecting_automorphism(partial, partial)
    U = connecting_automorphism(exponential_expansion(1, 4), build_symplectic(1, 4))
    with pytest.raises(ValueError):
        U.u_component(-1)
    with pytest.raises(ValueError):
        U.u_component(4)  # needs degree 5, context is truncated at 4


def test_expansion_json_round_trip():
    for theta in (fixture_genus1(), fixture_massuyeau_partial(), build_symplectic(2, 3)):
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


def _tree_by_products(ctx, tree):
    if isinstance(tree, str):
        return basis_tensor(ctx, ctx.basis_index(tree))
    return bracket(_tree_by_products(ctx, tree[0]), _tree_by_products(ctx, tree[1]))


@pytest.mark.parametrize("kind, filename", [
    ("fixture-genus1", "genus1.json"),
    ("fixture-genus2", "genus2.json"),
    ("fixture-massuyeau-partial", "massuyeau_partial.json"),
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
