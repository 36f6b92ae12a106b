"""Loop invariant, Johnson maps, twist formulas, and the Goldman-side action."""

import hashlib
import json
import random

import pytest

from twistlog.cyclic import cyclic_n, is_nu_invariant
from twistlog.derivation import (
    apply as dapply,
    derivation_from_json,
    derivation_to_json,
    graded_component,
)
from twistlog.expansion import (
    Expansion,
    build_symplectic,
    evaluate,
    exponential_expansion,
    is_symplectic,
    load_fixture,
    log_evaluate,
    moved_expansion,
    restrict,
    symplectic_failures,
)
from twistlog.johnson import (
    Curve,
    curve_twist,
    curve_word,
    describe_curve,
    johnson_component,
    johnson_components,
    l_invariant,
    l_invariant_tensor,
    separating_tau_formula,
    sigma_act,
    sigma_act_log_square,
    tau_formula_failures,
    total_johnson,
    twist_formula_failures,
    verify_dehn_twist_formula,
    verify_nilpotent_dependence,
    verify_operator_identities,
)
from twistlog.lie import is_lie
from twistlog.rationals import Rat
from twistlog.tensor import (
    AlgebraContext,
    basis_tensor,
    graded_part,
    scaled_terms,
    symplectic_form,
    tensor_to_json,
    truncate,
    zero_tensor,
)
from twistlog.words import (
    apply_automorphism,
    boundary_word,
    commutator,
    compose,
    concat,
    conjugate,
    generator_word,
    handle_word,
    homology_inverse,
    invert,
    invert_automorphism,
    twist,
    word_from_string,
)

from algebra_tools import bracket, lambda3_derivation, monomial_tensor, random_word


@pytest.fixture(scope="module")
def theta25():
    return build_symplectic(2, 5)


@pytest.fixture(scope="module")
def theta15():
    return build_symplectic(1, 5)


def test_l_invariant_tensor_shape(theta25):
    w = word_from_string(2, "a1 b2 A1")
    t = l_invariant_tensor(theta25, w)
    assert is_nu_invariant(t)
    # one degree of headroom beyond the expansion truncation
    assert t.ctx.truncation == 6
    assert min(scaled_terms(t)[0]) >= 2
    L = l_invariant(theta25, w)
    assert L.ctx == theta25.ctx
    for v in L.values:
        assert is_lie(v)
    assert dapply(L, symplectic_form(theta25.ctx)) == 0


@pytest.mark.parametrize(
    "genus, truncation, word, digest",
    [
        (2, 5, "a1", "378f983df1b0d850"),
        (2, 5, "a1 b2", "4698dfd1362061fd"),
        (2, 5, "a1 b1 A1 B1", "5d2c88c19ecd4f09"),
        (2, 5, "a1 a2 B1 b2 b2", "914f8a69a6d89fa2"),
        (2, 5, "B2 a1 b1 A2 b1 a1 A1 B2", "e5a700ca15ee86fe"),
        (1, 8, "a1 b1", "74ab8d76e6c6ec30"),
        (1, 8, "A1 B1 a1 b1 a1", "d86ee40a77c5a32b"),
    ],
)
def test_l_invariant_tensor_is_pinned(genus, truncation, word, digest):
    theta = build_symplectic(genus, truncation)
    obj = tensor_to_json(l_invariant_tensor(theta, word_from_string(genus, word)))
    assert hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16] == digest


def test_l_invariant_degree_two_is_class_squared(theta25):
    ctx = theta25.ctx
    w = word_from_string(2, "a1 b2")
    t = l_invariant_tensor(theta25, w)
    cls = basis_tensor(ctx, 0) + basis_tensor(ctx, 3)
    ext = AlgebraContext(ctx.genus, ctx.truncation + 1)
    assert graded_part(t, 2) == truncate(cls * cls, ext)


def test_genus1_low_components():
    theta = load_fixture("fixture-genus1")
    ctx = theta.ctx
    a, b = basis_tensor(ctx, 0), basis_tensor(ctx, 1)
    t = l_invariant_tensor(theta, generator_word(1, 0))
    ext = AlgebraContext(1, 6)
    assert graded_part(t, 2) == monomial_tensor(ext, (0, 0))
    assert graded_part(t, 3) == 0
    # degree 4 of the naming tensor: (1/24) N([A,B][A,B])
    omega_sq = truncate(symplectic_form(ext) * symplectic_form(ext), ext)
    assert graded_part(t, 4) == cyclic_n(omega_sq).scale(Rat(1, 24))
    # the corresponding derivation values; these pin the duality scale
    L = l_invariant(theta, generator_word(1, 0))
    l4 = graded_component(L, 4)
    assert l4.values[0] == bracket(a, bracket(a, b)).scale(Rat(-1, 12))
    assert l4.values[1] == bracket(b, bracket(a, b)).scale(Rat(-1, 12))
    assert not graded_component(L, 3)


def test_massuyeau_fixture_matches_genus1_components():
    # another symplectic expansion, with the same degree-4 values; at its
    # trusted truncation 3, L_4 comes from logs of degree <= 3
    theta = load_fixture("fixture-massuyeau")
    ctx = theta.ctx
    a, b = basis_tensor(ctx, 0), basis_tensor(ctx, 1)
    L = l_invariant(theta, generator_word(1, 0))
    l4 = graded_component(L, 4)
    assert l4.values[0] == bracket(a, bracket(a, b)).scale(Rat(-1, 12))
    assert l4.values[1] == bracket(b, bracket(a, b)).scale(Rat(-1, 12))
    assert not graded_component(L, 3)


def test_l_invariance_under_conjugation_and_inversion(theta25):
    rng = random.Random(1729)
    checked = 0
    while checked < 20:
        w = random_word(rng, 2, rng.randint(1, 6))
        if not w:
            continue
        y = random_word(rng, 2, rng.randint(1, 4))
        base = l_invariant_tensor(theta25, w)
        assert l_invariant_tensor(theta25, conjugate(w, y)) == base
        assert l_invariant_tensor(theta25, invert(w)) == base
        checked += 1


def test_nilpotent_dependence_certificates(theta25):
    a1 = generator_word(2, 0)
    moved = conjugate(a1, word_from_string(2, "b1 a2"))
    assert verify_nilpotent_dependence(theta25, a1, moved, k=5) == []
    # a depth-3 commutator correction shifts nothing below L_4
    deep = commutator(commutator(a1, generator_word(2, 1)), generator_word(2, 2))
    w2 = concat(a1, deep)
    assert verify_nilpotent_dependence(theta25, a1, w2, k=2) == []
    assert verify_nilpotent_dependence(theta25, a1, w2, k=3) == ["L_4 differs"]
    assert "L_4 differs" in verify_nilpotent_dependence(theta25, a1, w2, k=5)
    # a homologically different word already fails at L_2
    failures = verify_nilpotent_dependence(theta25, a1, word_from_string(2, "a1 b1"), k=1)
    assert failures == ["L_2 differs"]
    with pytest.raises(ValueError):
        verify_nilpotent_dependence(theta25, a1, moved, k=6)


@pytest.mark.parametrize("k", [0, -3])
def test_nilpotent_dependence_refuses_k_below_one(theta25, k):
    # there is no L_i to compare for k < 1, so any pair would pass
    a1, other = generator_word(2, 0), word_from_string(2, "b2 b2 a2")
    assert verify_nilpotent_dependence(theta25, a1, other, k=1)
    with pytest.raises(ValueError):
        verify_nilpotent_dependence(theta25, a1, other, k=k)


def test_curve_words_and_twists():
    assert curve_word(2, Curve("nonsep")) == generator_word(2, 0)
    assert curve_word(2, Curve("sep", 1)) == handle_word(2, 1)
    assert curve_twist(2, Curve("nonsep")) == twist(2, "nonsep")
    assert curve_twist(2, Curve("sep", 2)) == twist(2, "sep", 2)
    phi = twist(2, "sep", 1)
    conj = Curve("nonsep", phi=phi)
    assert curve_word(2, conj) == apply_automorphism(phi, generator_word(2, 0))
    expected = compose(compose(phi, twist(2, "nonsep")), invert_automorphism(phi))
    assert curve_twist(2, conj) == expected


def test_describe_curve():
    assert describe_curve(Curve("nonsep")) == "nonsep"
    assert describe_curve(Curve("sep", 2)) == "sep:2"
    label = describe_curve(Curve("nonsep", phi=twist(2, "sep", 1)))
    assert label == "conj(sep1^1):nonsep"


def test_total_johnson_intertwines(theta25):
    rng = random.Random(2601)
    phi = compose(twist(2, "sep", 1), twist(2, "nonsep"))
    tj = total_johnson(theta25, phi)
    for _ in range(8):
        w = random_word(rng, 2, rng.randint(0, 4))
        assert tj.apply(evaluate(theta25, w)) == evaluate(
            theta25, apply_automorphism(phi, w)
        )
    with pytest.raises(ValueError):
        total_johnson(theta25, twist(1, "nonsep"))
    # T(phi) of a restricted expansion is the full one through its truncation
    for degree in (2, 3, 4):
        low = restrict(theta25, degree)
        for c, f in zip(total_johnson(low, phi).h_values, tj.h_values):
            assert c == truncate(f, low.ctx)


def _composed_with_homology_inverse(theta, phi):
    """T(phi) o |phi|^{-1} on H, solved in theta at its full truncation."""
    full = total_johnson(theta, phi).h_values
    inv = homology_inverse(phi)
    out = []
    for j in range(theta.ctx.dim):
        acc = zero_tensor(theta.ctx)
        for i, row in enumerate(inv):
            acc = acc + full[i].scale(row[j])
        out.append(acc)
    return out


def test_johnson_component_against_the_full_solve(theta25):
    # oracles: T(phi) solved at the full truncation, and solved once per k
    # in theta restricted to degree k+1, each composed with |phi|^{-1}
    for theta in (theta25, build_symplectic(3, 4)):
        ctx, genus = theta.ctx, theta.genus
        top = ctx.truncation - 1
        for phi in (
            twist(genus, "nonsep"),
            twist(genus, "sep", 1),
            twist(genus, "sep", 2),
            compose(twist(genus, "sep", 1), twist(genus, "nonsep", None, -1)),
        ):
            full = _composed_with_homology_inverse(theta, phi)
            taus = johnson_components(theta, phi, top)
            assert len(taus) == top
            assert johnson_components(theta, phi, 2) == taus[:2]
            for k, tau in enumerate(taus, start=1):
                assert tau.ctx == ctx
                per_k = _composed_with_homology_inverse(restrict(theta, k + 1), phi)
                for j in range(ctx.dim):
                    assert tau.values[j] == graded_part(full[j], k + 1)
                    assert tau.values[j] == truncate(graded_part(per_k[j], k + 1), ctx)
                    assert sorted(scaled_terms(tau.values[j])[0]) in ([], [k + 1])
                assert johnson_component(theta, phi, k) == tau


def test_johnson_component_range(theta25):
    with pytest.raises(ValueError):
        johnson_component(theta25, twist(2, "nonsep"), 0)
    with pytest.raises(ValueError):
        johnson_component(theta25, twist(2, "nonsep"), 5)
    with pytest.raises(ValueError):
        johnson_components(theta25, twist(2, "nonsep"), 5)
    L = l_invariant(theta25, handle_word(2, 1))
    with pytest.raises(ValueError):
        separating_tau_formula(L, 5)
    with pytest.raises(ValueError):
        separating_tau_formula(L, 0)


def test_separating_twist_low_components(theta25):
    tg = twist(2, "sep", 1)
    L = l_invariant(theta25, handle_word(2, 1))
    # tau_1 of a separating twist vanishes
    tau1 = johnson_component(theta25, tg, 1)
    assert not tau1
    assert separating_tau_formula(L, 1) == tau1
    # tau_2 agrees with the closed formula, which here is -L_4
    tau2 = johnson_component(theta25, tg, 2)
    assert separating_tau_formula(L, 2) == tau2
    l4 = graded_component(L, 4)
    for j in range(theta25.ctx.dim):
        assert tau2.values[j] == -dapply(l4, basis_tensor(theta25.ctx, j))


def test_separating_tau_formula_from_a_given_invariant(theta25):
    # the closed formula from one L(gamma_h) gives every tau_k of the twist
    # along gamma_h, for each h; the invariant of another curve does not
    for h in (1, 2):
        L = l_invariant(theta25, handle_word(2, h))
        taus = johnson_components(theta25, twist(2, "sep", h), 4)
        assert [separating_tau_formula(L, k) for k in range(1, 5)] == taus
    assert taus[1]  # tau_2 is not zero, so the last comparison below means something
    other = l_invariant(theta25, handle_word(2, 1))
    assert separating_tau_formula(other, 2) != taus[1]


def test_sigma_requires_symplectic():
    theta = exponential_expansion(2, 4)
    a1, a2 = generator_word(2, 0), generator_word(2, 2)
    with pytest.raises(ValueError):
        sigma_act(theta, a1, a2)
    with pytest.raises(ValueError):
        sigma_act_log_square(theta, a1, a2)


def test_disjoint_support_annihilated(theta25):
    # the invariant of a1 kills everything supported on the other handle,
    # and a1's own expansion values; sigma_act sees the same vanishing but
    # only below the top degree, where theta(u) is undetermined
    a1 = generator_word(2, 0)
    L = l_invariant(theta25, a1)
    sub = AlgebraContext(2, 4)
    for other in ("a1", "a2", "b2"):
        w = word_from_string(2, other)
        assert dapply(L, evaluate(theta25, w)) == 0
        assert dapply(L, log_evaluate(theta25, w)) == 0
        assert truncate(sigma_act(theta25, a1, w), sub) == 0


def test_sigma_geometric_cross_check(theta25, theta15):
    # sigma(a1) b1 = b1 a1 in the group ring; through theta this is exact
    # below the top degree (the top needs theta(a1) one degree further out)
    for theta in (theta15, theta25):
        genus = theta.genus
        a1, b1 = generator_word(genus, 0), generator_word(genus, 1)
        lhs = sigma_act(theta, a1, b1)
        rhs = evaluate(theta, concat(b1, a1))
        sub = AlgebraContext(genus, theta.truncation - 1)
        assert truncate(lhs, sub) == truncate(rhs, sub)
        assert lhs != rhs  # the top-degree caveat is real


def test_sigma_key_formula(theta15):
    # the squared-log action is exact to full degree: it goes through the
    # extended invariant rather than through theta(u)
    a1, b1 = generator_word(1, 0), generator_word(1, 1)
    lhs = sigma_act_log_square(theta15, a1, b1)
    theta_b1 = evaluate(theta15, b1)
    assert lhs == (theta_b1 * log_evaluate(theta15, a1)).scale(2)
    L = l_invariant(theta15, a1)
    assert lhs == dapply(L, theta_b1).scale(-2)


def test_dehn_twist_certificates(theta15):
    assert verify_dehn_twist_formula(theta15, Curve("nonsep")) == []
    assert verify_dehn_twist_formula(theta15, Curve("sep", 1)) == []


def test_dehn_twist_formula_needs_a_good_jet():
    # perturbing a log in the top degree keeps ell(zeta) = omega through
    # the truncation but destroys extendability: the boundary log is then
    # off in degree N+1, which the symplectic test reaches, and the twist
    # formula fails exactly in the top degree.  This is the phenomenon that
    # forces the builder to run one corrective pass beyond its target degree.
    fx = load_fixture("fixture-genus1")
    ctx = fx.ctx
    a, b = basis_tensor(ctx, 0), basis_tensor(ctx, 1)
    pert = bracket(a, bracket(a, bracket(a, bracket(a, b))))
    logs = [fx.logs[0] + pert, fx.logs[1]]
    bad = Expansion(ctx, logs, kind="user")
    assert log_evaluate(bad, boundary_word(1)) == symplectic_form(ctx)
    assert symplectic_failures(bad) == ["ell(zeta) != omega, first in degree 6"]
    with pytest.raises(ValueError, match="requires a symplectic expansion"):
        verify_dehn_twist_formula(bad, Curve("nonsep"))
    nonsep = Curve("nonsep")
    failures = twist_formula_failures(bad, nonsep, l_invariant(bad, curve_word(1, nonsep)))
    assert failures == ["generator b1 first differs in degree 5"]


@pytest.mark.parametrize("kind", ["fixture-genus1", "fixture-genus2", "fixture-massuyeau"])
def test_the_twist_formula_holds_on_every_fixture_at_its_top_truncation(kind):
    theta = load_fixture(kind)
    assert is_symplectic(theta)
    for curve in (Curve("nonsep"), Curve("sep", 1)):
        assert verify_dehn_twist_formula(theta, curve) == []


def test_the_old_massuyeau_truncation_breaks_the_twist_formula(old_massuyeau):
    # the symplectic test fails in degree 5 and the twist formula in degree 4
    theta = load_fixture("fixture-massuyeau")
    assert theta.truncation == 4
    assert symplectic_failures(theta) == ["ell(zeta) != omega, first in degree 5"]
    nonsep = Curve("nonsep")
    failures = twist_formula_failures(theta, nonsep, l_invariant(theta, curve_word(1, nonsep)))
    assert failures == ["generator b1 first differs in degree 4"]


def test_operator_identities_certificate(theta25):
    assert verify_operator_identities(theta25, Curve("nonsep")) == []
    with pytest.raises(ValueError):
        verify_operator_identities(theta25, Curve("sep", 1))


def test_operator_identity_witnesses_are_pinned(monkeypatch):
    # L(w) + L(b1) in place of L(w) breaks the identities on A1 and B1;
    # every witness, in its order, is pinned
    theta = build_symplectic(2, 6)
    plain = l_invariant
    monkeypatch.setattr(
        "twistlog.johnson.l_invariant",
        lambda th, w: plain(th, w) + plain(th, word_from_string(th.genus, "b1")),
    )
    witness = "; ".join(verify_operator_identities(theta, Curve("nonsep")))
    assert witness == (
        "L2 L2 A1 != 0; L2 L2 L2 L4 A1 != 0; L2 L2 L4 L2 A1 != 0; "
        "2 L2 L4 L2 A1 != L2 L2 L4 A1; "
        "L2 L2 B1 != 0; L2 L2 L2 L4 B1 != 0; L2 L2 L4 L2 B1 != 0; "
        "2 L2 L4 L2 B1 != L2 L2 L4 B1; "
        "tau_2 A1 formula mismatch; tau_2 B1 formula mismatch"
    )
    assert hashlib.sha256(witness.encode()).hexdigest().startswith("ff454a1febd025c0")


def test_twist_formula_respects_conjugation(theta25):
    # oracle: T(phi) T(t_C) T(phi)^-1 images versus the conjugated curve route
    phi = twist(2, "sep", 1)
    conj = Curve("nonsep", phi=phi)
    tc = curve_twist(2, conj)
    direct = compose(compose(phi, twist(2, "nonsep")), invert_automorphism(phi))
    assert tc == direct
    assert verify_dehn_twist_formula(theta25, conj) == []


def test_the_tau_1_clause_bites_on_a_seeded_expansion():
    # on the built expansions L3(a1) = 0, so tau_1 = -L3 compares 0 with 0;
    # moving the build by 2 Alt(B1 A2 B2), which adds (1/3)[A2, B2] to log a1,
    # makes L3 nonzero
    built = build_symplectic(2, 5)
    theta = moved_expansion(built, lambda3_derivation(built.ctx))
    L = l_invariant(theta, curve_word(2, Curve("nonsep")))
    L3 = graded_component(L, 3)
    assert L3
    tc = twist(2, "nonsep")
    assert tau_formula_failures(theta, tc, L) == []
    assert tau_formula_failures(theta, tc, L - L3.scale(2)) == [
        "tau_1 B1 != -L3 B1",
        "tau_1 A2 != -L3 A2",
        "tau_1 B2 != -L3 B2",
    ]


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP Fix first: l-invariant --output json loses the top degree",
)
def test_l_invariant_json_round_trip():
    theta = load_fixture("fixture-genus2")
    L = l_invariant(theta, word_from_string(2, "a1 b2"))
    assert derivation_from_json(derivation_to_json(L)) == L
