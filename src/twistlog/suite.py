"""The certificate suite: one named check per acceptance-level claim.

Every check returns a Certificate; the CLI ``verify`` subcommand and the
acceptance tests both run these, so there is exactly one implementation of
each verdict.  A fixture check has a control: its symplectic re-proof must
also refuse the exponential expansion of the fixture's size, in degree 3.

What the checks share is computed once.  The built, variant and shipped
fixture expansions are memoized per process, and each expansion memoizes
its restrictions and letter exponentials (``expansion.restrict``).  Where a
check's own timing is part of its verdict (``builder``, the fixture
checks), it does the work itself and then donates the result to the memo.
Within a check, one L serves every formula of its curve and one Johnson
solve gives every component of its twist.  Verdicts and per-word values
(theta(w), ell(w), L(w)) are never memoized: each run of a check computes
them again, so its time is the time of the claim it certifies.
"""

from __future__ import annotations

import random
import time
from dataclasses import replace

from .cyclic import cyclic_n, necklace_bracket
from .derivation import (
    Derivation,
    OmegaIdealContext,
    apply as apply_derivation,
    commutator,
    from_tensor,
    graded_component,
    omega_ideal_reduce,
    to_tensor,
)
from .expansion import (
    Expansion,
    build_symplectic,
    connecting_automorphism,
    evaluate,
    exponential_expansion,
    is_symplectic,
    load_fixture,
    log_evaluate,
    moved_expansion,
    symplectic_failures,
)
from .johnson import (
    Certificate,
    Curve,
    certificate,
    curve_word,
    describe_curve,
    johnson_components,
    l_invariant,
    l_invariant_tensor,
    separating_tau_formula,
    sigma_act_log_square,
    tau_formula_failures,
    twist_formula_failures,
    verify_dehn_twist_formula,
    verify_operator_identities,
)
from .lie import is_lie
from .rationals import Rat
from .tensor import (
    AlgebraContext,
    Tensor,
    antisymmetrize,
    basis_tensor,
    filtration_degree,
    graded_part,
    intersection,
    symplectic_form,
    zero_tensor,
)
from .words import (
    TWIST_KINDS,
    GroupWord,
    compose,
    conjugate,
    format_twist,
    generator_word,
    handle_word,
    homology_class,
    homology_matrix,
    invert,
    twist,
    twist_word,
    word_from_string,
)

_MEMO = {}  # ("built" | "variant", genus, truncation) or ("fixture", genus) -> expansion


def _memoized(key: tuple, make) -> Expansion:
    if key not in _MEMO:
        _MEMO[key] = make()
    return _MEMO[key]


def built_expansion(genus: int, truncation: int) -> Expansion:
    return _memoized(("built", genus, truncation), lambda: build_symplectic(genus, truncation))


def fixture_expansion(genus: int) -> Expansion:
    """The shipped fixture of the genus, at its own truncation."""
    return _memoized(("fixture", genus), lambda: load_fixture(f"fixture-genus{genus}"))


def variant_expansion(genus: int, truncation: int) -> Expansion:
    """A second symplectic expansion, distinct from the built one: the built
    expansion moved by exp(D) with D = L(gamma_1).  D is Lie-valued, kills
    omega, and raises degree by at least two, so group-likeness, the
    boundary condition, and the degree-1 normalization all survive while the
    logs genuinely change."""

    def make():
        theta = built_expansion(genus, truncation)
        return moved_expansion(theta, l_invariant(theta, handle_word(genus, 1)))

    return _memoized(("variant", genus, truncation), make)


# -- the checks, in acceptance order ------------------------------------------


def _check_fixture(genus: int) -> Certificate:
    t0 = time.perf_counter()
    theta = load_fixture(f"fixture-genus{genus}")
    failures = symplectic_failures(theta)
    seconds = time.perf_counter() - t0
    _MEMO.setdefault(("fixture", genus), theta)
    control = symplectic_failures(exponential_expansion(genus, theta.truncation))
    if control != ["ell(zeta) != omega, first in degree 3"]:
        failures.append(f"control: the exponential expansion gives {control}")
    if seconds >= 1.0:
        failures.append(f"runtime {seconds:.3f}s exceeded 1s")
    params = {"genus": genus, "truncation": theta.truncation}
    return certificate(f"fixture-genus{genus}", params, failures)


def check_builder() -> Certificate:
    failures = []
    params = {"truncation": 6}
    for genus in (1, 2, 3):
        t0 = time.perf_counter()
        theta = build_symplectic(genus, 6)
        seconds = time.perf_counter() - t0
        _MEMO.setdefault(("built", genus, 6), theta)
        params[f"genus{genus}_seconds"] = round(seconds, 3)
        if not is_symplectic(theta):
            failures.append(f"build({genus}, 6) is not symplectic")
        if genus == 3 and seconds >= 60.0:
            failures.append(f"genus-3 build took {seconds:.1f}s, budget 60s")
    return certificate("builder", params, failures)


def _conjugated_curves(genus: int) -> list:
    tg1 = twist(genus, "sep", 1)
    tboundary = twist(genus, "sep", genus)
    return [
        Curve("nonsep", phi=tg1),
        Curve("nonsep", phi=compose(tg1, tg1)),
        Curve("nonsep", phi=tboundary),
    ]


def check_dehn_twist() -> Certificate:
    curves = [Curve("nonsep"), Curve("sep", 1)] + _conjugated_curves(2)
    expansions = [("built", built_expansion(2, 5)), ("fixture", fixture_expansion(2))]
    failures = []
    for label, theta in expansions:
        for curve in curves:
            for failure in verify_dehn_twist_formula(theta, curve):
                failures.append(f"{label} N={theta.truncation} {describe_curve(curve)}: {failure}")
    params = {
        "genus": 2,
        "curves": [describe_curve(c) for c in curves],
        "expansions": [f"{label} N={theta.truncation}" for label, theta in expansions],
    }
    return certificate("dehn-twist", params, failures)


def check_transvection() -> Certificate:
    """Each twist of the table, at every h, acts on H as the transvection
    x -> x - omega(x, c) c, c the class of its curve."""
    failures = []
    for genus in (1, 2, 3):
        ctx = AlgebraContext(genus, 2)
        for kind, entry in TWIST_KINDS.items():
            for h in range(1, genus + 1) if entry.takes_h else (None,):
                c = homology_class(twist_word(genus, kind, h))
                action = homology_matrix(twist(genus, kind, h))
                for j in range(ctx.dim):
                    pairing = sum(n * intersection(ctx, j, i) for i, n in enumerate(c))
                    column = [int(i == j) - pairing * n for i, n in enumerate(c)]
                    if [row[j] for row in action] != column:
                        where = f"{format_twist(kind, h)} on {ctx.basis_name(j)}"
                        failures.append(f"genus {genus} {where}")
    return certificate("transvection", {"genera": [1, 2, 3]}, failures)


def _built_and_variant(truncation: int) -> tuple:
    """The built and the variant genus-2 expansions, labelled, with the
    failures of the premise that they differ and are both symplectic."""
    first = built_expansion(2, truncation)
    second = variant_expansion(2, truncation)
    failures = []
    if first == second:
        failures.append("the two expansions coincide; premise broken")
    if not is_symplectic(second):
        failures.append("variant expansion is not symplectic; premise broken")
    return (("built", first), ("variant", second)), failures


def check_tau_formulas() -> Certificate:
    expansions, failures = _built_and_variant(5)
    for label, theta in expansions:
        L = l_invariant(theta, generator_word(2, 0))
        for failure in tau_formula_failures(theta, twist(2, "nonsep"), L):
            failures.append(f"{label}: {failure}")
    params = {"genus": 2, "truncation": 5, "expansions": ["built", "variant"]}
    return certificate("tau-formulas", params, failures)


def check_separating_series() -> Certificate:
    theta = built_expansion(2, 6)
    L = l_invariant(theta, handle_word(2, 1))
    l4 = graded_component(L, 4)
    failures = []
    taus = johnson_components(theta, twist(2, "sep", 1), 4)
    for k, direct in enumerate(taus, start=1):
        if direct != separating_tau_formula(L, k):
            failures.append(f"k={k} mismatch")
        if k == 2 and direct != -l4:
            failures.append("k=2 does not equal -L4")
    params = {"genus": 2, "truncation": 6, "h": 1, "k": [1, 2, 3, 4]}
    return certificate("separating-series", params, failures)


def _random_nu_invariant(rng: random.Random, ctx: AlgebraContext, degree: int) -> Tensor:
    acc = zero_tensor(ctx)
    for _ in range(rng.randint(1, 2)):
        mono = tuple(rng.randrange(ctx.dim) for _ in range(degree))
        coeff = Rat(rng.randint(-3, 3), rng.randint(1, 3))
        if coeff:
            acc = acc + Tensor(ctx, {mono: coeff})
    return cyclic_n(acc)


def check_necklace_oracle() -> Certificate:
    rng = random.Random(853835)
    failures = []
    checked = 0
    while checked < 100 and not failures:
        genus = rng.choice((1, 2))
        ctx = AlgebraContext(genus, 5)
        du = rng.randint(1, 4)
        dv = rng.randint(1, 5 - du)
        u = _random_nu_invariant(rng, ctx, du)
        v = _random_nu_invariant(rng, ctx, dv)
        if not u or not v:
            continue
        direct = from_tensor(necklace_bracket(u, v))
        oracle = commutator(from_tensor(u), from_tensor(v))
        if direct != oracle:
            failures.append(f"pair {checked}: degrees ({du},{dv}), genus {genus}")
        checked += 1
    params = {"pairs": checked, "max_total_degree": 5, "seed": 853835}
    return certificate("necklace-oracle", params, failures)


def _random_word(rng: random.Random, genus: int, length: int) -> GroupWord:
    codes = [2 * rng.randrange(2 * genus) + (rng.choice((1, -1)) < 0) for _ in range(length)]
    return GroupWord(genus, codes)


def check_l_invariance() -> Certificate:
    theta = built_expansion(2, 5)
    rng = random.Random(911)
    failures = []
    checked = 0
    while checked < 100 and not failures:
        w = _random_word(rng, 2, rng.randint(1, 8))
        if not w:
            continue
        y = _random_word(rng, 2, rng.randint(1, 4))
        base = l_invariant_tensor(theta, w)
        if l_invariant_tensor(theta, conjugate(w, y)) != base:
            failures.append(f"conjugation broke invariance at word {checked}")
        if l_invariant_tensor(theta, invert(w)) != base:
            failures.append(f"inversion broke invariance at word {checked}")
        checked += 1
    params = {"words": checked, "max_length": 8, "genus": 2, "truncation": 5, "seed": 911}
    return certificate("l-invariance", params, failures)


def check_sigma_key_formula() -> Certificate:
    failures = []
    for genus in (1, 2):
        theta = built_expansion(genus, 5)
        a1 = generator_word(genus, 0)
        b1 = generator_word(genus, 1)
        theta_b1 = evaluate(theta, b1)
        ell_a1 = log_evaluate(theta, a1)
        lhs = sigma_act_log_square(theta, a1, b1)
        if lhs != (theta_b1 * ell_a1).scale(2):
            failures.append(f"genus {genus}: key formula fails")
        L = l_invariant(theta, a1)
        lb = apply_derivation(L, theta_b1)
        if lb != -(theta_b1 * ell_a1):
            failures.append(f"genus {genus}: L(a1) theta(b1) != -theta(b1) ell(a1)")
        if lhs != lb.scale(-2):
            failures.append(f"genus {genus}: sigma and -2 L disagree")
    params = {"genera": [1, 2], "truncation": 5}
    return certificate("sigma-key-formula", params, failures)


def check_disjointness() -> Certificate:
    theta = built_expansion(2, 5)
    L = l_invariant(theta, generator_word(2, 0))
    failures = []
    for name in ("a1", "a2", "b2"):
        w = word_from_string(2, name)
        if apply_derivation(L, evaluate(theta, w)):
            failures.append(f"L(a1) theta({name}) != 0")
        if apply_derivation(L, log_evaluate(theta, w)):
            failures.append(f"L(a1) ell({name}) != 0")
    params = {"genus": 2, "truncation": 5, "words": ["a1", "a2", "b2"]}
    return certificate("disjointness", params, failures)


def check_operator_identities() -> Certificate:
    expansions, failures = _built_and_variant(6)
    for label, theta in expansions:
        found = verify_operator_identities(theta, Curve("nonsep"))
        if found:
            failures.append(f"{label}: {'; '.join(found)}")
    params = {"genus": 2, "truncation": 6, "expansions": ["built", "variant"]}
    return certificate("operator-identities", params, failures)


def check_omega_ideal() -> Certificate:
    theta = fixture_expansion(2)
    ctx = theta.ctx
    ideal = OmegaIdealContext(ctx)
    omega = symplectic_form(ctx)
    failures = []
    for curve in (Curve("nonsep"), Curve("sep", 1)):
        label = describe_curve(curve)
        L = l_invariant(theta, curve_word(ctx.genus, curve))
        if apply_derivation(L, omega):
            failures.append(f"{label}: L does not kill omega")
        found = twist_formula_failures(theta, curve, L, lambda t: omega_ideal_reduce(t, ideal))
        failures += [f"{label}: twist formula fails mod the ideal: {f}" for f in found]
    params = {"genus": 2, "truncation": 4, "curves": ["nonsep", "sep:1"]}
    return certificate("omega-ideal", params, failures)


def _connecting_failures(
    label: str, theta1: Expansion, theta2: Expansion, require_nontrivial: bool = False
) -> list:
    ctx = theta1.ctx
    U = connecting_automorphism(theta1, theta2)
    failures = []
    for i in range(ctx.dim):
        gen = generator_word(ctx.genus, i)
        if U.apply(evaluate(theta1, gen)) != evaluate(theta2, gen):
            failures.append(f"{label}: U theta1 != theta2 on generator {i}")
    # log U raises filtration, keeps Lie elements and kills omega exactly
    # when U - 1 raises filtration, U keeps Lie elements and U fixes omega
    moves = [v - basis_tensor(ctx, j) for j, v in enumerate(U.h_values)]
    if require_nontrivial and not any(moves):
        failures.append(f"{label}: U is the identity; vacuous pair")
    for j, w in enumerate(moves):
        if w and filtration_degree(w) < 2:
            failures.append(f"{label}: (log U)(X_{j}) does not raise filtration")
        if not is_lie(w):
            failures.append(f"{label}: (log U)(X_{j}) is not a Lie element")
    omega = symplectic_form(ctx)
    if U.apply(omega) != omega:
        failures.append(f"{label}: (log U)|_H does not kill omega")
    u1 = [graded_part(v, 2) for v in U.h_values]
    t = to_tensor(Derivation(ctx, u1))
    if antisymmetrize(t) != t:
        failures.append(f"{label}: u_1 is not in Lambda^3 H")
    return failures


def check_connecting() -> Certificate:
    theta = built_expansion(1, 5)
    failures = _connecting_failures("built/fixture", theta, fixture_expansion(1))
    failures += _connecting_failures(
        "built/variant", theta, variant_expansion(1, 5), require_nontrivial=True
    )
    params = {
        "genus": 1,
        "truncation": 5,
        "pairs": ["built/fixture", "built/variant"],
    }
    return certificate("connecting", params, failures)


SUITE = {
    "fixture-genus1": lambda: _check_fixture(1),
    "fixture-genus2": lambda: _check_fixture(2),
    "builder": check_builder,
    "dehn-twist": check_dehn_twist,
    "transvection": check_transvection,
    "tau-formulas": check_tau_formulas,
    "separating-series": check_separating_series,
    "necklace-oracle": check_necklace_oracle,
    "l-invariance": check_l_invariance,
    "sigma-key-formula": check_sigma_key_formula,
    "disjointness": check_disjointness,
    "operator-identities": check_operator_identities,
    "omega-ideal": check_omega_ideal,
    "connecting": check_connecting,
}


def suite_names() -> list:
    return list(SUITE)


def run_check(name: str) -> Certificate:
    """The named check's certificate, its params carrying the check's
    wall-clock ``seconds``."""
    if name not in SUITE:
        raise ValueError(f"unknown check {name!r}; known: {', '.join(SUITE)}")
    t0 = time.perf_counter()
    cert = SUITE[name]()
    seconds = round(time.perf_counter() - t0, 4)
    return replace(cert, params={**cert.params, "seconds": seconds})
