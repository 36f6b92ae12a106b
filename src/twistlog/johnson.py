"""The loop invariant, total Johnson maps and their components, the
algebraic Goldman-side action, and verifiers that return their failures.

Curves are symbolic: the adapted curve of a twist kind in
``words.TWIST_KINDS``, or its image under an automorphism.  The
invariant L(w) = (1/2) N(ell(w) ell(w)) names a derivation; for a simple
closed curve word it is the logarithm of the corresponding Dehn twist, and
the verifiers below check exactly that against independently computed twist
actions.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import factorial

from .cyclic import cyclic_n, necklace_tensor, orbits
from .derivation import (
    Derivation,
    apply as apply_derivation,
    exp_derivation,
    from_tensor,
    graded_component,
)
from .endomorphism import Endomorphism
from .expansion import Expansion, evaluate, intertwiner, is_symplectic, log_evaluate, restrict
from .rationals import Rat
from .tensor import (
    AlgebraContext,
    Tensor,
    filtration_degree,
    graded_part,
    one_tensor,
    scaled_terms,
    truncate,
    zero_tensor,
)
from .words import (
    FreeAutomorphism,
    GroupWord,
    apply_automorphism,
    compose,
    format_twist,
    gen_name,
    generator_word,
    homology_inverse,
    invert_automorphism,
    twist,
    twist_word,
)


def l_invariant_tensor(theta: Expansion, w: GroupWord) -> Tensor:
    """The naming tensor (1/2) N(ell(w) ell(w)), one degree above the
    expansion truncation.

    The square's degree-(N+1) part only involves factors of degree <= N, so
    it is exactly determined by ell mod degree N+1; keeping it makes the
    derivation view complete on the truncated algebra (a degree-(N+1)
    monomial still acts nontrivially, sending degree 1 to degree N).

    The square is fused with N and never built.  Every monomial of
    ell_q ell_p is a rotation of one of ell_p ell_q (by q letters), so
    N(ell_p ell_q) = N(ell_q ell_p) degree by degree, and
    (1/2) N(ell ell) = sum_{p<q} N(ell_p ell_q) + (1/2) sum_p N(ell_p ell_p):
    each unordered pair of degrees, and within a diagonal degree each
    unordered pair of codes, is multiplied once, with weight 2 off the
    diagonal over the denominator 2 den^2, and each product goes straight
    into the sum of its rotation orbit (``twistlog.cyclic``).  The word
    w is used as given, not cyclically reduced or otherwise normalized:
    the l-invariance check compares L(w), L(y w y^-1) and L(w^-1), each
    computed on its own, and a shared normal form would make it vacuous.
    """
    ctx = theta.ctx
    ext = AlgebraContext(ctx.genus, ctx.truncation + 1)
    return _half_n_square(log_evaluate(theta, w), ext)


def _half_n_square(t: Tensor, ctx: AlgebraContext) -> Tensor:
    """(1/2) N(t t) in ``ctx``, over unordered pairs of degrees and codes,
    each product added into the sum of its rotation orbit.  A diagonal
    degree is one loop over its codes and the orbit slots, each code times
    itself and every code before it; each pair of distinct degrees is one
    ``add_product``."""
    cap, dim = ctx.truncation, ctx.dim
    blocks, den = scaled_terms(t)
    degrees = sorted(blocks)
    sums = {}  # degree -> {least code of an orbit: sum over that orbit}
    for i, p in enumerate(degrees):
        items = list(blocks[p].items())
        if 0 < 2 * p <= cap:  # N kills degree 0
            table, acc, shift = orbits(dim, 2 * p), sums.setdefault(2 * p, {}), dim**p
            slots, fill, get = table.slots, table.fill, acc.get
            # codes ab and ba are rotations of each other: each unordered
            # pair once, ab with weight 2, and aa with weight 1.  ``before``
            # holds the codes ahead of a with doubled numerators, and a itself
            # at weight 1 while a is the left code
            before = []
            for a, ca in items:
                before.append((a, ca))
                base = a * shift
                for b, cb in before:
                    k = base + b
                    o = slots[k]
                    if o is None:
                        o = fill(k)
                    acc[o] = get(o, 0) + ca * cb
                before[-1] = (a, 2 * ca)
        doubled = [(a, 2 * c) for a, c in items]
        for q in degrees[i + 1:]:
            if p + q > cap:
                break
            orbits(dim, p + q).add_product(
                sums.setdefault(p + q, {}), doubled, blocks[q].items(), dim**q
            )
    return necklace_tensor(ctx, sums, 2 * den * den)


def l_invariant(theta: Expansion, w: GroupWord) -> Derivation:
    """L(w): the derivation named by (1/2) N(ell(w) ell(w))."""
    ctx = theta.ctx
    d = from_tensor(l_invariant_tensor(theta, w))
    return Derivation(ctx, [truncate(v, ctx) for v in d.values])


# -- curves -------------------------------------------------------------------


@dataclass(frozen=True)
class Curve:
    """Symbolic simple closed curve: the adapted curve of a twist kind
    (``words.TWIST_KINDS``), or its image under ``phi`` when one is given."""

    kind: str
    h: int | None = None
    phi: FreeAutomorphism | None = None


def curve_word(genus: int, curve: Curve) -> GroupWord:
    """A based loop word in the free homotopy class of the curve."""
    word = twist_word(genus, curve.kind, curve.h)
    return word if curve.phi is None else apply_automorphism(curve.phi, word)


def curve_twist(genus: int, curve: Curve) -> FreeAutomorphism:
    """The Dehn twist along the curve, as a free-group automorphism."""
    tc = twist(genus, curve.kind, curve.h)
    if curve.phi is None:
        return tc
    return compose(compose(curve.phi, tc), invert_automorphism(curve.phi))


def describe_curve(curve: Curve) -> str:
    label = format_twist(curve.kind, curve.h)
    if curve.phi is None:
        return label
    twists = ",".join(
        f"{kind}{h if h is not None else ''}^{power}" for kind, h, power in curve.phi.factorization
    )
    return f"conj({twists}):{label}"


# -- total Johnson maps --------------------------------------------------------


def total_johnson(theta: Expansion, phi: FreeAutomorphism) -> Endomorphism:
    """T(phi), the algebra automorphism with T(theta(x_i)) = theta(phi(x_i)),
    by its values on H."""
    if theta.genus != phi.genus:
        raise ValueError("genus mismatch between expansion and automorphism")
    return intertwiner(theta, [evaluate(theta, im) for im in phi.images])


def johnson_components(theta: Expansion, phi: FreeAutomorphism, top: int) -> list:
    """[tau_1(phi), ..., tau_top(phi)]: tau_k is the degree-(k+1) part of
    T(phi) o |phi|^{-1} on H, a derivation whose values are homogeneous of
    degree k+1.

    T(phi) is solved once, in theta restricted to degree top+1, the highest
    degree any of the components needs; they never pay for the full
    truncation, nor for one solve each.
    """
    ctx = theta.ctx
    if not 1 <= top <= ctx.truncation - 1:
        raise ValueError(f"component {top} out of range at truncation {ctx.truncation}")
    low = restrict(theta, top + 1)
    images, inverse = total_johnson(low, phi).h_values, homology_inverse(phi)
    # column j of T(phi) o |phi|^{-1}: sum_i M^{-1}[i][j] T(phi)(X_i)
    composed = [
        sum((v.scale(row[j]) for v, row in zip(images, inverse) if row[j]), zero_tensor(low.ctx))
        for j in range(low.ctx.dim)
    ]
    return [
        Derivation(ctx, [truncate(graded_part(v, k + 1), ctx) for v in composed])
        for k in range(1, top + 1)
    ]


def johnson_component(theta: Expansion, phi: FreeAutomorphism, k: int) -> Derivation:
    """tau_k(phi), solved in theta restricted to degree k+1."""
    return johnson_components(theta, phi, k)[k - 1]


def _apply_word(parts: dict, word: tuple, j: int) -> Tensor:
    """L_{m_1} ... L_{m_n} X_j for the word (m_1, ..., m_n), applied
    rightmost first; ``parts`` maps each m to graded_component(L, m)."""
    acc = parts[word[-1]].values[j]
    for m in reversed(word[:-1]):
        acc = apply_derivation(parts[m], acc)
    return acc


def separating_tau_formula(L: Derivation, k: int) -> Derivation:
    """The closed-form tau_k of the twist along gamma_h, from its invariant
    L = L(gamma_h): sum over 1 <= n <= k/2 of ((-1)^n / n!) sum
    L_{m_1}...L_{m_n} with every m_i >= 4 and m_1 + ... + m_n = 2n + k.
    Computed from the invariant alone, independently of johnson_component.
    """
    ctx = L.ctx
    if not 1 <= k <= ctx.truncation - 1:
        raise ValueError(f"component {k} out of range at truncation {ctx.truncation}")
    out = [zero_tensor(ctx)] * ctx.dim
    # the top term L_{k+2} exists for every k <= N-1: the invariant keeps
    # its complete degree-(N+1) component
    parts = {m: graded_component(L, m) for m in range(4, k + 3)}
    for n in range(1, k // 2 + 1):
        coeff = Rat((-1) ** n, factorial(n))
        for word in product(range(4, k + 5 - 2 * n), repeat=n):
            if sum(word) != 2 * n + k:
                continue
            for j in range(ctx.dim):
                acc = _apply_word(parts, word, j)
                if acc:
                    out[j] = out[j] + acc.scale(coeff)
    return Derivation(ctx, out)


# -- the Goldman-side action ---------------------------------------------------


def _require_symplectic(theta: Expansion) -> None:
    if not is_symplectic(theta):
        raise ValueError("operation requires a symplectic expansion")


def sigma_act(theta: Expansion, u: GroupWord, v: GroupWord) -> Tensor:
    """Action of the free loop u on v, pushed through theta:
    -(N(theta(u) - 1)) acting as a derivation on theta(v).

    The degree-(N+1) part of theta(u) is not determined at this truncation,
    so the result's top degree omits its contribution; degrees below the
    truncation degree are exact.
    """
    _require_symplectic(theta)
    lam = from_tensor(cyclic_n(evaluate(theta, u) - one_tensor(theta.ctx)))
    return -apply_derivation(lam, evaluate(theta, v))


def sigma_act_log_square(theta: Expansion, x: GroupWord, v: GroupWord) -> Tensor:
    """Action of (log x)^2, pushed through theta: the loop-ring element maps
    to ell(x)^2, so the acting derivation is -N(ell(x) ell(x)), formed one
    degree up by the plain product and not through ``l_invariant``."""
    _require_symplectic(theta)
    ctx = theta.ctx
    ell = truncate(log_evaluate(theta, x), AlgebraContext(ctx.genus, ctx.truncation + 1))
    n_square = from_tensor(cyclic_n(ell * ell))
    acting = Derivation(ctx, [truncate(w, ctx) for w in n_square.values])
    return -apply_derivation(acting, evaluate(theta, v))


# -- certificates ---------------------------------------------------------------


@dataclass(frozen=True)
class Certificate:
    check: str
    params: dict
    status: str
    witness: str | None = None

    @property
    def passed(self) -> bool:
        return self.status == "pass"


def certificate_to_json(cert: Certificate) -> dict:
    obj = {"check": cert.check, "params": cert.params, "status": cert.status}
    if cert.witness is not None:
        obj["witness"] = cert.witness
    return obj


def certificate(check: str, params: dict, failures: list) -> Certificate:
    """A failing certificate whose witness joins ``failures``, or a passing
    one when there are none."""
    if failures:
        return Certificate(check, params, "fail", "; ".join(failures))
    return Certificate(check, params, "pass")


# -- verifiers: each returns its failures, [] when the claim holds ------------


def twist_formula_failures(theta: Expansion, curve: Curve, L: Derivation, reduce=None) -> list:
    """The first generator x_i on which exp(-L) theta(x_i) and
    theta(t_C(x_i)) differ, as a one-entry list, or [] when none does.
    With ``reduce`` both theta(x_i) and the difference are reduced by it
    first, so the formula is checked modulo what ``reduce`` kills."""
    ctx = theta.ctx
    tc = curve_twist(ctx.genus, curve)
    minus_l = -L
    for i in range(ctx.dim):
        start = evaluate(theta, generator_word(ctx.genus, i))
        lhs = exp_derivation(minus_l, start if reduce is None else reduce(start))
        rhs = evaluate(theta, tc.images[i])
        if lhs == rhs:
            continue
        diff = lhs - rhs if reduce is None else reduce(lhs - rhs)
        if diff:
            return [f"generator {gen_name(i)} first differs in degree {filtration_degree(diff)}"]
    return []


def verify_dehn_twist_formula(theta: Expansion, curve: Curve) -> list:
    """exp(-L(C)) versus the twist action theta(t_C(x_i)), per generator."""
    _require_symplectic(theta)
    L = l_invariant(theta, curve_word(theta.genus, curve))
    return twist_formula_failures(theta, curve, L)


def verify_nilpotent_dependence(theta: Expansion, w1: GroupWord, w2: GroupWord, k: int) -> list:
    """The degrees 2 <= i <= k+1 where L_i(w1) != L_i(w2), with
    1 <= k <= N; meaningful when the caller knows w1 and w2 agree modulo
    the (k+1)-st lower central subgroup up to conjugacy and inversion."""
    ctx = theta.ctx
    if not 1 <= k <= ctx.truncation:
        raise ValueError(f"k={k} out of range 1..{ctx.truncation} at truncation {ctx.truncation}")
    t1 = l_invariant_tensor(theta, w1)
    t2 = l_invariant_tensor(theta, w2)
    return [f"L_{i} differs" for i in range(2, k + 2) if graded_part(t1, i) != graded_part(t2, i)]


def tau_formula_failures(theta: Expansion, tc: FreeAutomorphism, L: Derivation) -> list:
    """Where the closed formulas for the twist tc along a non-separating
    curve C, with L = L(C), fail on the basis of H:

      tau_1(t_C) = -L3
      tau_2(t_C) = -L4 + (1/2)[L2, L4] + (1/2) L3 L3
    """
    ctx = theta.ctx
    parts = {m: graded_component(L, m) for m in (2, 3, 4)}
    tau1, tau2 = johnson_components(theta, tc, 2)
    failures = []
    for j in range(ctx.dim):
        name = ctx.basis_name(j)
        if tau1.values[j] != -parts[3].values[j]:
            failures.append(f"tau_1 {name} != -L3 {name}")
        l24, l42, l33 = (_apply_word(parts, word, j) for word in ((2, 4), (4, 2), (3, 3)))
        rhs = -parts[4].values[j] + (l24 - l42 + l33).scale(Rat(1, 2))
        if tau2.values[j] != rhs:
            failures.append(f"tau_2 {name} formula mismatch")
    return failures


# (c, u, v): c L_u = L_v on H, where v None is 0.  In order:
#   L2 L2 = L2 L3 = L3 L2 = 0,  L2 L2 L2 L4 = L2 L2 L4 L2 = 0,  2 L2 L4 L2 = L2 L2 L4
_OPERATOR_IDENTITIES = (
    (1, (2, 2), None),
    (1, (2, 3), None),
    (1, (3, 2), None),
    (1, (2, 2, 2, 4), None),
    (1, (2, 2, 4, 2), None),
    (2, (2, 4, 2), (2, 2, 4)),
)


def _word_name(word: tuple, name: str) -> str:
    return " ".join(f"L{m}" for m in word) + f" {name}"


def verify_operator_identities(theta: Expansion, curve: Curve) -> list:
    """The nilpotency and composition identities of the low components of
    L(C) for non-separating C (``_OPERATOR_IDENTITIES``), plus the closed
    formulas for tau_1, tau_2 (``tau_formula_failures``)."""
    _require_symplectic(theta)
    if curve.kind != "nonsep":
        raise ValueError("operator identities hold along non-separating curves")
    ctx = theta.ctx
    L = l_invariant(theta, curve_word(ctx.genus, curve))
    parts = {m: graded_component(L, m) for m in (2, 3, 4)}
    failures = []
    for j in range(ctx.dim):
        name = ctx.basis_name(j)
        for c, u, v in _OPERATOR_IDENTITIES:
            lhs = _apply_word(parts, u, j)
            if v is None and lhs:
                failures.append(f"{_word_name(u, name)} != 0")
            elif v is not None and lhs.scale(c) != _apply_word(parts, v, j):
                failures.append(f"{c} {_word_name(u, name)} != {_word_name(v, name)}")
    return failures + tau_formula_failures(theta, curve_twist(ctx.genus, curve), L)
