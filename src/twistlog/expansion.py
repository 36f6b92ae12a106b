"""Magnus expansions: evaluation, restriction, fixtures, the symplectic
builder, and intertwiners (connecting automorphisms, total Johnson maps).

An expansion is stored through the logarithms of its generator values, one
Lie-or-general tensor per free-group generator.  Storing logs makes the
homomorphism condition structural: evaluation is a product of exponentials.
Truncation belongs to the expansion: ``restrict`` gives the same expansion
at a lower degree, and work that needs only low degrees is done there.  It
is the one way down: a fixture loads at its trusted truncation only.  An
expansion is immutable, so it memoizes its exponentials, its generator
values, its restrictions and its symplectic verdict.

The builder starts from the exponential expansion, ell_i = X_i, and makes
it symplectic one degree at a time: at degree m it measures the defect of
the boundary condition, rewrites the defect through the bracketing map, and
cancels it by the derivation that the rewritten defect names, added to the
degree-(m-1) parts of the generator logs.  Corrections are brackets, so
group-likeness is preserved by construction, and every higher-order side
effect of a correction lands strictly above m, which is what makes the sweep
converge.  No pass takes a logarithm: while ell(zeta) - omega starts in
degree m, it agrees in degree m with theta(zeta) - exp(omega), and the
inverse factors of theta(zeta) are antipodes of the forward ones.

Every other symplectic expansion is exp(d) o theta for a symplectic
derivation d that raises degree; ``moved_expansion`` makes it.
"""

from __future__ import annotations

import json
from importlib import resources
from math import gcd, lcm, log10, prod

from .derivation import Derivation, exp_derivation, from_tensor
from .endomorphism import Endomorphism, solve_generator_images
from .lie import _bracket_expansion, _bracket_steps, exp, integral_exp, is_lie, log
from .rationals import Rat, rat_from_string
from .tensor import (
    MAX_MONOMIALS,
    AlgebraContext,
    Tensor,
    antipode,
    basis_tensor,
    filtration_degree,
    graded_part,
    graded_scale,
    one_tensor,
    scaled_terms,
    symplectic_form,
    tensor_from_json,
    tensor_from_scaled,
    tensor_to_json,
    truncate,
)
from .words import GroupWord, boundary_word, gen_name, generator_word, parse_name

_FIXTURE_FILES = {
    "fixture-genus1": "genus1.json",
    "fixture-genus2": "genus2.json",
    "fixture-massuyeau": "massuyeau.json",
}
EXPANSION_KINDS = ("standard", "exponential", *_FIXTURE_FILES, "built", "user")


class Expansion:
    """Magnus expansion given by the log of its value on each generator.

    logs[i] is ell(x_i) for the generator with flat index i (a1, b1, a2, ...);
    the degree-0 part must vanish and the degree-1 part must be the
    generator's own homology class.

    Words are multiplied in graded integer coordinates: the letter cache
    holds sigma_lam(exp(+-ell_i)), where sigma_lam multiplies the degree-d
    part by lam**d and lam, worked out from the logs on first use, makes
    every one of them an integer tensor with constant term 1; each sign
    is summed by ``integral_exp`` from +-ell_i.  ``symplectic_failures``
    reads the letters of sign +1 from this cache too.  The generator values
    theta(x_i^+-1) = exp(+-ell_i) themselves are memoized under the same
    keys, the letter codes 2i and 2i + 1 of ``GroupWord``, since the paper's
    formulas and the certificate suite evaluate them again and again; only
    ``evaluate`` fills that memo, each value rescaled once from its letter.
    """

    __slots__ = (
        "ctx", "kind", "logs", "_exp_cache", "_values", "_lam", "_restrictions", "_failures",
    )

    def __init__(self, ctx: AlgebraContext, logs, kind: str = "user"):
        if kind not in EXPANSION_KINDS:
            raise ValueError(f"unknown expansion kind {kind!r}")
        logs = tuple(logs)
        if len(logs) != ctx.dim:
            raise ValueError(f"expected {ctx.dim} generator logs, got {len(logs)}")
        for i, t in enumerate(logs):
            if t.ctx != ctx:
                raise ValueError(f"log of {gen_name(i)} lives in the wrong context")
            if t.coefficient(()):
                raise ValueError(f"log of {gen_name(i)} has a nonzero constant term")
            if graded_part(t, 1) != basis_tensor(ctx, i):
                raise ValueError(
                    f"log of {gen_name(i)} must have degree-1 part equal to its homology class"
                )
        self.ctx = ctx
        self.kind = kind
        self.logs = logs
        self._exp_cache = {}  # letter code -> sigma_lam(exp(+-ell_i))
        self._values = {}  # letter code -> exp(+-ell_i), unscaled
        self._lam = None
        self._restrictions = {}  # degree -> restrict(self, degree)
        self._failures = None  # symplectic_failures, once computed

    @property
    def genus(self) -> int:
        return self.ctx.genus

    @property
    def truncation(self) -> int:
        return self.ctx.truncation

    def _letter_scale(self) -> int:
        """lam, the integer that makes every sigma_lam(exp(+-ell_i)) integral."""
        if self._lam is None:
            self._lam = _integral_scale(self.logs, self.truncation)
        return self._lam

    def _exp_letter(self, code: int) -> Tensor:
        """sigma_lam(exp(+-ell_i)) of the letter code 2i or 2i + 1, an integer tensor."""
        cached = self._exp_cache.get(code)
        if cached is None:
            t = self.logs[code >> 1]
            lam = self._letter_scale()
            try:
                cached = integral_exp(graded_scale(-t if code & 1 else t, lam))
            except ArithmeticError:
                raise ArithmeticError(
                    f"exp(+-log {gen_name(code >> 1)}) is not integral in the "
                    f"coordinates scaled by {lam}"
                ) from None
            self._exp_cache[code] = cached
        return cached

    def __eq__(self, other):
        return (
            isinstance(other, Expansion)
            and self.ctx == other.ctx
            and self.logs == other.logs
        )

    def __repr__(self):
        return f"Expansion(kind={self.kind!r}, genus={self.genus}, truncation={self.truncation})"


def evaluate(theta: Expansion, w: GroupWord) -> Tensor:
    """theta(w): product over the letters of exp(+-log), an element of
    1 + T-hat_1.  The letters' cached sigma_lam-scaled exponentials are
    integer tensors, so their product takes no gcd pass, and the word is
    rescaled once, by sigma_{1/lam}, at the end.  A one-letter word is a
    generator value, rescaled once per expansion and then looked up; the
    same tensor is returned each time, and tensors are never mutated."""
    if w.genus != theta.genus:
        raise ValueError(f"word genus {w.genus} != expansion genus {theta.genus}")
    if len(w.letters) == 1:
        code = w.letters[0]
        value = theta._values.get(code)
        if value is None:
            value = theta._values[code] = graded_scale(
                theta._exp_letter(code), Rat(1, theta._letter_scale())
            )
        return value
    out = one_tensor(theta.ctx)
    for code in w.letters:
        out = out * theta._exp_letter(code)
    return graded_scale(out, Rat(1, theta._letter_scale()))


def _integral_scale(logs, truncation: int) -> int:
    """The lam for which every sigma_lam(exp(+-ell_i)) is an integer tensor.

    Let q_ia be the reduced denominator of the degree-a part of ell_i.  For
    each prime p <= N, v_p(lam) = max over i, a of ceil((1 + v_p(q_ia)) / a),
    so every coefficient of sigma_lam(ell_i) has p-adic valuation >= 1, and
    a product of k of them, of valuation >= k, survives the 1/k! of exp, as
    v_p(k!) < k.
    The part of each q_ia prime to every p <= N is taken whole, through
    the lcm; the 1/k! hold no such prime.  Only primes <= N are tried, so
    no denominator is ever factored."""
    primes = [p for p in range(2, truncation + 1) if all(p % f for f in range(2, p))]
    powers = dict.fromkeys(primes, 1)
    rest = 1
    for t in logs:
        blocks, den = scaled_terms(t)
        for a, block in blocks.items():
            q = den // gcd(den, *block.values())
            for p in primes:
                v = 0
                while q % p == 0:
                    q //= p
                    v += 1
                powers[p] = max(powers[p], (v + a) // a)
            rest = lcm(rest, q)
    return rest * prod(p**e for p, e in powers.items())


def log_evaluate(theta: Expansion, w: GroupWord) -> Tensor:
    """ell(w) = log theta(w)."""
    return log(evaluate(theta, w))


def is_group_like(theta: Expansion) -> bool:
    """True iff every generator log is a Lie element; values on the whole
    group then follow by Baker-Campbell-Hausdorff."""
    return all(is_lie(t) for t in theta.logs)


def symplectic_failures(theta: Expansion) -> list:
    """The witnesses against theta being symplectic: group-like, and
    ell(zeta) = omega exactly through degree N+1, one above the truncation.

    The degree-(N+1) part of ell(zeta) depends only on logs of degree <= N,
    since zeta is a product of commutators; and (1/2) N(ell ell) needs it,
    as L's degree-N values come from its degree-(N+1) part.  So theta(zeta)
    is formed through degree N+1 and compared with exp(omega) there, with
    no logarithm: exp and log are inverse filtered bijections, so both sides
    first differ in the same degree, which the witness names.

    For Lie logs, theta(zeta) through N+1 reads the generator values only
    through degree N (``_boundary_value``), so it is formed over the ints
    from the integer letters sigma_lam(exp ell_i) of the letter cache, lifted
    to N+1 with no degree-(N+1) part, and compared with sigma_lam(exp omega).
    sigma_lam keeps each degree apart, so the first differing degree is the
    same.  Proved once per expansion; each call gets a fresh list.
    """
    if theta._failures is None:
        failures = []
        ext = AlgebraContext(theta.genus, theta.truncation + 1)
        omega = symplectic_form(ext)
        if is_group_like(theta):
            letters = [truncate(theta._exp_letter(2 * i), ext) for i in range(ext.dim)]
            zeta = _boundary_value(ext, letters)
            # (lam^2 omega)^k / k! is integral: k <= (N+1)/2 and v_p(lam) >= 1
            # for every p <= N
            target = integral_exp(graded_scale(omega, theta._letter_scale()))
        else:  # _boundary_value inverts by the antipode, which needs Lie logs
            failures.append("a generator log is not Lie")
            logs = [truncate(t, ext) for t in theta.logs]
            zeta = evaluate(Expansion(ext, logs, kind=theta.kind), boundary_word(theta.genus))
            target = exp(omega)
        degree = filtration_degree(zeta - target)
        if degree <= ext.truncation:
            failures.append(f"ell(zeta) != omega, first in degree {degree}")
        theta._failures = tuple(failures)
    return list(theta._failures)


def is_symplectic(theta: Expansion) -> bool:
    """Group-like, and ell(zeta) = omega through degree N+1."""
    return not symplectic_failures(theta)


def restrict(theta: Expansion, degree: int) -> Expansion:
    """theta with its logs truncated at ``degree``: theta itself at its own
    truncation, an error above it.  Made once per degree, so its
    exponentials are computed once too."""
    if degree > theta.truncation:
        raise ValueError(f"cannot restrict truncation {theta.truncation} up to {degree}")
    if degree == theta.truncation:
        return theta
    low = theta._restrictions.get(degree)
    if low is None:
        ctx = AlgebraContext(theta.genus, degree)
        logs = [truncate(t, ctx) for t in theta.logs]
        low = theta._restrictions[degree] = Expansion(ctx, logs, kind=theta.kind)
    return low


# -- built-in expansions -----------------------------------------------------


def standard_expansion(genus: int, truncation: int) -> Expansion:
    """theta(x_i) = 1 + X_i; not group-like.  Sizes above MAX_MONOMIALS are
    refused with ValueError."""
    ctx = AlgebraContext(genus, truncation)
    _check_size(genus, truncation)
    logs = [log(one_tensor(ctx) + basis_tensor(ctx, i)) for i in range(ctx.dim)]
    return Expansion(ctx, logs, kind="standard")


def exponential_expansion(genus: int, truncation: int) -> Expansion:
    """theta(x_i) = exp(X_i); group-like but not symplectic for N >= 3.
    Sizes above MAX_MONOMIALS are refused with ValueError."""
    ctx = AlgebraContext(genus, truncation)
    _check_size(genus, truncation)
    logs = [basis_tensor(ctx, i) for i in range(ctx.dim)]
    return Expansion(ctx, logs, kind="exponential")


_DATA = resources.files("twistlog.data")  # resolved once, not on every fixture load


def _data_text(filename: str) -> str:
    return _DATA.joinpath(filename).read_text("utf-8")


def _tree_from_json(ctx: AlgebraContext, tree, indices: dict) -> tuple:
    """(tree with int leaves, degree) of a data-file bracket tree: a basis
    name ("A1") or a two-element list [left, right].  ``indices`` maps each
    basis name of ``ctx`` to its index; any other name is refused by
    ``ctx.basis_index``."""
    if isinstance(tree, str):
        index = indices.get(tree)
        return (ctx.basis_index(tree) if index is None else index), 1
    if isinstance(tree, list) and len(tree) == 2:
        left, p = _tree_from_json(ctx, tree[0], indices)
        right, q = _tree_from_json(ctx, tree[1], indices)
        return (left, right), p + q
    raise ValueError(f"malformed bracket tree: {tree!r}")


def load_fixture(kind: str) -> Expansion:
    """Load a shipped expansion from its bracket-form data file, at the
    largest truncation its data determines, one below ``max_trusted_degree``
    (``restrict`` lowers it).  Sizes above MAX_MONOMIALS are refused with
    ValueError before anything is built."""
    if kind not in _FIXTURE_FILES:
        raise ValueError(f"unknown fixture {kind!r}")
    payload = json.loads(_data_text(_FIXTURE_FILES[kind]))
    truncation = payload["max_trusted_degree"] - 1
    genus = payload["genus"]
    ctx = AlgebraContext(genus, truncation)
    _check_size(genus, truncation)
    logs = {}
    expansions = {}
    indices = {ctx.basis_name(i): i for i in range(ctx.dim)}
    for name, entries in payload["generators"].items():
        index = _gen_index(ctx, name)
        # the log's numerators over the lcm of its coefficient denominators
        terms = []
        for coeff, tree in entries:
            tree, degree = _tree_from_json(ctx, tree, indices)
            if degree <= truncation:  # brackets above the truncation vanish
                q = rat_from_string(coeff)
                terms.append((q.numerator, q.denominator, tree))
        den = lcm(*(q for _, q, _ in terms))
        blocks = {}
        for p, q, tree in terms:
            degree, expansion = _bracket_expansion(ctx, tree, expansions)
            acc = blocks.setdefault(degree, {})
            get = acc.get
            factor = p * (den // q)
            for code, c in expansion.items():
                acc[code] = get(code, 0) + factor * c
        logs[index] = tensor_from_scaled(ctx, blocks, den)
    return Expansion(ctx, _complete_logs(ctx, logs, kind), kind=kind)


# -- the symplectic builder --------------------------------------------------


def _check_size(genus: int, degree: int) -> None:
    """Refuse the genus and degree of a valid context whose monomial count
    exceeds MAX_MONOMIALS.

    The count (dim**(N+2) - 1) / (dim - 1) is compared by its logarithm, so
    an absurd genus or degree is refused at once instead of being raised to
    a power."""
    dim = 2 * genus
    log_count = (degree + 2) * log10(dim) - log10(dim - 1)
    if log_count > log10(MAX_MONOMIALS):
        raise ValueError(
            f"genus {genus} at degree {degree} spans about 10^{log_count:.1f} "
            f"monomials (the sum of (2g)^k for k <= degree + 1), above the "
            f"limit of {MAX_MONOMIALS}"
        )


def _boundary_value(ctx: AlgebraContext, values) -> Tensor:
    """theta(zeta) from the generator values e_i = exp(ell_i) of Lie logs in
    ``ctx``, handle by handle: with u = e - 1, e_a e_b e_a^-1 e_b^-1 =
    1 + [u_a, u_b] S(1 + u_a + u_b + u_b u_a), as e_a e_b - e_b e_a =
    [u_a, u_b] and, for Lie logs, the antipode S inverts e_b e_a.  Each term
    of a handle less 1 has two factors of degree >= 1, so the values are
    read only through degree top - 1 (top the truncation of ``ctx``), and
    the S factor only through top - 2, where it is formed.  The values
    sigma_r(e_i) give sigma_r(theta(zeta)), as sigma_r commutes with
    products and S."""
    one = one_tensor(ctx)
    low = AlgebraContext(ctx.genus, max(ctx.truncation - 2, 2))
    out = one
    for i in range(ctx.genus):
        ea, ub = values[2 * i], values[2 * i + 1] - one
        ua = ea - one
        ba = ub * ua
        s = antipode(truncate(ea, low) + truncate(ub, low) + truncate(ba, low))
        out = out + out * ((ua * ub - ba) * truncate(s, ctx))
    return out


def build_symplectic(genus: int, truncation: int) -> Expansion:
    """Deterministic symplectic expansion of the given genus and truncation.

    Starting from the exponential expansion, ell_i = X_i, each degree pass m
    cancels the degree-m defect ell(zeta) - omega by bracket corrections to
    the degree-(m-1) parts of the generator logs.

    Passes run through degree N+1, one beyond the requested truncation: the
    degree-(N+1) defect is already determined by the N-jet (a degree-(N+1)
    log term moves the boundary log only in degrees >= N+2), so cancelling
    it is what makes the result the N-jet of a genuine symplectic expansion
    of the full group.  Identities that are exact mod degree N+1, such as
    the Dehn twist formula, hold for jets but can fail at the top degree
    for merely-truncated data.  Restricting a build to a lower truncation
    agrees with building there directly.

    A genus and truncation whose working algebra holds more than
    MAX_MONOMIALS monomials are refused with ValueError before any work.
    """
    ctx = AlgebraContext(genus, truncation)
    _check_size(genus, truncation)
    work_ctx = AlgebraContext(genus, truncation + 1)
    logs = [basis_tensor(work_ctx, i) for i in range(work_ctx.dim)]
    exp_omega = exp(symplectic_form(work_ctx))
    dim = ctx.dim
    for m in range(3, truncation + 2):
        pass_ctx, low = AlgebraContext(genus, m), AlgebraContext(genus, m - 1)
        # once ell(zeta) = omega + D with D of degree >= m, theta(zeta) =
        # exp(omega) + D below degree m + 1: every other term of
        # exp(omega + D) that holds D has degree >= m + 2.  Through degree m
        # theta(zeta) reads the generator values only through degree m - 1
        values = [truncate(exp(truncate(t, low)), pass_ctx) for t in logs]
        defect = _boundary_value(pass_ctx, values)
        defect = defect - truncate(exp_omega, pass_ctx)
        blocks, den = scaled_terms(defect)
        if any(p < m for p in blocks):
            # the previous passes cancelled every lower degree; a leftover
            # means the kernel miscomputed, not that the input was bad
            raise ArithmeticError(f"defect below degree {m} survived pass {m}")
        if not defect:
            continue
        # a Lie defect sum_x X_x t_x equals (1/m) sum_x [X_x, Phi(t_x)]
        # (Dynkin-Specht-Wever), so the derivation named by
        # (1/m) sum_x X_x Phi(t_x), which sends the partner of X_x to
        # (partner . X_x) Phi(t_x) / m, cancels it.  The first m - 2
        # bracketing steps give sum_x X_x Phi(t_x), and one more gives Phi of
        # the defect
        tails = _bracket_steps(blocks[m], dim, range(1, m - 1))
        if _bracket_steps(tails, dim, range(m - 1, m)) != {k: c * m for k, c in blocks[m].items()}:
            raise ArithmeticError(f"degree-{m} defect failed the Lie certificate")
        correction = from_tensor(tensor_from_scaled(work_ctx, {m: tails}, den * m))
        logs = [t + v for t, v in zip(logs, correction.values)]
    return Expansion(ctx, [truncate(t, ctx) for t in logs], kind="built")


def moved_expansion(theta: Expansion, d: Derivation) -> Expansion:
    """exp(d) o theta, by its logs exp(d)(ell_i).  For a symplectic
    derivation d that raises degree this is again a symplectic expansion,
    and every symplectic expansion is one such move of any other; nothing is
    checked here, as ``symplectic_failures`` is the check."""
    return Expansion(theta.ctx, [exp_derivation(d, t) for t in theta.logs], kind="user")


# -- intertwiners --------------------------------------------------------------


def intertwiner(theta: Expansion, targets) -> Endomorphism:
    """The filtered algebra automorphism U with U(theta(x_i)) = targets[i],
    by its values on H.  Connecting automorphisms and total Johnson maps are
    both this U; a caller that needs only low degrees passes a restricted
    theta."""
    ctx = theta.ctx
    one = one_tensor(ctx)
    sources = [evaluate(theta, generator_word(ctx.genus, i)) - one for i in range(ctx.dim)]
    targets = [v - one for v in targets]
    return Endomorphism(ctx, solve_generator_images(ctx, sources, targets))


def connecting_automorphism(theta1: Expansion, theta2: Expansion) -> Endomorphism:
    """U with U o theta1 = theta2 on generators, by its values on H."""
    if theta1.ctx != theta2.ctx:
        raise ValueError("expansions must share genus and truncation")
    ctx = theta1.ctx
    return intertwiner(
        theta1, [evaluate(theta2, generator_word(ctx.genus, i)) for i in range(ctx.dim)]
    )


# -- serialization -----------------------------------------------------------


def expansion_to_json(theta: Expansion) -> dict:
    return {
        "genus": theta.genus,
        "truncation": theta.truncation,
        "kind": theta.kind,
        "generators": [
            {"name": gen_name(i), "log": tensor_to_json(t)}
            for i, t in enumerate(theta.logs)
        ],
    }


def expansion_from_json(obj: dict) -> Expansion:
    if not isinstance(obj, dict):
        raise ValueError("expansion JSON must be an object")
    for field in ("genus", "truncation", "kind", "generators"):
        if field not in obj:
            raise ValueError(f"expansion JSON missing field {field!r}")
    ctx = AlgebraContext(obj["genus"], obj["truncation"])
    _check_size(ctx.genus, ctx.truncation)
    kind = obj["kind"]
    if not isinstance(obj["generators"], list):
        raise ValueError("expansion JSON 'generators' must be a list")
    logs = {}
    for entry in obj["generators"]:
        if not isinstance(entry, dict) or "log" not in entry:
            raise ValueError(f"generator entry must be an object with 'name' and 'log': {entry!r}")
        name = entry.get("name")
        index = _gen_index(ctx, name)
        if index in logs:
            raise ValueError(f"duplicate generator {name!r} in expansion JSON")
        logs[index] = tensor_from_json(entry["log"], ctx)
    return Expansion(ctx, _complete_logs(ctx, logs, "expansion JSON"), kind=kind)


def _complete_logs(ctx: AlgebraContext, logs: dict, source: str) -> list:
    """The logs by flat generator index, refusing a source that omits any."""
    missing = [gen_name(i) for i in range(ctx.dim) if i not in logs]
    if missing:
        raise ValueError(f"{source} is missing the generators {', '.join(missing)}")
    return [logs[i] for i in range(ctx.dim)]


def _gen_index(ctx: AlgebraContext, name) -> int:
    return parse_name(
        name,
        ctx.genus,
        "ab",
        "unknown generator name {name}",
        "generator {name} out of range for genus {genus}",
    )[0]
