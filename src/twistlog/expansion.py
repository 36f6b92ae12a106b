"""Magnus expansions: evaluation, restriction, fixtures, the symplectic
builder, and intertwiners (connecting automorphisms, total Johnson maps).

An expansion is stored through the logarithms of its generator values, one
Lie-or-general tensor per free-group generator.  Storing logs makes the
homomorphism condition structural: evaluation is a product of exponentials.
Truncation belongs to the expansion: ``restrict`` gives the same expansion
at a lower degree, and work that needs only low degrees is done there.  An
expansion is immutable, so it memoizes its exponentials, its generator
values, its restrictions and its symplectic verdict.

The builder turns any group-like seed into a symplectic expansion one degree
at a time: at degree m it measures the defect of the boundary condition,
rewrites the defect through the bracketing map, and pushes each term into a
degree-(m-1) correction of one generator log.  Corrections are brackets, so
group-likeness is preserved by construction, and every higher-order side
effect of a correction lands strictly above m, which is what makes the sweep
converge.  No pass takes a logarithm: while ell(zeta) - omega starts in
degree m, it agrees in degree m with theta(zeta) - exp(omega), and the
inverse factors of theta(zeta) are antipodes of the forward ones.
"""

from __future__ import annotations

import json
from importlib import resources
from math import gcd, lcm, log10, prod

from .endomorphism import Endomorphism, solve_generator_images
from .lie import _bracket_expansion, _bracket_first, _phi_tails, exp, is_lie, log
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

    Words are multiplied in graded integer coordinates: the exponential
    cache holds sigma_lam(exp(+-ell_i)), where sigma_lam multiplies the
    degree-d part by lam**d and lam, worked out from the logs on first use,
    makes every one of them an integer tensor with constant term 1.  The
    generator values theta(x_i^+-1) = exp(+-ell_i) themselves are memoized
    too, under the same (index, sign) keys, since the paper's formulas and
    the certificate suite evaluate them again and again;
    ``symplectic_failures`` fills those of sign +1 from the exponentials it
    forms one degree up, and the exponential cache starts from them.
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
        self._exp_cache = {}  # (index, sign) -> sigma_lam(exp(sign * ell_i))
        self._values = {}  # (index, sign) -> exp(sign * ell_i), unscaled
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

    def _exp_letter(self, index: int, sign: int) -> Tensor:
        """sigma_lam(exp(sign * ell_i)), an integer tensor."""
        key = (index, sign)
        cached = self._exp_cache.get(key)
        if cached is None:
            t = self.logs[index]
            if sign == -1 and antipode(t) == -t:
                # S(exp u) = exp(S u), and S commutes with sigma_lam
                cached = antipode(self._exp_letter(index, 1))
            else:
                value = self._values.get(key)
                if value is None:
                    value = exp(t if sign == 1 else -t)
                cached = graded_scale(value, self._letter_scale())
                if scaled_terms(cached)[1] != 1:
                    raise ArithmeticError(
                        f"exp(+-log {gen_name(index)}) is not integral in the "
                        f"coordinates scaled by {self._letter_scale()}"
                    )
            self._exp_cache[key] = cached
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
        key = w.letters[0]
        value = theta._values.get(key)
        if value is None:
            value = theta._values[key] = graded_scale(
                theta._exp_letter(*key), Rat(1, theta._letter_scale())
            )
        return value
    out = one_tensor(theta.ctx)
    for index, sign in w.letters:
        out = out * theta._exp_letter(index, sign)
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
    is formed from the logs lifted to degree N+1 and compared with
    exp(omega) there, with no logarithm: exp and log are inverse filtered
    bijections, so both sides first differ in the same degree, which the
    witness names.  Proved once per expansion; each call gets a fresh list.
    """
    if theta._failures is None:
        failures = []
        ext = AlgebraContext(theta.genus, theta.truncation + 1)
        logs = [truncate(t, ext) for t in theta.logs]
        if is_group_like(theta):
            values = [exp(t) for t in logs]
            # truncated, these are the generator values at N: memoized, as
            # evaluating a word would have done
            for i, value in enumerate(values):
                theta._values.setdefault((i, 1), truncate(value, theta.ctx))
            zeta = _boundary_value(ext, values)
        else:  # _boundary_value inverts by the antipode, which needs Lie logs
            failures.append("a generator log is not Lie")
            zeta = evaluate(Expansion(ext, logs, kind=theta.kind), boundary_word(theta.genus))
        degree = filtration_degree(zeta - exp(symplectic_form(ext)))
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


def _data_text(filename: str) -> str:
    return resources.files("twistlog.data").joinpath(filename).read_text("utf-8")


def _tree_from_json(ctx: AlgebraContext, tree) -> tuple:
    """(tree with int leaves, degree) of a data-file bracket tree: a basis
    name ("A1") or a two-element list [left, right]."""
    if isinstance(tree, str):
        return ctx.basis_index(tree), 1
    if isinstance(tree, list) and len(tree) == 2:
        left, p = _tree_from_json(ctx, tree[0])
        right, q = _tree_from_json(ctx, tree[1])
        return (left, right), p + q
    raise ValueError(f"malformed bracket tree: {tree!r}")


def load_fixture(kind: str, truncation: int | None = None) -> Expansion:
    """Load a shipped expansion from its bracket-form data file.

    The data determines the expansion modulo degree ``max_trusted_degree``,
    so the largest honest truncation is one less; asking beyond that is an
    error, never a silent extrapolation.  Sizes above MAX_MONOMIALS are
    refused with ValueError before anything is built.
    """
    if kind not in _FIXTURE_FILES:
        raise ValueError(f"unknown fixture {kind!r}")
    payload = json.loads(_data_text(_FIXTURE_FILES[kind]))
    trusted_cap = payload["max_trusted_degree"] - 1
    if truncation is None:
        truncation = trusted_cap
    if truncation > trusted_cap:
        raise ValueError(
            f"{kind} is only trusted up to truncation {trusted_cap}, "
            f"requested {truncation}"
        )
    genus = payload["genus"]
    ctx = AlgebraContext(genus, truncation)
    _check_size(genus, truncation)
    logs = {}
    expansions = {}
    for name, entries in payload["generators"].items():
        index = _gen_index(ctx, name)
        # the log's numerators over the lcm of its coefficient denominators
        terms = []
        for coeff, tree in entries:
            tree, degree = _tree_from_json(ctx, tree)
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
    """theta(zeta) from the generator values exp(ell_i) of Lie logs in
    ``ctx``, grouped handle by handle.  For a Lie u the antipode sends
    exp(u) to exp(-u), so each handle's inverse factors cost no exponential
    series."""
    out = one_tensor(ctx)
    for i in range(ctx.genus):
        ea, eb = values[2 * i], values[2 * i + 1]
        out = out * (ea * eb * antipode(ea) * antipode(eb))
    return out


def build_symplectic(genus: int, truncation: int, seed: Expansion | None = None) -> Expansion:
    """Deterministic symplectic expansion of the given genus and truncation.

    Starting from a group-like seed (default: the exponential expansion),
    each degree pass m cancels the degree-m defect ell(zeta) - omega by
    bracket corrections to the degree-(m-1) parts of the generator logs.

    Passes run through degree N+1, one beyond the requested truncation: the
    degree-(N+1) defect is already determined by the N-jet (a degree-(N+1)
    log term moves the boundary log only in degrees >= N+2), so cancelling
    it is what makes the result the N-jet of a genuine symplectic expansion
    of the full group.  Identities that are exact mod degree N+1, such as
    the Dehn twist formula, hold for jets but can fail at the top degree
    for merely-truncated data.  A seed that is itself such a jet comes back
    unchanged, and restricting a build to a lower truncation agrees with
    building there directly.

    A genus and truncation whose working algebra holds more than
    MAX_MONOMIALS monomials are refused with ValueError before any work.
    """
    ctx = AlgebraContext(genus, truncation)
    _check_size(genus, truncation)
    work_ctx = AlgebraContext(genus, truncation + 1)
    if seed is None:
        seed = exponential_expansion(genus, truncation)
    if seed.genus != genus:
        raise ValueError(f"seed genus {seed.genus} != requested genus {genus}")
    logs = [truncate(t, work_ctx) for t in seed.logs]
    for i, t in enumerate(logs):
        if not is_lie(t):
            raise ValueError(f"seed is not group-like: log of {gen_name(i)} is not Lie")
    exp_omega = exp(symplectic_form(work_ctx))
    dim = ctx.dim
    for m in range(3, truncation + 2):
        pass_ctx = AlgebraContext(genus, m)
        # once ell(zeta) = omega + D with D of degree >= m, theta(zeta) =
        # exp(omega) + D below degree m + 1: every other term of
        # exp(omega + D) that holds D has degree >= m + 2
        defect = _boundary_value(pass_ctx, [exp(truncate(t, pass_ctx)) for t in logs])
        defect = defect - truncate(exp_omega, pass_ctx)
        blocks, den = scaled_terms(defect)
        if any(p < m for p in blocks):
            # the previous passes cancelled every lower degree; a leftover
            # means the kernel miscomputed, not that the input was bad
            raise ArithmeticError(f"defect below degree {m} survived pass {m}")
        if not defect:
            continue
        # a Lie defect sum_x X_x t_x equals (1/m) sum_x [X_x, Phi(t_x)]
        # (Dynkin-Specht-Wever); each term is cancelled through the partner
        # generator of its first letter, with sign (partner . X_x)
        tails = _phi_tails(blocks[m], m, dim)
        if _bracket_first(tails, m, dim) != {k: c * m for k, c in blocks[m].items()}:
            raise ArithmeticError(f"degree-{m} defect failed the Lie certificate")
        for x, bucket in tails.items():
            if x % 2 == 0:
                bucket = {k: -c for k, c in bucket.items()}
            logs[x ^ 1] = logs[x ^ 1] + tensor_from_scaled(work_ctx, {m - 1: bucket}, den * m)
    return Expansion(ctx, [truncate(t, ctx) for t in logs], kind="built")


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
