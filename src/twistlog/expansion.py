"""Magnus expansions: evaluation, fixtures, the symplectic builder, and
connecting automorphisms.

An expansion is stored through the logarithms of its generator values, one
Lie-or-general tensor per free-group generator.  Storing logs makes the
homomorphism condition structural: evaluation is a product of exponentials.
A ``None`` log marks a generator the expansion does not determine, which
happens only for the shipped partial fixture.

The builder turns any group-like seed into a symplectic expansion one degree
at a time: at degree m it measures the defect of the boundary condition,
rewrites the defect through the bracketing map, and pushes each term into a
degree-(m-1) correction of one generator log.  Corrections are brackets, so
group-likeness is preserved by construction, and every higher-order side
effect of a correction lands strictly above m, which is what makes the sweep
converge.
"""

from __future__ import annotations

import json
import os
from importlib import resources
from math import lcm, log10

from .endomorphism import Endomorphism, solve_generator_images
from .lie import _bracket_expansion, _by_first, _phi_block, exp, is_lie, log
from .rationals import rat_from_string
from .tensor import (
    AlgebraContext,
    Tensor,
    basis_tensor,
    graded_part,
    one_tensor,
    scaled_terms,
    symplectic_form,
    tensor_from_json,
    tensor_from_scaled,
    tensor_to_json,
    truncate,
)
from .words import GroupWord, boundary_word, gen_name, generator_word, parse_name

EXPANSION_KINDS = (
    "standard",
    "exponential",
    "fixture-genus1",
    "fixture-genus2",
    "fixture-massuyeau-partial",
    "built",
    "user",
)


class Expansion:
    """Magnus expansion given by the log of its value on each generator.

    logs[i] is ell(x_i) for the generator with flat index i (a1, b1, a2, ...);
    the degree-0 part must vanish and the degree-1 part must be the
    generator's own homology class.
    """

    __slots__ = ("ctx", "kind", "logs", "_exp_cache")

    def __init__(self, ctx: AlgebraContext, logs, kind: str = "user"):
        if kind not in EXPANSION_KINDS:
            raise ValueError(f"unknown expansion kind {kind!r}")
        logs = tuple(logs)
        if len(logs) != ctx.dim:
            raise ValueError(f"expected {ctx.dim} generator logs, got {len(logs)}")
        for i, t in enumerate(logs):
            if t is None:
                continue
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
        self._exp_cache = {}

    @property
    def genus(self) -> int:
        return self.ctx.genus

    @property
    def truncation(self) -> int:
        return self.ctx.truncation

    @property
    def partial(self) -> bool:
        return any(t is None for t in self.logs)

    def log_of(self, index: int) -> Tensor:
        t = self.logs[index]
        if t is None:
            raise ValueError(
                f"partial expansion does not determine the generator {gen_name(index)}"
            )
        return t

    def _exp_letter(self, index: int, sign: int) -> Tensor:
        key = (index, sign)
        cached = self._exp_cache.get(key)
        if cached is None:
            t = self.log_of(index)
            cached = exp(t if sign == 1 else -t)
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
    1 + T-hat_1."""
    if w.genus != theta.genus:
        raise ValueError(f"word genus {w.genus} != expansion genus {theta.genus}")
    out = one_tensor(theta.ctx)
    for index, sign in w.letters:
        out = out * theta._exp_letter(index, sign)
    return out


def log_evaluate(theta: Expansion, w: GroupWord) -> Tensor:
    """ell(w) = log theta(w)."""
    return log(evaluate(theta, w))


def is_group_like(theta: Expansion) -> bool:
    """True iff every determined generator log is a Lie element; values on
    the whole group then follow by Baker-Campbell-Hausdorff."""
    return all(t is None or is_lie(t) for t in theta.logs)


def boundary_log(theta: Expansion) -> Tensor:
    """ell(zeta) for the boundary word zeta = prod [a_i, b_i]."""
    return log_evaluate(theta, boundary_word(theta.genus))


def symplectic_failures(theta: Expansion) -> list:
    """The witnesses against theta being symplectic: group-like, and
    ell(zeta) = omega exactly at the truncation.  A partial expansion
    leaves the boundary value undetermined, so only its determined logs
    are tested."""
    failures = []
    if not is_group_like(theta):
        failures.append("a generator log is not Lie")
    if not theta.partial and boundary_log(theta) != symplectic_form(theta.ctx):
        failures.append("ell(zeta) != omega")
    return failures


def is_symplectic(theta: Expansion) -> bool:
    """Group-like and ell(zeta) = omega, both exact at the truncation."""
    if theta.partial:
        raise ValueError("partial expansion: the boundary value is undetermined")
    return not symplectic_failures(theta)


# -- built-in expansions -----------------------------------------------------


def standard_expansion(genus: int, truncation: int) -> Expansion:
    """theta(x_i) = 1 + X_i; not group-like."""
    ctx = AlgebraContext(genus, truncation)
    logs = [log(one_tensor(ctx) + basis_tensor(ctx, i)) for i in range(ctx.dim)]
    return Expansion(ctx, logs, kind="standard")


def exponential_expansion(genus: int, truncation: int) -> Expansion:
    """theta(x_i) = exp(X_i); group-like but not symplectic for N >= 3."""
    ctx = AlgebraContext(genus, truncation)
    logs = [basis_tensor(ctx, i) for i in range(ctx.dim)]
    return Expansion(ctx, logs, kind="exponential")


_FIXTURE_FILES = {
    "fixture-genus1": "genus1.json",
    "fixture-genus2": "genus2.json",
    "fixture-massuyeau-partial": "massuyeau_partial.json",
}


def _data_text(filename: str) -> str:
    override = os.environ.get("TWISTLOG_DATA_DIR")
    if override:
        with open(os.path.join(override, filename), "r", encoding="utf-8") as fh:
            return fh.read()
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


def fixture_trusted_degree(kind: str) -> int:
    payload = json.loads(_data_text(_FIXTURE_FILES[kind]))
    return payload["max_trusted_degree"]


def load_fixture(kind: str, truncation: int | None = None, genus: int | None = None) -> Expansion:
    """Load a shipped expansion from its bracket-form data file.

    The data determines the expansion modulo degree ``max_trusted_degree``,
    so the largest honest truncation is one less; asking beyond that is an
    error, never a silent extrapolation.  ``genus`` is only free for the
    partial fixture, whose data is genus-independent.
    """
    if kind not in _FIXTURE_FILES:
        raise ValueError(f"unknown fixture {kind!r}")
    payload = json.loads(_data_text(_FIXTURE_FILES[kind]))
    trusted_cap = payload["max_trusted_degree"] - 1
    if truncation is None:
        truncation = trusted_cap
    if truncation > trusted_cap:
        raise ValueError(
            f"fixture {kind} is only trusted up to truncation {trusted_cap}, "
            f"requested {truncation}"
        )
    file_genus = payload["genus"]
    if file_genus is None:
        genus = 2 if genus is None else genus
    elif genus is None:
        genus = file_genus
    elif genus != file_genus:
        raise ValueError(f"fixture {kind} has genus {file_genus}, requested {genus}")
    ctx = AlgebraContext(genus, truncation)
    logs = [None] * ctx.dim
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
    return Expansion(ctx, logs, kind=kind)


def fixture_genus1(truncation: int | None = None) -> Expansion:
    return load_fixture("fixture-genus1", truncation)


def fixture_genus2(truncation: int | None = None) -> Expansion:
    return load_fixture("fixture-genus2", truncation)


def fixture_massuyeau_partial(genus: int = 2, truncation: int | None = None) -> Expansion:
    return load_fixture("fixture-massuyeau-partial", truncation, genus=genus)


# -- the symplectic builder --------------------------------------------------


# Largest monomial count that the builder accepts, and with it the ``build``
# and ``builtin:*`` expansion sources of the CLI: the count
# sum(dim**k for k <= N+1) of the algebra one degree above the truncation N,
# where the builder and the loop invariant work.  It admits genus 2 through
# degree 8 (349525 monomials; the build took 3.6 s) and genus 3 through
# degree 6 (335923; 0.4 s).  Beyond it, genus 2 at degree 9 (1.4M) took 27 s
# and 3.6 GiB to build, and the count grows by a factor 2g with each degree.
MAX_MONOMIALS = 400_000


def _check_size(genus: int, degree: int) -> None:
    """Refuse a genus and degree whose monomial count exceeds MAX_MONOMIALS.

    The count (dim**(N+2) - 1) / (dim - 1) is compared by its logarithm, so
    an absurd degree is refused at once instead of being raised to a power."""
    if genus < 1 or degree < 0:
        return  # invalid on its own; the context constructor says why
    dim = 2 * genus
    log_count = (degree + 2) * log10(dim) - log10(dim - 1)
    if log_count > log10(MAX_MONOMIALS):
        raise ValueError(
            f"genus {genus} at degree {degree} spans about 10^{log_count:.1f} "
            f"monomials (the sum of (2g)^k for k <= degree + 1), above the "
            f"limit of {MAX_MONOMIALS}"
        )


def _boundary_value(ctx: AlgebraContext, logs) -> Tensor:
    """theta(zeta) from raw logs, grouped handle by handle."""
    out = one_tensor(ctx)
    for i in range(ctx.genus):
        ea = exp(logs[2 * i])
        eb = exp(logs[2 * i + 1])
        handle = ea * eb * exp(-logs[2 * i]) * exp(-logs[2 * i + 1])
        out = out * handle
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
    if seed.partial:
        raise ValueError("partial expansion cannot seed the builder")
    logs = [truncate(t, work_ctx) for t in seed.logs]
    for i, t in enumerate(logs):
        if not is_lie(t):
            raise ValueError(f"seed is not group-like: log of {gen_name(i)} is not Lie")
    omega = symplectic_form(work_ctx)
    for m in range(3, truncation + 2):
        pass_ctx = AlgebraContext(genus, m)
        defect = log(_boundary_value(pass_ctx, [truncate(t, pass_ctx) for t in logs]))
        defect = defect - truncate(omega, pass_ctx)
        blocks, den = scaled_terms(defect)
        if any(p < m for p in blocks):
            # the previous passes cancelled every lower degree; a leftover
            # means the kernel miscomputed, not that the input was bad
            raise ArithmeticError(f"defect below degree {m} survived pass {m}")
        if not defect:
            continue
        if not is_lie(defect):
            raise ArithmeticError(f"degree-{m} defect failed the Lie certificate")
        # a Lie defect sum_x X_x t_x equals (1/m) sum_x [X_x, Phi(t_x)]
        # (Dynkin); each term is cancelled through the partner generator of
        # its first letter, with sign (partner . X_x)
        for x, tail in _by_first(blocks[m], ctx.dim ** (m - 1)).items():
            bucket = _phi_block(tail, m - 1, ctx.dim)
            if x % 2 == 0:
                bucket = {k: -c for k, c in bucket.items()}
            logs[x ^ 1] = logs[x ^ 1] + tensor_from_scaled(work_ctx, {m - 1: bucket}, den * m)
    return Expansion(ctx, [truncate(t, ctx) for t in logs], kind="built")


# -- connecting automorphisms ------------------------------------------------


class ConnectingAutomorphism:
    """The filtered algebra automorphism U with U(theta1(x)) = theta2(x).

    Stored through its values on H (a substitution endomorphism); both the
    per-degree components u_k and the logarithm restricted to H read off
    from those values.
    """

    __slots__ = ("endo",)

    def __init__(self, endo: Endomorphism):
        self.endo = endo

    @property
    def ctx(self) -> AlgebraContext:
        return self.endo.ctx

    def apply(self, t: Tensor) -> Tensor:
        return self.endo.apply(t)

    def h_values(self) -> tuple:
        return self.endo.h_values

    def u_component(self, k: int) -> list:
        """u_k(X_j) for each basis vector: the degree-(k+1) part of U on H."""
        if not 1 <= k + 1 <= self.ctx.truncation:
            raise ValueError(f"component {k} out of range")
        return [graded_part(v, k + 1) for v in self.endo.h_values]

    def log_h_values(self) -> list:
        return self.endo.log_h_values()

    def is_identity(self) -> bool:
        return all(
            v == basis_tensor(self.ctx, j) for j, v in enumerate(self.endo.h_values)
        )


def connecting_automorphism(theta1: Expansion, theta2: Expansion) -> ConnectingAutomorphism:
    """Solve U o theta1 = theta2 on generators for U's values on H."""
    if theta1.ctx != theta2.ctx:
        raise ValueError("expansions must share genus and truncation")
    if theta1.partial or theta2.partial:
        raise ValueError("partial expansions have no connecting automorphism")
    ctx = theta1.ctx
    one = one_tensor(ctx)
    sources = [evaluate(theta1, generator_word(ctx.genus, i)) - one for i in range(ctx.dim)]
    targets = [evaluate(theta2, generator_word(ctx.genus, i)) - one for i in range(ctx.dim)]
    values = solve_generator_images(ctx, sources, targets)
    return ConnectingAutomorphism(Endomorphism(ctx, values))


# -- serialization -----------------------------------------------------------


def expansion_to_json(theta: Expansion) -> dict:
    return {
        "genus": theta.genus,
        "truncation": theta.truncation,
        "kind": theta.kind,
        "generators": [
            {"name": gen_name(i), "log": tensor_to_json(t)}
            for i, t in enumerate(theta.logs)
            if t is not None
        ],
    }


def expansion_from_json(obj: dict) -> Expansion:
    if not isinstance(obj, dict):
        raise ValueError("expansion JSON must be an object")
    for field in ("genus", "truncation", "kind", "generators"):
        if field not in obj:
            raise ValueError(f"expansion JSON missing field {field!r}")
    ctx = AlgebraContext(obj["genus"], obj["truncation"])
    kind = obj["kind"]
    if not isinstance(obj["generators"], list):
        raise ValueError("expansion JSON 'generators' must be a list")
    logs = [None] * ctx.dim
    seen = set()
    for entry in obj["generators"]:
        if not isinstance(entry, dict) or "log" not in entry:
            raise ValueError(f"generator entry must be an object with 'name' and 'log': {entry!r}")
        name = entry.get("name")
        index = _gen_index(ctx, name)
        if index in seen:
            raise ValueError(f"duplicate generator {name!r} in expansion JSON")
        seen.add(index)
        logs[index] = tensor_from_json(entry["log"], ctx)
    return Expansion(ctx, logs, kind=kind)


def _gen_index(ctx: AlgebraContext, name) -> int:
    return parse_name(
        name,
        ctx.genus,
        "ab",
        "unknown generator name {name}",
        "generator {name} out of range for genus {genus}",
    )[0]
