"""Filtered algebra endomorphisms given by their values on H.

An endomorphism U of the truncated tensor algebra that maps H into T-hat_1
is determined by the 2g values U(X_j); on a monomial it acts by substituting
and multiplying, then extending linearly.  Connecting automorphisms between
Magnus expansions and total Johnson maps are both such a U, and both are
solved by ``expansion.intertwiner`` from generator-image equations
U(s_i) = v_i with s_i = theta(x_i) - 1.  The sources satisfy
s_i = X_i + (degree >= 2), which makes the system unit-triangular in
the degree: the degree-p part of U(s_i - X_i) only involves values of U on H
in degrees < p, so e_i = U(X_i) is solved one degree at a time.  The solve
runs through the truncation of its context; a caller that needs only low
degrees solves in an expansion restricted there (``expansion.restrict``).
"""

from __future__ import annotations

from .rationals import Rat
from .tensor import (
    AlgebraContext,
    Tensor,
    basis_tensor,
    graded_part,
    one_tensor,
    scaled_terms,
    truncate,
    zero_tensor,
)


class Endomorphism:
    """Substitution endomorphism, stored by its values on the basis of H."""

    __slots__ = ("ctx", "h_values")

    def __init__(self, ctx: AlgebraContext, h_values):
        h_values = tuple(h_values)
        if len(h_values) != ctx.dim:
            raise ValueError(f"expected {ctx.dim} values on H")
        for v in h_values:
            if v.ctx != ctx:
                raise ValueError("context mismatch in endomorphism values")
            if v.coefficient(()):
                raise ValueError("endomorphism must map H into T-hat_1")
        self.ctx = ctx
        self.h_values = h_values

    def apply(self, t: Tensor) -> Tensor:
        """Image of an arbitrary tensor: monomials become products of the
        H-values.  Prefix products are shared across the support."""
        if t.ctx != self.ctx:
            raise ValueError("context mismatch")
        values = self.h_values
        dim = self.ctx.dim
        blocks, den = scaled_terms(t)
        # (degree, code) of each prefix -> its product, built on demand
        cache = {(0, 0): one_tensor(self.ctx)}
        out = zero_tensor(self.ctx)
        for p, block in blocks.items():
            for x, coeff in block.items():
                prod = cache.get((p, x))
                if prod is None:
                    # walk down to the longest cached prefix, then back up
                    k = p - 1
                    while (k, x // dim ** (p - k)) not in cache:
                        k -= 1
                    prod = cache[k, x // dim ** (p - k)]
                    for j in range(k + 1, p + 1):
                        prefix = x // dim ** (p - j)
                        prod = prod * values[prefix % dim]
                        cache[j, prefix] = prod
                out = out + prod.scale(coeff)
        return out.scale(Rat(1, den))

    def log_h_values(self) -> list:
        """(log U)(X_j) for each basis vector, via the finite series
        log U = sum (-1)^{k-1} (U-1)^k / k; (U-1) raises filtration, so the
        series stops by the truncation."""
        out = []
        for j in range(self.ctx.dim):
            term = self.h_values[j] - basis_tensor(self.ctx, j)
            acc = term
            k = 1
            while term:
                k += 1
                term = self.apply(term) - term
                if term:
                    acc = acc + term.scale(Rat(1 if k % 2 else -1, k))
                if k > self.ctx.truncation + 1:
                    raise ArithmeticError("log series failed to terminate")
            out.append(acc)
        return out


def solve_generator_images(ctx: AlgebraContext, sources, targets):
    """Solve U(s_i) = v_i for the H-values of a substitution endomorphism.

    ``sources`` and ``targets`` are tensors in T-hat_1 with the sources
    unit-triangular (s_i = X_i + higher).  Returns the list e_j = U(X_j).
    The linear system cannot be inconsistent: degree p of the equation
    reads e_i|_p = v_i|_p - [U(s_i - X_i)]_p and the right side only needs
    e-parts of degree < p, so the solution exists, is unique, and is found
    in one sweep.
    """
    dim = ctx.dim
    if len(sources) != dim or len(targets) != dim:
        raise ValueError(f"expected {dim} sources and targets")
    rests = []
    vals = []
    for i, (s, v) in enumerate(zip(sources, targets)):
        s = truncate(s, ctx)
        v = truncate(v, ctx)
        if s.coefficient(()) or v.coefficient(()):
            raise ValueError("sources and targets must lie in T-hat_1")
        if graded_part(s, 1) != basis_tensor(ctx, i):
            raise ValueError(
                f"source {i} is not unit-triangular (degree-1 part must be X_{i})"
            )
        rests.append(s - graded_part(s, 1))
        vals.append(v)
    e = [graded_part(v, 1) for v in vals]
    for p in range(2, ctx.truncation + 1):
        # all arithmetic for the degree-p sweep happens truncated at p,
        # so early passes stay cheap at high truncations
        pass_ctx = AlgebraContext(ctx.genus, p)
        endo = Endomorphism(pass_ctx, [truncate(t, pass_ctx) for t in e])
        for i in range(dim):
            piece = graded_part(vals[i], p)
            if rests[i]:
                correction = graded_part(endo.apply(truncate(rests[i], pass_ctx)), p)
                piece = piece - truncate(correction, ctx)
            if piece:
                e[i] = e[i] + piece
    return e
