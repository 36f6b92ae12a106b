"""Filtered algebra endomorphisms given by their values on H.

An endomorphism U of the truncated tensor algebra that maps H into T-hat_1
is determined by the 2g values U(X_j) and applied over tails: the tail of t
under a prefix w, t_w = sum of c_(wv) v over the monomials wv of t, has
U(t_w) = c_w + sum_j U(X_j) U(t_(w X_j)), needed only up to degree N - |w|.
Connecting automorphisms between Magnus expansions and total Johnson maps
are both such a U, and both are solved by ``expansion.intertwiner`` from
generator-image equations U(s_i) = v_i with s_i = theta(x_i) - 1, one
degree at a time (``solve_generator_images``).  The solve runs through the
truncation of its context; a caller that needs only low degrees solves in
an expansion restricted there (``expansion.restrict``).  No log of U is
taken: U - 1 raises filtration, so the ``connecting`` check tests U itself.
"""

from __future__ import annotations

from .tensor import (
    AlgebraContext,
    Tensor,
    add_block_product,
    basis_tensor,
    common_scaled,
    graded_part,
    scaled_terms,
    tensor_from_scaled,
    truncate,
)


class Endomorphism:
    """Substitution endomorphism, stored by its values on the basis of H;
    ``_table`` holds them in the form ``apply`` reads, made on the first apply."""

    __slots__ = ("ctx", "h_values", "_table")

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
        self._table = None

    def apply(self, t: Tensor) -> Tensor:
        """Image of an arbitrary tensor over its tails, longest prefixes
        first, on blocks over vden**N (vden the values' common denominator),
        reduced once."""
        if t.ctx != self.ctx:
            raise ValueError("context mismatch")
        cap, dim = self.ctx.truncation, self.ctx.dim
        if self._table is None:  # each value's blocks, ascending in degree, over vden
            vden, scaled = common_scaled(self.h_values)
            self._table = vden, [sorted(vb.items()) for vb in scaled]
        vden, values = self._table
        blocks, den = scaled_terms(t)
        tails = {}  # prefix code -> U(tail) as blocks over vden**(N - length)
        for length in range(max(blocks, default=0), -1, -1):
            room = cap - length
            scale = vden**room
            images = {w: {0: {0: c * scale}} for w, c in blocks.get(length, {}).items()}
            for code, image in tails.items():
                prefix, j = divmod(code, dim)
                acc = images.setdefault(prefix, {})
                image = sorted(image.items())
                for q, value in values[j]:
                    for r, block in image:
                        if q + r > room:
                            break
                        add_block_product(acc, q + r, value, block, dim**r)
            tails = images
        return tensor_from_scaled(self.ctx, tails.get(0, {}), den * vden**cap)


def solve_generator_images(ctx: AlgebraContext, sources, targets):
    """Solve U(s_i) = v_i for the H-values of a substitution endomorphism.

    ``sources`` and ``targets`` are tensors in T-hat_1 with the sources
    unit-triangular (s_i = X_i + higher).  Returns the list e_j = U(X_j).
    The linear system cannot be inconsistent: degree p of the equation
    reads e_i|_p = v_i|_p - [U(s_i - X_i)]_p and the right side only needs
    e-parts of degree < p, so the solution exists, is unique, and is found
    in one sweep of e_i <- v_i - U(s_i - X_i), truncated at p = 2, ..., N.
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
        # truncated at p, so early passes stay cheap; up to degree p,
        # U(s_i - X_i) reads only the e_j below p, which are already solved
        pass_ctx = AlgebraContext(ctx.genus, p)
        endo = Endomorphism(pass_ctx, [truncate(t, pass_ctx) for t in e])
        e = [truncate(v, pass_ctx) - endo.apply(truncate(r, pass_ctx)) for v, r in zip(vals, rests)]
    return e
