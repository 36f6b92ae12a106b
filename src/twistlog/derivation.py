"""Derivations of the truncated tensor algebra, and the omega-ideal quotient.

A derivation is determined by its values on H and extended by the Leibniz
rule.  Poincare duality identifies H with its dual, so a tensor t with zero
constant term also names a derivation: the monomial X u acts by
Y -> (Y . X) u, summed over the terms of t.  Both views are kept exactly:
``values`` is the source of truth, the defining tensor round-trips through
to_tensor / from_tensor without loss.

The omega ideal, the two-sided ideal generated by omega, is decided by
rewriting: every tensor reduces to a unique normal form modulo the ideal.
"""

from __future__ import annotations

import heapq
from math import lcm

from .rationals import Rat
from .tensor import (
    AlgebraContext,
    Tensor,
    graded_part,
    scaled_terms,
    symplectic_form,
    tensor_from_json,
    tensor_from_scaled,
    tensor_to_json,
    zero_tensor,
)

_FACTORIALS = [1]


def _factorial(n: int) -> int:
    while len(_FACTORIALS) <= n:
        _FACTORIALS.append(_FACTORIALS[-1] * len(_FACTORIALS))
    return _FACTORIALS[n]


class Derivation:
    """Derivation of the tensor algebra, stored by its values on H."""

    __slots__ = ("ctx", "values")

    def __init__(self, ctx: AlgebraContext, values):
        values = tuple(values)
        if len(values) != ctx.dim:
            raise ValueError(f"expected {ctx.dim} values on H")
        for v in values:
            if v.ctx != ctx:
                raise ValueError("context mismatch in derivation values")
        self.ctx = ctx
        self.values = values

    def __eq__(self, other):
        return (
            isinstance(other, Derivation)
            and self.ctx == other.ctx
            and self.values == other.values
        )

    def __bool__(self):
        return any(self.values)

    def __add__(self, other):
        self._check_same(other)
        return Derivation(self.ctx, [u + v for u, v in zip(self.values, other.values)])

    def __sub__(self, other):
        self._check_same(other)
        return Derivation(self.ctx, [u - v for u, v in zip(self.values, other.values)])

    def __neg__(self):
        return Derivation(self.ctx, [-v for v in self.values])

    def scale(self, scalar):
        return Derivation(self.ctx, [v.scale(scalar) for v in self.values])

    def _check_same(self, other):
        if not isinstance(other, Derivation) or other.ctx != self.ctx:
            raise ValueError("derivation context mismatch")

    def __repr__(self):
        return f"Derivation(genus={self.ctx.genus}, truncation={self.ctx.truncation})"


def from_tensor(t: Tensor) -> Derivation:
    """Derivation named by a tensor: X u acts as Y -> (Y . X) u.

    Only the partner basis vector pairs with a monomial's first letter: a
    leading A_i contributes to the value on B_i with sign (B_i.A_i) = -1,
    a leading B_i to the value on A_i with sign (A_i.B_i) = +1.
    """
    if t.coefficient(()):
        raise ValueError("derivation tensor must have zero constant term")
    ctx = t.ctx
    blocks, den = scaled_terms(t)
    buckets = [{} for _ in range(ctx.dim)]
    for p, block in blocks.items():
        top = ctx.dim ** (p - 1)
        for x, coeff in block.items():
            first, tail = divmod(x, top)
            target = buckets[first ^ 1].setdefault(p - 1, {})
            target[tail] = -coeff if first % 2 == 0 else coeff
    return Derivation(ctx, [tensor_from_scaled(ctx, b, den) for b in buckets])


def to_tensor(d: Derivation) -> Tensor:
    """Inverse of from_tensor: sum_i B_i D(A_i) - A_i D(B_i)."""
    ctx = d.ctx
    scaled = [scaled_terms(v) for v in d.values]
    den = lcm(*(den for _, den in scaled))
    out = {}
    for j, (blocks, vden) in enumerate(scaled):
        # the value on A_i is prefixed by B_i, the value on B_i by -A_i
        head, factor = j ^ 1, (den // vden) * (1 if j % 2 == 0 else -1)
        for q, block in blocks.items():
            if q + 1 <= ctx.truncation:
                lead = head * ctx.dim**q
                target = out.setdefault(q + 1, {})
                for x, coeff in block.items():
                    target[lead + x] = coeff * factor
    return tensor_from_scaled(ctx, out, den)


def graded_component(d: Derivation, k: int) -> Derivation:
    """The part of d raising degree by exactly k - 1 (tensor view degree k)."""
    if k < 1:
        raise ValueError(f"derivation component {k} out of range")
    if k - 1 > d.ctx.truncation:
        return Derivation(d.ctx, [zero_tensor(d.ctx)] * d.ctx.dim)
    return Derivation(d.ctx, [graded_part(v, k - 1) for v in d.values])


def apply(d: Derivation, t: Tensor) -> Tensor:
    """Extend d to the whole algebra by the Leibniz rule; constants die,
    products above the truncation are dropped."""
    if t.ctx != d.ctx:
        raise ValueError("context mismatch")
    cap, dim = d.ctx.truncation, d.ctx.dim
    blocks, den = scaled_terms(t)
    scaled = [scaled_terms(v) for v in d.values]
    vden = lcm(*(vd for _, vd in scaled))
    # each value's blocks, ascending in degree, on the common denominator vden
    values = [
        [(q, dim**q, [(v, c * (vden // vd)) for v, c in b.items()]) for q, b in sorted(vb.items())]
        for vb, vd in scaled
    ]
    out = {}
    for p, block in blocks.items():
        room = cap - p + 1
        for x, coeff in block.items():
            for k in range(p):
                # x = prefix . letter . suffix, the suffix of degree p-1-k
                after = dim ** (p - 1 - k)
                prefix, rest = divmod(x, after * dim)
                letter, suffix = divmod(rest, after)
                for q, shift, items in values[letter]:
                    if q > room:
                        break
                    acc = out.get(p - 1 + q)
                    if acc is None:
                        acc = out[p - 1 + q] = {}
                    get = acc.get
                    base = prefix * shift * after + suffix
                    for v, vc in items:
                        key = base + v * after
                        acc[key] = get(key, 0) + coeff * vc
    return tensor_from_scaled(d.ctx, out, den * vden)


def commutator(d1: Derivation, d2: Derivation) -> Derivation:
    """[d1, d2] = d1 d2 - d2 d1, again a derivation, via values on H."""
    d1._check_same(d2)
    values = [
        apply(d1, d2.values[j]) - apply(d2, d1.values[j]) for j in range(d1.ctx.dim)
    ]
    return Derivation(d1.ctx, values)


def is_symplectic_derivation(d: Derivation) -> bool:
    """True iff d kills the symplectic form."""
    return not apply(d, symplectic_form(d.ctx))


def exp_derivation(d: Derivation, t: Tensor, max_terms: int | None = None) -> Tensor:
    """sum_k d^k(t) / k!, accumulated until a term vanishes exactly.

    Termination is certified at runtime, never assumed: a derivation with a
    degree-preserving part need not be nilpotent, so after ``max_terms``
    nonzero terms (default (N+1)(N+2), beyond the worst case for twist
    invariants) the sum is abandoned with an error.
    """
    if t.ctx != d.ctx:
        raise ValueError("context mismatch")
    if max_terms is None:
        n = d.ctx.truncation
        max_terms = (n + 1) * (n + 2)
    if max_terms < 1:
        raise ValueError("max_terms must be >= 1")
    out = t
    term = t
    for k in range(1, max_terms + 1):
        term = apply(d, term)
        if not term:
            return out
        out = out + term.scale(Rat(1, _factorial(k)))
    raise ArithmeticError(
        f"exp_derivation did not terminate within {max_terms} terms"
    )


# -- the omega ideal ----------------------------------------------------------


class OmegaIdealContext:
    """The rewriting rule A_1 B_1 -> B_1 A_1 - sum_{i>=2} [A_i, B_i] that
    decides the two-sided ideal generated by omega.

    ``rule`` lists the codes of omega's other monomials with their
    coefficients in the right-hand side, each +1 or -1.  The word A_1 B_1
    overlaps no copy of itself, so the rule has no ambiguities and, by
    Bergman's diamond lemma, the words avoiding A_1 B_1 form a basis of the
    quotient: the normal form is unique and the ideal is exactly its kernel.
    """

    __slots__ = ("ctx", "rule")

    def __init__(self, ctx: AlgebraContext):
        self.ctx = ctx
        block = scaled_terms(symplectic_form(ctx))[0][2]
        # A_1 B_1 has code 0 * dim + 1
        self.rule = tuple((code, -c) for code, c in block.items() if code != 1)


def omega_ideal_reduce(t: Tensor, ideal: OmegaIdealContext) -> Tensor:
    """Canonical representative of t modulo the omega ideal: its normal form
    under the rule, which avoids the word A_1 B_1.

    Each degree is rewritten in ascending code order, always at the leftmost
    A_1 B_1.  The right-hand side's words are greater than A_1 B_1, so each
    rewrite only feeds strictly greater codes, and a code's coefficient is
    final when it is popped."""
    if t.ctx != ideal.ctx:
        raise ValueError("context mismatch")
    dim = t.ctx.dim
    blocks, den = scaled_terms(t)
    out = {}
    for n, block in blocks.items():
        # the weights of the letter pairs, leftmost pair first
        weights = [dim**k for k in reversed(range(n - 1))]
        rem = dict(block)  # zeros stay in, so each code enters the heap once
        heap = list(rem)
        heapq.heapify(heap)
        acc = out[n] = {}
        while heap:
            x = heapq.heappop(heap)
            coeff = rem.pop(x)
            if not coeff:
                continue
            after = next((w for w in weights if x // w % (dim * dim) == 1), None)
            if after is None:
                acc[x] = coeff
                continue
            for r, c in ideal.rule:
                # the pair A_1 B_1 (code 1) becomes the pair with code r
                y = x + (r - 1) * after
                prev = rem.get(y)
                if prev is None:
                    rem[y] = coeff * c
                    heapq.heappush(heap, y)
                else:
                    rem[y] = prev + coeff * c
    return tensor_from_scaled(t.ctx, out, den)


def omega_ideal_equal(t1: Tensor, t2: Tensor, ideal: OmegaIdealContext) -> bool:
    return not omega_ideal_reduce(t1 - t2, ideal)


# -- serialization ------------------------------------------------------------


def derivation_to_json(d: Derivation) -> dict:
    """Tensor-view JSON.  Exact whenever the defining tensor fits the
    truncation, which holds for every derivation built by from_tensor."""
    obj = tensor_to_json(to_tensor(d))
    obj["view"] = "tensor"
    return obj


def derivation_from_json(obj: dict, ctx: AlgebraContext | None = None) -> Derivation:
    if not isinstance(obj, dict) or obj.get("view") != "tensor":
        raise ValueError('derivation JSON must be tagged {"view": "tensor"}')
    rest = {k: v for k, v in obj.items() if k != "view"}
    return from_tensor(tensor_from_json(rest, ctx))
