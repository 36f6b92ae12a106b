"""Cyclic symmetrization operators and the necklace bracket.

nu rotates a monomial one step to the left (X_1 X_2 ... X_p -> X_2 ... X_p X_1),
N sums the p rotations of a degree-p monomial (and kills degree 0), and
N-hat is the degreewise normalization (1/p) N, so N-hat restricts to the
identity on the image of N.  The image of N inside T-hat_1 is exactly the
nu-invariant part, and under the duality of the derivation module it is the
algebra of derivations killing the symplectic form; the necklace bracket below
writes the derivation commutator directly on nu-invariant tensors.
"""

from __future__ import annotations

from math import lcm

from .tensor import Tensor, scaled_terms, tensor_from_scaled


def _rotations_into(out: dict, mono: tuple, coeff: int) -> None:
    """Add coeff to each of the p rotations of a degree-p monomial."""
    p = len(mono)
    doubled = mono + mono
    get = out.get
    for shift in range(p):
        key = doubled[shift : shift + p]
        out[key] = get(key, 0) + coeff


def nu(t: Tensor) -> Tensor:
    """Left rotation, monomial-wise; identity on degrees 0 and 1."""
    num, den = scaled_terms(t)
    out = {}
    for mono, coeff in num.items():
        key = mono[1:] + mono[:1] if len(mono) > 1 else mono
        out[key] = out.get(key, 0) + coeff
    return tensor_from_scaled(t.ctx, out, den)


def cyclic_n(t: Tensor) -> Tensor:
    """N: degree-p part goes to the sum of its p rotations; degree 0 dies."""
    num, den = scaled_terms(t)
    out = {}
    for mono, coeff in num.items():
        if mono:
            _rotations_into(out, mono, coeff)
    return tensor_from_scaled(t.ctx, out, den)


def cyclic_n_hat(t: Tensor) -> Tensor:
    """N-hat: degreewise (1/p) N; the identity on the image of N."""
    num, den = scaled_terms(t)
    common = lcm(*{len(m) for m in num if m})
    out = {}
    for mono, coeff in num.items():
        if mono:
            _rotations_into(out, mono, coeff * (common // len(mono)))
    return tensor_from_scaled(t.ctx, out, den * common)


def is_nu_invariant(t: Tensor) -> bool:
    return nu(t) == t


def necklace_bracket(u: Tensor, v: Tensor) -> Tensor:
    """Bracket of nu-invariant tensors, by the cyclic double-sum formula

        [N(x), N(y)] = - sum_{i,j} (x_i . y_j)
                         N(x_{i+1}..x_n x_1..x_{i-1} y_{j+1}..y_m y_1..y_{j-1})

    extended bilinearly over homogeneous parts (u = N(u_p / p) degreewise).
    Inputs must be nu-invariant in every degree; degree-1 inputs are allowed
    and give degree-lowering derivations.  Equals the commutator of the
    corresponding derivations, which the tests use as an oracle.
    """
    if u.ctx != v.ctx:
        raise ValueError("context mismatch")
    ctx = u.ctx
    for name, t in (("first", u), ("second", v)):
        if t.coefficient(()):
            raise ValueError(f"necklace_bracket: {name} input has a constant term")
        if not is_nu_invariant(t):
            raise ValueError(f"necklace_bracket: {name} input is not nu-invariant")
    cap = ctx.truncation
    nu_, du = scaled_terms(u)
    nv, dv = scaled_terms(v)
    # weights 1/(n m) over the degree pairs present, on one common denominator
    degrees_v = {len(y) for y in nv}
    common = lcm(*{len(x) * m for x in nu_ for m in degrees_v})
    out = {}
    for x, cx in nu_.items():
        n = len(x)
        for y, dy in nv.items():
            m = len(y)
            if n + m - 2 > cap:
                continue
            weight = cx * dy * (common // (n * m))
            for i in range(n):
                xi = x[i]
                # partner index under the symplectic pairing: A_k <-> B_k
                partner = xi ^ 1
                x_rest = x[i + 1 :] + x[:i]
                for j in range(m):
                    if y[j] != partner:
                        continue
                    word = x_rest + y[j + 1 :] + y[:j]
                    if not word:
                        continue  # N kills degree 0
                    # -(x_i . y_j): -(A_k . B_k) = -1, -(B_k . A_k) = +1
                    _rotations_into(out, word, weight if xi % 2 else -weight)
    return tensor_from_scaled(ctx, out, du * dv * common)
