"""Cyclic symmetrization operators and the necklace bracket.

nu rotates a monomial one step to the left (X_1 X_2 ... X_p -> X_2 ... X_p X_1),
N sums the p rotations of a degree-p monomial (and kills degree 0), and
N-hat is the degreewise normalization (1/p) N, so N-hat restricts to the
identity on the image of N.  The image of N inside T-hat_1 is exactly the
nu-invariant part, and under the duality of the derivation module it is the
algebra of derivations killing the symplectic form; the necklace bracket below
writes the derivation commutator directly on nu-invariant tensors.

All four work on monomial codes (see ``twistlog.tensor``).  N is computed
per necklace: the coefficients of the monomials in one rotation orbit are
summed onto the orbit's least code, and each of the orbit's |O| distinct
rotations then gets that sum times p/|O|, since the p rotations of any
member hit each element of the orbit p/|O| times.
"""

from __future__ import annotations

from math import lcm

from .tensor import Tensor, scaled_terms, tensor_from_scaled


def _necklace_sums(sums: dict, block: dict, p: int, dim: int, weight: int = 1) -> None:
    """Add weight * coeff onto the least rotation of each degree-p code."""
    top = dim ** (p - 1)
    get = sums.get
    for x, c in block.items():
        best = r = x
        for _ in range(p - 1):
            r = (r % top) * dim + r // top
            if r < best:
                best = r
        sums[best] = get(best, 0) + c * weight


def _necklaces(sums: dict, p: int, dim: int) -> dict:
    """N of the degree-p codes whose orbit sums are ``sums``."""
    top = dim ** (p - 1)
    out = {}
    for rep, s in sums.items():
        if not s:
            continue
        orbit = [rep]
        r = (rep % top) * dim + rep // top
        while r != rep:
            orbit.append(r)
            r = (r % top) * dim + r // top
        out.update(dict.fromkeys(orbit, s * (p // len(orbit))))
    return out


def nu(t: Tensor) -> Tensor:
    """Left rotation, monomial-wise; identity on degrees 0 and 1."""
    blocks, den = scaled_terms(t)
    dim = t.ctx.dim
    out = {}
    for p, block in blocks.items():
        if p > 1:
            top = dim ** (p - 1)
            block = {(x % top) * dim + x // top: c for x, c in block.items()}
        out[p] = block
    return tensor_from_scaled(t.ctx, out, den)


def cyclic_n(t: Tensor) -> Tensor:
    """N: degree-p part goes to the sum of its p rotations; degree 0 dies."""
    blocks, den = scaled_terms(t)
    dim = t.ctx.dim
    out = {}
    for p, block in blocks.items():
        if p:
            sums = {}
            _necklace_sums(sums, block, p, dim)
            out[p] = _necklaces(sums, p, dim)
    return tensor_from_scaled(t.ctx, out, den)


def cyclic_n_hat(t: Tensor) -> Tensor:
    """N-hat: degreewise (1/p) N; the identity on the image of N."""
    blocks, den = scaled_terms(t)
    dim = t.ctx.dim
    common = lcm(*(p for p in blocks if p))
    out = {}
    for p, block in blocks.items():
        if p:
            sums = {}
            _necklace_sums(sums, block, p, dim, common // p)
            out[p] = _necklaces(sums, p, dim)
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
    cap, dim = ctx.truncation, ctx.dim
    bu, du = scaled_terms(u)
    bv, dv = scaled_terms(v)
    # weights 1/(n m) over the degree pairs present, on one common denominator
    common = lcm(*(n * m for n in bu for m in bv))
    sums = {}  # degree -> orbit sums
    for n, xs in bu.items():
        top_n = dim ** (n - 1)
        for m, ys in bv.items():
            deg = n + m - 2
            if deg > cap or not deg:
                continue  # above the truncation, or killed by N
            top_m = dim ** (m - 1)
            words = {}
            for x, cx in xs.items():
                r = x
                for _ in range(n):
                    # rotate x_i to the end: x_{i+1}..x_n x_1..x_i
                    r = (r % top_n) * dim + r // top_n
                    xi, x_rest = r % dim, r // dim
                    partner = xi ^ 1  # A_k <-> B_k under the pairing
                    # -(x_i . y_j): -(A_k . B_k) = -1, -(B_k . A_k) = +1
                    sign = cx if xi % 2 else -cx
                    head = x_rest * top_m
                    for y, dy in ys.items():
                        s = y
                        for _ in range(m):
                            # likewise y_j to the end, for each j
                            s = (s % top_m) * dim + s // top_m
                            if s % dim == partner:
                                key = head + s // dim
                                words[key] = words.get(key, 0) + sign * dy
            level = sums.setdefault(deg, {})
            _necklace_sums(level, words, deg, dim, common // (n * m))
    out = {deg: _necklaces(level, deg, dim) for deg, level in sums.items()}
    return tensor_from_scaled(ctx, out, du * dv * common)
