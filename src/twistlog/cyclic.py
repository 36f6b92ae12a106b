"""Cyclic symmetrization operators and the necklace bracket.

nu rotates a monomial one step to the left (X_1 X_2 ... X_p -> X_2 ... X_p X_1),
and N sums the p rotations of a degree-p monomial (and kills degree 0).  The
image of N inside T-hat_1 is exactly the nu-invariant part, and under the
duality of the derivation module it is the algebra of derivations killing the
symplectic form; the necklace bracket below writes the derivation commutator
directly on nu-invariant tensors.

All three work on monomial codes (see ``twistlog.tensor``).  N is one walk
per necklace: starting from any code not yet visited, the walk steps
through the rotations of its orbit O, sums the coefficients found there,
and gives each of the |O| distinct rotations that sum times p/|O|, since
the p rotations of any member hit each element of the orbit p/|O| times.
So N costs one rotation per orbit member and never looks for an orbit's
least code.  A code counts as visited once the output has an entry for it,
so the walk keeps no table beside its result.
"""

from __future__ import annotations

from math import lcm

from .tensor import Tensor, scaled_terms, tensor_from_scaled


def necklace_block(block: dict, p: int, dim: int) -> dict:
    """N of a block of degree-p codes, walking each orbit once.

    The result holds every rotation of every code in ``block``; an orbit
    whose coefficients cancel keeps its members with numerator 0, which
    marks them visited (``tensor_from_scaled`` drops them).  A fixed point
    (a power of one letter, every code of degree 1 among them) is its own
    orbit and takes p times its coefficient without a walk."""
    top = dim ** (p - 1)
    get = block.get
    out = {}
    for x, s in block.items():
        if x in out:
            continue
        r = (x % top) * dim + x // top
        if r == x:
            out[x] = s * p
            continue
        orbit = [x]
        while r != x:
            orbit.append(r)
            s += get(r, 0)
            r = (r % top) * dim + r // top
        s *= p // len(orbit)
        for r in orbit:
            out[r] = s
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
    out = {p: necklace_block(block, p, dim) for p, block in blocks.items() if p}
    return tensor_from_scaled(t.ctx, out, den)


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
    words = {}  # degree -> weighted words, before N
    for n, xs in bu.items():
        top_n = dim ** (n - 1)
        for m, ys in bv.items():
            deg = n + m - 2
            if deg > cap or not deg:
                continue  # above the truncation, or killed by N
            top_m = dim ** (m - 1)
            weight = common // (n * m)
            level = words.setdefault(deg, {})
            get = level.get
            for x, cx in xs.items():
                r = x
                for _ in range(n):
                    # rotate x_i to the end: x_{i+1}..x_n x_1..x_i
                    r = (r % top_n) * dim + r // top_n
                    xi, x_rest = r % dim, r // dim
                    partner = xi ^ 1  # A_k <-> B_k under the pairing
                    # -(x_i . y_j): -(A_k . B_k) = -1, -(B_k . A_k) = +1
                    sign = weight * (cx if xi % 2 else -cx)
                    head = x_rest * top_m
                    for y, dy in ys.items():
                        s = y
                        for _ in range(m):
                            # likewise y_j to the end, for each j
                            s = (s % top_m) * dim + s // top_m
                            if s % dim == partner:
                                key = head + s // dim
                                level[key] = get(key, 0) + sign * dy
    out = {deg: necklace_block(level, deg, dim) for deg, level in words.items()}
    return tensor_from_scaled(ctx, out, du * dv * common)
