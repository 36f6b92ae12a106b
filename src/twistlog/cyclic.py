"""Cyclic symmetrization operators and the necklace bracket.

nu rotates a monomial one step to the left (X_1 X_2 ... X_p -> X_2 ... X_p X_1),
and N sums the p rotations of a degree-p monomial (and kills degree 0).  The
image of N inside T-hat_1 is exactly the nu-invariant part, and under the
duality of the derivation module it is the algebra of derivations killing the
symplectic form; the necklace bracket below writes the derivation commutator
directly on nu-invariant tensors.

All of them work on monomial codes (see ``twistlog.tensor``).  N needs only
one sum per necklace, that is, per rotation orbit O: the p rotations of any
member hit each element of O p/|O| times, so N gives every member of O the
sum of the coefficients found on O, times p/|O|.  So N, the necklace
bracket and (1/2) N(ell ell) in ``twistlog.johnson`` add each product of
codes straight into the sum of its orbit, keyed by the orbit's least code
(``add_product``, whose loop the square's diagonal runs inline), and never
build the tensor that N is applied to.
``necklace_tensor`` writes the sums out: it weights each by p/|O|, takes
one gcd over the weighted sums and the denominator, and gives each divided
sum to the orbit's members.

Orbit slots.  ``orbits(dim, p)`` holds one slot per degree-p code,
allocated on first use and kept for the life of the process.  A slot holds
the least code of its code's orbit, or None until some caller has walked
that orbit.  A miss walks the one orbit: it writes the orbit's member tuple
(keyed by the least code, in rotation order from it) first, then every
member's slot, so a filled slot always has its members.  These writes are
the same whichever caller makes them, so concurrent callers need no lock,
and evaluation still needs no coordination.  A degree whose code space
holds more than ``MAX_MONOMIALS`` codes is refused with ValueError before
anything is allocated.
"""

from __future__ import annotations

from math import gcd

from .tensor import (
    MAX_MONOMIALS,
    Tensor,
    scaled_terms,
    tensor_from_canonical,
    tensor_from_scaled,
)


class _Orbits:
    """The rotation orbits of the degree-p codes over dim letters, filled
    lazily: ``slots[x]`` is the least code of x's orbit or None, and
    ``members[least]`` the orbit's codes, least first."""

    __slots__ = ("slots", "members", "dim", "top")

    def __init__(self, dim: int, p: int):
        self.slots = [None] * dim**p
        self.members = {}
        self.dim = dim
        self.top = dim ** (p - 1)

    def fill(self, x: int) -> int:
        """Walk the orbit of code x, record it, and return its least code."""
        dim, top = self.dim, self.top
        orbit = [x]
        r = (x % top) * dim + x // top
        while r != x:
            orbit.append(r)
            r = (r % top) * dim + r // top
        i = orbit.index(min(orbit))
        members = tuple(orbit[i:] + orbit[:i])
        least = members[0]
        self.members[least] = members
        slots = self.slots
        for r in members:
            slots[r] = least
        return least

    def add_product(self, acc: dict, left, right, shift: int) -> None:
        """Add c d into ``acc[least code of the orbit of a * shift + b]`` for
        each (a, c) in ``left`` and (b, d) in ``right``: the sums over the
        orbits of the product's codes, ``shift`` being dim to the power of
        the right codes' degree."""
        slots, fill, get = self.slots, self.fill, acc.get
        for a, c in left:
            base = a * shift
            for b, d in right:
                k = base + b
                o = slots[k]
                if o is None:
                    o = fill(k)
                acc[o] = get(o, 0) + c * d


_ORBITS = {}  # (dim, degree) -> _Orbits


def orbits(dim: int, p: int) -> _Orbits:
    """The orbit slots of the degree-p codes over dim letters (p >= 1);
    a code space above MAX_MONOMIALS is refused with ValueError."""
    table = _ORBITS.get((dim, p))
    if table is None:
        if dim**p > MAX_MONOMIALS:
            raise ValueError(
                f"N in degree {p} over {dim} letters spans {dim}^{p} monomials, "
                f"above the limit of {MAX_MONOMIALS}"
            )
        table = _ORBITS.setdefault((dim, p), _Orbits(dim, p))
    return table


def necklace_tensor(ctx, sums: dict, den: int) -> Tensor:
    """The nu-invariant tensor whose coefficient on each code of an orbit O
    of degree p is p/|O| times the orbit's sum over den; ``sums`` maps each
    degree to {least code: sum}, the least codes taken from ``orbits``.
    Zero sums are dropped, and one gcd over the weighted sums and den
    reduces the result before it is written out."""
    dim = ctx.dim
    weighted = []
    g = den
    for p, acc in sums.items():
        members = orbits(dim, p).members
        block = {o: s * (p // len(members[o])) for o, s in acc.items() if s}
        if block:
            weighted.append((p, block, members))
            g = gcd(g, *block.values())
    out = {}
    for p, block, members in weighted:
        if g != 1:
            block = {o: v // g for o, v in block.items()}
        out[p] = {r: v for o, v in block.items() for r in members[o]}
    return tensor_from_canonical(ctx, out, den // g)


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
    sums = {}
    for p, block in blocks.items():
        if p:  # each code x as the product 1 x of a degree-0 code and x
            orbits(dim, p).add_product(sums.setdefault(p, {}), ((0, 1),), block.items(), 0)
    return necklace_tensor(t.ctx, sums, den)


def is_nu_invariant(t: Tensor) -> bool:
    return nu(t) == t


def necklace_bracket(u: Tensor, v: Tensor) -> Tensor:
    """Bracket of nu-invariant tensors, over the inputs' own codes:

        [u, v] = - sum_{x in u, y in v} c_x c_y (x_n . y_m)
                     N(x_1..x_{n-1} y_1..y_{m-1}),

    c_x being the coefficient of the code x = x_1..x_n in u.  This is the
    cyclic double sum over every pair of rotations, since the degree-n part
    of u is sum_O c_O (|O|/n) N(x_O) over its orbits O, and the n rotations
    of x_O run over O exactly n/|O| times; so it holds only for inputs that
    are nu-invariant in every degree, which is checked.  Degree-1 inputs are
    allowed and give degree-lowering derivations.  Equals the commutator of
    the corresponding derivations, which the tests use as an oracle.
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
    # each code of u, less its last letter x_n, filed under (n, x_n) with the
    # sign -(x_n . y_m) of its partner y_m (A_k <-> B_k): -(A_k . B_k) = -1,
    # -(B_k . A_k) = +1; each code of v, less y_m, under (m, partner of y_m)
    heads, tails = {}, {}
    for n, xs in bu.items():
        for x, c in xs.items():
            heads.setdefault((n, x % dim), []).append((x // dim, c if x % 2 else -c))
    for m, ys in bv.items():
        for y, d in ys.items():
            tails.setdefault((m, y % dim ^ 1), []).append((y // dim, d))
    sums = {}  # degree -> orbit sums, before N
    for (n, a), left in heads.items():
        for m in bv:
            deg = n + m - 2
            right = tails.get((m, a))
            if right and 0 < deg <= cap:  # within the truncation, not killed by N
                acc = sums.setdefault(deg, {})
                orbits(dim, deg).add_product(acc, left, right, dim ** (m - 1))
    return necklace_tensor(ctx, sums, du * dv)
