"""Truncated tensor algebra over the first homology of a genus-g surface.

H carries the symplectic basis A_1, B_1, ..., A_g, B_g, flat-indexed by the
fixed convention 2i-2 <-> A_i and 2i-1 <-> B_i.  A Tensor is a finite sparse
table mapping monomials (tuples of basis indices) to exact rationals; the
completed algebra is modelled by truncating every product at a hard degree
bound N carried by the ambient context.  Tensors are immutable values and
every operation is a pure function, so concurrent evaluation needs no
coordination.

Storage.  A monomial (i_1, ..., i_k) of degree k is coded by the base-dim
integer i_1 dim^(k-1) + ... + i_k, dim = 2g; the empty monomial is code 0 of
degree 0.  Codes are unique only within a degree, and within a degree code
order is tuple-lex order.  In this encoding the product of monomials of
degrees p and q is ``a * dim**q + b``, and the left rotation of a degree-p
monomial is ``(x % dim**(p-1)) * dim + x // dim**(p-1)``.  A tensor holds
per-degree blocks ``{degree: {code: numerator}}``: Python-int numerators
over one positive common denominator, with no zero numerator and no empty
block, kept canonical by gcd(den, *numerators) == 1 (den == 1 for the zero
tensor).  Every kernel operation works on these ints and reduces once per
result instead of once per term.

Products.  ``capped_product`` (``*`` at the truncation) takes the left
blocks in descending degree, so each output degree is built as a fresh dict
from its highest left block, mostly its largest, and the lower left blocks
are added into it.  Both the fresh and the accumulating pass put the larger
block innermost: a block times a unit is one pass, not one 1-term loop per
code, on whichever side the unit stands (a running word product times a
letter's small block, say), and a block times the unit block {0: 1} is a
plain dict copy.  Over den 1
a product needs no gcd pass either, which is why a word is evaluated in
graded integer coordinates: ``graded_scale`` (sigma_r, the degree-d part
times r**d) by a suitable integer makes every letter exponential an integer
tensor with constant term 1, and one sigma_{1/r} at the end of the word
gives back the canonical value.

``Tensor.terms`` is the read-only monomial -> Rat view of the same data,
decoded on first use; other modules that need the ints go through
``scaled_terms``, ``common_scaled`` and ``tensor_from_scaled`` (or
``tensor_from_canonical``, for blocks the caller has already reduced, as
N's orbit sums are in ``twistlog.cyclic``), through ``capped_product`` and
``add_block_product`` for products, through ``add_exact_quotient`` for
series summed over the ints, and through ``encode_monomial`` and
``decode_monomial`` for single codes.
"""

from __future__ import annotations

from itertools import permutations
from math import factorial, gcd, lcm
from types import MappingProxyType
from typing import Iterable

from .rationals import ONE, ZERO, Rat, rat_from_string, rat_to_string, ratio_to_string
from .words import gen_name, parse_name

Monomial = tuple  # tuple of basis indices; length is the tensor degree

# Largest monomial count that the builder, the built-in expansions, the
# fixture loader and expansion files accept (and the largest code space of
# one degree that N's orbit slots in ``twistlog.cyclic`` cover): the count
# sum(dim**k for k <= N+1) of the algebra one degree above the truncation N,
# where the builder and the loop invariant work.  It admits genus 2 through
# degree 8 (349525 monomials; the build took 3.6 s) and genus 3 through
# degree 6 (335923; 0.4 s).  Beyond it, genus 2 at degree 9 (1.4M) took 27 s
# and 3.6 GiB to build, and the count grows by a factor 2g with each degree.
MAX_MONOMIALS = 400_000


def _exact_int(value, what: str) -> int:
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


class AlgebraContext:
    """Genus, truncation bound, and the symplectic intersection form."""

    __slots__ = ("genus", "truncation", "dim")

    def __init__(self, genus: int, truncation: int):
        genus = _exact_int(genus, "genus")
        truncation = _exact_int(truncation, "truncation")
        if genus < 1:
            raise ValueError(f"genus must be >= 1, got {genus}")
        if truncation < 2:
            raise ValueError(f"truncation must be >= 2, got {truncation}")
        self.genus = genus
        self.truncation = truncation
        self.dim = 2 * genus

    def __eq__(self, other):
        return (
            isinstance(other, AlgebraContext)
            and self.genus == other.genus
            and self.truncation == other.truncation
        )

    def __hash__(self):
        return hash((self.genus, self.truncation))

    def __repr__(self):
        return f"AlgebraContext(genus={self.genus}, truncation={self.truncation})"

    def basis_name(self, index: int) -> str:
        self.check_index(index)
        return gen_name(index).upper()

    def basis_index(self, name: str) -> int:
        return parse_name(
            name,
            self.genus,
            "AB",
            "unknown basis vector {name}",
            "basis vector {name} out of range for genus {genus}",
        )[0]

    def check_index(self, index: int) -> None:
        if not 0 <= _exact_int(index, "basis index") < self.dim:
            raise ValueError(f"basis index {index} out of range for genus {self.genus}")


def intersection(ctx: AlgebraContext, x: int, y: int):
    """Intersection pairing on basis vectors: (A_i . B_i) = 1, antisymmetric,
    zero on all other basis pairs."""
    ctx.check_index(x)
    ctx.check_index(y)
    if x ^ 1 != y:  # not a partner pair A_i/B_i
        return Rat(0)
    return ONE if x % 2 == 0 else -ONE


# -- monomial codes ----------------------------------------------------------


def encode_monomial(mono: Iterable[int], dim: int) -> int:
    """Base-dim code of a monomial; trusted to have indices in range."""
    code = 0
    for i in mono:
        code = code * dim + i
    return code


def decode_monomial(code: int, degree: int, dim: int) -> tuple:
    """The degree-``degree`` monomial with base-dim code ``code``."""
    out = [0] * degree
    for k in range(degree - 1, -1, -1):
        code, out[k] = divmod(code, dim)
    return tuple(out)


# -- coefficients --------------------------------------------------------------


def _as_rat(value):
    """An exact rational from an int, a rational or a 'p/q' string; floats
    are refused, since their binary expansion is rarely what was meant, and
    so are bools."""
    if isinstance(value, (float, bool)):
        raise ValueError(
            f"{type(value).__name__} coefficient {value!r}: pass an int, a Rat or a 'p/q' string"
        )
    if isinstance(value, str):
        return rat_from_string(value)
    return value if isinstance(value, Rat) else Rat(value)


def _split(value) -> tuple:
    """(numerator, denominator) as Python ints, denominator positive."""
    if type(value) is int:
        return value, 1
    q = _as_rat(value)
    return q.numerator, q.denominator


def _scaled(ctx: AlgebraContext, blocks: dict, den: int) -> "Tensor":
    # trusted: codes valid, no zero numerators or empty blocks, den > 0,
    # canonical
    t = object.__new__(Tensor)
    t.ctx = ctx
    t._blocks = blocks
    t._den = den
    t._terms = None
    return t


def _common_factor(g: int, blocks: dict) -> int:
    """gcd of g and every numerator, stopping early once it is 1."""
    for block in blocks.values():
        if g == 1:
            break
        g = gcd(g, *block.values())
    return g


def _divided(blocks: dict, g: int) -> dict:
    return {d: {k: c // g for k, c in b.items()} for d, b in blocks.items()}


def _reduced(ctx: AlgebraContext, blocks: dict, den: int) -> "Tensor":
    # trusted: codes valid, no zero numerators or empty blocks, den > 0;
    # one gcd pass
    if not blocks:
        return _scaled(ctx, blocks, 1)
    g = _common_factor(den, blocks)
    if g != 1:
        blocks = _divided(blocks, g)
        den //= g
    return _scaled(ctx, blocks, den)


class Tensor:
    """Element of the tensor algebra truncated at the context's degree bound.

    ``terms`` maps monomials to nonzero rationals.  Tensors interoperate only
    when genus and truncation agree; arithmetic silently drops every product
    monomial of degree above the truncation.
    """

    __slots__ = ("ctx", "_blocks", "_den", "_terms")

    def __init__(self, ctx: AlgebraContext, terms: dict | None = None):
        dim = ctx.dim
        parts = {}
        if terms:
            for mono, coeff in terms.items():
                mono = tuple(mono)
                if len(mono) > ctx.truncation:
                    raise ValueError(
                        f"monomial of degree {len(mono)} exceeds truncation {ctx.truncation}"
                    )
                for idx in mono:
                    ctx.check_index(idx)
                p, q = _split(coeff)
                if p:
                    parts[len(mono), encode_monomial(mono, dim)] = (p, q)
        den = lcm(*(q for _, q in parts.values()))
        # reduced fractions over the lcm of their denominators are canonical
        blocks = {}
        for (d, code), (p, q) in parts.items():
            blocks.setdefault(d, {})[code] = p * (den // q)
        self.ctx = ctx
        self._blocks = blocks
        self._den = den
        self._terms = None

    @property
    def terms(self):
        """Read-only monomial -> Rat view, decoded once per tensor."""
        if self._terms is None:
            den, dim = self._den, self.ctx.dim
            self._terms = MappingProxyType({
                decode_monomial(code, d, dim): Rat(c, den)
                for d, block in self._blocks.items()
                for code, c in block.items()
            })
        return self._terms

    # -- queries ----------------------------------------------------------

    def __bool__(self):
        return bool(self._blocks)

    def __eq__(self, other):
        if isinstance(other, str):  # strings are coefficients, never tensors
            return NotImplemented
        if not isinstance(other, Tensor):
            try:
                other = scalar_tensor(self.ctx, other)
            except TypeError:  # not a scalar at all; floats still raise
                return NotImplemented
        return (
            self.ctx == other.ctx
            and self._den == other._den
            and self._blocks == other._blocks
        )

    def __hash__(self):
        if self._blocks.keys() <= {0}:  # a scalar equals its value, so hashes as it
            return hash(Rat(self._blocks.get(0, {0: 0})[0], self._den))
        return hash((
            self.ctx,
            self._den,
            frozenset((d, frozenset(b.items())) for d, b in self._blocks.items()),
        ))

    def coefficient(self, mono: Iterable[int]):
        mono = tuple(mono)
        for idx in mono:
            self.ctx.check_index(idx)
        block = self._blocks.get(len(mono))
        c = None if block is None else block.get(encode_monomial(mono, self.ctx.dim))
        return ZERO if c is None else Rat(c, self._den)

    # -- arithmetic --------------------------------------------------------

    def _check_same(self, other: "Tensor") -> None:
        if self.ctx != other.ctx:
            raise ValueError(f"context mismatch: {self.ctx} vs {other.ctx}")

    def __add__(self, other):
        if not isinstance(other, Tensor):
            other = scalar_tensor(self.ctx, other)
        self._check_same(other)
        # both sides over lcm(d1, d2) = d1 * f1 = d2 * f2
        g = gcd(self._den, other._den)
        f1, f2 = other._den // g, self._den // g
        out = {}
        for d, block in self._blocks.items():
            out[d] = {k: c * f1 for k, c in block.items()} if f1 != 1 else block
        for d, block in other._blocks.items():
            if f2 != 1:
                block = {k: c * f2 for k, c in block.items()}
            acc = out.get(d)
            if acc is None:
                out[d] = block
                continue
            acc = dict(acc) if f1 == 1 else acc  # never write into an input
            get = acc.get
            for k, c in block.items():
                s = get(k, 0) + c
                if s:
                    acc[k] = s
                else:
                    del acc[k]
            if acc:
                out[d] = acc
            else:
                del out[d]
        return _reduced(self.ctx, out, self._den * f1)

    __radd__ = __add__

    def __neg__(self):
        return _scaled(
            self.ctx,
            {d: {k: -c for k, c in b.items()} for d, b in self._blocks.items()},
            self._den,
        )

    def __sub__(self, other):
        if not isinstance(other, Tensor):
            other = scalar_tensor(self.ctx, other)
        return self + (-other)

    def __rsub__(self, other):
        return scalar_tensor(self.ctx, other) + (-self)

    def __mul__(self, other):
        if not isinstance(other, Tensor):
            return self.scale(other)
        self._check_same(other)
        return capped_product(self, other, self.ctx.truncation)

    def __rmul__(self, other):
        # scalars commute; Tensor*Tensor never reaches here
        return self.scale(other)

    def scale(self, scalar):
        p, q = _split(scalar)
        if not p or not self._blocks:
            return zero_tensor(self.ctx)
        # cancel p against den and q against the numerators up front, so the
        # product needs no further reduction
        den = self._den
        g = gcd(p, den)
        if g != 1:
            p //= g
            den //= g
        blocks = self._blocks
        g = _common_factor(q, blocks)
        if g != 1:
            q //= g
            blocks = _divided(blocks, g)
        if p != 1:
            blocks = {d: {k: c * p for k, c in b.items()} for d, b in blocks.items()}
        return _scaled(self.ctx, blocks, den * q)

    def __truediv__(self, scalar):
        return self.scale(ONE / _as_rat(scalar))

    def __repr__(self):
        if not self._blocks:
            return "Tensor(0)"
        bits = []
        for mono in sorted(self.terms):
            name = "1" if not mono else "".join(self.ctx.basis_name(i) for i in mono)
            bits.append(f"{rat_to_string(self.terms[mono])}*{name}")
        return "Tensor(" + " + ".join(bits) + ")"


# -- the scaled form ---------------------------------------------------------

_UNIT = {0: 1}  # the degree-0 block of an integer tensor with constant term 1


def add_block_product(out: dict, degree: int, left: dict, right: dict, shift: int) -> bool:
    """Add the product of two blocks into ``out[degree]``: every code of
    ``left`` followed by every code of ``right``, ``shift`` being dim to the
    power of right's degree, with the product of their numerators.  A fresh
    block is built, and held terms are added to, with the larger block
    innermost; a fresh block times the unit block is a copy of ``left``,
    never ``left`` itself.  Returns True when
    ``out[degree]`` already held terms, whose sums may now be 0; a fresh
    block has no zeros, since one pair of degrees concatenates into distinct
    codes."""
    acc = out.get(degree)
    if acc is None:
        if shift == 1 and right == _UNIT:  # right is of degree 0
            out[degree] = dict(left)
        elif len(left) <= len(right):
            out[degree] = {base + b: ca * cb for a, ca in left.items()
                           for base in (a * shift,) for b, cb in right.items()}
        else:
            out[degree] = {a * shift + b: ca * cb for b, cb in right.items() for a, ca in left.items()}
        return False
    get = acc.get
    if len(left) <= len(right):
        items = right.items()
        for a, ca in left.items():
            base = a * shift
            for b, cb in items:
                k = base + b
                acc[k] = get(k, 0) + ca * cb
    else:
        items = left.items()
        for b, cb in right.items():
            for a, ca in items:
                k = a * shift + b
                acc[k] = get(k, 0) + ca * cb
    return True


def capped_product(a: Tensor, b: Tensor, cap: int) -> Tensor:
    """a * b with every degree above ``cap`` dropped, reduced once.  Left
    blocks go in descending degree, so each output degree is built fresh
    from its highest left block, mostly its largest."""
    left, right, dim = a._blocks, b._blocks, a.ctx.dim
    right = sorted(right.items())
    out = {}
    merged = set()  # degrees fed by more than one pair of blocks
    for p, x in sorted(left.items(), reverse=True):
        for q, y in right:
            if p + q > cap:
                break
            if add_block_product(out, p + q, x, y, dim**q):
                merged.add(p + q)
    for d in merged:  # each merged block is out's own, so cancels in place
        block = out[d]
        if 0 in block.values():
            for k in [k for k, c in block.items() if not c]:
                del block[k]
            if not block:
                del out[d]
    return _reduced(a.ctx, out, a._den * b._den)


def add_exact_quotient(total: dict, t: Tensor, k: int) -> Tensor:
    """t / k for an integer tensor t that k divides term by term, and the
    same quotient added into ``total``, integer blocks the caller owns (its
    sums may be left at 0).  A remainder raises ArithmeticError."""
    if t._den != 1:
        raise ArithmeticError("not an integer tensor")
    out = {}
    for d, block in t._blocks.items():
        if any(c % k for c in block.values()):
            raise ArithmeticError(f"a coefficient is not divisible by {k}")
        q = out[d] = {code: c // k for code, c in block.items()}
        acc = total.get(d)
        if acc is None:
            total[d] = dict(q)
            continue
        get = acc.get
        for code, c in q.items():
            acc[code] = get(code, 0) + c
    return _scaled(t.ctx, out, 1)


def scaled_terms(t: Tensor) -> tuple:
    """(blocks, den): t's coefficient on the degree-d monomial with code k is
    blocks[d][k] / den, with den > 0 and gcd(den, *numerators) == 1.  The
    dicts are t's own; never mutate them."""
    return t._blocks, t._den


def common_scaled(tensors) -> tuple:
    """(den, [blocks]): each tensor's blocks over den, the lcm of their
    denominators, so tensor i has coefficient blocks[i][d][k] / den on the
    degree-d monomial with code k.  A tensor already over den keeps its own
    dicts; never mutate them."""
    scaled = [scaled_terms(t) for t in tensors]
    den = lcm(*(d for _, d in scaled))
    return den, [
        blocks if d == den else
        {q: {k: c * (den // d) for k, c in b.items()} for q, b in blocks.items()}
        for blocks, d in scaled
    ]


def tensor_from_scaled(ctx: AlgebraContext, blocks: dict, den: int = 1) -> Tensor:
    """Tensor with coefficient blocks[d][k] / den on the degree-d monomial
    with code k, for int numerators and an int den > 0.  Degrees and codes
    are trusted to be valid for ``ctx``; zero numerators and empty blocks
    are dropped and the result is reduced to canonical form.  A block with
    no zero that needs no reduction is kept as the caller's own dict, so
    the caller must never touch it again."""
    if den <= 0:
        raise ValueError(f"denominator must be positive, got {den}")
    clean = {}
    for d, block in blocks.items():
        if 0 in block.values():
            block = {k: c for k, c in block.items() if c}
        if block:
            clean[d] = block
    return _reduced(ctx, clean, den)


def tensor_from_canonical(ctx: AlgebraContext, blocks: dict, den: int) -> Tensor:
    """Tensor with coefficient blocks[d][k] / den, trusted to be canonical
    already: valid codes, no zero numerator, no empty block, den > 0 and
    gcd(den, *numerators) == 1.  Nothing is checked, and the blocks become
    the tensor's own."""
    return _scaled(ctx, blocks, den)


# -- constructors ----------------------------------------------------------


def zero_tensor(ctx: AlgebraContext) -> Tensor:
    return _scaled(ctx, {}, 1)


def scalar_tensor(ctx: AlgebraContext, value) -> Tensor:
    p, q = _split(value)
    return _reduced(ctx, {0: {0: p}} if p else {}, q)


def one_tensor(ctx: AlgebraContext) -> Tensor:
    return scalar_tensor(ctx, 1)


def basis_tensor(ctx: AlgebraContext, index: int) -> Tensor:
    ctx.check_index(index)
    return _scaled(ctx, {1: {index: 1}}, 1)


def symplectic_form(ctx: AlgebraContext) -> Tensor:
    """omega = sum_i A_i B_i - B_i A_i, the degree-2 dual of the intersection
    form; it is a Lie element ([A_i, B_i] summed over handles)."""
    dim = ctx.dim
    block = {}
    for i in range(ctx.genus):
        a, b = 2 * i, 2 * i + 1
        block[a * dim + b] = 1
        block[b * dim + a] = -1
    return _scaled(ctx, {2: block}, 1)


# -- grading ---------------------------------------------------------------


def graded_part(t: Tensor, m: int) -> Tensor:
    if not 0 <= m <= t.ctx.truncation:
        raise ValueError(f"degree {m} out of range [0, {t.ctx.truncation}]")
    block = t._blocks.get(m)
    return _reduced(t.ctx, {m: block} if block else {}, t._den)


def graded_scale(t: Tensor, r) -> Tensor:
    """sigma_r(t): the degree-d part times r**d.  For r != 0 this is the
    algebra automorphism X -> rX, which commutes with products and with the
    antipode; sigma_0 keeps only the constant term."""
    p, q = _split(r)
    if not p:
        return graded_part(t, 0)
    top = max(t._blocks, default=0)
    out = {}
    for d, block in t._blocks.items():
        f = p**d * q ** (top - d)
        out[d] = block if f == 1 else {k: c * f for k, c in block.items()}
    return _reduced(t.ctx, out, t._den * q**top)


def filtration_degree(t: Tensor) -> int:
    """Least degree with a nonzero term; N+1 for the zero tensor."""
    return min(t._blocks, default=t.ctx.truncation + 1)


def truncate(t: Tensor, ctx: AlgebraContext) -> Tensor:
    """Re-home ``t`` in another context of the same genus, dropping degrees
    above the new truncation.  Raising the truncation is allowed; the extra
    degrees are simply absent."""
    if ctx.genus != t.ctx.genus:
        raise ValueError("genus mismatch")
    if ctx == t.ctx:
        return t
    cap = ctx.truncation
    if cap >= t.ctx.truncation:
        return _scaled(ctx, t._blocks, t._den)
    return _reduced(ctx, {d: b for d, b in t._blocks.items() if d <= cap}, t._den)


# -- the antipode ------------------------------------------------------------


def _reversed_code(code: int, k: int, dim: int) -> int:
    """The code of the reversed word of a k-letter code."""
    out = 0
    for _ in range(k):
        code, x = divmod(code, dim)
        out = out * dim + x
    return out


def antipode(t: Tensor) -> Tensor:
    """S(X_1...X_n) = (-1)^n X_n...X_1, linear extension: the algebra
    anti-automorphism with S(X) = -X.  It sends exp(u) to exp(-u) for a Lie
    u, so it inverts a group-like element without a second series.

    A degree-d code is split into its first ceil(d/2) and last floor(d/2)
    letters, and each half is reversed by lookup in a table of the halves
    that occur, which has at most dim**ceil(d/2) entries."""
    dim = t.ctx.dim
    out = {}
    for d, block in t._blocks.items():
        low = d // 2
        split, shift = dim**low, dim ** (d - low)
        first = {h: _reversed_code(h, d - low, dim) for h in {k // split for k in block}}
        last = {h: _reversed_code(h, low, dim) * shift for h in {k % split for k in block}}
        sign = -1 if d % 2 else 1
        out[d] = {last[k % split] + first[k // split]: sign * c for k, c in block.items()}
    return _scaled(t.ctx, out, t._den)


# -- antisymmetrization ----------------------------------------------------

_SIGNS = {}


def _perm_signs(k: int):
    cached = _SIGNS.get(k)
    if cached is None:
        cached = []
        for perm in permutations(range(k)):
            inv = sum(
                1 for i in range(k) for j in range(i + 1, k) if perm[i] > perm[j]
            )
            cached.append((perm, -1 if inv % 2 else 1))
        _SIGNS[k] = cached
    return cached


def antisymmetrize(t: Tensor) -> Tensor:
    """Degreewise projector onto the antisymmetric tensors, Lambda^k H in
    degree k: (1/k!) sum over permutations of sign(s) . (permuted monomial)."""
    dim = t.ctx.dim
    whole = factorial(max(t._blocks, default=0))  # a multiple of every k! below
    out = {}
    for k, block in t._blocks.items():
        if k <= 1:
            out[k] = {code: c * whole for code, c in block.items()}
            continue
        acc = out[k] = {}
        get = acc.get
        signs = _perm_signs(k)
        for code, coeff in block.items():
            mono = decode_monomial(code, k, dim)
            share = coeff * (whole // len(signs))
            for perm, sign in signs:
                key = encode_monomial((mono[p] for p in perm), dim)
                acc[key] = get(key, 0) + sign * share
    return tensor_from_scaled(t.ctx, out, t._den * whole)


# -- serialization ---------------------------------------------------------


def tensor_to_json(t: Tensor) -> dict:
    """Canonical JSON form: monomials sorted lexicographically as tuples, so
    (0, 1) comes before (1,), coefficients as reduced 'p/q' strings, no
    zero terms.  Each term is written from the scaled blocks, its
    numerator over the common denominator reduced by one gcd."""
    den, dim = t._den, t.ctx.dim
    terms = sorted(
        (list(decode_monomial(code, d, dim)), c)
        for d, block in t._blocks.items()
        for code, c in block.items()
    )
    return {
        "genus": t.ctx.genus,
        "truncation": t.ctx.truncation,
        "terms": [{"mono": mono, "coeff": ratio_to_string(c, den)} for mono, c in terms],
    }


def tensor_from_json(obj: dict, ctx: AlgebraContext | None = None) -> Tensor:
    if not isinstance(obj, dict):
        raise ValueError("tensor JSON must be an object")
    for field in ("genus", "truncation", "terms"):
        if field not in obj:
            raise ValueError(f"tensor JSON missing field {field!r}")
    parsed = AlgebraContext(obj["genus"], obj["truncation"])
    if ctx is not None and ctx != parsed:
        raise ValueError(f"tensor JSON context {parsed} does not match expected {ctx}")
    if not isinstance(obj["terms"], list):
        raise ValueError("tensor JSON 'terms' must be a list")
    terms = {}
    for entry in obj["terms"]:
        if not isinstance(entry, dict) or "mono" not in entry or "coeff" not in entry:
            raise ValueError(f"tensor JSON term must be an object with 'mono' and 'coeff': {entry!r}")
        if not isinstance(entry["mono"], list):
            raise ValueError(f"tensor JSON monomial must be a list: {entry['mono']!r}")
        mono = tuple(_exact_int(i, "monomial index") for i in entry["mono"])
        if mono in terms:
            raise ValueError(f"duplicate monomial {list(mono)} in tensor JSON")
        coeff = rat_from_string(entry["coeff"])
        if not coeff:
            raise ValueError(f"zero coefficient stored for monomial {list(mono)}")
        terms[mono] = coeff
    return Tensor(parsed, terms)
