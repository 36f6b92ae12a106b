"""Truncated tensor algebra over the first homology of a genus-g surface.

H carries the symplectic basis A_1, B_1, ..., A_g, B_g, flat-indexed by the
fixed convention 2i-2 <-> A_i and 2i-1 <-> B_i.  A Tensor is a finite sparse
table mapping monomials (tuples of basis indices) to exact rationals; the
completed algebra is modelled by truncating every product at a hard degree
bound N carried by the ambient context.  Tensors are immutable values and
every operation is a pure function, so concurrent evaluation needs no
coordination.

Coefficients are stored scaled: Python-int numerators over one positive
common denominator per tensor, kept canonical by gcd(den, *numerators) == 1
(den == 1 for the zero tensor).  Every kernel operation works on ints and
reduces once per result instead of once per term.  ``Tensor.terms`` is the
read-only monomial -> Rat view of the same data, built on first use; other
modules that need the ints go through ``scaled_terms`` and
``tensor_from_scaled``.
"""

from __future__ import annotations

from itertools import permutations
from math import factorial, gcd, lcm
from types import MappingProxyType
from typing import Iterable

from .rationals import ONE, ZERO, Rat, rat_from_string, rat_to_string

Monomial = tuple  # tuple of basis indices; length is the tensor degree


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
        letter = "A" if index % 2 == 0 else "B"
        return f"{letter}{index // 2 + 1}"

    def basis_index(self, name: str) -> int:
        kind, num = name[:1], name[1:]
        if kind not in ("A", "B") or not num.isdigit():
            raise ValueError(f"unknown basis vector {name!r}")
        i = int(num)
        if not 1 <= i <= self.genus:
            raise ValueError(f"basis vector {name!r} out of range for genus {self.genus}")
        return 2 * i - 2 + (1 if kind == "B" else 0)

    def check_index(self, index: int) -> None:
        if not 0 <= index < self.dim:
            raise ValueError(f"basis index {index} out of range for genus {self.genus}")


def intersection(ctx: AlgebraContext, x: int, y: int):
    """Intersection pairing on basis vectors: (A_i . B_i) = 1, antisymmetric,
    zero on all other basis pairs."""
    ctx.check_index(x)
    ctx.check_index(y)
    if x ^ 1 != y:  # not a partner pair A_i/B_i
        return Rat(0)
    return ONE if x % 2 == 0 else -ONE


def _as_rat(value):
    """An exact rational from an int, a rational or a fraction string; floats
    are refused, since their binary expansion is rarely what was meant."""
    if isinstance(value, float):
        raise ValueError(f"float coefficient {value!r}: pass an int, a Rat or a 'p/q' string")
    return value if isinstance(value, type(ONE)) else Rat(value)


def _split(value) -> tuple:
    """(numerator, denominator) as Python ints, denominator positive."""
    if type(value) is int:
        return value, 1
    q = _as_rat(value)
    return int(q.numerator), int(q.denominator)


def _scaled(ctx: AlgebraContext, num: dict, den: int) -> "Tensor":
    # trusted: monomials valid, no zero numerators, den > 0, canonical
    t = object.__new__(Tensor)
    t.ctx = ctx
    t._num = num
    t._den = den
    t._terms = None
    return t


def _reduced(ctx: AlgebraContext, num: dict, den: int) -> "Tensor":
    # trusted: monomials valid, no zero numerators, den > 0; one gcd pass
    if not num:
        return _scaled(ctx, num, 1)
    g = gcd(den, *num.values()) if den != 1 else 1
    if g != 1:
        num = {m: c // g for m, c in num.items()}
        den //= g
    return _scaled(ctx, num, den)


class Tensor:
    """Element of the tensor algebra truncated at the context's degree bound.

    ``terms`` maps monomials to nonzero rationals.  Tensors interoperate only
    when genus and truncation agree; arithmetic silently drops every product
    monomial of degree above the truncation.
    """

    __slots__ = ("ctx", "_num", "_den", "_terms")

    def __init__(self, ctx: AlgebraContext, terms: dict | None = None):
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
                    parts[mono] = (p, q)
        den = lcm(*(q for _, q in parts.values()))
        # reduced fractions over the lcm of their denominators are canonical
        self.ctx = ctx
        self._num = {m: p * (den // q) for m, (p, q) in parts.items()}
        self._den = den
        self._terms = None

    @property
    def terms(self):
        """Read-only monomial -> Rat view, built once per tensor."""
        if self._terms is None:
            den = self._den
            self._terms = MappingProxyType({m: Rat(c, den) for m, c in self._num.items()})
        return self._terms

    # -- queries ----------------------------------------------------------

    def __bool__(self):
        return bool(self._num)

    def __eq__(self, other):
        if not isinstance(other, Tensor):
            if other == 0:
                return not self._num
            other = scalar_tensor(self.ctx, other)
        return (
            self.ctx == other.ctx and self._den == other._den and self._num == other._num
        )

    def __hash__(self):
        return hash((self.ctx, self._den, frozenset(self._num.items())))

    def coefficient(self, mono: Iterable[int]):
        c = self._num.get(tuple(mono))
        return ZERO if c is None else Rat(c, self._den)

    def degrees(self):
        return sorted({len(m) for m in self._num})

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
        out = {m: c * f1 for m, c in self._num.items()} if f1 != 1 else dict(self._num)
        get = out.get
        for mono, c in other._num.items():
            if f2 != 1:
                c *= f2
            acc = get(mono)
            if acc is None:
                out[mono] = c
            else:
                acc += c
                if acc:
                    out[mono] = acc
                else:
                    del out[mono]
        return _reduced(self.ctx, out, self._den * f1)

    __radd__ = __add__

    def __neg__(self):
        return _scaled(self.ctx, {m: -c for m, c in self._num.items()}, self._den)

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
        cap = self.ctx.truncation
        buckets = {}
        for mono, coeff in other._num.items():
            buckets.setdefault(len(mono), []).append((mono, coeff))
        degrees = sorted(buckets)
        out = {}
        get = out.get
        for m1, c1 in self._num.items():
            room = cap - len(m1)
            for deg in degrees:
                if deg > room:
                    break
                for m2, c2 in buckets[deg]:
                    key = m1 + m2
                    out[key] = get(key, 0) + c1 * c2
        out = {m: c for m, c in out.items() if c}
        return _reduced(self.ctx, out, self._den * other._den)

    def __rmul__(self, other):
        # scalars commute; Tensor*Tensor never reaches here
        return self.scale(other)

    def scale(self, scalar):
        p, q = _split(scalar)
        if not p or not self._num:
            return zero_tensor(self.ctx)
        # cancel p against den and q against the numerators up front, so the
        # product needs no further reduction
        den = self._den
        g = gcd(p, den)
        if g != 1:
            p //= g
            den //= g
        num = self._num
        if q != 1:
            g = gcd(q, *num.values())
            if g != 1:
                q //= g
                num = {m: c // g for m, c in num.items()}
        if p != 1:
            num = {m: c * p for m, c in num.items()}
        return _scaled(self.ctx, num, den * q)

    def __truediv__(self, scalar):
        return self.scale(ONE / _as_rat(scalar))

    def __repr__(self):
        if not self._num:
            return "Tensor(0)"
        bits = []
        for mono in sorted(self.terms):
            name = "1" if not mono else "".join(self.ctx.basis_name(i) for i in mono)
            bits.append(f"{rat_to_string(self.terms[mono])}*{name}")
        return "Tensor(" + " + ".join(bits) + ")"


# -- the scaled form ---------------------------------------------------------


def scaled_terms(t: Tensor) -> tuple:
    """(numerators, den): t's terms are numerators[m] / den, with den > 0 and
    gcd(den, *numerators) == 1.  The dict is t's own; never mutate it."""
    return t._num, t._den


def tensor_from_scaled(ctx: AlgebraContext, numerators: dict, den: int = 1) -> Tensor:
    """Tensor with terms numerators[m] / den, for int numerators and an int
    den > 0.  Monomials are trusted to be valid tuples for ``ctx``; zero
    numerators are dropped and the result is reduced to canonical form."""
    if den <= 0:
        raise ValueError(f"denominator must be positive, got {den}")
    return _reduced(ctx, {m: c for m, c in numerators.items() if c}, den)


# -- constructors ----------------------------------------------------------


def zero_tensor(ctx: AlgebraContext) -> Tensor:
    return _scaled(ctx, {}, 1)


def scalar_tensor(ctx: AlgebraContext, value) -> Tensor:
    p, q = _split(value)
    return _reduced(ctx, {(): p} if p else {}, q)


def one_tensor(ctx: AlgebraContext) -> Tensor:
    return scalar_tensor(ctx, 1)


def basis_tensor(ctx: AlgebraContext, index: int) -> Tensor:
    ctx.check_index(index)
    return _scaled(ctx, {(index,): 1}, 1)


def monomial_tensor(ctx: AlgebraContext, mono: Iterable[int], coeff=1) -> Tensor:
    return Tensor(ctx, {tuple(mono): coeff})


def symplectic_form(ctx: AlgebraContext) -> Tensor:
    """omega = sum_i A_i B_i - B_i A_i, the degree-2 dual of the intersection
    form; it is a Lie element ([A_i, B_i] summed over handles)."""
    terms = {}
    for i in range(ctx.genus):
        a, b = 2 * i, 2 * i + 1
        terms[(a, b)] = 1
        terms[(b, a)] = -1
    return _scaled(ctx, terms, 1)


# -- grading ---------------------------------------------------------------


def graded_part(t: Tensor, m: int) -> Tensor:
    if not 0 <= m <= t.ctx.truncation:
        raise ValueError(f"degree {m} out of range [0, {t.ctx.truncation}]")
    return _reduced(t.ctx, {k: c for k, c in t._num.items() if len(k) == m}, t._den)


def filtration_degree(t: Tensor) -> int:
    """Least degree with a nonzero term; N+1 for the zero tensor."""
    if not t._num:
        return t.ctx.truncation + 1
    return min(len(m) for m in t._num)


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
        return _scaled(ctx, t._num, t._den)
    return _reduced(ctx, {m: c for m, c in t._num.items() if len(m) <= cap}, t._den)


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


def wedge_embed(vectors, k: int | None = None) -> Tensor:
    """Embed X_1 ^ ... ^ X_k into H^{tensor k} by full antisymmetrization:
    sum over permutations of sign(s) X_{s(1)} ... X_{s(k)}.  In particular
    X ^ Y = [X, Y]."""
    vectors = list(vectors)
    if k is None:
        k = len(vectors)
    if k != len(vectors):
        raise ValueError(f"expected {k} vectors, got {len(vectors)}")
    if not vectors:
        raise ValueError("empty wedge")
    ctx = vectors[0].ctx
    if k > ctx.truncation:
        raise ValueError(f"wedge degree {k} exceeds truncation {ctx.truncation}")
    for v in vectors:
        if v.ctx != ctx:
            raise ValueError("context mismatch in wedge")
        if any(len(m) != 1 for m in v._num):
            raise ValueError("wedge_embed inputs must be homogeneous of degree 1")
    out = zero_tensor(ctx)
    for perm, sign in _perm_signs(k):
        prod = scalar_tensor(ctx, sign)
        for p in perm:
            prod = prod * vectors[p]
        out = out + prod
    return out


def antisymmetrize(t: Tensor) -> Tensor:
    """Degreewise projector onto the image of wedge_embed:
    (1/k!) sum over permutations of sign(s) . (permuted monomial)."""
    num = t._num
    top = max((len(m) for m in num), default=0)
    whole = factorial(top)  # a multiple of every k! below
    out = {}
    get = out.get
    for mono, coeff in num.items():
        k = len(mono)
        if k <= 1:
            out[mono] = get(mono, 0) + coeff * whole
            continue
        signs = _perm_signs(k)
        share = coeff * (whole // len(signs))
        for perm, sign in signs:
            key = tuple(mono[p] for p in perm)
            out[key] = get(key, 0) + sign * share
    return tensor_from_scaled(t.ctx, out, t._den * whole)


# -- serialization ---------------------------------------------------------


def tensor_to_json(t: Tensor) -> dict:
    """Canonical JSON form: monomials sorted lexicographically, coefficients
    as reduced 'p/q' strings, no zero terms."""
    return {
        "genus": t.ctx.genus,
        "truncation": t.ctx.truncation,
        "terms": [
            {"mono": list(map(int, mono)), "coeff": rat_to_string(t.terms[mono])}
            for mono in sorted(t.terms)
        ],
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


# free-function aliases for the operator methods
def add(t1: Tensor, t2: Tensor) -> Tensor:
    return t1 + t2


def multiply(t1: Tensor, t2: Tensor) -> Tensor:
    if not isinstance(t2, Tensor):
        raise ValueError("multiply expects two tensors")
    return t1 * t2
