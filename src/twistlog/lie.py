"""Lie structure on the truncated tensor algebra.

The free Lie algebra sits inside the tensor algebra as the span of iterated
brackets [u,v] = uv - vu.  Membership is decided by the Dynkin-Specht-Wever
criterion: a homogeneous degree-n tensor u is Lie iff Phi(u) = n*u, where
Phi sends a monomial X_1...X_n to the nested bracket [X_1,[...[X_{n-1},X_n]]].
exp and log are the truncated mutually inverse series between T-hat_1 and
1 + T-hat_1, and the BCH product is computed as log(exp(u)exp(v)) -- never
from tabulated coefficients, so the classical low-degree coefficients are a
test of this module instead of an input to it.
"""

from __future__ import annotations

import heapq

from .rationals import ONE, Rat
from .tensor import (
    Tensor,
    basis_tensor,
    one_tensor,
    scaled_terms,
    tensor_from_scaled,
    zero_tensor,
)


def bracket(t1: Tensor, t2: Tensor) -> Tensor:
    return t1 * t2 - t2 * t1


def _phi_monomial(mono: tuple, cache: dict) -> dict:
    """Expansion of Phi on one monomial as a map monomial -> integer coeff.

    Phi(X w) = [X, Phi(w)]; suffixes repeat heavily across a tensor, so they
    are memoized."""
    hit = cache.get(mono)
    if hit is not None:
        return hit
    if len(mono) == 1:
        out = {mono: 1}
    else:
        head = mono[:1]
        out = {}
        for sub, c in _phi_monomial(mono[1:], cache).items():
            left = head + sub
            out[left] = out.get(left, 0) + c
            right = sub + head
            out[right] = out.get(right, 0) - c
    cache[mono] = out
    return out


def phi(t: Tensor, _cache: dict | None = None) -> Tensor:
    """Bracketing map Phi(X_1...X_n) = [X_1,[...[X_{n-1},X_n]...]], linear
    extension; the identity on degree 1.  Errors on a nonzero constant term
    (Phi has no sensible value there)."""
    num, den = scaled_terms(t)
    if () in num:
        raise ValueError("phi: nonzero constant term")
    cache = _cache if _cache is not None else {}
    out = {}
    get = out.get
    for mono, coeff in num.items():
        for m2, c2 in _phi_monomial(mono, cache).items():
            out[m2] = get(m2, 0) + coeff * c2
    return tensor_from_scaled(t.ctx, out, den)


def is_lie(t: Tensor) -> bool:
    """Dynkin-Specht-Wever test, degreewise: Phi(u_n) = n*u_n for every
    homogeneous component, and no constant term."""
    num, den = scaled_terms(t)
    if () in num:
        return False
    return phi(t) == tensor_from_scaled(t.ctx, {m: c * len(m) for m, c in num.items()}, den)


def exp(t: Tensor) -> Tensor:
    """exp(u) = sum u^n / n!; requires zero constant term, so the series
    terminates at the truncation."""
    if t.coefficient(()):
        raise ValueError("exp: nonzero constant term")
    out = one_tensor(t.ctx)
    power = one_tensor(t.ctx)
    factorial = 1
    for n in range(1, t.ctx.truncation + 1):
        power = power * t
        if not power:
            break
        factorial *= n
        out = out + power.scale(Rat(1, factorial))
    return out


def log(t: Tensor) -> Tensor:
    """log(u) = sum (-1)^{n-1}/n (u-1)^n; requires constant term exactly 1."""
    if t.coefficient(()) != ONE:
        raise ValueError("log: constant term must be 1")
    u = t - one_tensor(t.ctx)
    out = zero_tensor(t.ctx)
    power = one_tensor(t.ctx)
    for n in range(1, t.ctx.truncation + 1):
        power = power * u
        if not power:
            break
        out = out + power.scale(Rat(1 if n % 2 else -1, n))
    return out


def bch(u: Tensor, v: Tensor) -> Tensor:
    """Baker-Campbell-Hausdorff product log(exp(u)exp(v)).  Inputs must be
    Lie; the result is re-certified rather than assumed."""
    if not is_lie(u):
        raise ValueError("bch: first argument is not a Lie element")
    if not is_lie(v):
        raise ValueError("bch: second argument is not a Lie element")
    result = log(exp(u) * exp(v))
    if not is_lie(result):  # cannot happen; guards against kernel bugs
        raise ArithmeticError("bch result failed the Lie certification")
    return result


# -- Lyndon-basis display form ----------------------------------------------


def _lyndon_bracketing(word: tuple, cache: dict) -> tuple:
    """(standard bracketing, its integer expansion) of a Lyndon word.

    The bracketing splits the word at its longest proper Lyndon suffix into
    a nested (left, right) tree with int leaves; the expansion maps
    monomials to int coefficients.  Raises ValueError unless the word is
    strictly less than each of its proper rotations."""
    n = len(word)
    if not n or any(word >= word[k:] + word[:k] for k in range(1, n)):
        raise ValueError(f"not a Lyndon word: {word}")
    return _standard_bracketing(word, cache)


def _standard_bracketing(word: tuple, cache: dict) -> tuple:
    # for a Lyndon word the longest proper Lyndon suffix is also its least
    # proper suffix, and both factors are again Lyndon words
    hit = cache.get(word)
    if hit is not None:
        return hit
    if len(word) == 1:
        hit = (word[0], {word: 1})
    else:
        cut = min(range(1, len(word)), key=lambda k: word[k:])
        left_tree, left = _standard_bracketing(word[:cut], cache)
        right_tree, right = _standard_bracketing(word[cut:], cache)
        left, right = left.items(), right.items()
        # u + v is distinct for distinct pairs of equal-length u, v
        out = {u + v: cu * cv for u, cu in left for v, cv in right}
        get = out.get
        for u, cu in left:
            for v, cv in right:
                out[v + u] = get(v + u, 0) - cu * cv
        hit = ((left_tree, right_tree), {m: c for m, c in out.items() if c})
    cache[word] = hit
    return hit


def bracket_tree_tensor(ctx, tree) -> Tensor:
    """Expand a nested bracket tree (int leaves) into its tensor."""
    if isinstance(tree, int):
        return basis_tensor(ctx, tree)
    left, right = tree
    return bracket(bracket_tree_tensor(ctx, left), bracket_tree_tensor(ctx, right))


def lyndon_bracket_form(t: Tensor) -> list:
    """Rewrite a Lie tensor as [(coeff, bracket-tree), ...] over the Lyndon
    basis, in ascending order of the Lyndon words.

    The standard bracketing of a Lyndon word w expands to w plus strictly
    greater monomials of the same length (Chen-Fox-Lyndon), so eliminating
    monomials in ascending order, in place, peels one basis element per
    Lyndon word: the least surviving monomial of a Lie remainder is always
    Lyndon.  Raises ValueError on non-Lie input, at the first surviving
    monomial that is not a Lyndon word."""
    num, den = scaled_terms(t)
    if () in num:
        raise ValueError("constant term is not Lie")
    rem = dict(num)  # zeros stay in, so each monomial enters the heap once
    heap = list(rem)
    heapq.heapify(heap)
    cache = {}
    out = []
    while heap:
        mono = heapq.heappop(heap)
        coeff = rem.pop(mono)
        if not coeff:
            continue
        tree, expansion = _lyndon_bracketing(mono, cache)
        out.append((Rat(coeff, den), tree))
        for m2, c2 in expansion.items():
            if m2 == mono:
                continue  # coefficient 1: the leading term cancels exactly
            acc = rem.get(m2)
            if acc is None:
                rem[m2] = -coeff * c2
                heapq.heappush(heap, m2)
            else:
                rem[m2] = acc - coeff * c2
    return out


def format_bracket_tree(ctx, tree) -> str:
    if isinstance(tree, int):
        return ctx.basis_name(tree)
    left, right = tree
    return f"[{format_bracket_tree(ctx, left)},{format_bracket_tree(ctx, right)}]"
