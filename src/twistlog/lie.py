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
    decode_monomial,
    one_tensor,
    scaled_terms,
    tensor_from_scaled,
    zero_tensor,
)


def bracket(t1: Tensor, t2: Tensor) -> Tensor:
    return t1 * t2 - t2 * t1


def _phi_code(x: int, n: int, dim: int, cache: dict) -> dict:
    """Phi of the degree-n monomial with code x, as a map code -> integer
    coeff (codes of degree n).

    Phi(X w) = [X, Phi(w)]; suffixes repeat heavily across a tensor, so they
    are memoized, per degree, in ``cache``."""
    level = cache.get(n)
    if level is None:
        level = cache[n] = {}
    hit = level.get(x)
    if hit is not None:
        return hit
    if n == 1:
        out = {x: 1}
    else:
        top = dim ** (n - 1)
        head, tail = divmod(x, top)
        lead = head * top
        out = {}
        get = out.get
        for sub, c in _phi_code(tail, n - 1, dim, cache).items():
            left = lead + sub
            out[left] = get(left, 0) + c
            right = sub * dim + head
            out[right] = get(right, 0) - c
    level[x] = out
    return out


def phi(t: Tensor) -> Tensor:
    """Bracketing map Phi(X_1...X_n) = [X_1,[...[X_{n-1},X_n]...]], linear
    extension; the identity on degree 1.  Errors on a nonzero constant term
    (Phi has no sensible value there)."""
    blocks, den = scaled_terms(t)
    if 0 in blocks:
        raise ValueError("phi: nonzero constant term")
    cache = {}
    dim = t.ctx.dim
    out = {}
    for n, block in blocks.items():
        acc = out[n] = {}
        get = acc.get
        for x, coeff in block.items():
            for m2, c2 in _phi_code(x, n, dim, cache).items():
                acc[m2] = get(m2, 0) + coeff * c2
    return tensor_from_scaled(t.ctx, out, den)


def is_lie(t: Tensor) -> bool:
    """Dynkin-Specht-Wever test, degreewise: Phi(u_n) = n*u_n for every
    homogeneous component, and no constant term."""
    blocks, den = scaled_terms(t)
    if 0 in blocks:
        return False
    weighted = {n: {x: c * n for x, c in block.items()} for n, block in blocks.items()}
    return phi(t) == tensor_from_scaled(t.ctx, weighted, den)


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


# -- bracket trees and the Lyndon-basis display form ---------------------------


def _bracket_expansion(ctx, tree, cache: dict) -> tuple:
    """(degree, {code: int}) of a nested bracket tree with int leaves, the
    leaves checked against ``ctx``.  Trees are memoized in ``cache``, so the
    shared subtrees of a family of trees are expanded once."""
    try:
        hit = cache.get(tree)
    except TypeError:  # unhashable, so not made of tuples and ints
        raise ValueError(f"malformed bracket tree: {tree!r}") from None
    if hit is None:
        if isinstance(tree, int):
            ctx.check_index(tree)
            hit = (1, {tree: 1})
        else:
            if not isinstance(tree, tuple) or len(tree) != 2:
                raise ValueError(f"malformed bracket tree: {tree!r}")
            p, left = _bracket_expansion(ctx, tree[0], cache)
            q, right = _bracket_expansion(ctx, tree[1], cache)
            dim = ctx.dim
            after_left, after_right = dim**q, dim**p
            # u v is distinct for distinct pairs of codes u, v of fixed degrees
            out = {
                base + v: cu * cv
                for u, cu in left.items()
                for base in (u * after_left,)
                for v, cv in right.items()
            }
            get = out.get
            for v, cv in right.items():
                base = v * after_right
                for u, cu in left.items():
                    key = base + u
                    out[key] = get(key, 0) - cu * cv
            hit = (p + q, {k: c for k, c in out.items() if c})
        cache[tree] = hit
    return hit


def bracket_tree_tensor(ctx, tree) -> Tensor:
    """Expand a nested bracket tree (int leaves, (left, right) tuples) into
    its tensor."""
    degree, expansion = _bracket_expansion(ctx, tree, {})
    if degree > ctx.truncation:
        return zero_tensor(ctx)
    return tensor_from_scaled(ctx, {degree: expansion})


def _is_lyndon(x: int, p: int, dim: int) -> bool:
    """Whether the degree-p code x is strictly less than each of its proper
    rotations."""
    top = dim ** (p - 1)
    r = x
    for _ in range(p - 1):
        r = (r % top) * dim + r // top
        if r <= x:
            return False
    return True


def _standard_bracketing(word: tuple, cache: dict):
    """Standard bracketing of a Lyndon word, as a nested (left, right) tree
    with int leaves: the word splits at its longest proper Lyndon suffix."""
    # for a Lyndon word the longest proper Lyndon suffix is also its least
    # proper suffix, and both factors are again Lyndon words
    hit = cache.get(word)
    if hit is None:
        if len(word) == 1:
            hit = word[0]
        else:
            cut = min(range(1, len(word)), key=lambda k: word[k:])
            hit = (_standard_bracketing(word[:cut], cache), _standard_bracketing(word[cut:], cache))
        cache[word] = hit
    return hit


def lyndon_bracket_form(t: Tensor) -> list:
    """Rewrite a Lie tensor as [(coeff, bracket-tree), ...] over the Lyndon
    basis, in ascending order of the Lyndon words.

    The standard bracketing of a Lyndon word w expands to w plus strictly
    greater monomials of the same length (Chen-Fox-Lyndon), so eliminating
    monomials in ascending order, in place, peels one basis element per
    Lyndon word: the least surviving monomial of a Lie remainder is always
    Lyndon.  Degrees are eliminated one at a time, since each expansion is
    homogeneous.  Raises ValueError on non-Lie input, naming the least of
    the first surviving non-Lyndon monomials of each degree."""
    blocks, den = scaled_terms(t)
    if 0 in blocks:
        raise ValueError("constant term is not Lie")
    ctx = t.ctx
    dim = ctx.dim
    trees, expansions = {}, {}
    found, failures = [], []
    for p, block in blocks.items():
        rem = dict(block)  # zeros stay in, so each code enters the heap once
        heap = list(rem)
        heapq.heapify(heap)
        while heap:
            x = heapq.heappop(heap)
            coeff = rem.pop(x)
            if not coeff:
                continue
            word = decode_monomial(x, p, dim)
            if not _is_lyndon(x, p, dim):
                failures.append(word)
                break
            tree = _standard_bracketing(word, trees)
            found.append((word, coeff, tree))
            for m2, c2 in _bracket_expansion(ctx, tree, expansions)[1].items():
                if m2 == x:
                    continue  # coefficient 1: the leading term cancels exactly
                acc = rem.get(m2)
                if acc is None:
                    rem[m2] = -coeff * c2
                    heapq.heappush(heap, m2)
                else:
                    rem[m2] = acc - coeff * c2
    if failures:
        raise ValueError(f"not a Lyndon word: {min(failures)}")
    found.sort(key=lambda entry: entry[0])
    return [(Rat(coeff, den), tree) for _, coeff, tree in found]


def format_bracket_tree(ctx, tree) -> str:
    if isinstance(tree, int):
        return ctx.basis_name(tree)
    left, right = tree
    return f"[{format_bracket_tree(ctx, left)},{format_bracket_tree(ctx, right)}]"
