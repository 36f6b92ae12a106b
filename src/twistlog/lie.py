"""Lie structure on the truncated tensor algebra.

The free Lie algebra sits inside the tensor algebra as the span of iterated
brackets [u,v] = uv - vu.  Membership is decided by the Dynkin-Specht-Wever
criterion: a homogeneous degree-n tensor u is Lie iff Phi(u) = n*u, where
Phi sends a monomial X_1...X_n to the nested bracket [X_1,[...[X_{n-1},X_n]]].
exp and log are the truncated mutually inverse series between T-hat_1 and
1 + T-hat_1.
"""

from __future__ import annotations

import heapq

from .rationals import ONE, Rat
from .tensor import (
    Tensor,
    add_block_product,
    capped_product,
    decode_monomial,
    one_tensor,
    scaled_terms,
    tensor_from_scaled,
    zero_tensor,
)


def bracket(t1: Tensor, t2: Tensor) -> Tensor:
    return t1 * t2 - t2 * t1


def _by_first(block: dict, top: int) -> dict:
    """Split a homogeneous block of codes as {x: t_x}, the block being
    sum_x X_x t_x; ``top`` is dim**(degree - 1), the weight of the first
    letter."""
    out = {}
    for code, c in block.items():
        first, tail = divmod(code, top)
        out.setdefault(first, {})[tail] = c
    return out


def _phi_block(block: dict, n: int, dim: int) -> dict:
    """Phi of a degree-n block {code: int} that holds no zeros, again with
    no zeros; the result may be ``block`` itself, so never mutate it.

    By the first-letter recursion Phi(sum_x X_x t_x) = sum_x [X_x, Phi(t_x)]
    (Reutenauer, Free Lie Algebras, ch. 1)."""
    if n == 1:
        return block
    return _bracket_first(_phi_tails(block, n, dim), n, dim)


def _phi_tails(block: dict, n: int, dim: int) -> dict:
    """{x: Phi(t_x)} for a degree-n block sum_x X_x t_x, n >= 2; the tails'
    blocks hold no zeros and may be empty."""
    return {
        x: _phi_block(tail, n - 1, dim)
        for x, tail in _by_first(block, dim ** (n - 1)).items()
    }


def _bracket_first(parts: dict, n: int, dim: int) -> dict:
    """sum_x [X_x, parts[x]] as a degree-n block with no zeros, each
    parts[x] being a degree-(n-1) block."""
    top = dim ** (n - 1)
    out = {}
    get = out.get
    for x, part in parts.items():
        lead = x * top
        for sub, c in part.items():
            out[lead + sub] = get(lead + sub, 0) + c
            out[sub * dim + x] = get(sub * dim + x, 0) - c
    return {k: c for k, c in out.items() if c}


def phi(t: Tensor) -> Tensor:
    """Bracketing map Phi(X_1...X_n) = [X_1,[...[X_{n-1},X_n]...]], linear
    extension; the identity on degree 1.  Errors on a nonzero constant term
    (Phi has no sensible value there)."""
    blocks, den = scaled_terms(t)
    if 0 in blocks:
        raise ValueError("phi: nonzero constant term")
    dim = t.ctx.dim
    out = {n: _phi_block(block, n, dim) for n, block in blocks.items()}
    return tensor_from_scaled(t.ctx, out, den)


def is_lie(t: Tensor) -> bool:
    """Dynkin-Specht-Wever test, degreewise: Phi(u_n) = n*u_n for every
    homogeneous component, and no constant term."""
    blocks, _ = scaled_terms(t)
    if 0 in blocks:
        return False
    dim = t.ctx.dim
    return all(
        _phi_block(block, n, dim) == {x: c * n for x, c in block.items()}
        for n, block in blocks.items()
    )


def exp(t: Tensor) -> Tensor:
    """exp(u) = sum u^n / n!; requires zero constant term, so the series
    terminates at the truncation.  Horner's scheme, as in ``log``:
    exp(u) = E_1, E_n = 1 + u E_{n+1} / n, E_{N+1} = 1, each E_n kept only
    up to degree N + 1 - n."""
    if t.coefficient(()):
        raise ValueError("exp: nonzero constant term")
    top = t.ctx.truncation
    e = one_tensor(t.ctx)
    for n in range(top, 0, -1):
        e = capped_product(t, e, top + 1 - n).scale(Rat(1, n)) + 1
    return e


def log(t: Tensor) -> Tensor:
    """log(1 + u) = sum (-1)^{n-1}/n u^n; requires constant term exactly 1.

    Horner's scheme log(1 + u) = u P_1, P_k = 1/k - u P_{k+1}, P_N = 1/N, run
    on Q_k = (-1)^{k+1} P_k = (-1)^{k+1}/k + u Q_{k+1}, which never negates.
    Each Q_k is kept only up to degree N - k: u has no constant term, so
    u Q_k up to degree N - k + 1 reads Q_k only up to degree N - k, and the
    result is exactly the power series at the truncation."""
    if t.coefficient(()) != ONE:
        raise ValueError("log: constant term must be 1")
    top = t.ctx.truncation
    u = t - one_tensor(t.ctx)
    q = zero_tensor(t.ctx)
    for k in range(top, 0, -1):
        q = capped_product(u, q, top - k) + Rat(1 if k % 2 else -1, k)
    return capped_product(u, q, top)


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
            # uv - vu, the second product summed into the first
            out = {}
            add_block_product(out, p + q, left, right, ctx.dim**q)
            add_block_product(out, p + q, {v: -c for v, c in right.items()}, left, ctx.dim**p)
            hit = (p + q, {k: c for k, c in out[p + q].items() if c})
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


def lyndon_bracket_form(t: Tensor, memo: tuple | None = None) -> list:
    """Rewrite a Lie tensor as [(coeff, bracket-tree), ...] over the Lyndon
    basis, in ascending order of the Lyndon words.

    The standard bracketing of a Lyndon word w expands to w plus strictly
    greater monomials of the same length (Chen-Fox-Lyndon), so eliminating
    monomials in ascending order, in place, peels one basis element per
    Lyndon word: the least surviving monomial of a Lie remainder is always
    Lyndon.  Degrees are eliminated one at a time, lowest first, since each
    expansion is homogeneous.  Raises ValueError on non-Lie input, naming
    the first surviving non-Lyndon monomial of the lowest degree that is
    not Lie, and eliminates no higher degree.

    ``memo``, a (bracketings, expansions) pair of dicts, may be shared by
    calls on tensors of one rank of H, so that each standard bracketing and
    its expansion is built once across them."""
    blocks, den = scaled_terms(t)
    if 0 in blocks:
        raise ValueError("constant term is not Lie")
    ctx = t.ctx
    dim = ctx.dim
    trees, expansions = ({}, {}) if memo is None else memo
    found = []
    for p in sorted(blocks):
        rem = dict(blocks[p])  # zeros stay in, so each code enters the heap once
        heap = list(rem)
        heapq.heapify(heap)
        while heap:
            x = heapq.heappop(heap)
            coeff = rem.pop(x)
            if not coeff:
                continue
            word = decode_monomial(x, p, dim)
            if not _is_lyndon(x, p, dim):
                raise ValueError(f"not a Lyndon word: {word}")
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
    found.sort(key=lambda entry: entry[0])
    return [(Rat(coeff, den), tree) for _, coeff, tree in found]


def lyndon_bracket_forms(tensors) -> list:
    """lyndon_bracket_form of each tensor, or None for one that is not Lie.
    Tensors of one rank of H share one memo, which lives only as long as
    this call."""
    memos = {}
    forms = []
    for t in tensors:
        try:
            forms.append(lyndon_bracket_form(t, memos.setdefault(t.ctx.dim, ({}, {}))))
        except ValueError:
            forms.append(None)
    return forms


def format_bracket_tree(ctx, tree) -> str:
    if isinstance(tree, int):
        return ctx.basis_name(tree)
    left, right = tree
    return f"[{format_bracket_tree(ctx, left)},{format_bracket_tree(ctx, right)}]"
