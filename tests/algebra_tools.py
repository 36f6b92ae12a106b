"""Test inputs made the slow, obvious way: a monomial with a coefficient, a
bracket by two products, a bracket tree expanded, a symplectic derivation
named by an element of Lambda^3 H, and a random group word."""

from twistlog.derivation import Derivation, from_tensor
from twistlog.lie import _bracket_expansion
from twistlog.tensor import AlgebraContext, Tensor, antisymmetrize, tensor_from_scaled, zero_tensor
from twistlog.words import GroupWord


def monomial_tensor(ctx: AlgebraContext, mono, coeff=1) -> Tensor:
    return Tensor(ctx, {tuple(mono): coeff})


def bracket(t1: Tensor, t2: Tensor) -> Tensor:
    return t1 * t2 - t2 * t1


def bracket_tree_tensor(ctx: AlgebraContext, tree) -> Tensor:
    """Expand a nested bracket tree (int leaves, (left, right) tuples) into
    its tensor."""
    degree, expansion = _bracket_expansion(ctx, tree, {})
    if degree > ctx.truncation:
        return zero_tensor(ctx)
    return tensor_from_scaled(ctx, {degree: expansion})


def lambda3_derivation(ctx: AlgebraContext) -> Derivation:
    """The derivation named by u = 2 Alt(B1 A2 B2), an element of Lambda^3 H:
    symplectic, of degree 1, with value (1/3)[A2, B2] on A1.  Needs genus
    >= 2."""
    return from_tensor(antisymmetrize(monomial_tensor(ctx, (1, 2, 3))).scale(2))


def random_word(rng, genus: int, length: int) -> GroupWord:
    """A word of ``length`` random letters x_i^(+-1), coded 2i + (sign < 0)."""
    return GroupWord(
        genus, [2 * rng.randrange(2 * genus) + (rng.choice((1, -1)) < 0) for _ in range(length)]
    )
