"""The mutation matrix: each row replaces one public function with a broken
version and names the suite checks that must then fail.  A clause that can
never fail shows up here as a row that does not bite.

Only the checks a row names are run, each row on an empty expansion memo,
so no expansion built under a mutation outlives its row.

The builder and the symplectic re-proof share ``_boundary_value``, so a
fault in it can let the builder converge to a wrong expansion that its own
re-proof then accepts; only the shipped fixtures, whose data the builder
did not make, catch it.  Dropping the degree-(N+1) part of the generator
values changes no verdict, by design (the boundary reads them only through
degree N), so it has no row.
"""

import pytest

from twistlog import expansion, johnson, suite
from twistlog.rationals import Rat
from twistlog.tensor import one_tensor
from twistlog.words import homology_matrix


def _negated(f):
    return lambda *args: -f(*args)


def _refuted(f):
    """A predicate that answers the opposite."""
    return lambda *args: not f(*args)


def _unsigned(f):
    """homology_inverse without its (-1)^(i+j) signs."""

    def inverse(phi):
        mat = homology_matrix(phi)
        n = len(mat)
        return [[mat[j ^ 1][i ^ 1] for j in range(n)] for i in range(n)]

    return inverse


def _without_half_square(f):
    """integral_exp without its u^2 / 2 term."""
    return lambda u: f(u) - (u * u).scale(Rat(1, 2))


def _unflipped(f):
    """_boundary_value with each handle 1 + [u_a, u_b], the factor
    S(e_b e_a) dropped."""

    def boundary(ctx, values):
        one = one_tensor(ctx)
        out = one
        for i in range(ctx.genus):
            ua, ub = values[2 * i] - one, values[2 * i + 1] - one
            out = out * (one + ua * ub - ub * ua)
        return out

    return boundary


# name -> (namespace, public function, its mutant given the original,
#          the checks that must fail)
MUTATIONS = {
    "negated necklace bracket": (suite, "necklace_bracket", _negated, ["necklace-oracle"]),
    "is_lie negated": (expansion, "is_lie", _refuted, ["fixture-genus1", "fixture-genus2"]),
    "homology inverse without signs": (
        johnson,
        "homology_inverse",
        _unsigned,
        ["tau-formulas", "operator-identities"],
    ),
    "integer exponential without u^2/2": (
        expansion,
        "integral_exp",
        _without_half_square,
        ["fixture-genus1", "fixture-genus2", "builder"],
    ),
    "handles without S(e_b e_a)": (
        expansion,
        "_boundary_value",
        _unflipped,
        ["fixture-genus1", "fixture-genus2"],
    ),
}


@pytest.mark.parametrize("name", MUTATIONS)
def test_mutation_fails_its_checks(monkeypatch, name):
    namespace, function, mutate, checks = MUTATIONS[name]
    monkeypatch.setattr(suite, "_MEMO", {})
    monkeypatch.setattr(namespace, function, mutate(getattr(namespace, function)))
    passed = [check for check in checks if suite.run_check(check).passed]
    assert not passed, f"{name} passes {passed}"
