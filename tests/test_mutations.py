"""The mutation matrix: each row replaces one public function with a broken
version and names the suite checks that must then fail.  A clause that can
never fail shows up here as a row that does not bite.

Only the checks a row names are run, each row on an empty expansion memo,
so no expansion built under a mutation outlives its row.
"""

import pytest

from twistlog import expansion, johnson, suite
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
}


@pytest.mark.parametrize("name", MUTATIONS)
def test_mutation_fails_its_checks(monkeypatch, name):
    namespace, function, mutate, checks = MUTATIONS[name]
    monkeypatch.setattr(suite, "_MEMO", {})
    monkeypatch.setattr(namespace, function, mutate(getattr(namespace, function)))
    passed = [check for check in checks if suite.run_check(check).passed]
    assert not passed, f"{name} passes {passed}"
