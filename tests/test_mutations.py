"""The mutation matrix: each row replaces one public function with a broken
version and names the suite checks that must then fail.  A clause that can
never fail shows up here as a row that does not bite; such a row is a
strict xfail that names the open work which makes it bite, and every suite
check is named by at least one row that does bite.  A row may map its
checks to the text of one clause each, which the witness must then hold:
a check can fail while one of its clauses never runs.

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
from twistlog.endomorphism import Endomorphism
from twistlog.rationals import Rat
from twistlog.tensor import basis_tensor, graded_part, one_tensor
from twistlog.words import GroupWord, concat, homology_matrix


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


def _without_degree(m):
    """l_invariant_tensor without its degree-m part, so L without L_m; m None
    drops the top degree N+1, whose values on H have degree N."""

    def mutate(f):
        def tensor(theta, w):
            t = f(theta, w)
            return t - graded_part(t, theta.truncation + 1 if m is None else m)

        return tensor

    return mutate


def _transposed(f):
    return lambda phi: [list(column) for column in zip(*f(phi))]


def _identity(f):
    """connecting_automorphism answering the identity on H."""

    def connecting(theta1, theta2):
        ctx = theta1.ctx
        return Endomorphism(ctx, [basis_tensor(ctx, j) for j in range(ctx.dim)])

    return connecting


def _moving_a1_by_b1(f):
    """connecting_automorphism whose U moves A1 by B1, a move of degree 1."""

    def connecting(theta1, theta2):
        U = f(theta1, theta2)
        b1 = basis_tensor(U.ctx, 1)
        return Endomorphism(U.ctx, [U.h_values[0] + b1, *U.h_values[1:]])

    return connecting


# the checks that fail when L loses L_2 or its top degree
_L_READERS = ["dehn-twist", "sigma-key-formula", "disjointness", "omega-ideal"]

# name -> (namespace, public function, its mutant given the original,
#          the checks that must fail, or a dict of them to the clause text
#          each witness must hold); a tuple of namespaces patches each
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
    "L without L2": (johnson, "l_invariant_tensor", _without_degree(2), _L_READERS),
    "L without its top degree": (johnson, "l_invariant_tensor", _without_degree(None), _L_READERS),
    "L without L4": (
        johnson,
        "l_invariant_tensor",
        _without_degree(4),
        _L_READERS + ["tau-formulas", "separating-series", "operator-identities", "connecting"],
    ),
    "homology matrix transposed": (suite, "homology_matrix", _transposed, ["transvection"]),
    "conjugate(w, y) as y w": (
        suite,
        "conjugate",
        lambda f: lambda w, y: concat(y, w),
        ["l-invariance"],
    ),
    "identity connecting automorphism": (suite, "connecting_automorphism", _identity, ["connecting"]),
    "L without L3": (
        johnson,
        "l_invariant_tensor",
        _without_degree(3),
        ["tau-formulas", "operator-identities"],
    ),
    "symplectic_failures stubbed": (
        (expansion, suite),
        "symplectic_failures",
        lambda f: lambda theta: [],
        ["fixture-genus1", "fixture-genus2"],
    ),
    "invert reversing letters but keeping signs": (
        suite,
        "invert",
        lambda f: lambda w: GroupWord(w.genus, w.letters[::-1]),
        {"l-invariance": "inversion broke invariance"},
    ),
    "sigma_act_log_square doubled": (
        suite,
        "sigma_act_log_square",
        lambda f: lambda *args: f(*args).scale(2),
        {"sigma-key-formula": "key formula fails"},
    ),
    "symplectic_form plus B1B1": (
        suite,
        "symplectic_form",
        lambda f: lambda ctx: f(ctx) + basis_tensor(ctx, 1) * basis_tensor(ctx, 1),
        {"omega-ideal": "L does not kill omega"},
    ),
    "connecting automorphism moving A1 by B1": (
        suite,
        "connecting_automorphism",
        _moving_a1_by_b1,
        {"connecting": "does not raise filtration"},
    ),
}

# Rows that bite no check today: each documents an open defect of the suite
# and flips to a pass when the work it names lands.
OPEN = {
    "L without L3": (
        "Direction 19: L3 = 0 on a1, b1 and a1 B1 on every expansion the suite"
        " uses, so tau_1 = -L3 compares 0 with 0; L3(c1) != 0 on the"
        " handle-linking curve c1 = A1 B1 a2 b2, which no check sees yet"
    ),
}


def _row(name):
    if name in OPEN:
        return pytest.param(name, marks=pytest.mark.xfail(strict=True, reason=OPEN[name]))
    return name


@pytest.mark.parametrize("name", map(_row, MUTATIONS))
def test_mutation_fails_its_checks(monkeypatch, name):
    namespaces, function, mutate, checks = MUTATIONS[name]
    monkeypatch.setattr(suite, "_MEMO", {})
    for namespace in namespaces if isinstance(namespaces, tuple) else (namespaces,):
        monkeypatch.setattr(namespace, function, mutate(getattr(namespace, function)))
    certs = {check: suite.run_check(check) for check in checks}
    passed = [check for check, cert in certs.items() if cert.passed]
    assert not passed, f"{name} passes {passed}"
    for check, clause in checks.items() if isinstance(checks, dict) else ():
        assert clause in certs[check].witness, f"{name}: {check} fails elsewhere"


def test_every_check_is_bitten_by_a_row():
    # a check no biting row names has clauses that may never fail
    bitten = {check for name, row in MUTATIONS.items() if name not in OPEN for check in row[3]}
    assert set(OPEN) <= set(MUTATIONS)
    assert sorted(set(suite.SUITE) - bitten) == []
