"""The certificate suite, one test per check, with a visible verdict line each.

Every check is exact rational arithmetic end to end; there is no tolerance
anywhere.  A failing check prints its witness via the assertion message.
"""

import hashlib
import json
import re

import pytest

from twistlog import johnson, suite
from twistlog.expansion import (
    Expansion,
    build_symplectic,
    connecting_automorphism,
    exponential_expansion,
    load_fixture,
    symplectic_failures,
)
from twistlog.johnson import certificate_to_json
from twistlog.lie import bracket, bracket_tree_tensor
from twistlog.rationals import Rat
from twistlog.suite import (
    _connecting_failures,
    built_expansion,
    fixture_expansion,
    run_check,
    suite_names,
    variant_expansion,
)
from twistlog.tensor import AlgebraContext, basis_tensor, graded_part
from twistlog.words import TWIST_KINDS, TwistKind, generator_word

# SHA-256 of each certificate's canonical JSON without its timing params,
# taken before the suite shared its expansions, restrictions and Johnson
# solves between and within checks; a restructuring must not move them.
# In acceptance order.
DIGESTS = {
    "fixture-genus1": "602a6ca3d59d2a38dbbb0e2c4d0437e755e3129bdc968ef02def7460422ead2d",
    "fixture-genus2": "83db04e942b3b9ca9af50e018d805e49c5be346e5ce63f879586e5592082938f",
    "builder": "d57fdcab9dd206b8d26b69c82cfc32755d8cd9fa7380f0432efdc07b4d728506",
    "dehn-twist": "591588bc55fc6f059fb95f40de745bcb6771749a483ba84851c4a92775dabeca",
    "transvection": "0f760952ac483859ab4d397a0da34ac3c585fe8bd3ee044f52c664bd20605663",
    "tau-formulas": "3c51cf06d6df6e6570958e49dc6d1ac741d0d2d20bb228cad856195ccbf35a04",
    "separating-series": "5a4d65fa2643e2abf000d05ac54a867f125491b910abe8a9088aeb74a564b10b",
    "necklace-oracle": "31c5e8a69154317e153cb4274cf6dcedf2f7835e7ac21c538d6cb9707760df40",
    "l-invariance": "1b9311de96617583ebda132d40ea2b6b738c3d500b52b1fde87844d89fc55679",
    "sigma-key-formula": "54679b27d490134823fb351765152027770288456ff33f0297e5372e4e743756",
    "disjointness": "d3ef5e970d03ff2c88e2fa00cb376dd80c7488d23ac5429d06b9c5e1ba8ba570",
    "operator-identities": "4715ea78ff8067d7cc0ea08aa609796487aa519572460ce81f06f1f8372443b5",
    "omega-ideal": "34ff2183f4433085e0f24805a9bb7f7dfe9e8522a88f068116a763f810fe5e83",
    "connecting": "118240ade5dab4fb2de817b9c20935c4cab67115d945576e09961916ae8cd288",
}
EXPECTED = tuple(DIGESTS)
_TIMING = re.compile(r"seconds|genus\d+_seconds")


def _digest(cert) -> str:
    obj = certificate_to_json(cert)
    obj["params"] = {k: v for k, v in obj["params"].items() if not _TIMING.fullmatch(k)}
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def test_suite_roster_is_stable():
    assert suite_names() == list(EXPECTED)


def test_an_unknown_check_is_refused_with_the_known_ones():
    with pytest.raises(ValueError) as refusal:
        run_check("nope")
    assert str(refusal.value) == f"unknown check 'nope'; known: {', '.join(EXPECTED)}"


@pytest.mark.parametrize(
    "number,name", [(i + 1, name) for i, name in enumerate(EXPECTED)]
)
def test_criterion(number, name, capsys):
    cert = run_check(name)
    with capsys.disabled():
        print(f"criterion {number:02d} {name}: {cert.status.upper()}")
    assert cert.passed, cert.witness
    assert type(cert.params["seconds"]) is float and cert.params["seconds"] >= 0
    assert _digest(cert) == DIGESTS[name]


def test_shared_expansions_are_made_once():
    # the checks share one object per expansion; a fixture check loads its
    # own copy, timed, and the shared one is equal to it
    for genus, truncation in ((1, 5), (2, 5)):
        assert built_expansion(genus, truncation) is built_expansion(genus, truncation)
        assert variant_expansion(genus, truncation) is variant_expansion(genus, truncation)
    for genus in (1, 2):
        shared = fixture_expansion(genus)
        assert shared is fixture_expansion(genus)
        assert shared == load_fixture(f"fixture-genus{genus}")
        assert run_check(f"fixture-genus{genus}").passed
        assert fixture_expansion(genus) is shared


def test_transvection_checks_every_kind_in_the_table(monkeypatch):
    # a kind whose curve is a1 but whose twist moves nothing: on H it is not
    # the transvection along A1, so the check must name it
    wrong = TwistKind(
        True,
        lambda h: 1,
        lambda genus, h: generator_word(genus, 0),
        lambda gens, h, c: gens,
    )
    monkeypatch.setitem(TWIST_KINDS, "wrong", wrong)
    cert = run_check("transvection")
    assert not cert.passed
    assert "genus 1 wrong:1 on B1" in cert.witness
    assert "genus 3 wrong:3 on B1" in cert.witness
    assert "nonsep" not in cert.witness and "sep:" not in cert.witness


def test_omega_ideal_witness_names_the_generator_and_degree(monkeypatch):
    # [A1,[A1,[A1,B1]]] added to the log of a1 keeps ell(zeta) = omega
    # through N4 in the genus-2 fixture, but not in degree 5, and its twists
    # no longer match exp(-L) mod omega
    shared = fixture_expansion(2)
    logs = list(shared.logs)
    logs[0] = logs[0] + bracket_tree_tensor(shared.ctx, (0, (0, (0, 1))))
    bent = Expansion(shared.ctx, logs, kind=shared.kind)
    assert symplectic_failures(bent) == ["ell(zeta) != omega, first in degree 5"]
    with monkeypatch.context() as patch:
        patch.setitem(suite._MEMO, ("fixture", 2), bent)
        cert = run_check("omega-ideal")
    assert fixture_expansion(2) is shared
    assert not cert.passed
    assert cert.witness == (
        "nonsep: twist formula fails mod the ideal: generator b1 first differs in degree 4"
    )
    # with exp(-L) replaced by the identity, the twist along gamma_1 moves
    # both a1 and b1, and only the first is named
    with monkeypatch.context() as patch:
        patch.setattr("twistlog.johnson.exp_derivation", lambda d, t: t)
        witnesses = run_check("omega-ideal").witness.split("; ")
    assert [w.split(": ")[0] for w in witnesses] == ["nonsep", "sep:1"]
    assert "generator a1 first differs in degree" in witnesses[1]
    assert run_check("omega-ideal").passed


def test_sigma_check_compares_two_computations(monkeypatch):
    # with L doubled, the squared-log action (computed without L) still
    # meets the key formula, and both comparisons against L must fail
    half_n_square = johnson._half_n_square
    monkeypatch.setattr(
        johnson, "_half_n_square", lambda t, ctx: half_n_square(t, ctx).scale(2)
    )
    cert = run_check("sigma-key-formula")
    assert cert.witness == (
        "genus 1: L(a1) theta(b1) != -theta(b1) ell(a1); "
        "genus 1: sigma and -2 L disagree; "
        "genus 2: L(a1) theta(b1) != -theta(b1) ell(a1); "
        "genus 2: sigma and -2 L disagree"
    )


def test_connecting_sees_a_nonzero_u1_in_lambda3():
    # the suite's pairs are genus 1, where Lambda^3 H = 0; here a seed with
    # (1/3)[A2, B2] in the log of a1 gives a genus-2 pair whose u_1 is not 0
    ctx = AlgebraContext(2, 4)
    logs = [basis_tensor(ctx, i) for i in range(ctx.dim)]
    logs[0] = logs[0] + bracket(basis_tensor(ctx, 2), basis_tensor(ctx, 3)).scale(Rat(1, 3))
    built = build_symplectic(2, 4)
    seeded = build_symplectic(2, 4, seed=Expansion(ctx, logs))
    u1 = [graded_part(v, 2) for v in connecting_automorphism(built, seeded).h_values]
    assert sum(map(bool, u1)) == 3
    assert _connecting_failures("seeded", built, seeded) == []
    # the exponential expansion is not symplectic: its u_1 leaves Lambda^3 H
    assert _connecting_failures("exp", built, exponential_expansion(2, 4)) == [
        "exp: (log U)|_H does not kill omega",
        "exp: u_1 is not in Lambda^3 H",
    ]
