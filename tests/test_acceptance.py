"""The certificate suite, one test per check, with a visible verdict line each.

Every check is exact rational arithmetic end to end; there is no tolerance
anywhere.  A failing check prints its witness via the assertion message.
"""

import pytest

from twistlog.suite import run_check, suite_names
from twistlog.words import TWIST_KINDS, TwistKind, generator_word

EXPECTED = (
    "fixture-genus1",
    "fixture-genus2",
    "builder",
    "dehn-twist",
    "transvection",
    "tau-formulas",
    "separating-series",
    "necklace-oracle",
    "l-invariance",
    "sigma-key-formula",
    "disjointness",
    "operator-identities",
    "omega-ideal",
    "connecting",
)


def test_suite_roster_is_stable():
    assert suite_names() == list(EXPECTED)


@pytest.mark.parametrize(
    "number,name", [(i + 1, name) for i, name in enumerate(EXPECTED)]
)
def test_criterion(number, name, capsys):
    cert = run_check(name)
    with capsys.disabled():
        print(f"criterion {number:02d} {name}: {cert.status.upper()}")
    assert cert.passed, cert.witness
    assert type(cert.params["seconds"]) is float and cert.params["seconds"] >= 0


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
