"""The certificate suite, one test per check, with a visible verdict line each.

Every check is exact rational arithmetic end to end; there is no tolerance
anywhere.  A failing check prints its witness via the assertion message.
"""

import pytest

from twistlog.suite import run_check, suite_names

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
