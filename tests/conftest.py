"""Fixtures shared by the test modules."""

import json

import pytest

from twistlog import expansion


@pytest.fixture
def old_massuyeau(monkeypatch):
    """Make ``load_fixture`` trust the shipped Massuyeau data up to degree
    5, as it once did: its default is then a truncation-4 expansion whose
    ell(zeta) = omega fails in degree 5."""
    data_text = expansion._data_text
    payload = json.loads(data_text("massuyeau.json"))
    payload["max_trusted_degree"] = 5
    edited = json.dumps(payload)
    monkeypatch.setattr(
        expansion, "_data_text",
        lambda name: edited if name == "massuyeau.json" else data_text(name),
    )
