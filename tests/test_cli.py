"""End-to-end command line behavior: exit codes, JSON output, file handling."""

import json
import os
import shutil
import subprocess
import sys
import time
from importlib import resources
from pathlib import Path

import pytest

import twistlog

from twistlog.cli import main
from twistlog.derivation import derivation_from_json
from twistlog.expansion import (
    _check_size,
    evaluate,
    expansion_to_json,
    exponential_expansion,
    fixture_genus2,
    fixture_massuyeau_partial,
)
from twistlog.tensor import tensor_from_json
from twistlog.words import automorphism_to_json, twist_separating, word_from_string


def test_no_arguments_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    capsys.readouterr()


def test_eval_json_round_trips(capsys):
    rc = main(["eval", "--word", "a1 b2", "--expansion", "fixture:g2", "--output", "json"])
    assert rc == 0
    theta = fixture_genus2()
    expected = evaluate(theta, word_from_string(2, "a1 b2"))
    assert tensor_from_json(json.loads(capsys.readouterr().out)) == expected


def test_eval_pretty_output(capsys):
    rc = main(["eval", "--word", "a1", "--expansion", "builtin:standard",
               "--genus", "1", "--degree", "3"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "1/1 1  +  1/1 A1"


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--word", "c1", "--expansion", "fixture:g2"],
        ["eval", "--word", "a1", "--expansion", "builtin:nope"],
        ["eval", "--word", "a1", "--expansion", "fixture:g1", "--genus", "2"],
        ["eval", "--word", "a1", "--expansion", "fixture:g1", "--degree", "9"],
    ],
)
def test_usage_errors_exit_two(argv, capsys):
    assert main(argv) == 2
    assert "twistlog: error:" in capsys.readouterr().err


def test_build_then_check_round_trip(tmp_path, capsys):
    out = tmp_path / "theta.json"
    rc = main(["build-expansion", "--genus", "1", "--degree", "4",
               "--out", str(out), "--output", "json"])
    assert rc == 0
    cert = json.loads(capsys.readouterr().out)
    assert cert["status"] == "pass" and cert["check"] == "is-symplectic"
    rc = main(["check-expansion", "--in", str(out), "--output", "json"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["status"] == "pass"


def test_check_flags_non_symplectic_expansion(tmp_path, capsys):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(expansion_to_json(exponential_expansion(1, 4))))
    rc = main(["check-expansion", "--in", str(path)])
    assert rc == 1
    out = capsys.readouterr().out
    assert out.startswith("FAIL") and "ell(zeta) != omega" in out


def test_check_partial_expansion_passes(tmp_path, capsys):
    path = tmp_path / "partial.json"
    path.write_text(json.dumps(expansion_to_json(fixture_massuyeau_partial())))
    rc = main(["check-expansion", "--in", str(path), "--output", "json"])
    assert rc == 0
    cert = json.loads(capsys.readouterr().out)
    assert cert["params"]["partial"] is True


def test_build_expansion_argument_validation(tmp_path, capsys):
    out = str(tmp_path / "x.json")
    assert main(["build-expansion", "--genus", "0", "--degree", "4", "--out", out]) == 2
    assert main(["build-expansion", "--genus", "1", "--degree", "1", "--out", out]) == 2
    bad = str(tmp_path / "missing" / "x.json")
    assert main(["build-expansion", "--genus", "1", "--degree", "3", "--out", bad]) == 2
    capsys.readouterr()


def test_check_expansion_bad_input(tmp_path, capsys):
    assert main(["check-expansion", "--in", str(tmp_path / "nope.json")]) == 2
    corrupt = tmp_path / "corrupt.json"
    corrupt.write_text("{not json")
    assert main(["check-expansion", "--in", str(corrupt)]) == 2
    capsys.readouterr()


def _malformed_generators(theta_json, case):
    if case == "genus-string":
        return dict(theta_json, genus=str(theta_json["genus"]))
    first = theta_json["generators"][0]
    if case == "generator-without-log":
        return dict(theta_json, generators=[{"name": first["name"]}])
    if case.startswith("name:"):
        # rename the generator whose letter the bad name starts with
        name = case[5:]
        gens = [dict(g, name=name) if g["name"][0] == name[0] else g for g in theta_json["generators"]]
        return dict(theta_json, generators=gens)
    return dict(theta_json, generators=[first["name"]])  # a bare string


def _assert_usage_error_in_fresh_interpreter(*argv):
    # a fresh interpreter, so that an uncaught exception would show as a
    # traceback on stderr and exit 1
    pkg_root = str(Path(twistlog.__file__).resolve().parent.parent)
    inherited = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": pkg_root + (os.pathsep + inherited if inherited else "")}
    proc = subprocess.run(
        [sys.executable, "-m", "twistlog.cli", *argv],
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("twistlog: error:")
    assert len(proc.stderr.splitlines()) == 1


@pytest.mark.parametrize(
    "case",
    [
        "genus-string",
        "generator-without-log",
        "generator-bare-string",
        # generator names are ASCII [ab][1-9][0-9]*, matched in full
        "name:a+1",
        "name:a 1",
        "name:a01",
        "name:b\u0661",
    ],
)
def test_check_expansion_malformed_json_exits_two(case, tmp_path):
    path = tmp_path / "theta.json"
    path.write_text(json.dumps(_malformed_generators(expansion_to_json(exponential_expansion(1, 3)), case)))
    _assert_usage_error_in_fresh_interpreter("check-expansion", "--in", str(path))


@pytest.mark.parametrize(
    "conjugator",
    [
        {"genus": 2, "factorization": [{"kind": "nonsep", "power": 1.5}]},
        {"genus": 2, "factorization": [{"kind": "nonsep", "power": "2"}]},
        {"genus": 2, "factorization": ["nonsep"]},
        {"genus": "2", "images": ["a1", "b1", "a2", "b2"]},
        {"genus": True, "images": ["a1", "b1"]},
        {"genus": 2, "factorization": [{"kind": "sep", "h": True, "power": 1}]},
        {"genus": 2, "factorization": {"kind": "nonsep"}},
        {"genus": 2, "images": ["a1", "b1", "a2", 4]},
        {"phi": {"genus": 2, "factorization": []}, "base": 1},
    ],
)
def test_johnson_malformed_conjugator_exits_two(conjugator, tmp_path):
    path = tmp_path / "phi.json"
    path.write_text(json.dumps(conjugator))
    _assert_usage_error_in_fresh_interpreter(
        "johnson", "--curve", f"conj:{path}", "--k", "1", "--expansion", "fixture:g2"
    )


def test_johnson_refuses_a_huge_twist_power_at_once(tmp_path):
    path = tmp_path / "phi.json"
    path.write_text(json.dumps({"genus": 2, "factorization": [{"kind": "nonsep", "power": 200000}]}))
    start = time.perf_counter()
    _assert_usage_error_in_fresh_interpreter(
        "johnson", "--curve", f"conj:{path}", "--k", "1", "--expansion", "fixture:g2"
    )
    assert time.perf_counter() - start < 1


def test_johnson_component_json(capsys):
    rc = main(["johnson", "--curve", "nonsep", "--k", "1",
               "--expansion", "fixture:g2", "--output", "json"])
    assert rc == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["curve"] == "nonsep" and obj["k"] == 1
    assert sorted(obj["values"]) == ["A1", "A2", "B1", "B2"]
    for blob in obj["values"].values():
        tensor_from_json(blob)


def test_johnson_component_errors(tmp_path, capsys):
    base = ["johnson", "--expansion", "fixture:g2"]
    assert main(base + ["--curve", "nonsep", "--k", "99"]) == 2
    assert main(base + ["--curve", "sep:9", "--k", "1"]) == 2
    assert main(base + ["--curve", "conj:" + str(tmp_path / "nope.json"), "--k", "1"]) == 2
    assert main(base + ["--curve", "wiggly", "--k", "1"]) == 2
    # h is an ASCII numeral [1-9][0-9]*, matched in full
    for descriptor in ("sep:+1", "sep: 1", "sep:\u0661", "sep:01", "sep:0", "sep:"):
        assert main(base + ["--curve", descriptor, "--k", "1"]) == 2, descriptor
    capsys.readouterr()


def test_johnson_conjugated_curve_from_file(tmp_path, capsys):
    path = tmp_path / "phi.json"
    path.write_text(json.dumps(automorphism_to_json(twist_separating(2, 1))))
    rc = main(["johnson", "--curve", f"conj:{path}", "--k", "2",
               "--expansion", "fixture:g2", "--output", "json"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["curve"] == "conj(sep1^1):nonsep"
    # wrapped form with an explicit base curve
    wrapped = tmp_path / "wrapped.json"
    wrapped.write_text(json.dumps(
        {"phi": automorphism_to_json(twist_separating(2, 2)), "base": "sep:1"}
    ))
    rc = main(["johnson", "--curve", f"conj:{wrapped}", "--k", "2",
               "--expansion", "fixture:g2", "--output", "json"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["curve"] == "conj(sep2^1):sep:1"


def test_sigma_command(capsys):
    rc = main(["sigma", "--loop", "a1", "--word", "b1", "--expansion", "fixture:g2",
               "--output", "json"])
    assert rc == 0
    tensor_from_json(json.loads(capsys.readouterr().out))
    # the partial fixture cannot certify symplecticity, so sigma refuses it
    rc = main(["sigma", "--loop", "a1", "--word", "b1",
               "--expansion", "fixture:massuyeau"])
    assert rc == 2
    capsys.readouterr()


def test_l_invariant_outputs(capsys):
    rc = main(["l-invariant", "--word", "a1", "--expansion", "fixture:g1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].startswith("L(A1) = ")
    rc = main(["l-invariant", "--word", "a1", "--expansion", "fixture:g1",
               "--output", "json"])
    assert rc == 0
    derivation_from_json(json.loads(capsys.readouterr().out))


def test_verify_selected_checks(capsys):
    rc = main(["verify", "--suite", "transvection", "--output", "json"])
    assert rc == 0
    cert = json.loads(capsys.readouterr().out)
    assert cert["check"] == "transvection" and cert["status"] == "pass"
    rc = main(["verify", "--suite", "transvection,necklace-oracle"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 and all(line.startswith("PASS") for line in lines)
    assert main(["verify", "--suite", "no-such-check"]) == 2
    capsys.readouterr()


def test_fixture_generator_names_are_checked(tmp_path, monkeypatch, capsys):
    # a data file naming a generator c1 must not load as a1
    for name in ("genus1.json", "genus2.json", "massuyeau_partial.json"):
        with resources.as_file(resources.files("twistlog.data").joinpath(name)) as src:
            shutil.copy(src, tmp_path / name)
    payload = json.loads((tmp_path / "genus1.json").read_text())
    payload["generators"]["c1"] = payload["generators"].pop("a1")
    (tmp_path / "genus1.json").write_text(json.dumps(payload))
    monkeypatch.setenv("TWISTLOG_DATA_DIR", str(tmp_path))
    assert main(["eval", "--expansion", "fixture:g1", "--word", "a1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("twistlog: error:") and "'c1'" in err
    assert len(err.splitlines()) == 1
    # the untouched files in the same directory still load
    assert main(["eval", "--expansion", "fixture:g2", "--word", "a1"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["eval", "--expansion", "build", "--genus", "2", "--degree", "99", "--word", "a1"],
    ["l-invariant", "--expansion", "build", "--genus", "5", "--degree", "9", "--word", "a1"],
    ["eval", "--expansion", "builtin:exp", "--genus", "3", "--degree", "7", "--word", "a1"],
    ["eval", "--expansion", "builtin:standard", "--genus", "2", "--degree", "1000000", "--word", "a1"],
    ["build-expansion", "--genus", "2", "--degree", "9", "--out", "{out}"],
])
def test_oversized_algebras_are_refused_at_once(argv, tmp_path, capsys):
    argv = [a.replace("{out}", str(tmp_path / "x.json")) for a in argv]
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert err.startswith("twistlog: error:") and "monomials" in err and "10^" in err
    assert not (tmp_path / "x.json").exists()


def test_size_limit_admits_the_documented_sizes():
    for genus, degree in ((2, 8), (3, 6), (4, 5), (1, 16)):
        _check_size(genus, degree)
