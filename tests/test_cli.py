"""End-to-end command line behavior: exit codes, JSON output, file handling."""

import argparse
import hashlib
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

import twistlog

from twistlog import cli, expansion
from twistlog.cli import _pretty_tensors, build_parser, main
from twistlog.derivation import derivation_from_json
from twistlog.expansion import (
    _check_size,
    evaluate,
    expansion_from_json,
    expansion_to_json,
    exponential_expansion,
    load_fixture,
)
from twistlog.lie import bracket
from twistlog.rationals import Rat
from twistlog.tensor import (
    AlgebraContext,
    basis_tensor,
    one_tensor,
    tensor_from_json,
    tensor_to_json,
)
from twistlog.words import (
    MAX_POWER_LETTERS,
    automorphism_to_json,
    twist,
    word_from_string,
)


def test_no_arguments_is_a_usage_error(capsys):
    assert main([]) == 2
    assert capsys.readouterr().err.startswith("usage: twistlog")


def test_eval_json_round_trips(capsys):
    rc = main(["eval", "--word", "a1 b2", "--expansion", "fixture:g2", "--output", "json"])
    assert rc == 0
    theta = load_fixture("fixture-genus2")
    expected = evaluate(theta, word_from_string(2, "a1 b2"))
    assert tensor_from_json(json.loads(capsys.readouterr().out)) == expected


def test_eval_pretty_output(capsys):
    rc = main(["eval", "--word", "a1", "--expansion", "builtin:standard",
               "--genus", "1", "--degree", "3"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "1/1 1  +  1/1 A1"


def test_pretty_tensor_uses_the_lyndon_form_exactly_for_lie_tensors():
    ctx = AlgebraContext(2, 3)
    a, b, c = (basis_tensor(ctx, i) for i in range(3))
    lie = bracket(a, b).scale(Rat(-1, 2)) + a.scale(2) + bracket(c, bracket(a, b))
    cases = [
        (lie, "2/1 A1  +  -1/2 [A1,B1]  +  -1/1 [A1,[B1,A2]]  +  -1/1 [[A1,A2],B1]"),
        (a * b + b, "1/1 B1  +  1/1 A1B1"),
        # the Lyndon elimination peels A1 and [A1,B1], then fails on B1A1
        (a + a * b, "1/1 A1  +  1/1 A1B1"),
        (one_tensor(ctx) + bracket(a, c), "1/1 1  +  1/1 A1A2  +  -1/1 A2A1"),
        (a - a, "0"),
        (
            bracket(a, b) + bracket(c, bracket(a, b)),
            "1/1 [A1,B1]  +  -1/1 [A1,[B1,A2]]  +  -1/1 [[A1,A2],B1]",
        ),
    ]
    for t, line in cases:
        assert _pretty_tensors([t]) == [line]
    # one memo serves them all, a failed elimination included
    assert _pretty_tensors([t for t, _ in cases]) == [line for _, line in cases]


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


def test_check_expansion_passes_massuyeaus_expansion(tmp_path, capsys):
    # trusted to truncation 3; see the next test for truncation 4
    path = tmp_path / "massuyeau.json"
    path.write_text(json.dumps(expansion_to_json(load_fixture("fixture-massuyeau"))))
    assert main(["check-expansion", "--in", str(path), "--output", "json"]) == 0
    cert = json.loads(capsys.readouterr().out)
    assert cert["status"] == "pass"
    assert cert["params"] == {"genus": 1, "truncation": 3, "kind": "fixture-massuyeau"}


def test_check_expansion_fails_massuyeaus_data_one_degree_up(tmp_path, capsys, old_massuyeau):
    path = tmp_path / "massuyeau.json"
    path.write_text(json.dumps(expansion_to_json(load_fixture("fixture-massuyeau"))))
    assert main(["check-expansion", "--in", str(path), "--output", "json"]) == 1
    cert = json.loads(capsys.readouterr().out)
    assert cert["status"] == "fail" and cert["params"]["truncation"] == 4
    assert cert["witness"] == "ell(zeta) != omega, first in degree 5"


def test_check_expansion_refuses_a_file_missing_generators(tmp_path, capsys):
    # a genus-2 file giving only log a1 = A1 leaves the boundary condition
    # untestable, so neither check-expansion nor a file: source accepts it
    a1 = {"name": "a1", "log": tensor_to_json(basis_tensor(AlgebraContext(2, 3), 0))}
    path = tmp_path / "a1-only.json"
    path.write_text(json.dumps({"genus": 2, "truncation": 3, "kind": "user", "generators": [a1]}))
    for argv in (
        ["check-expansion", "--in", str(path)],
        ["eval", "--word", "a1", "--expansion", f"file:{path}"],
    ):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "twistlog: error: expansion JSON is missing the generators b1, a2, b2\n"


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
    if case == "generators-object":
        return dict(theta_json, generators={first["name"]: first["log"]})
    if case == "generator-int":
        return dict(theta_json, generators=[1])
    return dict(theta_json, generators=[first["name"]])  # a bare string


# the refusal a case must reach, where another refusal would also exit 2
_MALFORMED_MESSAGES = {
    "generators-object": "expansion JSON 'generators' must be a list",
    "generator-int": "generator entry must be an object with 'name' and 'log': 1",
}


def _limit_address_space():
    # an input that asks for gigabytes then fails at once in the child
    # instead of taking the memory of the machine
    hard = resource.getrlimit(resource.RLIMIT_AS)[1]
    limit = 2 << 30 if hard == resource.RLIM_INFINITY else min(hard, 2 << 30)
    resource.setrlimit(resource.RLIMIT_AS, (limit, hard))


def _run_in_fresh_interpreter(*argv, module="twistlog.cli", stdout=subprocess.PIPE):
    # a fresh interpreter, so that an uncaught exception would show as a
    # traceback on stderr and exit 1; module None passes argv to python itself
    pkg_root = str(Path(twistlog.__file__).resolve().parent.parent)
    inherited = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": pkg_root + (os.pathsep + inherited if inherited else "")}
    return subprocess.run(
        [sys.executable, *(("-m", module) if module else ()), *argv],
        env=env,
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
        preexec_fn=_limit_address_space,
    )


def test_n_refuses_a_code_space_above_the_limit_at_once():
    # N of one degree-9 monomial at genus 4 would need 8^9, about 134M,
    # orbit slots; the refusal comes before any of them is allocated
    code = (
        "import time\n"
        "from twistlog.cyclic import cyclic_n\n"
        "from twistlog.tensor import AlgebraContext, monomial_tensor\n"
        "t = monomial_tensor(AlgebraContext(4, 9), (0,) * 9)\n"
        "start = time.perf_counter()\n"
        "try:\n"
        "    cyclic_n(t)\n"
        "except ValueError as exc:\n"
        "    print(time.perf_counter() - start, exc)\n"
    )
    proc = _run_in_fresh_interpreter("-c", code, module=None)
    assert proc.returncode == 0 and not proc.stderr, proc.stderr
    seconds, message = proc.stdout.split(" ", 1)
    assert float(seconds) < 1
    assert message.strip() == "N in degree 9 over 8 letters spans 8^9 monomials, above the limit of 400000"


def _assert_usage_error_in_fresh_interpreter(*argv, module="twistlog.cli"):
    proc = _run_in_fresh_interpreter(*argv, module=module)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("twistlog: error:")
    assert len(proc.stderr.splitlines()) == 1
    return proc


@pytest.mark.parametrize(
    "case",
    [
        "genus-string",
        "generator-without-log",
        "generator-bare-string",
        "generators-object",
        "generator-int",
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
    proc = _assert_usage_error_in_fresh_interpreter("check-expansion", "--in", str(path))
    assert _MALFORMED_MESSAGES.get(case, "") in proc.stderr


@pytest.mark.parametrize("case", ["generators-object", "generator-int"])
def test_malformed_generators_are_refused_in_process(case, tmp_path, capsys):
    theta_json = _malformed_generators(expansion_to_json(exponential_expansion(1, 3)), case)
    with pytest.raises(ValueError) as refusal:
        expansion_from_json(theta_json)
    assert str(refusal.value) == _MALFORMED_MESSAGES[case]
    path = tmp_path / "theta.json"
    path.write_text(json.dumps(theta_json))
    assert main(["check-expansion", "--in", str(path)]) == 2
    assert _MALFORMED_MESSAGES[case] in capsys.readouterr().err


def test_check_expansion_refuses_an_exponent_coefficient_at_once(tmp_path):
    # Fraction("1e10000000") builds a ten-million-digit integer first
    theta_json = expansion_to_json(exponential_expansion(1, 3))
    first = theta_json["generators"][0]
    log = dict(first["log"], terms=[dict(first["log"]["terms"][0], coeff="1e10000000")])
    gens = [dict(first, log=log)] + theta_json["generators"][1:]
    path = tmp_path / "theta.json"
    path.write_text(json.dumps(dict(theta_json, generators=gens)))
    start = time.perf_counter()
    _assert_usage_error_in_fresh_interpreter("check-expansion", "--in", str(path))
    assert time.perf_counter() - start < 1


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


@pytest.mark.parametrize("argv", [
    ["check-expansion", "--in", "{path}"],
    ["eval", "--expansion", "file:{path}", "--word", "a1"],
    ["johnson", "--curve", "conj:{path}", "--k", "1"],
])
def test_deeply_nested_json_is_a_usage_error(argv, tmp_path):
    # deeper than the JSON parser's recursion limit
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    proc = _run_in_fresh_interpreter(*[arg.format(path=path) for arg in argv])
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith("twistlog: error:") and "nested too deeply" in proc.stderr
    assert len(proc.stderr.splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "transvection"],
    # about 147 KB, more than a pipe buffer holds, so print itself fails
    ["eval", "--expansion", "build", "--genus", "2", "--degree", "6",
     "--word", "a1 b1 a2 b2 A1", "--output", "json"],
], ids=["verify", "large-eval"])
def test_a_reader_that_closed_early_gives_exit_141_and_no_traceback(argv, monkeypatch):
    # block-buffered stdout, as by default, so output can still be pending
    # when the command returns
    monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before anything is written
    try:
        proc = _run_in_fresh_interpreter(*argv, stdout=write_end)
    finally:
        os.close(write_end)
    assert proc.returncode == 141, proc.stderr
    assert proc.stderr == ""


@pytest.mark.parametrize("conjugator, message", [
    # images from a file are checked against the factorization that comes with them
    ({"genus": 2, "images": ["a1", "a1", "a2", "b2"], "factorization": [{"kind": "nonsep"}]},
     "disagree"),
    # images alone are refused as the file is read
    ({"genus": 2, "images": ["a1", "b1 a1", "a2", "b2"]}, "'factorization'"),
], ids=["disagreeing-images", "images-only"])
def test_johnson_refuses_a_conjugator_that_is_not_a_twist_word(conjugator, message, tmp_path, capsys):
    path = tmp_path / "phi.json"
    path.write_text(json.dumps(conjugator))
    argv = ["johnson", "--curve", f"conj:{path}", "--k", "1", "--expansion", "fixture:g2"]
    assert main(argv) == 2
    assert message in capsys.readouterr().err


def test_a_conjugator_base_is_never_a_conjugator_file(tmp_path):
    phi = {"genus": 2, "factorization": [{"kind": "sep", "h": 1, "power": 1}]}
    plain, chained, looped = (tmp_path / f"{name}.json" for name in ("plain", "chained", "looped"))
    plain.write_text(json.dumps(phi))
    chained.write_text(json.dumps({"phi": phi, "base": f"conj:{plain}"}))
    looped.write_text(json.dumps({"phi": phi, "base": f"conj:{looped}"}))  # names itself
    for path in (chained, looped):
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


def test_johnson_refuses_a_long_factorization_at_once(tmp_path):
    # eight entries, each at the bound alone
    entries = [{"kind": "sep", "h": 1, "power": MAX_POWER_LETTERS // 4},
               {"kind": "nonsep", "power": MAX_POWER_LETTERS}] * 4
    path = tmp_path / "phi.json"
    path.write_text(json.dumps({"genus": 2, "factorization": entries}))
    start = time.perf_counter()
    _assert_usage_error_in_fresh_interpreter(
        "johnson", "--curve", f"conj:{path}", "--k", "1", "--expansion", "fixture:g2"
    )
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("case", ["fixture", "expansion-file", "conjugator-file"])
def test_absurd_genus_is_refused_at_once(case, tmp_path):
    # each of these once allocated a list of 2g entries, about 16 GB
    path = tmp_path / "input.json"
    if case == "fixture":
        argv = ["eval", "--expansion", "fixture:massuyeau", "--genus", "1000000000", "--word", "a1"]
    elif case == "expansion-file":
        path.write_text(json.dumps(
            {"genus": 1000000000, "truncation": 3, "kind": "user", "generators": []}
        ))
        argv = ["check-expansion", "--in", str(path)]
    else:
        path.write_text(json.dumps({"genus": 1000000000, "factorization": []}))
        argv = ["johnson", "--curve", f"conj:{path}", "--k", "1", "--expansion", "fixture:g2"]
    start = time.perf_counter()
    _assert_usage_error_in_fresh_interpreter(*argv)
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
    path.write_text(json.dumps(automorphism_to_json(twist(2, "sep", 1))))
    rc = main(["johnson", "--curve", f"conj:{path}", "--k", "2",
               "--expansion", "fixture:g2", "--output", "json"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["curve"] == "conj(sep1^1):nonsep"
    # wrapped form with an explicit base curve
    wrapped = tmp_path / "wrapped.json"
    wrapped.write_text(json.dumps(
        {"phi": automorphism_to_json(twist(2, "sep", 2)), "base": "sep:1"}
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
    # Massuyeau's expansion is symplectic at genus 1, so sigma accepts it
    rc = main(["sigma", "--loop", "a1", "--word", "b1",
               "--expansion", "fixture:massuyeau", "--output", "json"])
    assert rc == 0
    assert tensor_from_json(json.loads(capsys.readouterr().out)).ctx.genus == 1


def test_l_invariant_outputs(capsys):
    rc = main(["l-invariant", "--word", "a1", "--expansion", "fixture:g1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].startswith("L(A1) = ")
    rc = main(["l-invariant", "--word", "a1", "--expansion", "fixture:g1",
               "--output", "json"])
    assert rc == 0
    derivation_from_json(json.loads(capsys.readouterr().out))


def test_python_dash_m_twistlog_runs_the_command_line():
    proc = _run_in_fresh_interpreter("verify", "--suite", "transvection", module="twistlog")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("PASS transvection")
    _assert_usage_error_in_fresh_interpreter("verify", "--suite", "no-such-check", module="twistlog")


REENTRANT_CALLS = (
    ["johnson", "--curve", "sep:1", "--k", "2"],
    ["eval", "--word", "a1 B2"],
    ["eval", "--word"],  # malformed: exit 2
    ["--help"],
    ["l-invariant", "--word", "a1 b1", "--expansion", "fixture:g1"],
    ["eval", "--word", "a1 B2"],
)


def test_the_shared_parser_is_reentrant(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")  # --help wraps to the terminal width
    # each call as it runs first in its process, and the namespace of a parser
    # that has parsed nothing before
    firsts = [_run_in_fresh_interpreter(*argv, module="twistlog") for argv in REENTRANT_CALLS]
    fresh = []
    for argv in REENTRANT_CALLS:
        try:
            fresh.append(vars(build_parser().parse_args(argv)))
        except SystemExit:
            fresh.append(None)
    capsys.readouterr()

    constructed = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        constructed.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    seen = []

    class Recording:
        def parse_args(self, argv):
            args = real.parse_args(argv)
            seen.append(dict(vars(args)))
            return args

    real = cli.PARSER
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    monkeypatch.setattr(cli, "PARSER", Recording())
    for argv, first, namespace in zip(REENTRANT_CALLS, firsts, fresh):
        code = main(argv)  # returns on --help and usage errors too
        out, err = capsys.readouterr()
        assert (code, out, err) == (first.returncode, first.stdout, first.stderr), argv
        assert (seen.pop() if seen else None) == namespace, argv
    assert constructed == []


def test_pretty_l_invariant_and_johnson_outputs_are_pinned(capsys):
    # SHA-256 of the outputs before the values of one command shared their
    # Lyndon bracket expansions; the pretty form must not change with that
    digest = hashlib.sha256()
    for fx, genus, words in (
        ("g1", 1, ("a1", "a1 b1", "B1 a1 a1", "a1 b1 A1 B1")),
        ("g2", 2, ("a1", "a1 b2", "b1 A2 B1", "a2 b2 A1 B1")),
    ):
        common = ["--expansion", f"fixture:{fx}"]
        calls = [["l-invariant", "--word", w] + common for w in words]
        for curve in ["nonsep"] + [f"sep:{h}" for h in range(1, genus + 1)]:
            calls += [["johnson", "--curve", curve, "--k", str(k)] + common for k in (1, 2, 3)]
        for argv in calls:
            assert main(argv) == 0
            digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == "e4ffa03e99a4542566833d99924cc444f7b096eb88b86d700fe509b6c0d07d22"


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


@pytest.mark.parametrize("suite", ["", ",", " , "])
def test_verify_with_no_checks_selected_is_a_usage_error(suite, capsys):
    assert main(["verify", "--suite", suite]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("twistlog: error: no checks selected")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("argv, message", [
    (["--expansion", "fixture:g1", "--genus", "2"], "--genus 2 conflicts with fixture:g1, of genus 1"),
    (
        ["--expansion", "fixture:g2", "--degree", "9"],
        "fixture-genus2 is only trusted up to truncation 4, requested 9",
    ),
    (
        ["--expansion", "fixture:massuyeau", "--genus", "2"],
        "--genus 2 conflicts with fixture:massuyeau, of genus 1",
    ),
])
def test_fixture_refusals_name_the_fixture_once(argv, message, capsys):
    assert main(["eval", "--word", "a1", *argv]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"twistlog: error: {message}\n"


@pytest.mark.parametrize("option, message", [
    (["--genus", "2"], "--genus 2 conflicts with {source}, of genus 1"),
    (["--degree", "3"], "--degree 3 conflicts with {source}, of truncation 4"),
])
def test_file_source_refuses_a_conflicting_genus_or_degree(option, message, tmp_path, capsys):
    path = tmp_path / "theta.json"
    path.write_text(json.dumps(expansion_to_json(exponential_expansion(1, 4))))
    source = f"file:{path}"
    assert main(["eval", "--word", "a1", "--expansion", source, *option]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"twistlog: error: {message.format(source=source)}\n"


def test_fixture_generator_names_are_checked(monkeypatch, capsys):
    # a data file naming a generator c1 must not load as a1
    data_text = expansion._data_text
    payload = json.loads(data_text("genus1.json"))
    payload["generators"]["c1"] = payload["generators"].pop("a1")
    edited = json.dumps(payload)
    monkeypatch.setattr(
        expansion, "_data_text", lambda name: edited if name == "genus1.json" else data_text(name)
    )
    assert main(["eval", "--expansion", "fixture:g1", "--word", "a1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("twistlog: error:") and "'c1'" in err
    assert len(err.splitlines()) == 1
    # the untouched files still load
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
