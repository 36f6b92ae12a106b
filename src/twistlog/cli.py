"""Command line front end.

Exit codes are a stable contract: 0 success, 1 verification failure,
2 usage or parse error, 141 the output's reader closed early.  ``main``
returns every one of them, --help and argparse's usage errors included; it
raises no SystemExit.  All file formats are the JSON forms defined by the
library modules, re-readable and deterministic (sorted monomials).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .derivation import derivation_to_json
from .expansion import (
    Expansion,
    build_symplectic,
    evaluate,
    expansion_from_json,
    expansion_to_json,
    exponential_expansion,
    load_fixture,
    restrict,
    standard_expansion,
    symplectic_failures,
)
from .johnson import (
    Certificate,
    Curve,
    certificate,
    certificate_to_json,
    curve_twist,
    describe_curve,
    johnson_component,
    l_invariant,
    sigma_act,
)
from .lie import lyndon_bracket_forms
from .rationals import rat_to_string, ratio_to_string
from .suite import run_check, suite_names
from .tensor import decode_monomial, scaled_terms, tensor_to_json
from .words import automorphism_from_json, parse_twist, word_from_string

FIXTURES = {
    "fixture:g1": "fixture-genus1",
    "fixture:g2": "fixture-genus2",
    "fixture:massuyeau": "fixture-massuyeau",
}
BUILDERS = {
    "builtin:standard": standard_expansion,
    "builtin:exp": exponential_expansion,
    "build": build_symplectic,
}
SOURCES = (*FIXTURES, *BUILDERS, "file:PATH")


class UsageError(ValueError):
    """A bad argument or input; ``main`` exits 2 on every ValueError."""


def _read_json(path: str, what: str):
    """The JSON value in the file at ``path``.  A file that cannot be read,
    is not JSON or nests too deeply for the parser is a usage error."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read {what}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"{what} is not JSON: {exc}") from exc
    except RecursionError:
        raise UsageError(f"{what} is nested too deeply") from None


def _resolve_expansion(source: str, genus, degree) -> Expansion:
    """Map a source descriptor to an Expansion.  A genus/degree of None takes
    the source's default; a lower --degree restricts a fixture or file."""
    if source in BUILDERS:
        return BUILDERS[source](2 if genus is None else genus, 5 if degree is None else degree)
    if source.startswith("file:"):
        theta = expansion_from_json(_read_json(source[5:], "expansion file"))
    elif source in FIXTURES:
        theta = load_fixture(FIXTURES[source])
    else:
        raise UsageError(
            f"unknown expansion source {source!r}; expected one of: " + ", ".join(SOURCES)
        )
    if genus is not None and theta.genus != genus:
        raise UsageError(f"--genus {genus} conflicts with {source}, of genus {theta.genus}")
    if degree is not None and degree > theta.truncation:
        raise UsageError(f"--degree {degree} is above {source}, of truncation {theta.truncation}")
    return theta if degree is None else restrict(theta, degree)


def _parse_curve(genus: int, descriptor: str) -> Curve:
    if not descriptor.startswith("conj:"):
        return Curve(*parse_twist(genus, descriptor))
    obj = _read_json(descriptor[5:], "conjugator file")
    base = "nonsep"
    if isinstance(obj, dict) and "phi" in obj:
        base, obj = obj.get("base", base), obj["phi"]
    kind, h = parse_twist(genus, base)
    # refused before the automorphism is built, whose size grows with its genus
    if isinstance(obj, dict) and type(obj.get("genus")) is int and obj["genus"] != genus:
        raise UsageError(
            f"conjugator genus {obj['genus']} differs from the expansion genus {genus}"
        )
    return Curve(kind, h, automorphism_from_json(obj))


def _pretty_tensors(tensors) -> list:
    """Each tensor as one line: its Lyndon form where it is Lie, else its
    monomials by degree, then lexicographically.  Tensors passed together
    expand each bracket once, and write each distinct bracket subtree once."""
    names = []  # basis index -> name, up to the largest rank seen
    texts = {}  # bracket tree -> text

    def text(tree):
        if isinstance(tree, int):
            return names[tree]
        hit = texts.get(tree)
        if hit is None:
            hit = texts[tree] = f"[{text(tree[0])},{text(tree[1])}]"
        return hit

    lines = []
    for t, form in zip(tensors, lyndon_bracket_forms(tensors)):
        if not t:
            lines.append("0")
            continue
        ctx = t.ctx
        names += [ctx.basis_name(i) for i in range(len(names), ctx.dim)]
        if form is None:
            blocks, den = scaled_terms(t)
            pieces = [
                f"{ratio_to_string(c, den)} "
                + ("".join(names[i] for i in decode_monomial(code, d, ctx.dim)) if d else "1")
                for d in sorted(blocks)
                for code, c in sorted(blocks[d].items())
            ]
        else:
            pieces = [f"{rat_to_string(c)} {text(tree)}" for c, tree in form]
        lines.append("  +  ".join(pieces))
    return lines


def _emit_tensor(t, mode: str) -> None:
    if mode == "json":
        print(json.dumps(tensor_to_json(t), sort_keys=True))
    else:
        print(_pretty_tensors([t])[0])


def _emit_certificate(cert: Certificate, mode: str) -> None:
    if mode == "json":
        print(json.dumps(certificate_to_json(cert), sort_keys=True))
    else:
        line = f"{cert.status.upper():4s} {cert.check}  {json.dumps(cert.params, sort_keys=True)}"
        if cert.witness is not None:
            line += f"\n     witness: {cert.witness}"
        print(line)


def _symplectic_certificate(theta: Expansion) -> Certificate:
    params = {"genus": theta.genus, "truncation": theta.truncation, "kind": theta.kind}
    return certificate("is-symplectic", params, symplectic_failures(theta))


# -- subcommand bodies ---------------------------------------------------------


def _cmd_build_expansion(args) -> int:
    theta = build_symplectic(args.genus, args.degree)
    payload = json.dumps(expansion_to_json(theta), sort_keys=True, indent=2)
    try:
        with open(args.out, "w") as fh:
            fh.write(payload + "\n")
    except OSError as exc:
        raise UsageError(f"cannot write {args.out!r}: {exc}") from exc
    cert = _symplectic_certificate(theta)
    _emit_certificate(cert, args.output)
    return 0 if cert.passed else 1


def _cmd_check_expansion(args) -> int:
    theta = expansion_from_json(_read_json(getattr(args, "in"), "expansion file"))
    cert = _symplectic_certificate(theta)
    _emit_certificate(cert, args.output)
    return 0 if cert.passed else 1


def _theta_and_word(args, word: str):
    theta = _resolve_expansion(args.expansion, args.genus, args.degree)
    return theta, word_from_string(theta.genus, word)


def _cmd_eval(args) -> int:
    theta, w = _theta_and_word(args, args.word)
    _emit_tensor(evaluate(theta, w), args.output)
    return 0


def _cmd_l_invariant(args) -> int:
    theta, w = _theta_and_word(args, args.word)
    L = l_invariant(theta, w)
    if args.output == "json":
        print(json.dumps(derivation_to_json(L), sort_keys=True))
    else:
        for j, line in enumerate(_pretty_tensors(L.values)):
            print(f"L({theta.ctx.basis_name(j)}) = {line}")
    return 0


def _cmd_johnson(args) -> int:
    theta = _resolve_expansion(args.expansion, args.genus, args.degree)
    curve = _parse_curve(theta.genus, args.curve)
    tc = curve_twist(theta.genus, curve)
    component = johnson_component(theta, tc, args.k)
    ctx = theta.ctx
    if args.output == "json":
        obj = {
            "curve": describe_curve(curve),
            "k": args.k,
            "values": {
                ctx.basis_name(j): tensor_to_json(component.values[j])
                for j in range(ctx.dim)
            },
        }
        print(json.dumps(obj, sort_keys=True))
    else:
        print(f"tau_{args.k} of the twist along {describe_curve(curve)}:")
        for j, line in enumerate(_pretty_tensors(component.values)):
            print(f"  {ctx.basis_name(j)} -> {line}")
    return 0


def _cmd_sigma(args) -> int:
    theta = _resolve_expansion(args.expansion, args.genus, args.degree)
    loop = word_from_string(theta.genus, args.loop)
    w = word_from_string(theta.genus, args.word)
    _emit_tensor(sigma_act(theta, loop, w), args.output)
    return 0


def _cmd_verify(args) -> int:
    if args.suite == "all":
        names = suite_names()
    else:
        names = [part.strip() for part in args.suite.split(",") if part.strip()]
        if not names:
            raise UsageError(
                f"no checks selected by --suite {args.suite!r}; known: {', '.join(suite_names())}"
            )
        unknown = [name for name in names if name not in suite_names()]
        if unknown:
            raise UsageError(
                f"unknown checks: {', '.join(unknown)}; known: {', '.join(suite_names())}"
            )
    certificates = [run_check(name) for name in names]
    for cert in certificates:
        _emit_certificate(cert, args.output)
    return 0 if all(cert.passed for cert in certificates) else 1


def _add_common(sub):
    sub.add_argument(
        "--expansion", default="fixture:g2", help="expansion source: " + " | ".join(SOURCES)
    )
    sub.add_argument("--genus", type=int, default=None)
    sub.add_argument("--degree", type=int, default=None)
    sub.add_argument("--output", choices=("json", "pretty"), default="pretty")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twistlog",
        description="Exact symbolic computations with symplectic expansions, "
        "Dehn twists, and Johnson maps.",
    )
    subs = parser.add_subparsers(dest="subcommand", required=True)

    sub = subs.add_parser("build-expansion", help="build a symplectic expansion")
    sub.add_argument("--genus", type=int, required=True)
    sub.add_argument("--degree", type=int, required=True)
    sub.add_argument("--out", required=True, help="output JSON path")
    sub.add_argument("--output", choices=("json", "pretty"), default="pretty")
    sub.set_defaults(fn=_cmd_build_expansion)

    sub = subs.add_parser("check-expansion", help="certify an expansion file")
    sub.add_argument("--in", required=True, help="expansion JSON path")
    sub.add_argument("--output", choices=("json", "pretty"), default="pretty")
    sub.set_defaults(fn=_cmd_check_expansion)

    sub = subs.add_parser("eval", help="evaluate the expansion on a word")
    sub.add_argument("--word", required=True, help="word like 'a1 b1 A1 B1'")
    _add_common(sub)
    sub.set_defaults(fn=_cmd_eval)

    sub = subs.add_parser("l-invariant", help="loop invariant of a word, as a derivation")
    sub.add_argument("--word", required=True)
    _add_common(sub)
    sub.set_defaults(fn=_cmd_l_invariant)

    sub = subs.add_parser("johnson", help="Johnson map component of a twist")
    sub.add_argument("--curve", required=True, help="nonsep | sep:h | conj:FILE")
    sub.add_argument("--k", type=int, required=True)
    _add_common(sub)
    sub.set_defaults(fn=_cmd_johnson)

    sub = subs.add_parser("sigma", help="action of a loop on a word")
    sub.add_argument("--loop", required=True)
    sub.add_argument("--word", required=True)
    _add_common(sub)
    sub.set_defaults(fn=_cmd_sigma)

    sub = subs.add_parser("verify", help="run certificate checks")
    sub.add_argument(
        "--suite",
        default="all",
        help="'all', one check name, or a comma-separated list "
        f"({', '.join(suite_names())})",
    )
    sub.add_argument("--output", choices=("json", "pretty"), default="pretty")
    sub.set_defaults(fn=_cmd_verify)

    return parser


# built once, at import: parsing leaves the parser as it was, so main may
# be called any number of times in one process
PARSER = build_parser()


def main(argv=None) -> int:
    """Run one command and return its exit code; usage errors and --help
    return theirs too, after argparse has printed what it prints."""
    try:
        args = PARSER.parse_args(argv)
    except SystemExit as exc:  # argparse's only way to stop
        return exc.code
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a reader that closed early fails here, not at exit
        return code
    except ValueError as exc:
        print(f"twistlog: error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the output's reader has gone (`twistlog ... | head`); send what is
        # still buffered to devnull, so the interpreter's flush at exit
        # cannot fail again, and exit as a shell does on SIGPIPE
        try:
            fd = sys.stdout.fileno()
        except OSError:  # an in-memory stdout has no descriptor
            fd = None
        if fd is not None:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, fd)
            os.close(devnull)
        return 141


if __name__ == "__main__":
    sys.exit(main())
