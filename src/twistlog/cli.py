"""Command line front end.

Exit codes are a stable contract: 0 success, 1 verification failure,
2 usage or parse error.  All file formats are the JSON forms defined by
the library modules, re-readable and deterministic (sorted monomials).
"""

from __future__ import annotations

import argparse
import json
import sys

from .derivation import derivation_to_json
from .expansion import (
    Expansion,
    _check_size,
    build_symplectic,
    evaluate,
    expansion_from_json,
    expansion_to_json,
    exponential_expansion,
    fixture_genus1,
    fixture_genus2,
    fixture_massuyeau_partial,
    standard_expansion,
    symplectic_failures,
)
from .johnson import (
    Certificate,
    Curve,
    certificate,
    certificate_to_json,
    conjugated_curve,
    curve_twist,
    describe_curve,
    johnson_component,
    l_invariant,
    nonsep_curve,
    sep_curve,
    sigma_act,
)
from .lie import format_bracket_tree, is_lie, lyndon_bracket_form
from .rationals import rat_to_string
from .suite import run_suite, suite_names
from .tensor import tensor_to_json
from .words import automorphism_from_json, parse_count, word_from_string

SOURCES = (
    "builtin:standard",
    "builtin:exp",
    "fixture:g1",
    "fixture:g2",
    "fixture:massuyeau",
    "build",
    "file:PATH",
)


class UsageError(Exception):
    pass


def _resolve_expansion(source: str, genus, degree) -> Expansion:
    """Map a source descriptor to an Expansion.  genus/degree of None mean
    'use the source's natural default' (fixtures know their own)."""
    try:
        if source.startswith("file:"):
            with open(source[5:]) as fh:
                theta = expansion_from_json(json.load(fh))
            if genus is not None and theta.genus != genus:
                raise UsageError(
                    f"--genus {genus} conflicts with file genus {theta.genus}"
                )
            if degree is not None and theta.truncation != degree:
                raise UsageError(
                    f"--degree {degree} conflicts with file truncation "
                    f"{theta.truncation}"
                )
            return theta
        if source == "fixture:g1":
            if genus not in (None, 1):
                raise UsageError("fixture:g1 is a genus-1 expansion")
            return fixture_genus1(degree)
        if source == "fixture:g2":
            if genus not in (None, 2):
                raise UsageError("fixture:g2 is a genus-2 expansion")
            return fixture_genus2(degree)
        if source == "fixture:massuyeau":
            return fixture_massuyeau_partial(2 if genus is None else genus, degree)
        genus = 2 if genus is None else genus
        degree = 5 if degree is None else degree
        if source in ("builtin:standard", "builtin:exp", "build"):
            _check_size(genus, degree)
        if source == "builtin:standard":
            return standard_expansion(genus, degree)
        if source == "builtin:exp":
            return exponential_expansion(genus, degree)
        if source == "build":
            return build_symplectic(genus, degree)
    except OSError as exc:
        raise UsageError(f"cannot read expansion file: {exc}") from exc
    except (ValueError, json.JSONDecodeError) as exc:
        raise UsageError(str(exc)) from exc
    raise UsageError(
        f"unknown expansion source {source!r}; expected one of: " + ", ".join(SOURCES)
    )


def _parse_curve(genus: int, descriptor: str) -> Curve:
    if descriptor == "nonsep":
        return nonsep_curve()
    if descriptor.startswith("sep:"):
        h = parse_count(descriptor[4:])
        if h is None:
            raise UsageError(f"bad separating-curve descriptor {descriptor!r}")
        if h > genus:
            raise UsageError(f"sep:{h} needs 1 <= h <= genus ({genus})")
        return sep_curve(h)
    if descriptor.startswith("conj:"):
        try:
            with open(descriptor[5:]) as fh:
                obj = json.load(fh)
        except OSError as exc:
            raise UsageError(f"cannot read conjugator file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise UsageError(f"conjugator file is not JSON: {exc}") from exc
        base = nonsep_curve()
        if isinstance(obj, dict) and "phi" in obj:
            base_descriptor = obj.get("base", "nonsep")
            if not isinstance(base_descriptor, str):
                raise UsageError(
                    f"conjugator base must be a curve descriptor, got {base_descriptor!r}"
                )
            base = _parse_curve(genus, base_descriptor)
            obj = obj["phi"]
        try:
            phi = automorphism_from_json(obj)
            return conjugated_curve(phi, base)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
    raise UsageError(
        f"unknown curve descriptor {descriptor!r}; expected nonsep | sep:h | conj:FILE"
    )


def _pretty_tensor(t) -> str:
    if not t:
        return "0"
    ctx = t.ctx
    pieces = []
    if not t.coefficient(()) and is_lie(t):
        for coeff, tree in lyndon_bracket_form(t):
            pieces.append(f"{rat_to_string(coeff)} {format_bracket_tree(ctx, tree)}")
    else:
        for mono in sorted(t.terms, key=lambda m: (len(m), m)):
            name = "1" if not mono else "".join(ctx.basis_name(i) for i in mono)
            pieces.append(f"{rat_to_string(t.terms[mono])} {name}")
    return "  +  ".join(pieces)


def _emit_tensor(t, mode: str) -> None:
    if mode == "json":
        print(json.dumps(tensor_to_json(t), sort_keys=True))
    else:
        print(_pretty_tensor(t))


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
    if theta.partial:
        params["partial"] = True
    return certificate("is-symplectic", params, symplectic_failures(theta))


# -- subcommand bodies ---------------------------------------------------------


def _cmd_build_expansion(args) -> int:
    if args.genus < 1:
        raise UsageError("--genus must be >= 1")
    if args.degree < 2:
        raise UsageError("--degree must be >= 2")
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
    try:
        with open(getattr(args, "in")) as fh:
            theta = expansion_from_json(json.load(fh))
    except OSError as exc:
        raise UsageError(f"cannot read {getattr(args, 'in')!r}: {exc}") from exc
    except (ValueError, json.JSONDecodeError) as exc:
        raise UsageError(str(exc)) from exc
    cert = _symplectic_certificate(theta)
    _emit_certificate(cert, args.output)
    return 0 if cert.passed else 1


def _theta_and_word(args, word: str):
    theta = _resolve_expansion(args.expansion, args.genus, args.degree)
    try:
        w = word_from_string(theta.genus, word)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    return theta, w


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
        ctx = theta.ctx
        for j in range(ctx.dim):
            print(f"L({ctx.basis_name(j)}) = {_pretty_tensor(L.values[j])}")
    return 0


def _cmd_johnson(args) -> int:
    theta = _resolve_expansion(args.expansion, args.genus, args.degree)
    curve = _parse_curve(theta.genus, args.curve)
    tc = curve_twist(theta.genus, curve)
    try:
        component = johnson_component(theta, tc, args.k)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
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
        for j in range(ctx.dim):
            print(f"  {ctx.basis_name(j)} -> {_pretty_tensor(component.values[j])}")
    return 0


def _cmd_sigma(args) -> int:
    theta = _resolve_expansion(args.expansion, args.genus, args.degree)
    try:
        loop = word_from_string(theta.genus, args.loop)
        w = word_from_string(theta.genus, args.word)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    _emit_tensor(sigma_act(theta, loop, w), args.output)
    return 0


def _cmd_verify(args) -> int:
    if args.suite == "all":
        names = None
    else:
        names = [part.strip() for part in args.suite.split(",") if part.strip()]
        unknown = [name for name in names if name not in suite_names()]
        if unknown:
            raise UsageError(
                f"unknown checks: {', '.join(unknown)}; known: {', '.join(suite_names())}"
            )
    certificates = run_suite(names)
    for cert in certificates:
        _emit_certificate(cert, args.output)
    return 0 if all(cert.passed for cert in certificates) else 1


def _add_common(sub, expansion_default="fixture:g2"):
    sub.add_argument(
        "--expansion",
        default=expansion_default,
        help="expansion source: " + " | ".join(SOURCES),
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


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (UsageError, ValueError) as exc:
        print(f"twistlog: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
