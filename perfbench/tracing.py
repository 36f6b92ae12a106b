"""Spans around the calls into twistlog's public functions, recorded from
outside the package.

``Tracer.install`` replaces each traced function by a wrapper under every
name that refers to it: in every loaded ``twistlog.*`` module namespace for
functions (so ``from .lie import exp`` and ``apply as apply_derivation`` are
caught), and in the class dictionary for methods (so ``__radd__ = __add__``
is caught).  ``uninstall`` puts the originals back.  Private helpers are
never wrapped, so their time lands in the self time of the public caller.

A span is (name, start, end, parent span, op id).  Spans stay in memory in
flat arrays and are written out once, when the run ends.  The process has
one thread, so spans nest strictly and a span's self time is its duration
minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import sys
from array import array
from collections import Counter
from time import perf_counter_ns

OP_SPAN = "bench.op"


def _mul_hook(tracer, args, result):
    a, b = args
    cap = a.ctx.truncation
    da = Counter(map(len, a.terms))
    db = Counter(map(len, b.terms))
    tracer.counters["tensor.mul.pairs"] += sum(
        ca * cb for i, ca in da.items() for j, cb in db.items() if i + j <= cap
    )
    tracer.counters["tensor.mul.terms_out"] += len(result.terms)
    _peak_hook(tracer, args, result)
    if tracer.coeff_sink is not None:
        tracer.coeff_sink(result.terms.values())


def _peak_hook(tracer, args, result):
    if len(result.terms) > tracer.peak_terms:
        tracer.peak_terms = len(result.terms)


def _cyclic_hook(tracer, args, result):
    tracer.counters["cyclic.cyclic_n.terms_out"] += len(result.terms)


def _lyndon_hook(tracer, args, result):
    tracer.counters["lie.lyndon_bracket_form.terms_out"] += len(result)


def _evaluate_before(tracer, args):
    theta, w = args
    seen = set(theta._exp_cache)
    hits = 0
    for key in w.letters:
        if key in seen:
            hits += 1
        else:
            seen.add(key)
    tracer.counters["expansion.evaluate.letters"] += len(w.letters)
    tracer.counters["expansion.exp_cache.hits"] += hits
    tracer.counters["expansion.exp_cache.misses"] += len(w.letters) - hits


# (module, attribute, span name, hook before the call, hook after the call).
# An attribute "Class.method" is wrapped in the class dictionary.
TRACED = (
    ("tensor", "Tensor.__mul__", "tensor.mul", None, _mul_hook),
    ("tensor", "Tensor.__add__", "tensor.add", None, _peak_hook),
    ("tensor", "Tensor.scale", "tensor.scale", None, _peak_hook),
    ("tensor", "tensor_to_json", "tensor.json", None, None),
    ("tensor", "tensor_from_json", "tensor.json", None, None),
    ("lie", "exp", "lie.exp", None, None),
    ("lie", "log", "lie.log", None, None),
    ("lie", "phi", "lie.phi", None, None),
    ("lie", "lyndon_bracket_form", "lie.lyndon_bracket_form", None, _lyndon_hook),
    ("cyclic", "cyclic_n", "cyclic.cyclic_n", None, _cyclic_hook),
    ("cyclic", "necklace_bracket", "cyclic.necklace_bracket", None, None),
    ("derivation", "apply", "derivation.apply", None, None),
    ("derivation", "exp_derivation", "derivation.exp_derivation", None, None),
    ("derivation", "omega_ideal_reduce", "derivation.omega_ideal_reduce", None, None),
    ("derivation", "OmegaIdealContext.__init__", "derivation.OmegaIdealContext", None, None),
    ("endomorphism", "Endomorphism.apply", "endomorphism.apply", None, None),
    ("endomorphism", "solve_generator_images", "endomorphism.solve_generator_images", None, None),
    ("expansion", "build_symplectic", "expansion.build_symplectic", None, None),
    ("expansion", "evaluate", "expansion.evaluate", _evaluate_before, None),
    ("expansion", "load_fixture", "expansion.load_fixture", None, None),
    ("expansion", "expansion_to_json", "expansion.json", None, None),
    ("expansion", "expansion_from_json", "expansion.json", None, None),
    ("johnson", "l_invariant_tensor", "johnson.l_invariant_tensor", None, None),
    ("johnson", "johnson_component", "johnson.johnson_component", None, None),
    ("johnson", "verify_dehn_twist_formula", "johnson.verify", None, None),
    ("johnson", "verify_nilpotent_dependence", "johnson.verify", None, None),
    ("johnson", "verify_operator_identities", "johnson.verify", None, None),
    ("words", "apply_automorphism", "words.apply_automorphism", None, None),
    ("cli", "main", "cli.main", None, None),
)

SPAN_NAMES = tuple(dict.fromkeys([OP_SPAN] + [row[2] for row in TRACED]))


class Tracer:
    """In-memory span recorder plus the counters the hooks fill."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.span_name = array("H")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("q")
        self.span_op = array("q")
        self._stack = []  # [span index, name id, ns covered by children]
        self.calls = Counter()
        self.self_ns = Counter()
        self.counters = Counter()
        self.peak_terms = 0
        self.coeff_sink = None
        self.active = True  # cleared while the harness checks outputs
        self.op_id = -1
        self._undo = []

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def enter(self, nid: int) -> None:
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_op.append(self.op_id)
        self.span_end.append(0)
        self._stack.append([idx, nid, 0])
        self.span_start.append(perf_counter_ns())

    def exit(self) -> None:
        now = perf_counter_ns()
        idx, nid, covered = self._stack.pop()
        self.span_end[idx] = now
        duration = now - self.span_start[idx]
        self.calls[nid] += 1
        self.self_ns[nid] += duration - covered
        if self._stack:
            self._stack[-1][2] += duration

    def _untimed(self, fn, *args) -> None:
        # bookkeeping inside a parent span must not count as its self time
        start = perf_counter_ns()
        fn(self, *args)
        if self._stack:
            self._stack[-1][2] += perf_counter_ns() - start

    def wrap(self, name: str, fn, before=None, after=None):
        nid = self.name_id(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if before is not None:
                tracer._untimed(before, args)
            tracer.enter(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit()
            if after is not None:
                tracer._untimed(after, args, result)
            return result

        return wrapper

    def wrap_mul(self, fn):
        # Tensor * scalar delegates to Tensor.scale, which has its own span
        tensor_product = self.wrap("tensor.mul", fn, after=_mul_hook)
        tensor_type = fn.__globals__["Tensor"]

        @functools.wraps(fn)
        def wrapper(self_, other):
            if isinstance(other, tensor_type):
                return tensor_product(self_, other)
            return fn(self_, other)

        return wrapper

    def install(self, package: str = "twistlog", traced=TRACED) -> None:
        """Wrap every traced function under every name bound to it."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        namespaces = [
            mod for name, mod in list(sys.modules.items())
            if name == package or name.startswith(package + ".")
        ]
        for module_name, attr, span, before, after in traced:
            module = sys.modules[f"{package}.{module_name}"]
            if "." in attr:
                cls_name, method = attr.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[method]
                if span == "tensor.mul":
                    wrapper = self.wrap_mul(original)
                else:
                    wrapper = self.wrap(span, original, before, after)
                targets = [owner]
            else:
                original = getattr(module, attr)
                wrapper = self.wrap(span, original, before, after)
                targets = namespaces
            for target in targets:
                for key, value in list(vars(target).items()):
                    if value is original:
                        setattr(target, key, wrapper)
                        self._undo.append((target, key, original))

    def uninstall(self) -> None:
        while self._undo:
            target, key, original = self._undo.pop()
            setattr(target, key, original)

    # -- results -------------------------------------------------------------

    def totals(self, name: str) -> tuple:
        """(calls, self seconds) summed over every span of this name."""
        nid = self._name_ids.get(name)
        if nid is None:
            return 0, 0.0
        return self.calls[nid], self.self_ns[nid] / 1e9

    def span_count(self) -> int:
        return len(self.span_start)

    def write_spans(self, path) -> None:
        """Tab-separated: index, name, start ns, end ns, parent index, op id."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tname\tstart_ns\tend_ns\tparent\top\n")
            names = self.names
            for i in range(len(self.span_start)):
                fh.write(
                    f"{i}\t{names[self.span_name[i]]}\t{self.span_start[i]}\t"
                    f"{self.span_end[i]}\t{self.span_parent[i]}\t{self.span_op[i]}\n"
                )
