"""The three workloads.

Each workload draws its inputs from a pool stored in ``reference.json``
together with the pinned digest and pinned cost of every pooled op.
``--seed`` only picks which pooled inputs a pass uses and in what order, so
every op a run makes has a pinned reference.  A pass has a fixed shape: the
same number of ops of each kind, drawn one from each group of ops of near
equal pinned cost, so pass times stay comparable across seeds.

The program sees only the generated inputs: loop words, check names and
CLI argument lists.  Every workload runs in one process, one thread, as a
closed loop with one caller: the next op starts when the previous returns.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import re
from dataclasses import dataclass

POOL_SEED = 20100830  # pools never depend on --seed; see pin.py

_TIMING_PARAM = re.compile(r"^(seconds|genus\d+_seconds)$")
_FRACTION = re.compile(r"(-?\d+)/(\d+)")


@dataclass(frozen=True)
class Op:
    key: str  # key of the pinned digest in reference.json
    kind: str
    args: tuple


def canonical_digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def strip_timing(cert_json: dict) -> dict:
    """Certificate JSON without the params that record wall-clock time."""
    params = {k: v for k, v in cert_json["params"].items() if not _TIMING_PARAM.match(k)}
    return {**cert_json, "params": params}


def rational_pairs(values):
    return [(int(q.numerator), int(q.denominator)) for q in values]


def op_cost(entry, op) -> float:
    """The op's cost pinned by pin.py: its median time over the pin sweeps."""
    return entry["cost_s"][op.kind]


def _cost_order(costed):
    cost, op = costed
    return cost, op.key, op.kind


def stratified_sample(rng: random.Random, costed_ops, count: int) -> list:
    """One op from each of ``count`` contiguous, near-equal groups of the
    (cost, op) pairs sorted by pinned cost: a seeded draw whose mix of cheap
    and costly ops is the same for every seed."""
    ops = [op for _, op in sorted(costed_ops, key=_cost_order)]
    bounds = [len(ops) * i // count for i in range(count + 1)]
    return [rng.choice(ops[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]


def _random_reduced_word(rng: random.Random, genus: int, length: int) -> str:
    """Token form of a freely reduced word of exactly ``length`` letters."""
    letters = []
    while len(letters) < length:
        gen, sign = rng.randrange(2 * genus), rng.choice((1, -1))
        if letters and letters[-1] == (gen, -sign):
            continue
        letters.append((gen, sign))
    tokens = []
    for gen, sign in letters:
        name = f"{'ab'[gen % 2]}{gen // 2 + 1}"
        tokens.append(name if sign == 1 else name.upper())
    return " ".join(tokens)


class Workload:
    """Defaults for the optional parts of a workload."""

    coefficients_from_products = False  # take coefficient sizes from products


class LoopInvariant(Workload):
    """l_invariant_tensor at genus 2, degree 5 on w, y w y^-1 or w^-1.

    The pool holds 36 words w of each length 1..8, each with a conjugator y
    of length 1..4.  For each kind of op, a pass sorts the pool's ops of that
    kind by pinned cost, splits them into PER_KIND groups of near-equal size
    and draws one op from each group: 48 ops with the same mix of cheap and
    costly ops of each kind every time, few enough to repeat the pass about
    five times in a run.  The three ops of an entry must all give its one
    pinned tensor, which pin.py checks."""

    name = "loop-invariant"
    GENUS, DEGREE = 2, 5
    LENGTHS = range(1, 9)
    PER_LENGTH = 36
    PER_KIND = 16
    KINDS = ("w", "conj", "inv")

    def make_pool(self, tw):
        rng = random.Random(POOL_SEED)
        pool = []
        for length in self.LENGTHS:
            for i in range(self.PER_LENGTH):
                pool.append({
                    "key": f"L{length}-{i:02d}",
                    "length": length,
                    "w": _random_reduced_word(rng, self.GENUS, length),
                    "y": _random_reduced_word(rng, self.GENUS, 1 + i % 4),
                })
        return pool

    def pool_ops(self, entry):
        return [self._op(entry, kind) for kind in self.KINDS]

    def _op(self, entry, kind):
        return Op(entry["key"], kind, (entry["w"], entry["y"]))

    def pass_ops(self, pool, seed):
        rng = random.Random(seed)
        ops = []
        for kind in self.KINDS:
            costed = [(op_cost(e, op), op) for e in pool for op in [self._op(e, kind)]]
            ops += stratified_sample(rng, costed, self.PER_KIND)
        rng.shuffle(ops)
        return ops

    def prepare(self, tw, pool, workdir):
        theta = tw.expansion.build_symplectic(self.GENUS, self.DEGREE)
        # fill the expansion's exp cache for all eight signed letters
        tw.expansion.evaluate(theta, tw.words.word_from_string(self.GENUS, "a1 b1 a2 b2 A1 B1 A2 B2"))
        return {"tw": tw, "theta": theta}

    def run(self, state, op):
        words = state["tw"].words
        w = words.word_from_string(self.GENUS, op.args[0])
        if op.kind == "conj":
            w = words.conjugate(w, words.word_from_string(self.GENUS, op.args[1]))
        elif op.kind == "inv":
            w = words.invert(w)
        return state["tw"].johnson.l_invariant_tensor(state["theta"], w)

    def check(self, state, op, result):
        return canonical_digest(state["tw"].tensor.tensor_to_json(result)), None

    def coefficients(self, state, result):
        return rational_pairs(result.terms.values())


class Certify(Workload):
    """The twelve certificate checks not covered by the other workloads;
    one op is one check, which must pass."""

    name = "certify"
    SKIP = ("builder", "l-invariance")
    CACHED = ((1, 5), (2, 5), (2, 6))
    coefficients_from_products = True  # ops return verdicts, not tensors

    def make_pool(self, tw):
        return [{"key": n} for n in tw.suite.suite_names() if n not in self.SKIP]

    def pool_ops(self, entry):
        return [Op(entry["key"], "check", (entry["key"],))]

    def pass_ops(self, pool, seed):
        ops = [op for entry in pool for op in self.pool_ops(entry)]
        random.Random(seed).shuffle(ops)
        return ops

    def prepare(self, tw, pool, workdir):
        for genus, degree in self.CACHED:
            tw.suite.built_expansion(genus, degree)
            tw.suite.variant_expansion(genus, degree)
        return {"tw": tw}

    def run(self, state, op):
        return state["tw"].suite.run_check(op.args[0])

    def check(self, state, op, result):
        obj = strip_timing(state["tw"].johnson.certificate_to_json(result))
        return canonical_digest(obj), None if result.passed else f"status {result.status}"

    def coefficients(self, state, result):
        return []


class Cli(Workload):
    """In-process ``cli.main`` calls with stdout captured; one op is one
    command, which must exit 0.

    A pass runs 112 fixture commands (eval, l-invariant, sigma, johnson on
    fixture:g1 and fixture:g2, pretty and json) plus three fixed heavy
    commands: build-expansion to a file, check-expansion of that file, and
    a pretty l-invariant on a freshly built genus-2 degree-6 expansion.  Of
    the fixture commands of each kind, the costliest runs in every pass;
    the others are drawn one from each group of near-equal pinned cost.
    op_p90_ms falls among these costliest commands: over 40 seeds, its
    quartile distance over median from the op mix alone is 0.03 this way
    and was 0.09 when the costliest were drawn too."""

    name = "cli"
    FIXTURES = (("g1", 1), ("g2", 2))
    OUTPUTS = ("pretty", "json")
    PER_PASS = {"eval": 8, "l-invariant": 8, "sigma": 8, "johnson": 4}
    WORD_POOL = 16
    HEAVY = (
        ("build-expansion", ["build-expansion", "--genus", "2", "--degree", "5", "--out", "{out}"]),
        ("check-expansion", ["check-expansion", "--in", "{out}"]),
        ("l-invariant-build", ["l-invariant", "--expansion", "build", "--genus", "2",
                               "--degree", "6", "--word", "a1 b2", "--output", "pretty"]),
    )

    def make_pool(self, tw):
        rng = random.Random(POOL_SEED)
        pool = []
        for fx, genus in self.FIXTURES:
            for out in self.OUTPUTS:
                common = ["--expansion", f"fixture:{fx}", "--output", out]
                for cmd in ("eval", "l-invariant", "sigma"):
                    kind = f"{cmd}/{fx}/{out}"
                    for i in range(self.WORD_POOL):
                        if cmd == "eval":
                            args = ["--word", _random_reduced_word(rng, genus, 1 + i % 8)]
                        elif cmd == "l-invariant":
                            args = ["--word", _random_reduced_word(rng, genus, 1 + i % 6)]
                        else:
                            args = ["--loop", _random_reduced_word(rng, genus, 1 + i % 3),
                                    "--word", _random_reduced_word(rng, genus, 1 + (i // 3) % 3)]
                        pool.append({"key": f"{kind}/{i:02d}", "kind": kind,
                                     "argv": [cmd] + args + common})
                kind = f"johnson/{fx}/{out}"
                curves = ["nonsep"] + [f"sep:{h}" for h in range(1, genus + 1)]
                for curve in curves:
                    for k in (1, 2, 3):
                        pool.append({"key": f"{kind}/{curve}/k{k}", "kind": kind,
                                     "argv": ["johnson", "--curve", curve, "--k", str(k)] + common})
        for key, argv in self.HEAVY:
            pool.append({"key": key, "kind": "heavy", "argv": argv})
        return pool

    def pool_ops(self, entry):
        return [Op(entry["key"], entry["kind"], tuple(entry["argv"]))]

    def pass_ops(self, pool, seed):
        rng = random.Random(seed)
        by_kind = {}
        for entry in pool:
            by_kind.setdefault(entry["kind"], []).append(entry)
        ops = []
        for kind, entries in by_kind.items():
            if kind != "heavy":
                costed = [(op_cost(e, op), op) for e in entries for op in self.pool_ops(e)]
                top = max(costed, key=_cost_order)
                costed.remove(top)
                ops += stratified_sample(rng, costed, self.PER_PASS[kind.split("/")[0]] - 1)
                ops.append(top[1])
        ops += [op for e in by_kind["heavy"] for op in self.pool_ops(e)]
        rng.shuffle(ops)
        keys = [op.key for op in ops]
        i, j = keys.index("build-expansion"), keys.index("check-expansion")
        if j < i:  # the check reads the file the build writes
            ops[i], ops[j] = ops[j], ops[i]
        return ops

    def prepare(self, tw, pool, workdir):
        return {"tw": tw, "out": os.path.join(workdir, "expansion.json")}

    def run(self, state, op):
        argv = [a.replace("{out}", state["out"]) for a in op.args]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = state["tw"].cli.main(argv)
            except SystemExit as exc:  # argparse rejects bad argument lists this way
                code = exc.code
        return code, stdout.getvalue(), stderr.getvalue()

    def check(self, state, op, result):
        code, stdout, stderr = result
        text = f"{stdout}\nexit={code}\n"
        if op.key == "build-expansion":
            with open(state["out"], encoding="utf-8") as fh:
                text += fh.read()
        failure = None if code == 0 else f"exit {code}: {stderr.strip()[:200]}"
        return hashlib.sha256(text.encode()).hexdigest(), failure

    def coefficients(self, state, result):
        return [(int(p), int(q)) for p, q in _FRACTION.findall(result[1])]


WORKLOADS = {wl.name: wl for wl in (LoopInvariant(), Certify(), Cli())}
