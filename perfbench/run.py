"""twistlog benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The seed picks one pass of ops, which the run repeats for about S seconds;
each op's latency is its median time over the repetitions, each time scaled
to a reference machine speed by probes timed before, during and after the
op (see speed.py).  With
``--trace 0`` nothing is instrumented and the end-to-end metrics are
reported.  With ``--trace 1`` each pass runs twice, first plain and then
with spans around the calls into twistlog's public functions, and the
per-layer metrics and the tracing overhead are reported.  Every op's output
is checked against the digest pinned in reference.json.  The last line of
stdout is the JSON result; the lines before it are a readable table and the
run record.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
import types
from pathlib import Path
from time import perf_counter

# the other stdlib modules twistlog imports, loaded up front so that every
# timed set-up repetition imports the same thing: twistlog itself
import dataclasses  # noqa: F401
import fractions  # noqa: F401
import heapq  # noqa: F401
import importlib.resources  # noqa: F401

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
sys.path[:0] = [str(SRC), str(BENCH_DIR)]

from speed import Sampler  # noqa: E402
from tracing import OP_SPAN, SPAN_NAMES, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MODULES = ("tensor", "lie", "cyclic", "words", "endomorphism", "derivation",
           "expansion", "johnson", "suite", "cli")
SETUP_REPS = (3, 9)  # at least 3 timed set-ups, at most 9 ...
SETUP_BUDGET_S = 2.5  # ... stopping after 3 once they took this long together
TAIL_MIN = 10  # a percentile is trusted with at least this many samples beyond it

END_TO_END = ("wall_s", "ops_per_s", "op_p50_ms", "op_p90_ms", "setup_s", "peak_rss_mib")
UNITS = {"wall_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms",
         "setup_s": "s", "peak_rss_mib": "MiB", "error_rate": "ratio"}


class BenchError(Exception):
    """The benchmark cannot run here (for example, no twistlog sources)."""


# -- statistics ----------------------------------------------------------------


def percentile(values, q: float) -> float:
    """Linear interpolation between order statistics at position q*(n-1)."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of no samples")
    pos = q * (len(data) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def samples_beyond(n: int, q: float) -> int:
    """How many of n samples lie strictly above the q-percentile position."""
    return n - 1 - math.floor(q * (n - 1)) if n else 0


def last_error_line() -> str:
    return traceback.format_exc(limit=3).strip().splitlines()[-1]


def coefficient_bits(pairs):
    """(largest numerator or denominator, lcm of the denominators), in bits."""
    pairs = list(pairs)
    if not pairs:
        return 0, 0
    top = max(max(abs(n).bit_length(), d.bit_length()) for n, d in pairs)
    return top, math.lcm(*(d for _, d in pairs)).bit_length()


# -- environment ---------------------------------------------------------------


def fresh_import():
    """Import twistlog from this checkout's src/, dropping any earlier copy,
    so that each set-up repetition pays the import again."""
    if not (SRC / "twistlog" / "__init__.py").is_file():
        raise BenchError(f"no twistlog sources under {SRC}")
    for name in [m for m in sys.modules if m == "twistlog" or m.startswith("twistlog.")]:
        del sys.modules[name]
    package = importlib.import_module("twistlog")
    if Path(package.__file__).resolve().parent != (SRC / "twistlog").resolve():
        raise BenchError(f"imported twistlog from {package.__file__}, not {SRC}")
    return types.SimpleNamespace(
        rationals=importlib.import_module("twistlog.rationals"),
        **{m: importlib.import_module(f"twistlog.{m}") for m in MODULES},
    )


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "twistlog").rglob("*")):
        if path.suffix in (".py", ".json") and "__pycache__" not in path.parts:
            h.update(path.relative_to(SRC).as_posix().encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def load_reference(name: str):
    path = BENCH_DIR / "reference.json"
    if not path.is_file():
        raise BenchError(f"missing {path}")
    with open(path, encoding="utf-8") as fh:
        ref = json.load(fh)
    pool = ref["pools"][name]
    return pool, {entry["key"]: entry["digest"] for entry in pool}


# -- measurement -----------------------------------------------------------------


class Run:
    """One workload, set up and measured in this process.

    The seed picks one pass, which the run repeats until the time budget is
    spent.  Every op and set-up is timed with ``speed.Sampler`` and scaled
    to the reference speed; an op's latency is the median of its scaled
    times over the repetitions, which are spread over the whole run.  The
    unscaled times are kept for the run record."""

    def __init__(self, workload, seed: int, seconds: float, trace: bool, workdir: str):
        self.wl = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.workdir = workdir
        self.pool, self.expected = load_reference(workload.name)
        self.ops = workload.pass_ops(self.pool, seed)
        self.setup_times = []  # scaled to the reference speed
        self.setup_raw = []
        self.samples = []  # per op of the pass: its untraced latencies, scaled
        self.samples_raw = []  # the same, unscaled
        self.samples_traced = []  # scaled latencies under tracing
        self.scales = []  # the scale of every timed op and set-up
        self.runs = 0  # op runs timed untraced (a traced run times each op twice)
        self.attempted = 0
        self.failed = 0  # op runs that raised, failed their verdict or digest
        self.failures = []  # why, including checks that are not per op
        self.max_bits = 0
        self.den_bits = 0
        self.tracer = Tracer() if trace else None
        self.speed = Sampler()
        self.state = None

    def set_up(self) -> None:
        """Time up to SETUP_REPS[1] fresh imports plus preparations."""
        low, high = SETUP_REPS
        while len(self.setup_times) < high:
            self.state = None
            gc.collect()
            state, elapsed, scale = self.speed.time(
                lambda: self.wl.prepare(fresh_import(), self.pool, self.workdir))
            self.scales.append(scale)
            self.setup_raw.append(elapsed)
            self.setup_times.append(elapsed * scale)
            self.state = state
            if len(self.setup_raw) >= low and sum(self.setup_raw) > SETUP_BUDGET_S:
                break

    def note_coefficients(self, pairs) -> None:
        top, den = coefficient_bits(pairs)
        self.max_bits = max(self.max_bits, top)
        self.den_bits = max(self.den_bits, den)

    def run_op(self, op, tracer):
        """Time one op, then check its output outside the timed region.
        Returns (seconds, scale, digest); a failed op is counted and has no
        digest."""

        def attempt():
            if tracer is not None:
                tracer.op_id = self.attempted
                tracer.enter(tracer.name_id(OP_SPAN))
            try:
                return self.wl.run(self.state, op), None
            except Exception:  # an op that raises is a failed op; keep going
                return None, last_error_line()
            finally:
                if tracer is not None:
                    tracer.exit()

        (result, error), elapsed, scale = self.speed.time(attempt)
        self.attempted += 1
        digest = None
        if tracer is not None:
            tracer.active = False
        try:
            if error is None:
                digest, error = self.wl.check(self.state, op, result)
            if error is None and digest != self.expected.get(op.key):
                error = f"digest {digest[:12]} != pinned {str(self.expected.get(op.key))[:12]}"
            if error is None and tracer is not None:
                self.note_coefficients(self.wl.coefficients(self.state, result))
        except Exception:  # a check that raises fails the op
            error = last_error_line()
        finally:
            if tracer is not None:
                tracer.active = True
        if error is not None:
            self.failed += 1
            self.failures.append(f"{op.key} ({op.kind}): {error}")
            digest = None
        return elapsed, scale, digest

    def run_pass(self, ops, traced: bool, deadline=None, expected=()):
        """Run ops in order.  Returns (seconds, scaled seconds, digest) per op
        run.  With a deadline, stop before the first op whose expected time
        would end past it."""
        tracer = self.tracer if traced else None
        if tracer is not None:
            if self.wl.coefficients_from_products:
                tracer.coeff_sink = lambda values: self.note_coefficients(
                    (int(q.numerator), int(q.denominator)) for q in values)
            tracer.install()
        rows = []
        try:
            for op, seconds in itertools.zip_longest(ops, expected, fillvalue=0.0):
                if deadline is not None and perf_counter() + seconds > deadline:
                    break
                elapsed, scale, digest = self.run_op(op, tracer)
                self.scales.append(scale)
                rows.append((elapsed, elapsed * scale, digest))
        finally:
            if tracer is not None:
                tracer.uninstall()
                tracer.coeff_sink = None
        return rows

    @staticmethod
    def keep(samples: list, times) -> None:
        for position, seconds in enumerate(times):
            if position < len(samples):
                samples[position].append(seconds)
            else:
                samples.append([seconds])

    @staticmethod
    def medians(samples: list) -> list:
        return [statistics.median(s) for s in samples]

    def measure(self) -> None:
        deadline = perf_counter() + self.seconds
        # a traced run times each op twice; the margin covers a slower phase
        factor = (2 if self.trace else 1) * 1.3
        while True:
            # every op runs at least once; after that the budget decides
            first = not self.samples
            expected = () if first else [factor * s for s in self.medians(self.samples_raw)]
            gc.collect()
            plain = self.run_pass(self.ops, False, None if first else deadline, expected)
            self.runs += len(plain)
            self.keep(self.samples_raw, [raw for raw, _, _ in plain])
            self.keep(self.samples, [scaled for _, scaled, _ in plain])
            if self.trace and plain:
                gc.collect()
                traced = self.run_pass(self.ops[:len(plain)], True)
                self.keep(self.samples_traced, [scaled for _, scaled, _ in traced])
                if [d for _, _, d in traced] != [d for _, _, d in plain]:
                    self.failures.append("traced digests differ from untraced digests")
            if len(plain) < len(self.ops):
                break

    # -- metrics -----------------------------------------------------------------

    def end_to_end(self, scaled: bool = True) -> dict:
        """The end-to-end metrics, from scaled times or from unscaled ones."""
        latency = self.medians(self.samples if scaled else self.samples_raw)
        return {
            "wall_s": sum(latency),
            "ops_per_s": len(latency) / sum(latency),
            "op_p50_ms": 1000 * statistics.median(latency),
            "op_p90_ms": 1000 * percentile(latency, 0.9),
            "setup_s": statistics.median(self.setup_times if scaled else self.setup_raw),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }

    def per_layer(self) -> dict:
        t = self.tracer
        n = self.runs / len(self.ops)  # passes traced, counting a partial last pass
        out = {}
        for name in SPAN_NAMES:
            calls, self_s = t.totals(name)
            out[f"{name}.calls"] = (calls / n, "count/pass")
            out[f"{name}.self_s"] = (self_s / n, "s/pass")
        c = t.counters
        for counter in ("tensor.mul.pairs", "tensor.mul.terms_out", "expansion.evaluate.letters",
                        "lie.lyndon_bracket_form.terms_out", "cyclic.cyclic_n.terms_out"):
            out[counter] = (c[counter] / n, "count/pass")
        # a ratio with nothing to divide by is left out, not reported as 0
        pairs = c["tensor.mul.pairs"]
        if pairs:
            out["tensor.mul.useful_ratio"] = (c["tensor.mul.terms_out"] / pairs, "ratio")
        out["tensor.peak_terms"] = (t.peak_terms, "count")
        lookups = c["expansion.exp_cache.hits"] + c["expansion.exp_cache.misses"]
        if lookups:
            out["expansion.exp_cache_hit_ratio"] = (c["expansion.exp_cache.hits"] / lookups, "ratio")
        out["rationals.coeff_max_bits"] = (self.max_bits, "bits")
        out["rationals.common_den_bits"] = (self.den_bits, "bits")
        traced = self.medians(self.samples_traced)
        untraced = self.medians(self.samples[:len(traced)])
        out["trace.overhead_ratio"] = (sum(traced) / sum(untraced), "ratio")
        return out


# -- reporting -------------------------------------------------------------------


def record(run: Run, tw, e2e: dict) -> dict:
    return {
        "workload": run.wl.name,
        "seed": run.seed,
        "seconds": run.seconds,
        "trace": int(run.trace),
        "python": platform.python_version(),
        "backend": tw.rationals.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "ops_per_pass": len(run.ops),
        "op_runs": run.runs,
        "op_p90_samples_beyond": samples_beyond(len(run.ops), 0.9),
        "setup_times": run.setup_times,
        "error_rate": run.failed / run.attempted,
        "end_to_end": e2e,
        "unscaled_end_to_end": run.end_to_end(scaled=False),
        "speed_scale_quartiles": statistics.quantiles(run.scales, n=4),
        "failures": run.failures[:20],
    }


def print_table(title: str, rows) -> None:
    print(title)
    for name, value, unit, note in rows:
        print(f"  {name:<44} {value:>14.6g} {unit:<10} {note}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="also write the run record and metrics to this JSON file")
    args = parser.parse_args(argv)

    try:
        with tempfile.TemporaryDirectory(prefix=".work-", dir=BENCH_DIR) as workdir:
            run = Run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), workdir)
            if not run.trace:
                # a timer probe inside a span would count as the self time of
                # the layer it interrupts, so a traced run scales each op by
                # the probes around it alone, in plain and traced passes alike
                run.speed.start()
            try:
                run.set_up()
                run.measure()
            finally:
                run.speed.stop()
            tw = run.state["tw"]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    e2e = run.end_to_end()
    rec = record(run, tw, e2e)
    n = len(run.ops)
    each = f"{n} ops, each the median of its scaled runs ({run.runs} runs)"
    notes = {
        "wall_s": f"sum of {n} median scaled op times",
        "ops_per_s": each,
        "op_p50_ms": each,
        "op_p90_ms": f"{rec['op_p90_samples_beyond']} of {n} beyond"
        + ("" if rec["op_p90_samples_beyond"] >= TAIL_MIN else " (<10: order statistic of a fixed mix)"),
        "setup_s": f"median of {len(run.setup_times)} scaled set-ups",
        "peak_rss_mib": "whole process",
        "error_rate": f"{run.failed} of {run.attempted} op runs failed",
    }
    print(f"twistlog benchmark: workload={run.wl.name} seed={run.seed} "
          f"seconds={run.seconds:g} trace={int(run.trace)}")
    print_table("end-to-end (untraced passes)",
                [(name, value, UNITS[name], notes[name])
                 for name, value in {**e2e, "error_rate": rec["error_rate"]}.items()])
    if run.trace:
        layers = run.per_layer()
        print_table(f"per-layer ({run.runs / n:.2f} traced passes, "
                    f"{run.tracer.span_count()} spans)",
                    [(k, v, unit, "") for k, (v, unit) in layers.items()])
        traces = BENCH_DIR / "traces"
        traces.mkdir(exist_ok=True)
        spans_path = traces / f"{run.wl.name}.tsv"
        run.tracer.write_spans(spans_path)
        rec["spans_file"] = str(spans_path.relative_to(ROOT))
        metrics = {k: {"value": v, "unit": unit} for k, (v, unit) in layers.items()}
    else:
        metrics = {k: {"value": e2e[k], "unit": UNITS[k]} for k in END_TO_END}
    for failure in run.failures[:20]:
        print(f"FAILED {failure}")
    print(json.dumps({"record": rec}, sort_keys=True))
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    if args.record:
        with open(args.record, "w", encoding="utf-8") as fh:
            json.dump({"record": rec, "result": result}, fh, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
