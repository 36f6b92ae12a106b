"""Regenerate reference.json: the input pools, one pinned digest per op and
one pinned cost per op.

    python3 perfbench/pin.py [--workload NAME ...]

Run it only at a commit whose outputs are trusted; later commits are checked
against what it wrote.  Each pooled op must pass its own verdict, and the
three loop-invariant ops of a pool entry must give one tensor.  An op's cost
is its median time over COST_SWEEPS sweeps through the whole pool; sweeps
minutes apart keep a slow phase of the machine from inflating one op's
cost.  Costs only group ops of similar size when a pass is drawn, so a
pin on another machine works as long as it ranks the ops alike.
"""

from __future__ import annotations

import argparse
import gc
import json
import platform
import statistics
import sys
import tempfile
from time import perf_counter

import run as bench
from workloads import WORKLOADS

COST_SWEEPS = 3


def pin(workload, tw, workdir):
    pool = workload.make_pool(tw)
    state = workload.prepare(tw, pool, workdir)
    ops = [(entry, op) for entry in pool for op in workload.pool_ops(entry)]
    digests = {}
    times = {}
    for sweep in range(COST_SWEEPS):
        gc.collect()
        for entry, op in ops:
            t0 = perf_counter()
            result = workload.run(state, op)
            times.setdefault((entry["key"], op.kind), []).append(perf_counter() - t0)
            if sweep == 0:
                digest, failure = workload.check(state, op, result)
                if failure is not None:
                    raise SystemExit(f"{workload.name} {op.key} ({op.kind}) failed: {failure}")
                digests.setdefault(entry["key"], set()).add(digest)
    for entry in pool:
        if len(digests[entry["key"]]) != 1:
            raise SystemExit(f"{workload.name} {entry['key']}: ops disagree")
        entry["digest"] = digests[entry["key"]].pop()
        entry["cost_s"] = {op.kind: statistics.median(times[entry["key"], op.kind])
                           for op in workload.pool_ops(entry)}
    return pool


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args(argv)
    path = bench.BENCH_DIR / "reference.json"
    ref = {"pools": {}}
    if path.is_file():
        with open(path, encoding="utf-8") as fh:
            ref = json.load(fh)
    ref["pools"] = {k: v for k, v in ref["pools"].items() if k in WORKLOADS}
    tw = bench.fresh_import()
    with tempfile.TemporaryDirectory(prefix=".work-", dir=bench.BENCH_DIR) as workdir:
        for name in args.workload or sorted(WORKLOADS):
            ref["pools"][name] = pin(WORKLOADS[name], tw, workdir)
            print(f"pinned {name}: {len(ref['pools'][name])} entries", file=sys.stderr)
    ref.update(python=platform.python_version(), backend=tw.rationals.BACKEND,
               source_sha256=bench.source_digest(), git_commit=bench.git_commit())
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
