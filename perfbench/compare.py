"""Compare two sets of benchmark runs saved with ``run.py --record``.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

For every workload and end-to-end metric it prints each side's median and
quartiles and the change of the medians, judged against the metric's bound
in BENCHMARK.json.  Runs made with different rational backends are not
comparable, so it refuses them.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: str) -> dict:
    """{(workload, trace): [run file contents]} for every *.json in the directory."""
    runs = {}
    for path in sorted(Path(directory).glob("*.json")):
        with open(path, encoding="utf-8") as fh:
            run = json.load(fh)
        rec = run["record"]
        runs.setdefault((rec["workload"], rec["trace"]), []).append(run)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("new")
    args = parser.parse_args(argv)
    base, new = load(args.base), load(args.new)
    backends = {run["record"]["backend"] for side in (base, new)
                for runs in side.values() for run in runs}
    if len(backends) != 1:
        print(f"compare: refusing to compare runs made with different rational "
              f"backends ({', '.join(sorted(backends)) or 'none'})", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = {m["name"]: m for m in json.load(fh)["end_to_end"]}
    print(f"backend {backends.pop()}")
    print(f"{'workload':<15} {'metric':<13} {'base median [q1, q3]':>32} "
          f"{'new median [q1, q3]':>32} {'change':>8}  verdict")
    for key in sorted(set(base) & set(new)):
        workload, trace = key
        if trace:
            continue
        for name, metric in spec.items():
            b = [run["result"]["metrics"][name]["value"] for run in base[key]]
            n = [run["result"]["metrics"][name]["value"] for run in new[key]]
            bq, nq = quartiles(b), quartiles(n)
            change = (nq[1] - bq[1]) / bq[1]
            worse = change if metric["better"] == "lower" else -change
            spread = (bq[2] - bq[0]) / bq[1]
            if worse > metric["bound"]:
                verdict = "worse than bound"
            elif spread > metric["bound"]:
                verdict = "unresolved (base spread wider than bound)"
            else:
                verdict = "within bound"
            base_s = f"{bq[1]:.4g} [{bq[0]:.4g}, {bq[2]:.4g}]"
            new_s = f"{nq[1]:.4g} [{nq[0]:.4g}, {nq[2]:.4g}]"
            print(f"{workload:<15} {name:<13} {base_s:>32} {new_s:>32} {change:>+8.1%}  {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
