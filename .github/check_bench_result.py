"""Check the result line of a perfbench/run.py run.

Usage: python3 perfbench/run.py ... | python3 .github/check_bench_result.py TRACE

perfbench/run.py exits 0 on a digest miss; only its last line, a JSON
result, says so.  This script exits non-zero unless that line parses with
finite numbers only, reports ``correct: true`` and ``failed: 0``, and, for a
traced run (TRACE = 1), reports every per-layer metric that BENCHMARK.json
declares.  Run it from the repository root.
"""

import json
import sys


def refuse(token):
    raise ValueError(f"non-finite number {token} in the result line")


def main(trace: str) -> None:
    lines = sys.stdin.read().splitlines()
    if not lines:
        sys.exit("no result line")
    result = json.loads(lines[-1], parse_constant=refuse)
    if result["correct"] is not True or result["failed"] != 0:
        sys.exit(f"correct {result['correct']}, failed {result['failed']}")
    if trace == "1":
        with open("BENCHMARK.json") as fh:
            names = [m["name"] for m in json.load(fh)["per_layer"]]
        missing = [n for n in names if n not in result["metrics"]]
        if missing:
            sys.exit(f"per-layer metrics missing: {', '.join(missing)}")


if __name__ == "__main__":
    if len(sys.argv) != 2 or sys.argv[1] not in ("0", "1"):
        sys.exit("usage: check_bench_result.py TRACE (0 or 1) < run output")
    main(sys.argv[1])
