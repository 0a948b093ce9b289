"""Run one workload once per seed and report each end-to-end metric's
median, quartiles and spread (quartile distance over median) against
its bound in BENCHMARK.json.

    python3 perfbench/spread.py --workload serve_mixed --seeds 1-10 [--json out.json]

Runs go one after another, from the root of the checkout.  A spread at
or above a third of the bound is flagged: two sets of runs of the same
code could then disagree by more than the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(part) for part in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--json", help="write every run's result here")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    results = []
    for seed in args.seeds:
        command = [sys.executable, *bench["command"][1:], "--workload", args.workload,
                   "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=180)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"seed {seed}: exit {done.returncode}\n{done.stdout}{done.stderr}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        results.append({"seed": seed, **result})
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/{result['attempted']}",
              file=sys.stderr)

    worst = 0.0
    for metric in bench["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median
        worst = max(worst, spread / metric["bound"])
        flag = "" if spread < metric["bound"] / 3 else "  <-- at or above a third of the bound"
        print(f"{metric['name']:16} median {median:12.5f} {metric['unit']:4} "
              f"q1 {q1:12.5f} q3 {q3:12.5f} spread {spread:7.4f} bound {metric['bound']}{flag}")
    print(f"largest spread over bound: {worst:.3f}")
    if args.json:
        Path(args.json).write_text(json.dumps(results, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
