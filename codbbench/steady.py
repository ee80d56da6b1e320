"""Steadiness check: run one workload k times, with seeds first..first+k-1,
and compare each end-to-end metric's spread with its bound.

    python3 codbbench/steady.py --workload read-write --runs 10

The spread is the distance between the first and third quartile of the
k values, as ``statistics.quantiles(values, n=4)`` gives them, over
their median.  A metric is steady when its spread is within a third of
the bound ``BENCHMARK.json`` fixes for it (``setup_s`` is exempt from the
spread rule; its bound only limits how far its median may move).
Prints a table and exits 1 when any metric is not steady or any run
reported a different share of failed operations.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from codbbench import measure  # noqa: E402


def run_once(workload: str, seed: int, seconds: int) -> dict:
    command = [
        sys.executable, str(ROOT / "codbbench" / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in config["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=config["run_seconds"])
    args = parser.parse_args(argv)

    results = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        result = run_once(args.workload, seed, args.seconds)
        results.append(result)
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']}"
              f" failed={result['failed']}", flush=True)
    steady = len({r["failed"] / r["attempted"] for r in results}) == 1
    steady = steady and all(r["correct"] for r in results)
    print(f"{'metric':20s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'min':>12s}"
          f" {'max':>12s} {'spread':>8s} {'bound':>6s}")
    for metric in config["end_to_end"]:
        name = metric["name"]
        values = [r["metrics"][name]["value"] for r in results]
        q1, mid, q3 = measure.quartiles(values)
        spread = (q3 - q1) / mid
        ok = name == "setup_s" or spread <= metric["bound"] / 3
        steady = steady and ok
        print(f"{name:20s} {mid:12.4f} {q1:12.4f} {q3:12.4f} {min(values):12.4f}"
              f" {max(values):12.4f} {spread:8.4f} {metric['bound']:6.2f}"
              f"{'' if ok else '  NOT STEADY'}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
