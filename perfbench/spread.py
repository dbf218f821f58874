"""Run the benchmark on several seeds and report each metric's spread.

Run from the repository root::

    python3 perfbench/spread.py --workload daemon-wal --seeds 10 --out a.json
    python3 perfbench/spread.py --workload daemon-wal --seeds 10 --against a.json

For every end-to-end metric of ``BENCHMARK.json`` it prints the median,
the quartiles from ``statistics.quantiles(values, n=4)`` and their
distance as a share of the median, beside the metric's bound; the
report's wall-clock metrics follow, unbounded. ``--against`` compares
medians with an earlier ``--out`` file and flags a move worse than the
bound; results from a different machine fingerprint are refused rather
than compared.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

RUN_TIMEOUT_S = 900


def one_run(workload: str, seed: int, seconds: int) -> dict:
    """Values of every reported metric for one benchmark run."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"seed {seed} failed:\n{done.stdout}{done.stderr}")
    result = json.loads(lines[-1])
    detail = next(json.loads(line.split(" ", 1)[1]) for line in lines
                  if line.startswith("perfbench-detail "))
    values = {k: v["value"] for k, v in detail["report"].items()
              if k != "fail_ratio"}
    values.update({k: v["value"] for k, v in result["metrics"].items()})
    return {"seed": seed, "values": values,
            "fingerprint": detail["fingerprint"]}


def summarise(runs: list, bounds: dict) -> dict:
    table = {}
    for name in runs[0]["values"]:
        better, bound = bounds.get(name, (None, None))
        values = [r["values"][name] for r in runs]
        if len(values) < 2 or None in values:
            continue
        q1, median, q3 = statistics.quantiles(values, n=4)
        table[name] = {"median": median, "q1": q1, "q3": q3,
                       "spread": (q3 - q1) / median, "bound": bound,
                       "better": better, "values": values}
    return table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None,
                        help="defaults to BENCHMARK.json run_seconds")
    parser.add_argument("--out", type=Path)
    parser.add_argument("--against", type=Path)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    runs = []
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        runs.append(one_run(args.workload, seed, seconds))
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v:.5g}" for k, v in runs[-1]["values"].items()
            if v is not None), flush=True)
    prints = {json.dumps(r["fingerprint"], sort_keys=True) for r in runs}
    if len(prints) != 1:
        print(f"machine fingerprint changed between runs: {prints}")
        return 2
    table = summarise(runs, bounds)
    status = 0
    previous = None
    if args.against:
        previous = json.loads(args.against.read_text())
        if previous["fingerprint"] != runs[0]["fingerprint"]:
            print("refusing to compare: machine fingerprints differ")
            return 2
    print(f"{'metric':22s} {'median':>12s} {'spread':>8s} {'bound':>6s}"
          + ("  vs-previous" if previous else ""))
    for name, row in table.items():
        bound = "-" if row["bound"] is None else f"{row['bound']:.2f}"
        line = (f"{name:22s} {row['median']:12.5g} {row['spread']:8.2%} "
                f"{bound:>6s}")
        if row["bound"] is None:
            print(line)
            continue
        if row["spread"] > row["bound"]:
            line += "  SPREAD-OVER-BOUND"
            status = 1
        if previous and name in previous["table"]:
            before = previous["table"][name]["median"]
            change = row["median"] / before - 1.0
            worse = -change if row["better"] == "higher" else change
            line += f"  {change:+.2%}"
            if worse > row["bound"]:
                line += " WORSE-THAN-BOUND"
                status = 1
        print(line)
    if args.out:
        args.out.write_text(json.dumps(
            {"workload": args.workload, "seconds": seconds,
             "fingerprint": runs[0]["fingerprint"], "runs": runs,
             "table": table}, indent=1))
    return status


if __name__ == "__main__":
    sys.exit(main())
