"""Run the benchmark once per seed and report each metric's spread.

    python3 perfbench/spread.py --workload NAME --seconds S [--trace 0|1]
                                [--json OUT] SEED [SEED ...]

For every metric it prints the median over the runs and the distance between
the first and third quartiles (``statistics.quantiles(values, n=4)``) as a
share of the median, the figure the benchmark's bounds are judged against.
With --json it also writes the runs and the summary to OUT.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seconds", default="25")
    ap.add_argument("--trace", default="0", choices=("0", "1"))
    ap.add_argument("--json", help="write runs and summary here")
    ap.add_argument("seeds", nargs="+")
    args = ap.parse_args(argv)

    runs = []
    for seed in args.seeds:
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", seed, "--seconds", args.seconds,
             "--trace", args.trace],
            cwd=os.path.dirname(HERE), capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        result["seed"] = seed
        result["run_s"] = time.perf_counter() - t0
        runs.append(result)
        print(f"seed {seed} ({result['run_s']:.1f} s): correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} "
              + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()),
              flush=True)

    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        entry = {"median": med, "unit": runs[0]["metrics"][name]["unit"]}
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
            entry.update(q1=q1, q3=q3, iqr_share=(q3 - q1) / med if med else None)
        summary[name] = entry
        share = entry.get("iqr_share")
        print(f"  {name}: median {med:.5g} {entry['unit']}"
              + (f", iqr/median {share:.3f}" if share is not None else ""))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seconds": args.seconds,
                       "trace": args.trace, "runs": runs, "summary": summary},
                      fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
