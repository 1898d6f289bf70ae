"""Run every workload and print its end-to-end metrics; over several seeds, their spread.

    python3 perfbench/spread.py --seeds 1                # every workload once
    python3 perfbench/spread.py --workloads csv-desk --seeds 1 2 3 4 5

For each workload it runs perfbench/run.py once per seed (untraced, with the
run length from BENCHMARK.json) and prints each run's wall time, the
operations attempted and failed, and each metric's median with its unit.
Given two seeds or more it also prints the distance between the first and
third quartiles as a share of the median, next to the metric's bound; a
spread should stay under a third of the bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for workload in args.workloads:
        values, units, shares, attempted, failed = {}, {}, set(), 0, 0
        for seed in args.seeds:
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: run.py exited {proc.returncode}", file=sys.stderr)
                sys.stderr.write(proc.stderr)
            if not lines:
                return 1
            result = json.loads(lines[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: outputs incorrect", file=sys.stderr)
                return 1
            print(f"{workload} seed {seed}: {time.perf_counter() - start:.1f} s wall", flush=True)
            attempted += result["attempted"]
            failed += result["failed"]
            shares.add(result["failed"] / result["attempted"])
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
        print(f"{workload}: {len(args.seeds)} runs, {attempted} operations attempted, {failed} failed, "
              f"failed shares {sorted(shares)}")
        for name, vals in values.items():
            line = f"  {name:<12} median {statistics.median(vals):10.4f} {units[name]:<3}"
            if len(vals) > 1:
                q1, _, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / statistics.median(vals)
                line += (f"  spread {spread:6.2%}  bound {bounds[name]:.0%}  "
                         f"{'ok' if spread < bounds[name] / 3 else 'WIDE'}")
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
