"""Alternate benchmark runs of two checkouts; record every end-to-end metric's medians and quartiles.

    python3 scripts/bench_pairs.py --parent PARENT_DIR --change CHANGE_DIR --pairs 10 --out BENCH_tag.json

Each checkout is a source tree with src/ and perfbench/ (a git clone or
archive of one commit). For each workload in BENCHMARK.json it runs
`python3 perfbench/run.py --workload W --seed S --seconds T --trace 0` from the
root of each checkout, untraced, with T the run length BENCHMARK.json gives.
Pair i uses seed i for both sides; odd pairs run the parent first and even
pairs the change first. One run at a time, so the two sides never share the
machine. The output file holds, per workload and metric, each side's runs,
median and first and third quartiles (statistics.quantiles, inclusive
method), the same summary of the per-pair ratios change/parent, the pairs in
which the change was better, and the metric's bound. A drift in host load
that both sides of a pair share moves the per-side quartiles but not the
ratios. The host record names the numpy build the runs import, the BLAS
that numpy was built against and the BLAS thread count perfbench/run.py
sets, and the usable-core count bpwave's inference threads use.
"""

import argparse
import ast
import json
import os
import platform
import statistics
import subprocess
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
from bpwave.trainer import usable_cores  # noqa: E402


def run_once(checkout, workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{checkout}: {workload} seed {seed} exited {proc.returncode}")
    return json.loads(lines[-1])


def blas_build():
    """Name and version of the BLAS numpy was built against, from its build
    config, or "unknown" where this numpy does not expose it."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy before 1.26 only prints its config
        return "unknown"


def blas_threads(checkout):
    """The BLAS_THREADS that a checkout's perfbench/run.py sets, read from its source."""
    with open(os.path.join(checkout, "perfbench", "run.py")) as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["BLAS_THREADS"]:
            return int(ast.literal_eval(node.value))
    raise SystemExit(f"{checkout}: perfbench/run.py sets no BLAS_THREADS")


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 for quartiles")
    threads = {blas_threads(args.parent), blas_threads(args.change)}
    if len(threads) != 1:
        parser.error(f"the checkouts run at different BLAS thread counts: {sorted(threads)}")

    metrics = {m["name"]: m for m in spec["end_to_end"]}
    record = {
        "command": "python3 perfbench/run.py --workload W --seed S "
                   f"--seconds {spec['run_seconds']} --trace 0",
        "pairs": args.pairs,
        "host": {"cpus": os.cpu_count(), "usable_cores": usable_cores(),
                 "python": platform.python_version(), "numpy": np.__version__,
                 "blas": blas_build(), "blas_threads": threads.pop(), "machine": platform.machine()},
        "workloads": {},
    }
    for workload in args.workloads:
        runs = {"parent": [], "change": []}
        for pair in range(1, args.pairs + 1):
            order = ("parent", "change") if pair % 2 else ("change", "parent")
            for side in order:
                result = run_once(getattr(args, side), workload, pair, spec["run_seconds"])
                runs[side].append(result)
                print(f"{workload} pair {pair} {side}: "
                      + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                      file=sys.stderr, flush=True)
        entry = {side: {"correct": all(r["correct"] for r in rs),
                        "attempted": sum(r["attempted"] for r in rs),
                        "failed": sum(r["failed"] for r in rs)} for side, rs in runs.items()}
        for name, metric in metrics.items():
            parent = [r["metrics"][name]["value"] for r in runs["parent"]]
            change = [r["metrics"][name]["value"] for r in runs["change"]]
            lower = metric["better"] == "lower"
            entry[name] = {
                "unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
                "parent": summary(parent), "change": summary(change),
                "change_over_parent": summary([c / p for p, c in zip(parent, change)]),
                "change_better_pairs": sum((c < p) if lower else (c > p) for p, c in zip(parent, change)),
            }
        record["workloads"][workload] = entry
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
