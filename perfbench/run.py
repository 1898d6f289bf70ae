"""bpwave benchmark: run one workload and print its metrics as a JSON line.

    python3 perfbench/run.py --workload train-desk --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; bpwave is imported from its src/.
Set-up runs in separate processes (so its memory does not count towards
the measured process's peak RSS), three times, and setup_s is their median
wall time. The measured process then repeats whole rounds of the workload
until --seconds have passed, checks every round's outputs, and reports the
median wall time of each stage over the rounds. With --trace 1 it
alternates untraced and traced rounds and reports the per-layer metrics
instead.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

# One BLAS thread: two threads made paper-width inference 8% faster and desk-width
# training slower on this 2-vCPU machine, and one thread leaves the other vCPU to
# the rest of the system. Set before numpy loads.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 3
WORKLOAD_NAMES = ("train-desk", "infer-full", "csv-desk")


def parse_args(argv):
    parser = argparse.ArgumentParser(description="bpwave benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be a non-negative integer")
    return args


def set_up(workload, seed, work):
    """Median wall time of SETUP_REPEATS set-up processes; the last one's files stay."""
    times = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(work, ignore_errors=True)
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, os.path.join(HERE, "bench_inputs.py"), "--workload", workload,
             "--seed", str(seed), "--out", work, "--src", SRC],
            check=True, timeout=120,
        )
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload, seconds, tracer, rounds, walls):
    """Run rounds until `seconds` have passed; with a tracer, every other round is traced."""
    deadline = time.perf_counter() + seconds
    min_rounds = max(workload.min_rounds, 2 if tracer else 1)
    while len(rounds) < min_rounds or time.perf_counter() < deadline:
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            tracer.install()
        start = time.perf_counter()
        try:
            rnd = workload.round()
        finally:
            if traced:
                tracer.uninstall()
        walls[traced].append(time.perf_counter() - start)
        rounds.append(rnd)
        workload.check_round(rnd)
        rnd.output = None  # keep no round's networks alive into the next round


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "bpwave", "__init__.py")):
        print(f"error: no bpwave sources under {SRC}; run from a bpwave checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    work = os.path.join(HERE, "work", f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        setup_s = set_up(args.workload, args.seed, work)

        import bench_checks
        import bench_workloads

        workload = bench_workloads.WORKLOADS[args.workload](work, args.seed)
        tracer = None
        if args.trace:
            import bench_trace

            tracer = bench_trace.Tracer()
        correct = True
        rounds, walls = [], {False: [], True: []}
        try:
            measure(workload, args.seconds, tracer, rounds, walls)
            rss = peak_rss_mb()
            workload.final_checks()
        except bench_checks.CheckFailed as exc:
            print(f"check failed: {exc}", file=sys.stderr)
            correct = False
            rss = peak_rss_mb()

        if tracer is not None:
            os.makedirs(os.path.join(HERE, "traces"), exist_ok=True)
            tracer.write(os.path.join(HERE, "traces", f"{args.workload}-seed{args.seed}.jsonl"))
            per_layer = bench_trace.per_layer_metrics(
                tracer, max(1, len(walls[True])),
                statistics.median(walls[True] or [0.0]), statistics.median(walls[False] or [1.0]))
            metrics = {name: {"value": v, "unit": u} for name, (v, u) in per_layer.items()}
            coverage = bench_trace.coverage_pct(tracer, sum(walls[True]) or 1.0)
            if coverage < 100.0 - bench_trace.COVERAGE_TOLERANCE_PCT:
                print(f"check failed: per-layer self times sum to {coverage:.1f}% of the traced rounds' "
                      f"wall time, below 100% by more than {bench_trace.COVERAGE_TOLERANCE_PCT:g}%",
                      file=sys.stderr)
                correct = False
        else:
            metrics = {
                "setup_s": {"value": setup_s, "unit": "s"},
                "peak_rss_mb": {"value": rss, "unit": "MB"},
                "stage1_s": {"value": statistics.median([r.stage1_s for r in rounds] or [0.0]), "unit": "s"},
                "stage2_s": {"value": statistics.median([r.stage2_s for r in rounds] or [0.0]), "unit": "s"},
            }
        result = {
            "correct": correct,
            "attempted": sum(r.attempted for r in rounds),
            "failed": sum(r.failed for r in rounds),
            "metrics": metrics,
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
