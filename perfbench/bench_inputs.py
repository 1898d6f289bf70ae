"""Seeded inputs of the benchmark workloads.

Run as a script, it sets one workload up in a directory:

    python3 perfbench/bench_inputs.py --workload train-desk --seed 1 --out DIR --src src

The sizes below are fixed; the seed changes only the contents, so every
seed gives the same amount of work.
"""

import argparse
import hashlib
import json
import os
import sys

import numpy as np

DESK_WIDTH = 1 / 16
FS = 125.0
WINDOW = 1024

# train-desk: the acceptance recipe's shape (16 episodes in one batch of 16,
# so an epoch is one step) plus a validation store
TRAIN_EPISODES = 16
VAL_EPISODES = 8
EPOCHS = 2
BATCH_SIZE = 16

# infer-full
INFER_EPISODES = 2

# csv-desk: one recording per subject; lengths in whole windows plus a tail
# shorter than a window, assigned to subjects in a seeded order
CSV_WINDOWS = (5, 6, 7, 8, 9, 10, 11)
CSV_TAILS = (0, 137, 301, 518, 777, 905, 1023)
CSV_PLANTED = 6  # windows whose ABP is pushed outside [20, 300] mmHg


def signal_recordings(seed):
    """Multi-subject PPG/ABP recordings with planted out-of-range windows.

    Returns (recordings, kept, planted): recordings is a list of
    (subject_id, ppg, abp) in file order, kept the (subject_id, ppg, abp)
    windows an importer must keep, in order, and planted the number of
    windows it must drop.
    """
    rng = np.random.default_rng([seed, 0xC5F])
    windows = rng.permutation(CSV_WINDOWS)
    tails = rng.permutation(CSV_TAILS)
    total = int(windows.sum())
    planted = set(rng.choice(total, size=CSV_PLANTED, replace=False).tolist())
    recordings, kept = [], []
    window_index = 0
    for s, (n_windows, tail) in enumerate(zip(windows, tails)):
        subject = f"S{seed % 10000:04d}-{s:02d}"
        n = int(n_windows) * WINDOW + int(tail)
        t = np.arange(n) / FS
        hr = rng.uniform(55.0, 110.0) / 60.0 * (1.0 + 0.05 * np.sin(2 * np.pi * t / 40.0 + rng.uniform(0, 6.3)))
        beat = np.cumsum(hr / FS) % 1.0
        sbp = rng.uniform(105.0, 165.0)
        dbp = rng.uniform(60.0, sbp - 30.0)
        pressure = np.exp(-0.5 * ((beat - 0.2) / 0.08) ** 2) + 0.4 * np.exp(-0.5 * ((beat - 0.55) / 0.15) ** 2)
        abp = dbp + (sbp - dbp) * pressure + 3.0 * np.sin(2 * np.pi * t / 30.0)
        lagged = (beat - 0.12) % 1.0
        ppg = (np.exp(-0.5 * ((lagged - 0.24) / 0.11) ** 2)
               + 0.3 * np.exp(-0.5 * ((lagged - 0.58) / 0.2) ** 2)
               + 0.2 * np.sin(2 * np.pi * 0.25 * t)
               + 0.03 * rng.normal(size=n))
        for span in (slice(w * WINDOW, (w + 1) * WINDOW) for w in range(n_windows)):
            if window_index in planted:
                start = span.start + int(rng.integers(0, WINDOW - 25))
                abp[start : start + 25] = 320.0 if window_index % 2 else 5.0
            else:
                kept.append((subject, ppg[span], abp[span]))
            window_index += 1
        recordings.append((subject, ppg, abp))
    return recordings, kept, len(planted)


def write_signal_csv(path, recordings):
    with open(path, "w") as fh:
        fh.write("ppg,abp,subject_id\n")
        for subject, ppg, abp in recordings:
            fh.writelines(f"{p!r},{a!r},{subject}\n" for p, a in zip(ppg.tolist(), abp.tolist()))


def entry_digest(value):
    arr = np.ascontiguousarray(value, dtype="<f8")
    return f"{arr.shape}:{hashlib.sha256(arr.tobytes()).hexdigest()}"


def settle(network, rng, input_scale, input_offset):
    """Give a freshly built network non-trivial batch-norm statistics and calibration.

    Random init leaves every running mean at 0 and variance at 1, which would
    make the infer-mode normalisation an identity; the benchmark wants the
    full arithmetic exercised and outputs in mmHg.
    """
    entries = []
    for name, value in network.checkpoint_entries():
        if name.endswith(".running_mean"):
            value = rng.normal(0.0, 0.1, value.shape)
        elif name.endswith(".running_var"):
            value = rng.uniform(0.5, 2.0, value.shape)
        elif name.endswith(".gamma"):
            value = rng.uniform(0.8, 1.2, value.shape)
        elif name.endswith(".beta") or name.endswith(".bias"):
            value = rng.normal(0.0, 0.05, value.shape)
        entries.append((name, np.array(value, dtype=np.float64)))
    network.load_state(entries)
    network.set_calibration(input_scale, input_offset, 25.0, 100.0)


def save_random_bundle(directory, width, seed):
    """A seeded, untrained bundle; returns entry name -> digest of what was saved."""
    from bpwave import models, pipeline

    rng = np.random.default_rng([seed, 0xB0D])
    approx = models.build_unet1d(models.UNet1DConfig.scaled(width), seed=seed)
    refine = models.build_multiresunet1d(models.MultiResUNet1DConfig.scaled(width), seed=seed + 1)
    settle(approx, rng, 0.25, 0.0)
    settle(refine, rng, 25.0, 100.0)
    pipeline.save_bundle(pipeline.PipelineBundle(approx_network=approx, refine_network=refine), directory)
    return {
        stage: {name: entry_digest(v) for name, v in net.checkpoint_entries()}
        for stage, net in (("approx", approx), ("refine", refine))
    }


def setup(workload, seed, out):
    from bpwave import datapipe, pipeline

    os.makedirs(out, exist_ok=True)
    if workload == "train-desk":
        store = datapipe.synth_generate(TRAIN_EPISODES + VAL_EPISODES, seed=seed)
        train, val = datapipe.split_train_test(pipeline.preprocess_store(store), TRAIN_EPISODES, seed=seed)
        datapipe.write_store(os.path.join(out, "train.p2a"), train)
        datapipe.write_store(os.path.join(out, "val.p2a"), val)
    elif workload == "infer-full":
        digests = save_random_bundle(os.path.join(out, "bundle"), 1.0, seed)
        with open(os.path.join(out, "digests.json"), "w") as fh:
            json.dump(digests, fh)
        datapipe.write_store(os.path.join(out, "raw.p2a"), datapipe.synth_generate(INFER_EPISODES, seed=seed))
    elif workload == "csv-desk":
        recordings, _, _ = signal_recordings(seed)
        write_signal_csv(os.path.join(out, "signals.csv"), recordings)
        save_random_bundle(os.path.join(out, "bundle"), DESK_WIDTH, seed)
    else:
        raise ValueError(f"unknown workload {workload!r}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--src", required=True, help="directory holding the bpwave package")
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    setup(args.workload, args.seed, args.out)


if __name__ == "__main__":
    main()
