"""The three workloads: one round of timed bpwave calls each, plus their checks.

A round returns a Round with the wall times of its two timed stages, the
operations it attempted and how many bpwave reported as failed. check_round
runs after every round, outside the timed region; final_checks runs once
after the last round.
"""

import contextlib
import csv
import io
import json
import os
import re
import time
from dataclasses import dataclass

import numpy as np

from bpwave import cli, datapipe, models, pipeline, trainer

import bench_checks as checks
import bench_inputs as inputs
import bench_reference as reference

clock = time.perf_counter


@dataclass
class Round:
    stage1_s: float
    stage2_s: float
    attempted: int
    failed: int
    output: object = None


# ---------------------------------------------------------------- train-desk

def _type_of(block_name):
    if block_name.endswith((".gamma", ".beta")):
        return "BatchNorm1d." + block_name.rsplit(".", 1)[1]
    kind = "TransposedConv1d" if ".up." in block_name else "Conv1d"
    return f"{kind}.{block_name.rsplit('.', 1)[1]}"


def _feeds_batch_norm(block_name, next_block_name):
    """A conv bias whose layer is followed by a batch norm (blocks come in layer order).

    A train-mode batch norm removes any per-channel constant, so such a
    bias has an exactly zero gradient, analytic and numeric alike, and a
    wrong bias backward could not show on it.
    """
    return block_name.endswith(".bias") and next_block_name.endswith(".gamma")


def gradient_blocks(network, x, rng):
    """Analytic parameter gradients of a normalised MSE objective, grouped by layer type.

    Returns (objective, blocks) for bench_checks.check_gradients. The
    objective puts every output (deep-supervision heads included) against a
    fixed random target, in train mode, so each layer type gets gradient;
    the gradients of the first layers pass back through every ReLU and
    max-pool. Conv biases that feed a batch norm are left out (see
    _feeds_batch_norm). Input entries are left out: a max-pool over a span
    of equal activations is a kink for any entry whose effect is local, so
    most of them cannot be decided by differences.
    """
    network.zero_grads()
    out = network.forward(x, mode="train")
    outputs = [out.final, *out.auxiliaries]
    targets = [o + rng.normal(scale=max(float(o.std()), 1.0), size=o.shape) for o in outputs]
    scales = [1.0 / (float(t.var()) * t.size) for t in targets]
    grads = [2.0 * s * (o - t) for o, t, s in zip(outputs, targets, scales)]
    network.backward(grads[0], grads[1:] or None)

    def objective():
        out = network.forward(x, mode="train")
        return sum(s * float(np.sum((o - t) ** 2))
                   for o, t, s in zip([out.final, *out.auxiliaries], targets, scales))

    params = network.param_blocks()
    blocks = {}
    for i, (name, value, grad) in enumerate(params):
        if _feeds_batch_norm(name, params[i + 1][0] if i + 1 < len(params) else ""):
            continue
        blocks.setdefault(_type_of(name), []).append((name, value, grad.copy()))
    network.zero_grads()
    return objective, blocks


class TrainDesk:
    """Train the U-Net approximator, then the MultiResUNet refiner, at desk width."""

    min_rounds = 2  # the second round is the same-seed rerun the determinism check needs

    def __init__(self, work, seed):
        self.seed = seed
        self.train = datapipe.read_store(os.path.join(work, "train.p2a"))
        self.val = datapipe.read_store(os.path.join(work, "val.p2a"))
        self.config = trainer.TrainConfig(epochs=inputs.EPOCHS, batch_size=inputs.BATCH_SIZE, seed=seed)
        self.first = None
        self.last = None

    def round(self):
        self.last = None  # the gradient check needs only the final round's networks
        approx = models.build_unet1d(models.UNet1DConfig.scaled(inputs.DESK_WIDTH), seed=self.seed)
        t0 = clock()
        a = trainer.train_network(approx, self.train, self.val, self.config, which="approx")
        t1 = clock()
        refine = models.build_multiresunet1d(models.MultiResUNet1DConfig.scaled(inputs.DESK_WIDTH), seed=self.seed)
        t2 = clock()
        r = trainer.train_network(refine, self.train, self.val, self.config, which="refine", approx_network=approx)
        t3 = clock()
        return Round(t1 - t0, t3 - t2, attempted=2, failed=0, output=(approx, refine, a, r))

    def check_round(self, rnd):
        approx, refine, a, r = rnd.output
        checks.check_losses("approx", a.history)
        checks.check_losses("refine", r.history)
        outcome = {stage: (result.history, [(n, v.copy()) for n, v in net.checkpoint_entries()])
                   for stage, net, result in (("approx", approx, a), ("refine", refine, r))}
        if self.first is None:
            self.first = outcome
        else:
            for stage in outcome:
                checks.check_identical(stage, *self.first[stage], *outcome[stage])
        self.last = (approx, refine)

    def final_checks(self):
        approx, refine = self.last
        rng = np.random.default_rng([self.seed, 0x6C])
        x, _ = trainer.episodes_to_arrays(self.train.subset(range(2)))
        rough = trainer.predict_batched(approx, x)
        for stage, network, net_in in (("approx", approx, x), ("refine", refine, rough)):
            objective, blocks = gradient_blocks(network, net_in, rng)
            checks.check_gradients(stage, objective, blocks, rng)


# ---------------------------------------------------------------- infer-full

class InferFull:
    """Load the paper-width bundle, then predict every raw episode."""

    min_rounds = 1
    reference_episodes = 2

    def __init__(self, work, seed):
        self.bundle_dir = os.path.join(work, "bundle")
        self.raw = datapipe.read_store(os.path.join(work, "raw.p2a"))
        with open(os.path.join(work, "digests.json")) as fh:
            self.digests = json.load(fh)
        self.bundle = None
        self.first_waves = None

    def round(self):
        self.bundle = None  # free the previous round's networks before loading anew
        t0 = clock()
        self.bundle = pipeline.load_bundle(self.bundle_dir)
        t1 = clock()
        rows, failures = pipeline.batch_predict(self.bundle, self.raw)
        t2 = clock()
        return Round(t1 - t0, t2 - t1, attempted=1 + len(self.raw), failed=len(failures),
                     output=(rows, failures))

    def check_round(self, rnd):
        rows, failures = rnd.output
        checks.check_bp_rows(rows, len(self.raw), failures)
        waves = [r.pred_abp for r in rows]
        if self.first_waves is None:
            loaded = {stage: {name: inputs.entry_digest(v) for name, v in net.checkpoint_entries()}
                      for stage, net in (("approx", self.bundle.approx_network),
                                         ("refine", self.bundle.refine_network))}
            checks.check_digests(self.digests, loaded)
            self.first_waves = waves
        else:
            for i, (a, b) in enumerate(zip(self.first_waves, waves)):
                checks.require(a.tobytes() == b.tobytes(), f"episode {i}: prediction changed between rounds")

    def final_checks(self):
        approx = self.bundle.approx_network.checkpoint_entries()
        refine = self.bundle.refine_network.checkpoint_entries()
        for i in range(self.reference_episodes):
            x = pipeline.preprocess_ppg(self.raw[i].ppg)[None, None, :]
            expected = reference.cascade_forward(approx, refine, x)[0, 0]
            checks.check_reference(i, self.first_waves[i], expected)


# ------------------------------------------------------------------ csv-desk

def read_prediction_columns(path):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    names = ("sbp_true", "dbp_true", "map_true", "sbp_pred", "dbp_pred", "map_pred", "waveform_mae")
    return {n: np.array([float(r[n]) for r in rows]) for n in names}


class CsvDesk:
    """The CLI path over a signal CSV: preprocess, infer, evaluate, all in process."""

    min_rounds = 1
    outputs = ("prep.p2a", "preds.csv", "report.json")

    def __init__(self, work, seed):
        self.seed = seed
        self.work = work
        self.csv = os.path.join(work, "signals.csv")
        self.path = {name: os.path.join(work, name) for name in self.outputs}
        self.first = None

    def _command(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, err.getvalue()

    def round(self):
        t0 = clock()
        pre_code, pre_err = self._command(["preprocess", "--in", self.csv, "--out", self.path["prep.p2a"]])
        t1 = clock()
        inf_code, _ = self._command(["infer", "--bundle", os.path.join(self.work, "bundle"),
                                     "--data", self.csv, "--out", self.path["preds.csv"]])
        t2 = clock()
        eval_code, _ = self._command(["evaluate", "--pred", self.path["preds.csv"],
                                      "--out", self.path["report.json"]])
        codes = (pre_code, inf_code, eval_code)
        return Round(t1 - t0, t2 - t1, attempted=3, failed=sum(c != 0 for c in codes),
                     output=(codes, pre_err))

    def check_round(self, rnd):
        codes, pre_err = rnd.output
        checks.require(codes == (0, 0, 0), f"CLI exit codes {codes}")
        produced = {}
        for name, path in self.path.items():
            with open(path, "rb") as fh:
                produced[name] = fh.read()
        if self.first is not None:
            for name in self.outputs:
                checks.require(produced[name] == self.first[name], f"{name} changed between rounds")
            return
        self.first = produced
        _, kept, planted = inputs.signal_recordings(self.seed)
        reported = re.search(r"dropped (\d+) window", pre_err)
        checks.require(reported is not None and int(reported.group(1)) == planted,
                       f"preprocess reported {pre_err.strip()!r}, {planted} windows were planted")
        imported, dropped = datapipe.read_signal_csv(self.csv)
        checks.check_import(imported, dropped, kept, planted)
        written = datapipe.read_store(self.path["prep.p2a"])
        checks.check_preprocessed(written, kept)
        checks.check_same_store(written, pipeline.preprocess_store(imported), "preprocess output read back")
        columns = read_prediction_columns(self.path["preds.csv"])
        checks.check_true_bp(columns, kept)
        checks.check_report(json.loads(produced["report.json"]), columns)

    def final_checks(self):
        pass


WORKLOADS = {"train-desk": TrainDesk, "infer-full": InferFull, "csv-desk": CsvDesk}
