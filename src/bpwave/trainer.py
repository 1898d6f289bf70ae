"""Training loops for the approximation and refinement networks.

The approximation network trains with deeply supervised MAE against
average-pooled targets; the refinement network trains with plain MSE on
pairs generated once from the frozen approximation network. Both networks
get their affine output calibration pinned to the training-target mean and
standard deviation before the first step, so the convolutional trunks
learn in normalized units while losses and histories stay in mmHg.
"""

import csv
from dataclasses import dataclass, field, replace

import numpy as np

from . import models, tensorops
from .tensorops import Adam, AdamConfig, NumericalError, mae_loss, mse_loss, usable_cores


@dataclass
class TrainConfig:
    epochs: int = 100
    batch_size: int = 32
    adam: AdamConfig = field(default_factory=AdamConfig)
    seed: int = 0
    # extra train-mode forwards after training so the momentum-tracked
    # running statistics converge; 0 keeps the plain recipe
    bn_refresh_passes: int = 0

    def validate(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 2:
            raise ValueError("batch_size must be >= 2 (batch normalization)")
        if self.bn_refresh_passes < 0:
            raise ValueError("bn_refresh_passes must be >= 0")
        return self


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    val_loss: float = None


@dataclass
class TrainResult:
    history: list
    best_epoch: int
    best_score: float
    best_entries: list


def downsample_average(target, factor):
    """Average-pool the target along the last axis by an integer factor."""
    if factor == 1:
        return target
    b, c, length = target.shape
    if length % factor != 0:
        raise ValueError(f"length {length} not divisible by downsample factor {factor}")
    return target.reshape(b, c, length // factor, factor).mean(axis=-1)


def deep_supervised_loss(outputs, target, weights, base_loss=None):
    """Weighted sum of the base loss over the final and auxiliary outputs.

    Weight k >= 1 applies to the auxiliary matched against the target
    average-pooled by 2^k; weight 0 (pinned to 1) applies to the final
    output. Returns (total, grad_final, aux_grads).
    """
    base_loss = base_loss or mae_loss
    if len(weights) != 1 + len(outputs.auxiliaries):
        raise ValueError(
            f"{len(weights)} weights for {1 + len(outputs.auxiliaries)} outputs"
        )
    total, grad_final = base_loss(outputs.final, target)
    total *= weights[0]
    grad_final = grad_final * weights[0]
    aux_grads = []
    for k, aux in enumerate(outputs.auxiliaries, start=1):
        sub = downsample_average(target, 1 << k)
        value, grad = base_loss(aux, sub)
        total += weights[k] * value
        aux_grads.append(weights[k] * grad)
    return total, grad_final, aux_grads


def episodes_to_arrays(store):
    """Stack a store into network-ready (inputs, targets) arrays."""
    x = np.stack([rec.ppg for rec in store])[:, None, :]
    y = np.stack([rec.abp for rec in store])[:, None, :]
    return x, y


def calibrate_network(network, targets, inputs=None):
    """Pin the affine calibration to the training-data statistics."""
    scale = float(targets.std()) or 1.0
    offset = float(targets.mean())
    kwargs = {"output_scale": scale, "output_offset": offset}
    if inputs is not None:
        kwargs["input_scale"] = float(inputs.std()) or 1.0
        kwargs["input_offset"] = float(inputs.mean())
    network.set_calibration(**kwargs)


# Most episodes per stacked infer-mode forward. Every layer is
# batch-invariant in infer mode, so the stacking changes speed and memory,
# never a prediction. At desk width, 4 runs 50 windows in about a third of
# the one-at-a-time time; 8 and 16 gain a few percent more and add 2-7% to
# the peak memory of a process that predicts 50 windows.
PREDICT_STACK = 4
# First-level activation values (channels x length) a stack needs before
# splitting stacks across threads pays: below it, the GIL hand-offs between
# a desk-width stack's small ops cost more than the second core gives.
THREAD_STACK_VALUES = 1 << 15


def predict_batched(network, x):
    """Infer-mode forward of a (B, C, L) array in stacks, rows in order.

    A stack holds the fewest episodes whose first-level activations
    (network.config.first_level_channels x L) reach THREAD_STACK_VALUES, but
    never more than PREDICT_STACK. Stacks that reach it are spread over
    usable_cores() threads, at most ceil(B / cores) episodes each: the
    calling thread and one helper per extra core, each taking every
    cores-th stack. Other stacks run serially on the calling thread. Each
    stack is the same per-sample BLAS call sequence on whichever thread runs
    it, so every row is bitwise the serial path's. An exception from any
    stack re-raises here, after every helper has been joined.
    """
    n = x.shape[0]
    if n == 0:
        return np.zeros_like(x)
    per_episode = network.config.first_level_channels * x.shape[-1]
    size = min(PREDICT_STACK, -(-THREAD_STACK_VALUES // per_episode))
    workers = usable_cores() if size * per_episode >= THREAD_STACK_VALUES else 1
    size = min(size, -(-n // workers))
    starts = range(0, n, size)
    workers = min(workers, len(starts))
    outs = [None] * len(starts)

    def run_share(first, failed):
        for k in range(first, len(starts), workers):
            if failed:
                return
            outs[k] = network.forward(x[starts[k] : starts[k] + size], mode="infer").final

    tensorops.run_shares(run_share, workers)
    return np.concatenate(outs, axis=0)


def refresh_batchnorm_stats(network, x, passes, batch_size):
    """Converge the running statistics with plain train-mode forwards.

    The momentum update leaves a geometric residue of the initial (0, 1)
    statistics after a short training run; extra forward passes shrink it
    without touching any learned parameter.
    """
    n = x.shape[0]
    size = min(batch_size, n)
    for _ in range(passes):
        for start in range(0, n, size):
            xb = x[start : start + size]
            if xb.shape[0] >= 2:
                network.forward(xb, mode="train")


def _batches(n, batch_size, rng):
    order = rng.permutation(n)
    slices = [order[i : i + batch_size] for i in range(0, n, batch_size)]
    # batch normalization cannot take a single sample: fold a trailing
    # singleton into the previous batch
    if len(slices) > 1 and slices[-1].size == 1:
        slices[-2] = np.concatenate([slices[-2], slices[-1]])
        slices.pop()
    return slices


def train_network(network, train_store, val_store, config, which="approx", approx_network=None):
    """Run the epoch loop; returns the history and the best checkpoint.

    which="approx": inputs are the stored (preprocessed) PPG windows and the
    loss is deeply supervised MAE. which="refine": inputs are frozen infer-mode
    predictions of approx_network on the stored PPG, plain MSE on the final
    output. Both losses weigh the outputs by the network config's
    deep_supervision_weights. The best-scoring weights (validation loss, or
    training loss when no validation store is given) are restored into the
    network afterwards.
    """
    config.validate()
    if which not in ("approx", "refine"):
        raise ValueError("which must be 'approx' or 'refine'")
    if which == "refine" and approx_network is None:
        raise ValueError("refinement training needs the frozen approximation network")

    x_train, y_train = episodes_to_arrays(train_store)
    x_val, y_val = episodes_to_arrays(val_store) if val_store is not None and len(val_store) else (None, None)
    weights = network.config.deep_supervision_weights
    if which == "approx":
        base_loss = mae_loss
        calibrate_network(network, y_train)
    else:
        x_train = predict_batched(approx_network, x_train)
        if x_val is not None:
            x_val = predict_batched(approx_network, x_val)
        base_loss = mse_loss
        calibrate_network(network, y_train, inputs=x_train)

    n = x_train.shape[0]
    if n < 2:
        raise ValueError("training needs at least two episodes (batch normalization)")
    rng = np.random.default_rng(config.seed)
    optimizer = Adam(replace(config.adam))
    history = []
    best_score = None
    best_epoch = None
    best_entries = None

    for epoch in range(1, config.epochs + 1):
        running = 0.0
        for batch_index, idx in enumerate(_batches(n, config.batch_size, rng)):
            out = network.forward(x_train[idx], mode="train")
            total, g_final, g_aux = deep_supervised_loss(out, y_train[idx], weights, base_loss)
            if not np.isfinite(total):
                raise NumericalError(
                    f"non-finite {which} loss at epoch {epoch}, batch {batch_index}"
                )
            network.backward(g_final, g_aux)
            optimizer.step(network.param_blocks())
            running += total * idx.size
        train_loss = running / n

        val_loss = None
        if x_val is not None:
            val_loss = base_loss(predict_batched(network, x_val), y_val)[0]
        history.append(EpochStats(epoch=epoch, train_loss=train_loss, val_loss=val_loss))

        score = val_loss if val_loss is not None else train_loss
        if best_score is None or score < best_score:
            best_score = score
            best_epoch = epoch
            best_entries = [(name, arr.copy()) for name, arr in network.checkpoint_entries()]

    network.load_state(best_entries)
    if config.bn_refresh_passes:
        refresh_batchnorm_stats(network, x_train, config.bn_refresh_passes, config.batch_size)
    # load_state took best_entries' arrays as the live weights; hand back copies
    best_entries = [(name, arr.copy()) for name, arr in network.checkpoint_entries()]
    return TrainResult(
        history=history, best_epoch=best_epoch, best_score=best_score, best_entries=best_entries
    )


def train_cascade(train_store, val_store, config, width, input_length=1024, refine=True):
    """Train the approximation U-Net, then (refine true) the refinement
    MultiResUNet on its frozen output, both built at this width and seeded
    with config.seed. Yields (stage, network, TrainResult) as each stage
    ends, "approx" then "refine"."""
    approx = models.build_unet1d(models.UNet1DConfig.scaled(width, input_length=input_length), seed=config.seed)
    yield "approx", approx, train_network(approx, train_store, val_store, config, which="approx")
    if refine:
        refiner = models.build_multiresunet1d(
            models.MultiResUNet1DConfig.scaled(width, input_length=input_length), seed=config.seed)
        yield "refine", refiner, train_network(
            refiner, train_store, val_store, config, which="refine", approx_network=approx)


def write_history_csv(path, history):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "train_loss", "val_loss"])
        for row in history:
            writer.writerow(
                [row.epoch, repr(row.train_loss), "" if row.val_loss is None else repr(row.val_loss)]
            )


def read_history_csv(path):
    history = []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            history.append(
                EpochStats(
                    epoch=int(row["epoch"]),
                    train_loss=float(row["train_loss"]),
                    val_loss=float(row["val_loss"]) if row["val_loss"] else None,
                )
            )
    return history


# ------------------------------------------------------------ cross-validation

def kfold_plan(n, k=10, seed=0):
    """(train_indices, val_indices) per fold: disjoint, exhaustive folds
    whose sizes differ by at most one."""
    if k < 2:
        raise ValueError(f"k must be >= 2 folds, got {k}")
    if n < k:
        raise ValueError(f"cannot split {n} items into {k} folds")
    order = np.random.default_rng(seed).permutation(n)
    base = n // k
    extra = n % k
    folds = []
    start = 0
    for i in range(k):
        size = base + (1 if i < extra else 0)
        val = np.sort(order[start : start + size])
        train = np.sort(np.concatenate([order[:start], order[start + size :]]))
        folds.append((train, val))
        start += size
    return folds


@dataclass
class CrossValidationResult:
    histories: list
    fold_scores: list
    selected_fold: int
    approx_network: object
    refine_network: object = None


def cross_validate(store, config, k=10, which="approx", width=1.0, input_length=1024):
    """Train one model per fold and keep the one with the best validation loss.

    which="approx" trains the approximation network alone; which="both"
    also trains a refinement network per fold on that fold's own frozen
    approximation model and selects on the refinement validation loss.
    The selection follows np.argmin over the fold scores: the first minimum
    wins, and the first NaN wins over any number. Only the networks of the
    fold selected so far are kept while the next fold trains.
    """
    if which not in ("approx", "both"):
        raise ValueError("which must be 'approx' or 'both'")
    histories = []
    scores = []
    selected = chosen = None
    for fold, (train_idx, val_idx) in enumerate(kfold_plan(len(store), k=k, seed=config.seed)):
        fold_config = replace(config, seed=config.seed + 1 + fold)
        stages = list(train_cascade(store.subset(train_idx), store.subset(val_idx), fold_config,
                                    width, input_length, refine=which == "both"))
        histories.append({stage: result.history for stage, _, result in stages})
        score = stages[-1][2].best_score
        scores.append(score)
        best = None if selected is None else scores[selected]
        # best == best: a NaN best stays; not score >= best: a lower score or a NaN
        if best is None or (best == best and not score >= best):
            selected, chosen = fold, {stage: network for stage, network, _ in stages}
        del stages  # a beaten fold's networks are freed before the next fold builds its own
    return CrossValidationResult(
        histories=histories,
        fold_scores=scores,
        selected_fold=selected,
        approx_network=chosen["approx"],
        refine_network=chosen.get("refine"),
    )


# ---------------------------------------------------------------- checkpoints

def save_checkpoint(network, path):
    tensorops.write_checkpoint(path, network.checkpoint_entries())


def load_checkpoint(network, path):
    network.load_state(tensorops.read_checkpoint(path))


# ------------------------------------------------------------- gradient report

def network_gradient_report(width=1 / 16, input_length=64, seed=0, per_block=32, tolerance=1e-3):
    """Finite-difference reports for both networks at a desk-scale width.

    Uses a smooth (MSE-based) objective against random targets so every
    head contributes gradient signal.
    """
    approx = models.build_unet1d(
        models.UNet1DConfig.scaled(width, input_length=input_length), seed=seed
    )
    refine = models.build_multiresunet1d(
        models.MultiResUNet1DConfig.scaled(width, input_length=input_length), seed=seed
    )
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(2, 1, input_length))
    reports = {}
    for name, network in (("approximation", approx), ("refinement", refine)):
        weights = network.config.deep_supervision_weights
        targets = [rng.normal(size=(2, 1, input_length >> k)) for k in range(len(weights))]

        def objective():
            out = network.forward(x, mode="train")
            terms = [mse_loss(o, t) for o, t in zip([out.final] + out.auxiliaries, targets)]
            value = float(sum(w * v for w, (v, _) in zip(weights, terms)))
            return value, [w * g for w, (_, g) in zip(weights, terms)]

        grads = objective()[1]
        grad_in = network.backward(grads[0], grads[1:])
        reports[name] = tensorops.gradcheck(
            lambda: objective()[0], network.param_blocks() + [("input", x, grad_in)],
            max_entries_per_block=per_block, rng=np.random.default_rng(seed), refine_tol=tolerance,
        )
        network.zero_grads()
    return reports
