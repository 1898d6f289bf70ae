"""Training loops for the approximation and refinement networks.

The approximation network trains with deeply supervised MAE against
average-pooled targets; the refinement network trains with plain MSE on
pairs generated once from the frozen approximation network. Both networks
get their affine output calibration pinned to the training-target mean and
standard deviation before the first step, so the convolutional trunks
learn in normalized units while losses and histories stay in mmHg.
"""

import copy
import csv
from dataclasses import dataclass, field, replace

import numpy as np

from . import models, tensorops
from .tensorops import Adam, AdamConfig, NumericalError, mse_loss


@dataclass
class TrainConfig:
    epochs: int = 100
    batch_size: int = 32
    approx_loss: str = "mae"
    refine_loss: str = "mse"
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
        if self.approx_loss not in tensorops.LOSSES or self.refine_loss not in tensorops.LOSSES:
            raise ValueError(f"losses must be one of {sorted(tensorops.LOSSES)}")
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
    base_loss = base_loss or tensorops.mae_loss
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


def predict_batched(network, x, batch_size=64):
    """Infer-mode forward over a large array, preserving order."""
    outs = []
    for start in range(0, x.shape[0], batch_size):
        outs.append(network.forward(x[start : start + batch_size], mode="infer").final)
    return np.concatenate(outs, axis=0) if outs else np.zeros_like(x)


def refresh_batchnorm_stats(network, x, passes, batch_size=None):
    """Converge the running statistics with plain train-mode forwards.

    The momentum update leaves a geometric residue of the initial (0, 1)
    statistics after a short training run; extra forward passes shrink it
    without touching any learned parameter.
    """
    n = x.shape[0]
    size = min(batch_size or n, n)
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
    loss is deeply supervised. which="refine": inputs are frozen infer-mode
    predictions of approx_network on the stored PPG, plain loss on the final
    output. The best-scoring weights (validation loss, or training loss when
    no validation store is given) are restored into the network afterwards.
    """
    config.validate()
    if which not in ("approx", "refine"):
        raise ValueError("which must be 'approx' or 'refine'")
    if which == "refine" and approx_network is None:
        raise ValueError("refinement training needs the frozen approximation network")

    x_train, y_train = episodes_to_arrays(train_store)
    x_val, y_val = episodes_to_arrays(val_store) if val_store is not None and len(val_store) else (None, None)
    if which == "refine":
        x_train = predict_batched(approx_network, x_train)
        if x_val is not None:
            x_val = predict_batched(approx_network, x_val)

    if which == "approx":
        base_loss = tensorops.LOSSES[config.approx_loss]
        weights = network.config.deep_supervision_weights
        calibrate_network(network, y_train)
    else:
        base_loss = tensorops.LOSSES[config.refine_loss]
        weights = (1.0,)
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
            if which == "approx":
                total, g_final, g_aux = deep_supervised_loss(out, y_train[idx], weights, base_loss)
            else:
                total, g_final = base_loss(out.final, y_train[idx])
                g_aux = None
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

    network.load_state(copy.deepcopy(best_entries))
    if config.bn_refresh_passes:
        refresh_batchnorm_stats(network, x_train, config.bn_refresh_passes, config.batch_size)
        best_entries = [(name, arr.copy()) for name, arr in network.checkpoint_entries()]
    return TrainResult(
        history=history, best_epoch=best_epoch, best_score=best_score, best_entries=best_entries
    )


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

@dataclass
class FoldPlan:
    folds: list  # (train_indices, val_indices) pairs

    @property
    def k(self):
        return len(self.folds)


def kfold_plan(n, k=10, seed=0):
    """Disjoint, exhaustive folds whose sizes differ by at most one."""
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
    return FoldPlan(folds=folds)


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
    """
    if which not in ("approx", "both"):
        raise ValueError("which must be 'approx' or 'both'")
    plan = kfold_plan(len(store), k=k, seed=config.seed)
    histories = []
    scores = []
    nets = []
    for fold, (train_idx, val_idx) in enumerate(plan.folds):
        fold_config = replace(config, seed=config.seed + 1 + fold)
        train_store = store.subset(train_idx)
        val_store = store.subset(val_idx)
        approx = models.build_unet1d(
            models.UNet1DConfig.scaled(width, input_length=input_length),
            seed=fold_config.seed,
        )
        result = train_network(approx, train_store, val_store, fold_config, which="approx")
        fold_history = {"approx": result.history}
        score = result.best_score
        refine = None
        if which == "both":
            refine = models.build_multiresunet1d(
                models.MultiResUNet1DConfig.scaled(width, input_length=input_length),
                seed=fold_config.seed,
            )
            refine_result = train_network(
                refine, train_store, val_store, fold_config, which="refine", approx_network=approx
            )
            fold_history["refine"] = refine_result.history
            score = refine_result.best_score
        histories.append(fold_history)
        scores.append(score)
        nets.append((approx, refine))
    selected = int(np.argmin(scores))
    return CrossValidationResult(
        histories=histories,
        fold_scores=scores,
        selected_fold=selected,
        approx_network=nets[selected][0],
        refine_network=nets[selected][1],
    )


# ---------------------------------------------------------------- checkpoints

def save_checkpoint(network, path):
    tensorops.write_checkpoint(path, network.checkpoint_entries())


def load_checkpoint(network, path):
    network.load_state(tensorops.read_checkpoint(path))


# ------------------------------------------------------------- gradient report

def network_gradient_report(width=1 / 16, input_length=64, seed=0, per_block=32, h=1e-3, tolerance=1e-3):
    """Finite-difference reports for both networks at a desk-scale width.

    Uses a smooth (MSE-based) objective against random targets so every
    head contributes gradient signal.
    """
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(2, 1, input_length))
    reports = {}

    approx = models.build_unet1d(
        models.UNet1DConfig.scaled(width, input_length=input_length), seed=seed
    )
    weights = approx.config.deep_supervision_weights
    targets = [rng.normal(size=(2, 1, input_length >> k)) for k in range(approx.config.depth)]

    def approx_forward():
        out = approx.forward(x, mode="train")
        outs = [out.final] + out.auxiliaries
        return float(sum(w * mse_loss(o, t)[0] for o, t, w in zip(outs, targets, weights)))

    out = approx.forward(x, mode="train")
    outs = [out.final] + out.auxiliaries
    grads = [w * mse_loss(o, t)[1] for o, t, w in zip(outs, targets, weights)]
    grad_in = approx.backward(grads[0], grads[1:])
    blocks = approx.param_blocks() + [("input", x, grad_in)]
    reports["approximation"] = tensorops.gradcheck(
        approx_forward, blocks, h=h, max_entries_per_block=per_block,
        rng=np.random.default_rng(seed), refine_tol=tolerance,
    )
    approx.zero_grads()

    refine = models.build_multiresunet1d(
        models.MultiResUNet1DConfig.scaled(width, input_length=input_length), seed=seed
    )
    target = rng.normal(size=(2, 1, input_length))

    def refine_forward():
        return mse_loss(refine.forward(x, mode="train").final, target)[0]

    value, grad = mse_loss(refine.forward(x, mode="train").final, target)
    grad_in = refine.backward(grad)
    blocks = refine.param_blocks() + [("input", x, grad_in)]
    reports["refinement"] = tensorops.gradcheck(
        refine_forward, blocks, h=h, max_entries_per_block=per_block,
        rng=np.random.default_rng(seed), refine_tol=tolerance,
    )
    refine.zero_grads()
    return reports


# ------------------------------------------------------------------ config file

def parse_config_file(path):
    """key = value lines mirroring TrainConfig fields; # starts a comment."""
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw.rstrip()!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            values[key] = value
    return values
