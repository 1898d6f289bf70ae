"""Differentiable 1D layers with hand-written reverse-mode gradients.

Activations travel as float64 arrays of shape (batch, channels, length).
Each layer object owns its parameters, accumulates gradients on backward,
and remembers whatever the backward pass needs from the last train-mode
forward, so a single layer instance supports one forward/backward pair at a
time. An infer-mode forward keeps nothing, and a backward after it raises
ShapeError.
"""

import struct
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import container

CHECKPOINT_MAGIC = b"P2ABPCKPT"
CHECKPOINT_VERSION = 1


class ShapeError(ValueError):
    pass


class NumericalError(RuntimeError):
    pass


def _check_activation(x, in_channels=None):
    if x.ndim != 3:
        raise ShapeError(f"expected (batch, channels, length) activation, got shape {x.shape}")
    if in_channels is not None and x.shape[1] != in_channels:
        raise ShapeError(f"expected {in_channels} input channels, got {x.shape[1]}")


def _window_columns(x, k):
    """(B*L, C*K) matrix of same-padded sliding windows."""
    b, c, length = x.shape
    xp = np.pad(x, ((0, 0), (0, 0), (k // 2, k // 2)))
    win = sliding_window_view(xp, k, axis=2)                  # (B, C, L, K)
    return win.transpose(0, 2, 1, 3).reshape(b * length, c * k)


def _corr_same(x, weight):
    """Same-padded stride-1 cross-correlation of (B,C,L) with (O,C,K), K odd."""
    b, _, length = x.shape
    out_ch, c, k = weight.shape
    out = _window_columns(x, k) @ weight.reshape(out_ch, c * k).T
    return out.reshape(b, length, out_ch).transpose(0, 2, 1)


class Conv1d:
    """Stride-1 cross-correlation with zero same-padding and odd kernel."""

    def __init__(self, name, in_channels, out_channels, kernel_size, rng, init="relu"):
        if kernel_size % 2 != 1:
            raise ValueError("kernel_size must be odd for same-padding")
        self.name = name
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        fan_in = in_channels * kernel_size
        std = np.sqrt((2.0 if init == "relu" else 1.0) / fan_in)
        self.weight = rng.normal(0.0, std, size=(out_channels, in_channels, kernel_size))
        self.bias = np.zeros(out_channels)
        self.weight_grad = np.zeros_like(self.weight)
        self.bias_grad = np.zeros_like(self.bias)
        self._x = None

    def forward(self, x, mode="train"):
        _check_activation(x, self.in_channels)
        out = _corr_same(x, self.weight) + self.bias[None, :, None]
        self._x = x if mode == "train" else None
        return out

    def backward(self, grad_out):
        x = self._x
        if x is None or grad_out.shape != (x.shape[0], self.out_channels, x.shape[2]):
            raise ShapeError(f"{self.name}: gradient shape does not match the saved forward")
        b, _, length = x.shape
        cols = _window_columns(x, self.kernel_size)
        g2 = grad_out.transpose(0, 2, 1).reshape(b * length, self.out_channels)
        self.weight_grad += (g2.T @ cols).reshape(self.weight.shape)
        self.bias_grad += grad_out.sum(axis=(0, 2))
        # input gradient = correlation with the channel-swapped, tap-reversed kernel
        w_t = self.weight[:, :, ::-1].transpose(1, 0, 2)
        return _corr_same(grad_out, w_t)

    def param_blocks(self):
        return [
            (f"{self.name}.weight", self.weight, self.weight_grad),
            (f"{self.name}.bias", self.bias, self.bias_grad),
        ]

    def state_entries(self):
        return [(f"{self.name}.weight", self.weight), (f"{self.name}.bias", self.bias)]


class TransposedConv1d:
    """Fractionally-strided convolution: doubles the length (stride fixed at 2)."""

    stride = 2

    def __init__(self, name, in_channels, out_channels, kernel_size, rng, init="relu"):
        if kernel_size % 2 != 0:
            raise ValueError("kernel_size must be even to tile a stride-2 upsampling")
        self.name = name
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        fan_in = in_channels * kernel_size // self.stride
        std = np.sqrt((2.0 if init == "relu" else 1.0) / fan_in)
        self.weight = rng.normal(0.0, std, size=(out_channels, in_channels, kernel_size))
        self.bias = np.zeros(out_channels)
        self.weight_grad = np.zeros_like(self.weight)
        self.bias_grad = np.zeros_like(self.bias)
        self._x = None

    def _crop(self):
        return (self.kernel_size - self.stride) // 2

    def _tap_matrix(self):
        """(O*K, C) weight matrix whose row o*K + t holds tap t of output channel o."""
        o, c, k = self.weight.shape
        return self.weight.transpose(0, 2, 1).reshape(o * k, c)

    def forward(self, x, mode="train"):
        _check_activation(x, self.in_channels)
        b, _, length = x.shape
        o, k, s = self.out_channels, self.kernel_size, self.stride
        # tap t = s*p + r of input sample i lands on uncropped output sample s*(i + p) + r
        taps = (self._tap_matrix() @ x).reshape(b, o, k // s, s, length).transpose(0, 1, 2, 4, 3)
        if k == s:
            out = np.empty((b, o, length, s))
            np.add(taps[:, :, 0], self.bias[None, :, None, None], out=out)
            out = out.reshape(b, o, s * length)
        else:
            full = np.zeros((b, o, length + k // s - 1, s))
            for p in range(k // s):
                full[:, :, p : p + length] += taps[:, :, p]
            crop = self._crop()
            out = full.reshape(b, o, -1)[:, :, crop : crop + s * length] + self.bias[None, :, None]
        self._x = x if mode == "train" else None
        return out

    def backward(self, grad_out):
        x = self._x
        if x is None or grad_out.shape != (x.shape[0], self.out_channels, self.stride * x.shape[2]):
            raise ShapeError(f"{self.name}: gradient shape does not match the saved forward")
        b, c, length = x.shape
        o, k, s = self.out_channels, self.kernel_size, self.stride
        crop = self._crop()
        # g_taps[o, p, r, b, i] = padded grad_out at sample s*(i + p) + r: the forward's tap layout
        g_pad = np.pad(grad_out, ((0, 0), (0, 0), (crop, crop))).reshape(b, o, -1, s)
        g_taps = sliding_window_view(g_pad, length, axis=2).transpose(1, 2, 3, 0, 4)
        g_taps = g_taps.reshape(o * k, b * length)
        x_cols = x.transpose(1, 0, 2).reshape(c, b * length)
        self.weight_grad += (g_taps @ x_cols.T).reshape(o, k, c).transpose(0, 2, 1)
        self.bias_grad += grad_out.sum(axis=(0, 2))
        return (self._tap_matrix().T @ g_taps).reshape(c, b, length).transpose(1, 0, 2)

    def param_blocks(self):
        return [
            (f"{self.name}.weight", self.weight, self.weight_grad),
            (f"{self.name}.bias", self.bias, self.bias_grad),
        ]

    def state_entries(self):
        return [(f"{self.name}.weight", self.weight), (f"{self.name}.bias", self.bias)]


class MaxPool1d:
    """Non-overlapping max pooling; ties resolve to the earliest index."""

    def __init__(self, window=2):
        self.window = window
        self._argmax = None

    def forward(self, x, mode="train"):
        _check_activation(x)
        b, c, length = x.shape
        if length % self.window != 0:
            raise ShapeError(f"length {length} not divisible by pool window {self.window}")
        xr = x.reshape(b, c, length // self.window, self.window)
        idx = xr.argmax(axis=-1)
        out = np.take_along_axis(xr, idx[..., None], axis=-1)[..., 0]
        self._argmax = idx if mode == "train" else None
        return out

    def backward(self, grad_out):
        if self._argmax is None or grad_out.shape != self._argmax.shape:
            raise ShapeError("pool gradient shape does not match the saved forward")
        b, c, pooled = self._argmax.shape
        grad_in = np.zeros((b, c, pooled, self.window))
        np.put_along_axis(grad_in, self._argmax[..., None], grad_out[..., None], axis=-1)
        return grad_in.reshape(b, c, pooled * self.window)


class BatchNorm1d:
    """Per-channel normalization over (batch x length) with running statistics."""

    def __init__(self, name, channels, eps=1e-5, momentum=0.99):
        self.name = name
        self.channels = channels
        self.eps = eps
        self.momentum = momentum
        self.gamma = np.ones(channels)
        self.beta = np.zeros(channels)
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)
        self.gamma_grad = np.zeros_like(self.gamma)
        self.beta_grad = np.zeros_like(self.beta)
        self._x_hat = None
        self._inv_std = None

    def forward(self, x, mode="train"):
        _check_activation(x, self.channels)
        if mode == "train":
            if x.shape[0] < 2:
                raise ShapeError(f"{self.name}: train-mode batch normalization needs batch size >= 2")
            mean = x.mean(axis=(0, 2))
            var = x.var(axis=(0, 2))
            self.running_mean = self.momentum * self.running_mean + (1.0 - self.momentum) * mean
            self.running_var = self.momentum * self.running_var + (1.0 - self.momentum) * var
        else:
            mean = self.running_mean
            var = self.running_var
        inv_std = 1.0 / np.sqrt(var + self.eps)
        x_hat = (x - mean[None, :, None]) * inv_std[None, :, None]
        keep = mode == "train"
        self._x_hat = x_hat if keep else None
        self._inv_std = inv_std if keep else None
        return self.gamma[None, :, None] * x_hat + self.beta[None, :, None]

    def backward(self, grad_out):
        x_hat = self._x_hat
        if x_hat is None or grad_out.shape != x_hat.shape:
            raise ShapeError(f"{self.name}: gradient shape does not match the saved forward")
        self.gamma_grad += (grad_out * x_hat).sum(axis=(0, 2))
        self.beta_grad += grad_out.sum(axis=(0, 2))
        scale = (self.gamma * self._inv_std)[None, :, None]
        g_mean = grad_out.mean(axis=(0, 2), keepdims=True)
        gx_mean = (grad_out * x_hat).mean(axis=(0, 2), keepdims=True)
        return scale * (grad_out - g_mean - x_hat * gx_mean)

    def param_blocks(self):
        return [
            (f"{self.name}.gamma", self.gamma, self.gamma_grad),
            (f"{self.name}.beta", self.beta, self.beta_grad),
        ]

    def state_entries(self):
        return [
            (f"{self.name}.gamma", self.gamma),
            (f"{self.name}.beta", self.beta),
            (f"{self.name}.running_mean", self.running_mean),
            (f"{self.name}.running_var", self.running_var),
        ]


class ReLU:
    def __init__(self):
        self._mask = None

    def forward(self, x, mode="train"):
        mask = x > 0.0
        self._mask = mask if mode == "train" else None
        return np.where(mask, x, 0.0)

    def backward(self, grad_out):
        if self._mask is None or grad_out.shape != self._mask.shape:
            raise ShapeError("relu gradient shape does not match the saved forward")
        return grad_out * self._mask


def concat_channels(a, b):
    """Stack two activations along the channel axis (a first)."""
    _check_activation(a)
    _check_activation(b)
    if a.shape[0] != b.shape[0] or a.shape[2] != b.shape[2]:
        raise ShapeError(f"cannot concatenate channels of shapes {a.shape} and {b.shape}")
    return np.concatenate([a, b], axis=1)


def split_channels(grad, first_channels):
    """Inverse of concat_channels for the backward pass."""
    return grad[:, :first_channels], grad[:, first_channels:]


# ---------------------------------------------------------------------- losses

def mae_loss(pred, target):
    """Mean absolute error and its gradient with respect to pred."""
    if pred.shape != target.shape:
        raise ShapeError(f"loss shape mismatch: {pred.shape} vs {target.shape}")
    diff = pred - target
    return float(np.mean(np.abs(diff))), np.sign(diff) / diff.size


def mse_loss(pred, target):
    """Mean squared error and its gradient with respect to pred."""
    if pred.shape != target.shape:
        raise ShapeError(f"loss shape mismatch: {pred.shape} vs {target.shape}")
    diff = pred - target
    return float(np.mean(diff * diff)), 2.0 * diff / diff.size


LOSSES = {"mae": mae_loss, "mse": mse_loss}


# ------------------------------------------------------------------------ adam

@dataclass
class AdamConfig:
    learning_rate: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8

    def __post_init__(self):
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ValueError("beta1 and beta2 must be in [0, 1)")
        # zero is allowed so a frozen optimizer remains expressible
        if self.learning_rate < 0.0:
            raise ValueError("learning_rate must be non-negative")


class Adam:
    """Bias-corrected Adam; step() consumes and zeroes the gradient buffers."""

    def __init__(self, config=None):
        self.config = config or AdamConfig()
        self.step_counter = 0
        self._m = {}
        self._v = {}

    def step(self, blocks):
        cfg = self.config
        self.step_counter += 1
        t = self.step_counter
        bc1 = 1.0 - cfg.beta1**t
        bc2 = 1.0 - cfg.beta2**t
        for name, param, grad in blocks:
            if not np.all(np.isfinite(grad)):
                raise NumericalError(f"non-finite gradient in parameter block '{name}'")
            m = self._m.setdefault(name, np.zeros_like(param))
            v = self._v.setdefault(name, np.zeros_like(param))
            m *= cfg.beta1
            m += (1.0 - cfg.beta1) * grad
            v *= cfg.beta2
            v += (1.0 - cfg.beta2) * grad * grad
            param -= cfg.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + cfg.epsilon)
            grad[:] = 0.0


# -------------------------------------------------------------------- gradcheck

@dataclass
class GradCheckBlock:
    name: str
    max_rel_error: float
    checked: int


@dataclass
class GradCheckReport:
    blocks: list = field(default_factory=list)
    step: float = 1e-3

    @property
    def max_rel_error(self):
        return max((b.max_rel_error for b in self.blocks), default=0.0)

    def worst(self):
        return max(self.blocks, key=lambda b: b.max_rel_error, default=None)

    def passed(self, tolerance):
        return all(b.max_rel_error < tolerance for b in self.blocks)

    def format(self):
        lines = [f"{'block':<42} {'checked':>8} {'max rel err':>12}"]
        for b in self.blocks:
            lines.append(f"{b.name:<42} {b.checked:>8} {b.max_rel_error:>12.3e}")
        return "\n".join(lines)


def gradcheck(forward_fn, blocks, h=1e-3, max_entries_per_block=None, rng=None, refine_tol=None):
    """Compare analytic gradients against central finite differences.

    forward_fn re-evaluates the scalar objective with the current parameter
    values; blocks are (name, value_array, analytic_grad_array) triples whose
    gradients were already populated by an analytic backward pass. Relative
    error is |a - n| / max(|a|, |n|, 1e-8) per entry, reported as the maximum
    over each block.

    Entries that miss refine_tol at the base step are re-evaluated at steps
    down to h/1000 and keep their best error: a perturbation of size h can
    push a downstream ReLU or pool argument across its kink, which corrupts
    the difference quotient even when the analytic gradient is exact, and
    that corruption vanishes as the step shrinks while a genuinely wrong
    gradient stays wrong at every step.
    """
    report = GradCheckReport(step=h)

    def entry_error(flat_v, i, analytic_i, step):
        keep = flat_v[i]
        flat_v[i] = keep + step
        up = forward_fn()
        flat_v[i] = keep - step
        down = forward_fn()
        flat_v[i] = keep
        numeric = (up - down) / (2.0 * step)
        return abs(analytic_i - numeric) / max(abs(analytic_i), abs(numeric), 1e-8)

    for name, value, analytic in blocks:
        flat_v = value.reshape(-1)
        flat_a = analytic.reshape(-1)
        indices = np.arange(flat_v.size)
        if max_entries_per_block is not None and flat_v.size > max_entries_per_block:
            picker = rng or np.random.default_rng(0)
            indices = picker.choice(flat_v.size, size=max_entries_per_block, replace=False)
        worst = 0.0
        for i in indices:
            rel = entry_error(flat_v, i, flat_a[i], h)
            if refine_tol is not None and rel >= refine_tol:
                for finer in (h / 10.0, h / 100.0, h / 1000.0):
                    rel = min(rel, entry_error(flat_v, i, flat_a[i], finer))
                    if rel < refine_tol:
                        break
            worst = max(worst, rel)
        report.blocks.append(GradCheckBlock(name=name, max_rel_error=worst, checked=len(indices)))
    return report


# ----------------------------------------------------------------- checkpoints

def write_checkpoint(path, entries):
    """Write named float64 arrays in the flat checkpoint container."""
    with open(path, "wb") as fh:
        container.write_header(fh, CHECKPOINT_MAGIC, CHECKPOINT_VERSION)
        for name, values in entries:
            arr = np.asarray(values, dtype=np.float64)
            container.write_string(fh, name)
            container.write_u32(fh, arr.ndim)
            for dim in arr.shape:
                container.write_u32(fh, dim)
            container.write_f64_block(fh, arr.ravel())


def read_checkpoint(path):
    """Read back the (name, array) entries written by write_checkpoint."""
    entries = []
    with open(path, "rb") as fh:
        container.read_header(fh, CHECKPOINT_MAGIC, CHECKPOINT_VERSION)
        while True:
            probe = fh.read(4)
            if probe == b"":
                break
            if len(probe) != 4:
                raise container.TruncatedContainerError(
                    f"checkpoint truncated at entry {len(entries)}"
                )
            name_len = struct.unpack("<I", probe)[0]
            raw = fh.read(name_len)
            if len(raw) != name_len:
                raise container.TruncatedContainerError(
                    f"checkpoint truncated at entry {len(entries)}"
                )
            name = raw.decode("utf-8")
            rank = container.read_u32(fh, f"rank of '{name}'")
            shape = tuple(container.read_u32(fh, f"dims of '{name}'") for _ in range(rank))
            count = 1
            for dim in shape:
                count *= dim
            values = container.read_f64_block(fh, count, f"payload of '{name}'")
            entries.append((name, values.reshape(shape)))
    return entries
