"""Differentiable 1D layers with hand-written reverse-mode gradients.

Activations travel as float64 arrays of shape (batch, channels, length).
Each layer object owns its parameters and accumulates gradients on
backward. It holds what its backward pass needs only from a train-mode
forward to the backward that uses it, and drops it there, so a single layer
instance supports one forward/backward pair at a time. An infer-mode forward
keeps nothing; a backward after it, or a second backward after one
train-mode forward, raises ShapeError. The convolutions' output does not
depend on the mode, so a caller that can rebuild a conv's input runs the
forward in infer mode and hands the input to backward; the networks do so
for every ReLU output (models._BNReLU).
"""

import io
import math
import os
import struct
import threading
from dataclasses import dataclass, field

import numpy as np

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


def _windows(x, k):
    """Same-padded windows of (B, C, L), K odd: a (B, C*K, L) array whose row
    c*K + t holds channel c shifted by t - K//2, zero-padded. For K = 1, x.

    For K > 1, the transposed view of a fresh (C*K, B, L) array filled by K
    slice copies: each sample's rows keep unit stride, so a per-sample
    product still reaches BLAS, and the transpose back reshapes to the
    batch's (C*K, B*L) columns without a copy."""
    if k == 1:
        return x
    b, c, length = x.shape
    cols = np.empty((c, k, b, length))
    x_cb = x.transpose(1, 0, 2)
    for t in range(k):
        s = t - k // 2
        # valid columns [lo, hi), clamped so the two pad slices stay in range
        lo = min(length, max(0, -s))
        hi = max(lo, min(length, length - s))
        cols[:, t, :, :lo] = 0.0
        cols[:, t, :, hi:] = 0.0
        cols[:, t, :, lo:hi] = x_cb[..., lo + s : hi + s]
    return cols.reshape(c * k, b, length).transpose(1, 0, 2)


def _corr_same(x, weight):
    """Same-padded stride-1 cross-correlation of (B,C,L) with (O,C,K), K odd.

    One (O, C*K) @ (C*K, L) product per sample, so a sample's output does
    not depend on the batch it shares: stacked and one-at-a-time forwards
    agree bitwise.
    """
    out_ch, c, k = weight.shape
    return weight.reshape(out_ch, c * k) @ _windows(x, k)


class _StatefulLayer:
    """Named arrays of a layer: learned params and non-learned buffers, both
    checkpointed. Each param's <param>_grad buffer is made, zero-filled, on
    first use (a backward pass, param_blocks), so a layer that only runs
    inference holds none."""

    params = ()
    buffers = ()

    def __getattr__(self, name):
        # reached only when the attribute is not set yet
        param = name[: -len("_grad")] if name.endswith("_grad") else None
        if param not in self.params:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        grad = np.zeros(getattr(self, param).shape)
        setattr(self, name, grad)
        return grad

    def param_blocks(self):
        return [(f"{self.name}.{a}", getattr(self, a), getattr(self, f"{a}_grad")) for a in self.params]

    def state_entries(self):
        return [(f"{self.name}.{a}", getattr(self, a)) for a in self.params + self.buffers]

    def hold_shapes_only(self):
        """Replace every param and buffer by a read-only placeholder of its
        shape (see _he_weight): a skeleton for take_state to fill."""
        for attr in self.params + self.buffers:
            setattr(self, attr, np.broadcast_to(0.0, getattr(self, attr).shape))

    def take_state(self, table):
        """Pop this layer's entries from the name -> array table and keep them
        as its own arrays, without a copy, once each name and shape checks out.

        The caller hands the arrays over and must not use them again. One that
        is not C-contiguous, writable float64 is copied into one that is.
        """
        for attr in self.params + self.buffers:
            name = f"{self.name}.{attr}"
            if name not in table:
                raise ValueError(f"checkpoint is missing entry '{name}'")
            incoming = table.pop(name)
            expected = getattr(self, attr).shape
            if incoming.shape != expected:
                raise ValueError(
                    f"checkpoint entry '{name}' has shape {incoming.shape}, expected {expected}"
                )
            setattr(self, attr, np.require(incoming, np.float64, ["C", "W"]))


def _he_weight(rng, shape, fan_in, init):
    """He-scaled normal weights ("relu") or unit-gain ones ("linear"); with
    rng None, a read-only zero-stride placeholder that holds only the shape,
    for a load to replace."""
    if rng is None:
        return np.broadcast_to(0.0, shape)
    std = np.sqrt((2.0 if init == "relu" else 1.0) / fan_in)
    return rng.normal(0.0, std, size=shape)


class Conv1d(_StatefulLayer):
    """Stride-1 cross-correlation with zero same-padding and odd kernel.

    With rng None the weight is a read-only placeholder (see _he_weight)
    and no number is drawn: the skeleton a checkpoint load fills.
    """

    params = ("weight", "bias")

    def __init__(self, name, in_channels, out_channels, kernel_size, rng, init="relu"):
        if kernel_size % 2 != 1:
            raise ValueError("kernel_size must be odd for same-padding")
        self.name = name
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.weight = _he_weight(
            rng, (out_channels, in_channels, kernel_size), in_channels * kernel_size, init
        )
        self.bias = np.zeros(out_channels)
        self._x = None

    def forward(self, x, mode="train", add_bias=True):
        """The output, in a fresh array. add_bias=False leaves the bias out,
        for an infer-mode caller that folds it into the BatchNorm that follows."""
        _check_activation(x, self.in_channels)
        out = _corr_same(x, self.weight)
        if add_bias:
            out += self.bias[None, :, None]
        self._x = x if mode == "train" else None
        return out

    def backward(self, grad_out, x=None):
        """Input gradient; x is the forward's input, handed back by a caller
        whose forward kept none, or None for the one a train-mode forward kept."""
        x = self._x if x is None else x
        if x is None or grad_out.shape != (x.shape[0], self.out_channels, x.shape[2]):
            raise ShapeError(f"{self.name}: gradient shape does not match the saved forward")
        self._x = None
        b, _, length = x.shape
        # one product over the batch, (O, B*L) @ (B*L, C*K); the windows' (C*K, B*L)
        # form is a reshape of their transpose (a copy for K = 1)
        g_rows = grad_out.transpose(1, 0, 2).reshape(self.out_channels, b * length)
        cols = _windows(x, self.kernel_size).transpose(1, 0, 2).reshape(-1, b * length)
        self.weight_grad += (g_rows @ cols.T).reshape(self.weight.shape)
        # freed before the input gradient builds its own windows: with both alive,
        # a (B16, C4->O4, L1024) backward took ~1000 page faults and 3.5x the time
        del cols
        self.bias_grad += grad_out.sum(axis=(0, 2))
        # input gradient = correlation with the channel-swapped, tap-reversed kernel
        w_t = self.weight[:, :, ::-1].transpose(1, 0, 2)
        return _corr_same(grad_out, w_t)


class TransposedConv1d(_StatefulLayer):
    """2-tap, stride-2 fractionally-strided convolution: doubles the length.

    Input sample i feeds output samples 2i (tap 0) and 2i + 1 (tap 1), so
    the taps never overlap. kernel_size is fixed at 2. With rng None the
    weight is a read-only placeholder (see _he_weight) and no number is
    drawn: the skeleton a checkpoint load fills.
    """

    params = ("weight", "bias")

    def __init__(self, name, in_channels, out_channels, kernel_size, rng):
        if kernel_size != 2:
            raise ValueError(f"kernel_size must be 2 for a stride-2 upsampling, got {kernel_size}")
        self.name = name
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        # each output sample sees one tap of each input channel: fan-in C
        self.weight = _he_weight(rng, (out_channels, in_channels, 2), in_channels, "relu")
        self.bias = np.zeros(out_channels)
        self._x = None

    def _tap_matrix(self):
        """(2*O, C) weight matrix whose row 2*o + t holds tap t of output channel o."""
        o, c, _ = self.weight.shape
        return self.weight.transpose(0, 2, 1).reshape(2 * o, c)

    def forward(self, x, mode="train"):
        _check_activation(x, self.in_channels)
        b, _, length = x.shape
        o = self.out_channels
        # taps[b, o, i, t] lands on output sample 2*i + t
        taps = (self._tap_matrix() @ x).reshape(b, o, 2, length).transpose(0, 1, 3, 2)
        out = np.empty((b, o, length, 2))
        np.add(taps, self.bias[None, :, None, None], out=out)
        self._x = x if mode == "train" else None
        return out.reshape(b, o, 2 * length)

    def backward(self, grad_out, x=None):
        """Input gradient; x as in Conv1d.backward."""
        x = self._x if x is None else x
        if x is None or grad_out.shape != (x.shape[0], self.out_channels, 2 * x.shape[2]):
            raise ShapeError(f"{self.name}: gradient shape does not match the saved forward")
        self._x = None
        b, c, length = x.shape
        o = self.out_channels
        # g_taps[2*o + t, b*L + i] = grad_out[b, o, 2*i + t]: the forward's tap layout
        g_taps = grad_out.reshape(b, o, length, 2).transpose(1, 3, 0, 2).reshape(2 * o, b * length)
        x_cols = x.transpose(1, 0, 2).reshape(c, b * length)
        self.weight_grad += (g_taps @ x_cols.T).reshape(o, 2, c).transpose(0, 2, 1)
        self.bias_grad += grad_out.sum(axis=(0, 2))
        return (self._tap_matrix().T @ g_taps).reshape(c, b, length).transpose(1, 0, 2)


class MaxPool1d:
    """2-wide, stride-2 max pooling, the pool the networks build.

    Train mode picks from each pair by argmax's rule, as a compare mask
    (true where the odd sample wins): ties and a NaN in the even slot keep the
    even sample, a NaN only in the odd slot takes the odd one. The backward
    routes the gradient by that mask. Infer mode keeps nothing and takes the
    pairwise maximum of the even and odd samples. The two forms
    differ only on a -0.0 paired with a 0.0: the argmax keeps the earlier of
    the two, np.maximum the later. Every pool input in the networks is a ReLU
    output, and np.maximum(y, 0.0) never yields -0.0. A NaN in either slot
    comes out as NaN in both forms.
    """

    def __init__(self):
        self._argmax = None

    def forward(self, x, mode="train"):
        _check_activation(x)
        b, c, length = x.shape
        if length % 2 != 0:
            raise ShapeError(f"length {length} not divisible by pool window 2")
        if mode != "train":
            self._argmax = None
            return np.maximum(x[..., 0::2], x[..., 1::2])
        even, odd = x[..., 0::2], x[..., 1::2]
        take_odd = ~(even >= odd)
        take_odd &= even == even
        self._argmax = take_odd
        return np.where(take_odd, odd, even)

    def backward(self, grad_out):
        take_odd = self._argmax
        if take_odd is None or grad_out.shape != take_odd.shape:
            raise ShapeError("pool gradient shape does not match the saved forward")
        self._argmax = None
        b, c, pooled = take_odd.shape
        grad_in = np.empty((b, c, pooled, 2))
        grad_in[..., 0] = np.where(take_odd, 0.0, grad_out)
        grad_in[..., 1] = np.where(take_odd, grad_out, 0.0)
        return grad_in.reshape(b, c, pooled * 2)


class BatchNorm1d(_StatefulLayer):
    """Per-channel normalization over (batch x length) with running statistics."""

    params = ("gamma", "beta")
    buffers = ("running_mean", "running_var")
    eps = 1e-5
    momentum = 0.99

    def __init__(self, name, channels):
        self.name = name
        self.channels = channels
        self.gamma = np.ones(channels)
        self.beta = np.zeros(channels)
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)
        self._x_hat = None
        self._inv_std = None

    def forward(self, x, mode="train"):
        _check_activation(x, self.channels)
        if mode == "train":
            if x.shape[0] < 2:
                raise ShapeError(f"{self.name}: train-mode batch normalization needs batch size >= 2")
            # the arithmetic of x.mean and x.var, with x - mean formed once
            n = x.shape[0] * x.shape[2]
            mean = x.sum(axis=(0, 2)) / n
            x_hat = x - mean[None, :, None]
            var = np.square(x_hat).sum(axis=(0, 2)) / n
            self.running_mean = self.momentum * self.running_mean + (1.0 - self.momentum) * mean
            self.running_var = self.momentum * self.running_var + (1.0 - self.momentum) * var
        else:
            x_hat = x - self.running_mean[None, :, None]
            var = self.running_var
        inv_std = 1.0 / np.sqrt(var + self.eps)
        x_hat *= inv_std[None, :, None]
        keep = mode == "train"
        self._x_hat = x_hat if keep else None
        self._inv_std = inv_std if keep else None
        out = self.gamma[None, :, None] * x_hat
        out += self.beta[None, :, None]
        return out

    def infer_inplace(self, y, bias):
        """Infer-mode forward of y + bias, written over y: one scale and one
        shift per channel, with bias (that of the conv in front) folded into
        the shift. y must be a fresh array the caller owns. Equal to
        forward(y + bias, "infer") up to rounding."""
        _check_activation(y, self.channels)
        scale = self.gamma / np.sqrt(self.running_var + self.eps)
        shift = self.beta + (bias - self.running_mean) * scale
        y *= scale[None, :, None]
        y += shift[None, :, None]
        self._x_hat = None
        self._inv_std = None
        return y

    def backward(self, grad_out):
        x_hat, inv_std = self._x_hat, self._inv_std
        if x_hat is None or grad_out.shape != x_hat.shape:
            raise ShapeError(f"{self.name}: gradient shape does not match the saved forward")
        self._x_hat = self._inv_std = None
        n = x_hat.shape[0] * x_hat.shape[2]
        gx = grad_out * x_hat
        gx_sum = gx.sum(axis=(0, 2))
        g_sum = grad_out.sum(axis=(0, 2))
        self.gamma_grad += gx_sum
        self.beta_grad += g_sum
        # the arithmetic of scale * (grad_out - mean(grad_out) - x_hat * mean(gx)),
        # built on one fresh array
        d = grad_out - (g_sum / n)[None, :, None]
        d -= np.multiply(x_hat, (gx_sum / n)[None, :, None], out=gx)
        d *= (self.gamma * inv_std)[None, :, None]
        return d


class ReLU:
    def __init__(self):
        self._mask = None

    def forward(self, x, mode="train"):
        self._mask = x > 0.0 if mode == "train" else None
        # maximum propagates NaN: a non-finite input stays non-finite, not 0
        return np.maximum(x, 0.0)

    def infer_inplace(self, y):
        """Infer-mode forward written over y, a fresh array the caller owns."""
        self._mask = None
        return np.maximum(y, 0.0, out=y)

    def backward(self, grad_out):
        mask = self._mask
        if mask is None or grad_out.shape != mask.shape:
            raise ShapeError("relu gradient shape does not match the saved forward")
        self._mask = None
        return grad_out * mask


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
            if name not in self._m:  # moments are made on a block's first step only
                self._m[name], self._v[name] = np.zeros_like(param), np.zeros_like(param)
            m, v = self._m[name], self._v[name]
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


# --------------------------------------------------------------- helper threads

def usable_cores():
    """Cores this process may run on: the most threads run_shares is given."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_shares(task, count):
    """Call task(share, failed) for every share in range(count): share 0 on
    the calling thread, each other on a helper thread of its own. failed is
    the list of errors raised so far, for a task to poll between its steps.
    Every helper is joined before this returns or raises; the first error
    any share raised is re-raised here."""
    failed = []

    def run(share):
        try:
            task(share, failed)
        except BaseException as exc:  # re-raised by the calling thread
            failed.append(exc)

    helpers = []
    try:
        for share in range(1, count):
            helper = threading.Thread(target=run, args=(share,))
            helper.start()
            helpers.append(helper)
        run(0)
    finally:
        for helper in helpers:
            helper.join()
    if failed:
        raise failed[0]


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


# Payload bytes from which read_checkpoint fills its arrays on usable_cores()
# threads. Below it, a helper's start and its own file handle cost more
# than the second core reads: on a 2-core x86-64 host, reloading one U-Net
# checkpoint took 1.0-1.2x the serial time on two threads at 5.5 and 9.7 MB,
# and 0.76-0.94x at 21.7 MB (about 0.5 ms of fixed cost per threaded read).
THREAD_READ_BYTES = 1 << 24

_U32 = struct.Struct("<I")


def _scan_checkpoint(fh):
    """(name, shape, payload offset) of every entry of an open checkpoint.

    Every declared size is checked against the file end, measured once,
    before anything of that size is read; the payloads are skipped.
    """
    end = fh.seek(0, io.SEEK_END)
    fh.seek(0)
    container.read_header(fh, CHECKPOINT_MAGIC, CHECKPOINT_VERSION)
    pos = fh.tell()
    layout, name = [], None

    def truncated(context):  # formatted only on failure: the scan runs per entry
        context = context.format(index=len(layout), name=name)
        return container.TruncatedContainerError(f"file truncated while reading {context}")

    def take(n, context):
        nonlocal pos
        raw = fh.read(n) if n <= end - pos else b""
        if len(raw) != n:
            raise truncated(context)
        pos += n
        return raw

    while pos < end:
        fh.seek(pos)
        (n,) = _U32.unpack(take(4, "checkpoint entry {index} name length"))
        name = take(n, "checkpoint entry {index} name").decode("utf-8")
        (rank,) = _U32.unpack(take(4, "rank of '{name}'"))
        shape = struct.unpack(f"<{rank}I", take(4 * rank, "dims of '{name}'"))
        nbytes = 8 * math.prod(shape)
        if nbytes > end - pos:
            raise truncated("payload of '{name}'")
        layout.append((name, shape, pos))
        pos += nbytes
    return layout


def _fill(fh, pieces, failed=()):
    """Read each (name, file offset, byte view) piece into its view. Stops
    between pieces once failed, the other shares' error list, holds one."""
    for name, offset, view in pieces:
        if failed:
            return
        fh.seek(offset)
        while view:
            got = fh.readinto(view)
            if not got:
                raise container.TruncatedContainerError(f"file truncated while reading payload of '{name}'")
            view = view[got:]


def _split_by_bytes(pieces, count):
    """The pieces as count runs of consecutive payload bytes, equal to within
    a byte; a piece that straddles the end of a run is cut there."""
    total = sum(len(view) for _, _, view in pieces)
    shares = [[] for _ in range(count)]
    done = 0
    for name, offset, view in pieces:
        while view:
            share = done * count // total
            cut = min(len(view), -(-(share + 1) * total // count) - done)
            shares[share].append((name, offset, view[:cut]))
            offset, view, done = offset + cut, view[cut:], done + cut
    return shares


def read_checkpoint(path):
    """Read back the (name, array) entries written by write_checkpoint.

    A scan first walks every entry's name, rank and dims, so a declared size
    past the end of the file fails before any array exists. Then every array
    is allocated here, on the calling thread, and the payloads are read
    straight into them: from THREAD_READ_BYTES of payload up split by bytes
    across usable_cores() threads, each on its own unbuffered handle (raw
    readinto releases the GIL), below it through the scan's handle.
    """
    with open(path, "rb") as fh:
        layout = _scan_checkpoint(fh)
        entries = [(name, np.empty(shape, dtype="<f8")) for name, shape, _ in layout]
        pieces = [(name, offset, memoryview(values).cast("B"))
                  for (name, _, offset), (_, values) in zip(layout, entries) if values.size]
        payload = sum(len(view) for _, _, view in pieces)
        workers = usable_cores() if payload >= THREAD_READ_BYTES else 1
        if workers == 1:
            _fill(fh, pieces)
    if workers > 1:
        shares = _split_by_bytes(pieces, workers)

        def fill_share(share, failed):
            with open(path, "rb", buffering=0) as raw:
                _fill(raw, shares[share], failed)

        run_shares(fill_share, workers)
    return entries
