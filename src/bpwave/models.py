"""The two pressure-waveform networks, assembled from tensorops layers.

The approximation network is a deeply supervised 1D U-Net; the refinement
network is a 1D MultiResUNet. Both are one U-shaped skeleton that differs
only in its blocks, its skip transforms and its auxiliary heads. Both carry a fixed affine calibration on
their input and output so the convolutional trunk works in normalized
units while callers see absolute mmHg (the calibration constants are set
by the trainer and stored in checkpoints, never learned).
"""

from dataclasses import dataclass, field

import numpy as np

from .tensorops import (
    BatchNorm1d,
    Conv1d,
    MaxPool1d,
    ReLU,
    ShapeError,
    TransposedConv1d,
    concat_channels,
    split_channels,
)


@dataclass(frozen=True)
class UNet1DConfig:
    depth: int = 5
    filters_per_level: tuple = (64, 128, 256, 512, 1024)
    kernel_size: int = 3
    input_length: int = 1024
    deep_supervision_weights: tuple = (1.0, 0.9, 0.8, 0.7, 0.6)

    @classmethod
    def scaled(cls, width=1.0, input_length=1024):
        base = cls()
        return cls(
            filters_per_level=tuple(max(1, round(f * width)) for f in base.filters_per_level),
            input_length=input_length,
        )

    def validate(self):
        if len(self.filters_per_level) != self.depth:
            raise ValueError("one filter count is required per level")
        w = self.deep_supervision_weights
        if len(w) != self.depth:
            raise ValueError("one supervision weight per output is required")
        if w[0] != 1.0 or any(a <= b for a, b in zip(w, w[1:])):
            raise ValueError("supervision weights must decrease strictly from 1")
        if self.input_length % (1 << (self.depth - 1)) != 0:
            raise ValueError(
                f"input length {self.input_length} not divisible by 2^{self.depth - 1}"
            )
        if self.kernel_size % 2 != 1:
            raise ValueError("kernel_size must be odd")
        return self


@dataclass(frozen=True)
class MultiResUNet1DConfig:
    depth: int = 5
    alpha: float = 2.5
    base_widths: tuple = (32, 64, 128, 256, 512)
    res_path_lengths: tuple = (4, 3, 2, 1)
    input_length: int = 1024

    @classmethod
    def scaled(cls, width=1.0, input_length=1024):
        base = cls()
        return cls(
            base_widths=tuple(max(1, round(u * width)) for u in base.base_widths),
            input_length=input_length,
        )

    def block_width(self, level):
        # clamped so the W/6 stage keeps at least one filter at tiny test widths
        return max(6, round(self.alpha * self.base_widths[level]))

    def stage_filters(self, level):
        w = self.block_width(level)
        return w // 6, w // 3, w // 2

    def validate(self):
        if len(self.base_widths) != self.depth:
            raise ValueError("one base width is required per level")
        if len(self.res_path_lengths) != self.depth - 1:
            raise ValueError("one res-path length per skip connection is required")
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        for level in range(self.depth):
            if min(self.stage_filters(level)) < 1:
                raise ValueError(f"block width {self.block_width(level)} leaves an empty stage")
        if self.input_length % (1 << (self.depth - 1)) != 0:
            raise ValueError(
                f"input length {self.input_length} not divisible by 2^{self.depth - 1}"
            )
        return self


@dataclass
class NetworkOutput:
    final: np.ndarray
    auxiliaries: list = field(default_factory=list)


class _ConvBNRelu:
    def __init__(self, name, in_ch, out_ch, kernel_size, rng):
        self.conv = Conv1d(f"{name}.conv", in_ch, out_ch, kernel_size, rng, init="relu")
        self.bn = BatchNorm1d(f"{name}.bn", out_ch)
        self.relu = ReLU()

    def forward(self, x, mode):
        return self.relu.forward(self.bn.forward(self.conv.forward(x, mode), mode), mode)

    def backward(self, grad):
        return self.conv.backward(self.bn.backward(self.relu.backward(grad)))

    def layers(self):
        return [self.conv, self.bn]


class _DoubleConv:
    """U-Net block: two conv+BN+ReLU stages."""

    def __init__(self, name, in_ch, out_ch, kernel_size, rng):
        self.a = _ConvBNRelu(f"{name}.a", in_ch, out_ch, kernel_size, rng)
        self.b = _ConvBNRelu(f"{name}.b", out_ch, out_ch, kernel_size, rng)
        self.out_channels = out_ch

    def forward(self, x, mode):
        return self.b.forward(self.a.forward(x, mode), mode)

    def backward(self, grad):
        return self.a.backward(self.b.backward(grad))

    def layers(self):
        return self.a.layers() + self.b.layers()


class _Identity:
    """U-Net skip: the encoder output reaches the decoder unchanged."""

    def __init__(self, channels):
        self.out_channels = channels

    def forward(self, x, mode):
        return x

    def backward(self, grad):
        return grad

    def layers(self):
        return []


class _MultiResBlock:
    """Three serial 3-tap stages (W/6, W/3, W/2 filters) concatenated, plus a
    1-tap projection of the block input, batch-normalized after the sum."""

    def __init__(self, name, in_ch, config, level, rng):
        s1, s2, s3 = config.stage_filters(level)
        k = 3
        self.out_channels = s1 + s2 + s3
        self.splits = (s1, s2, s3)
        self.stage1 = _ConvBNRelu(f"{name}.s1", in_ch, s1, k, rng)
        self.stage2 = _ConvBNRelu(f"{name}.s2", s1, s2, k, rng)
        self.stage3 = _ConvBNRelu(f"{name}.s3", s2, s3, k, rng)
        self.shortcut = Conv1d(f"{name}.shortcut", in_ch, self.out_channels, 1, rng, init="linear")
        self.post_bn = BatchNorm1d(f"{name}.post_bn", self.out_channels)
        self.post_relu = ReLU()

    def forward(self, x, mode):
        c1 = self.stage1.forward(x, mode)
        c2 = self.stage2.forward(c1, mode)
        c3 = self.stage3.forward(c2, mode)
        merged = concat_channels(c1, concat_channels(c2, c3))
        merged = merged + self.shortcut.forward(x, mode)
        return self.post_relu.forward(self.post_bn.forward(merged, mode), mode)

    def backward(self, grad):
        g = self.post_bn.backward(self.post_relu.backward(grad))
        g_input = self.shortcut.backward(g)
        g1, rest = split_channels(g, self.splits[0])
        g2, g3 = split_channels(rest, self.splits[1])
        g2 = g2 + self.stage3.backward(g3)
        g1 = g1 + self.stage2.backward(g2)
        return g_input + self.stage1.backward(g1)

    def layers(self):
        return (
            self.stage1.layers()
            + self.stage2.layers()
            + self.stage3.layers()
            + [self.shortcut, self.post_bn]
        )


class _ResPath:
    """Skip-connection chain: 3-tap conv+BN+ReLU links, each summed with a
    parallel 1-tap projection of the link input."""

    def __init__(self, name, in_ch, width, length, rng):
        self.links = []
        ch = in_ch
        for i in range(length):
            self.links.append(
                (
                    _ConvBNRelu(f"{name}.link{i}", ch, width, 3, rng),
                    Conv1d(f"{name}.link{i}.bypass", ch, width, 1, rng, init="linear"),
                )
            )
            ch = width
        self.out_channels = width

    def forward(self, x, mode):
        for conv, bypass in self.links:
            x = conv.forward(x, mode) + bypass.forward(x, mode)
        return x

    def backward(self, grad):
        for conv, bypass in reversed(self.links):
            grad = conv.backward(grad) + bypass.backward(grad)
        return grad

    def layers(self):
        out = []
        for conv, bypass in self.links:
            out.extend(conv.layers())
            out.append(bypass)
        return out


class _UShapedNetwork:
    """The topology both networks share, with its calibration and checkpoint plumbing.

    Per level an encoder block, a skip transform of its output and a pool;
    a bottleneck block; then per level, deepest first, a stride-2 transposed
    convolution, a channel concat with the skip and a decoder block; then a
    1-tap linear head. A subclass supplies _block(name, in_ch, level, rng)
    and _skip(level, channels, rng); a deeply supervised one also gets a
    linear auxiliary head on the tensor entering every transposed
    convolution. Layers are built in a fixed order (encoder blocks with
    their skips, bottleneck, decoder levels deepest first, auxiliary heads
    deepest first, final head): changing it changes every seeded weight,
    and tests/test_models.py pins the resulting checkpoint entries.

    Each subclass binds _forward and _backward as its own forward and
    backward, so per-network timing (perfbench/bench_trace.py) can wrap
    them class by class.
    """

    deeply_supervised = False

    def __init__(self, config, seed):
        self.config = config.validate()
        self.set_calibration()
        rng = np.random.default_rng(seed)
        levels = config.depth - 1
        self.enc, self.skips, self.pools = [], [], []
        ch = 1
        for l in range(levels):
            self.enc.append(self._block(f"enc{l}", ch, l, rng))
            ch = self.enc[l].out_channels
            self.skips.append(self._skip(l, ch, rng))
            self.pools.append(MaxPool1d(2))
        self.bottleneck = self._block("bottleneck", ch, levels, rng)
        self.ups = [None] * levels
        self.dec = [None] * levels
        ch = self.bottleneck.out_channels
        for l in reversed(range(levels)):
            width = self.skips[l].out_channels
            self.ups[l] = TransposedConv1d(f"dec{l}.up", ch, width, 2, rng)
            self.dec[l] = self._block(f"dec{l}", 2 * width, l, rng)
            ch = self.dec[l].out_channels
        # aux head l + 1 reads the tensor entering ups[l]; built deepest first
        below = self.dec[1:] + [self.bottleneck]
        self.aux_heads = [
            Conv1d(f"head.aux{l + 1}", below[l].out_channels, 1, 1, rng, init="linear")
            for l in reversed(range(levels))
            if self.deeply_supervised
        ][::-1]
        self.final_head = Conv1d("head.final", ch, 1, 1, rng, init="linear")

    def set_calibration(self, input_scale=1.0, input_offset=0.0, output_scale=1.0, output_offset=0.0):
        if input_scale == 0.0 or output_scale == 0.0:
            raise ValueError("calibration scales must be non-zero")
        self.input_scale = float(input_scale)
        self.input_offset = float(input_offset)
        self.output_scale = float(output_scale)
        self.output_offset = float(output_offset)

    def _calibrate_in(self, x):
        return (x - self.input_offset) / self.input_scale

    def _calibrate_out(self, z):
        return z * self.output_scale + self.output_offset

    def _layers(self):
        layers = []
        for enc, skip in zip(self.enc, self.skips):
            layers += enc.layers() + skip.layers()
        layers += self.bottleneck.layers()
        for up, dec in zip(self.ups, self.dec):
            layers += [up] + dec.layers()
        return layers + self.aux_heads + [self.final_head]

    def param_blocks(self):
        blocks = []
        for layer in self._layers():
            blocks.extend(layer.param_blocks())
        return blocks

    def parameter_count(self):
        return sum(p.size for _, p, _ in self.param_blocks())

    def zero_grads(self):
        for _, _, grad in self.param_blocks():
            grad[:] = 0.0

    def checkpoint_entries(self):
        entries = []
        for layer in self._layers():
            entries.extend(layer.state_entries())
        entries.extend(
            [
                ("calibration.input_scale", np.array(self.input_scale)),
                ("calibration.input_offset", np.array(self.input_offset)),
                ("calibration.output_scale", np.array(self.output_scale)),
                ("calibration.output_offset", np.array(self.output_offset)),
            ]
        )
        return entries

    def load_state(self, entries):
        table = dict(entries)
        for layer in self._layers():
            for name, value in layer.state_entries():
                if name not in table:
                    raise ValueError(f"checkpoint is missing entry '{name}'")
                incoming = table.pop(name)
                if incoming.shape != value.shape:
                    raise ValueError(
                        f"checkpoint entry '{name}' has shape {incoming.shape}, "
                        f"expected {value.shape}"
                    )
                value[:] = incoming
        for attr in ("input_scale", "input_offset", "output_scale", "output_offset"):
            key = f"calibration.{attr}"
            if key not in table:
                raise ValueError(f"checkpoint is missing entry '{key}'")
            setattr(self, attr, float(table.pop(key)))
        if table:
            raise ValueError(f"checkpoint has unexpected entries: {sorted(table)}")

    def summary(self):
        lines = [f"{'layer':<42} {'shape':<16} {'params':>8}"]
        for name, param, _ in self.param_blocks():
            lines.append(f"{name:<42} {str(param.shape):<16} {param.size:>8}")
        lines.append(f"{'total':<42} {'':<16} {self.parameter_count():>8}")
        return "\n".join(lines)

    def _check_input(self, x):
        if x.ndim != 3 or x.shape[1] != 1 or x.shape[2] != self.config.input_length:
            raise ShapeError(
                f"expected input of shape (batch, 1, {self.config.input_length}), got {x.shape}"
            )

    def _forward(self, x, mode="train"):
        self._check_input(x)
        h = self._calibrate_in(x)
        skips = []
        for enc, skip, pool in zip(self.enc, self.skips, self.pools):
            h = enc.forward(h, mode)
            skips.append(skip.forward(h, mode))
            h = pool.forward(h, mode)
        h = self.bottleneck.forward(h, mode)
        aux = []
        for l in reversed(range(len(self.ups))):
            if self.aux_heads:
                aux.insert(0, self._calibrate_out(self.aux_heads[l].forward(h, mode)))
            h = self.ups[l].forward(h, mode)
            h = self.dec[l].forward(concat_channels(h, skips[l]), mode)
        final = self._calibrate_out(self.final_head.forward(h, mode))
        return NetworkOutput(final=final, auxiliaries=aux)

    def _backward(self, grad_final, grad_auxiliaries=None):
        """Input gradient; grad_auxiliaries lists the auxiliary gradients
        shallowest first (None, or None entries, for heads without a loss)."""
        aux_grads = grad_auxiliaries or [None] * len(self.ups)
        g = self.final_head.backward(grad_final * self.output_scale)
        skip_grads = []
        for l, (up, dec) in enumerate(zip(self.ups, self.dec)):
            g_up, g_skip = split_channels(dec.backward(g), up.out_channels)
            skip_grads.append(g_skip)
            g = up.backward(g_up)
            if aux_grads[l] is not None:
                g = g + self.aux_heads[l].backward(aux_grads[l] * self.output_scale)
        g = self.bottleneck.backward(g)
        for l in reversed(range(len(self.enc))):
            g = self.pools[l].backward(g) + self.skips[l].backward(skip_grads[l])
            g = self.enc[l].backward(g)
        return g / self.input_scale


class UNet1D(_UShapedNetwork):
    """Deeply supervised 1D U-Net: the coarse waveform approximator.

    Auxiliary linear heads tap the tensor entering every transposed
    convolution, producing subsampled outputs at 1/2 .. 1/2^(depth-1) of
    the input length (shallowest first in NetworkOutput.auxiliaries).
    """

    deeply_supervised = True

    def __init__(self, config=None, seed=0):
        super().__init__(config or UNet1DConfig(), seed)

    def _block(self, name, in_ch, level, rng):
        cfg = self.config
        return _DoubleConv(name, in_ch, cfg.filters_per_level[level], cfg.kernel_size, rng)

    def _skip(self, level, channels, rng):
        return _Identity(channels)

    forward = _UShapedNetwork._forward
    backward = _UShapedNetwork._backward


class MultiResUNet1D(_UShapedNetwork):
    """1D MultiResUNet: the waveform refiner. Single output, no deep supervision."""

    def __init__(self, config=None, seed=0):
        super().__init__(config or MultiResUNet1DConfig(), seed)

    def _block(self, name, in_ch, level, rng):
        return _MultiResBlock(name, in_ch, self.config, level, rng)

    def _skip(self, level, channels, rng):
        cfg = self.config
        width, length = cfg.base_widths[level], cfg.res_path_lengths[level]
        return _ResPath(f"respath{level}", channels, width, length, rng)

    forward = _UShapedNetwork._forward
    backward = _UShapedNetwork._backward


def build_unet1d(config=None, seed=0):
    return UNet1D(config, seed)


def build_multiresunet1d(config=None, seed=0):
    return MultiResUNet1D(config, seed)
