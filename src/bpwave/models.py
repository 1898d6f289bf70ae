"""The two pressure-waveform networks, assembled from tensorops layers.

The approximation network is a deeply supervised 1D U-Net; the refinement
network is a 1D MultiResUNet. Both are one U-shaped skeleton that differs
only in its blocks, its skip transforms and its auxiliary heads. Both carry
a calibration layer, a fixed affine map on their input and output, so the
convolutional trunk works in normalized units while callers see mmHg. A
network's config holds its widths per level and its input length; the rest
of the design is fixed.

In infer mode every conv that a BatchNorm follows, the MultiRes shortcut
summed into its post-block BN included, leaves its bias for the BN to fold
into its shift (BatchNorm1d.infer_inplace); BN and ReLU then run in place
on the conv's fresh output, a few ulps from the unfused layers per block.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .tensorops import (
    BatchNorm1d,
    Conv1d,
    MaxPool1d,
    ReLU,
    ShapeError,
    TransposedConv1d,
    _StatefulLayer,
    concat_channels,
    split_channels,
)


KERNEL_SIZE = 3  # of every conv+BN+ReLU stage in both networks


def _scaled_widths(widths, width):
    """Each width times the multiplier, rounded, at least 1."""
    if not (math.isfinite(width) and width > 0):
        raise ValueError(f"width must be finite and > 0, got {width}")
    return tuple(max(1, round(w * width)) for w in widths)


def _check_input_length(config):
    if config.input_length < 1:
        raise ValueError(f"input_length must be >= 1, got {config.input_length}")
    if config.input_length % (1 << (config.depth - 1)) != 0:
        raise ValueError(f"input length {config.input_length} not divisible by 2^{config.depth - 1}")


@dataclass(frozen=True)
class UNet1DConfig:
    filters_per_level: tuple = (64, 128, 256, 512, 1024)
    input_length: int = 1024

    kernel_size = KERNEL_SIZE
    # loss weights of the final output, then of the auxiliaries shallowest first
    SUPERVISION_WEIGHTS = (1.0, 0.9, 0.8, 0.7, 0.6)

    @classmethod
    def scaled(cls, width=1.0, input_length=1024):
        base = cls()
        return cls(
            filters_per_level=_scaled_widths(base.filters_per_level, width),
            input_length=input_length,
        )

    @property
    def depth(self):
        return len(self.filters_per_level)

    @property
    def first_level_channels(self):
        """Channels of the first block's output, at the input length."""
        return self.filters_per_level[0]

    @property
    def deep_supervision_weights(self):
        return self.SUPERVISION_WEIGHTS[: self.depth]

    def validate(self):
        if not 1 <= self.depth <= len(self.SUPERVISION_WEIGHTS):
            raise ValueError(f"a U-Net has 1 to {len(self.SUPERVISION_WEIGHTS)} levels, not {self.depth}")
        _check_input_length(self)
        return self


@dataclass(frozen=True)
class MultiResUNet1DConfig:
    base_widths: tuple = (32, 64, 128, 256, 512)
    input_length: int = 1024

    alpha = 2.5
    deep_supervision_weights = (1.0,)  # of the one output: no auxiliary heads

    @classmethod
    def scaled(cls, width=1.0, input_length=1024):
        base = cls()
        return cls(
            base_widths=_scaled_widths(base.base_widths, width),
            input_length=input_length,
        )

    @property
    def depth(self):
        return len(self.base_widths)

    @property
    def res_path_lengths(self):
        """Links per skip path, shallowest first: depth - 1 down to 1."""
        return tuple(range(self.depth - 1, 0, -1))

    @property
    def first_level_channels(self):
        """Channels of the first block's output, at the input length."""
        return sum(self.stage_filters(0))

    def block_width(self, level):
        # clamped so the W/6 stage keeps at least one filter at tiny test widths
        return max(6, round(self.alpha * self.base_widths[level]))

    def stage_filters(self, level):
        w = self.block_width(level)
        return w // 6, w // 3, w // 2

    def validate(self):
        _check_input_length(self)
        return self


@dataclass
class NetworkOutput:
    final: np.ndarray
    auxiliaries: list = field(default_factory=list)


class _ConvBNRelu:
    def __init__(self, name, in_ch, out_ch, rng):
        self.conv = Conv1d(f"{name}.conv", in_ch, out_ch, KERNEL_SIZE, rng, init="relu")
        self.bn = BatchNorm1d(f"{name}.bn", out_ch)
        self.relu = ReLU()

    def forward(self, x, mode):
        if mode == "train":
            return self.relu.forward(self.bn.forward(self.conv.forward(x, mode), mode), mode)
        # infer: BatchNorm, with the conv bias folded in, and ReLU run in place
        # on the conv's fresh output
        y = self.conv.forward(x, mode, add_bias=False)
        return self.relu.infer_inplace(self.bn.infer_inplace(y, self.conv.bias))

    def backward(self, grad):
        return self.conv.backward(self.bn.backward(self.relu.backward(grad)))

    def layers(self):
        return [self.conv, self.bn]


class _DoubleConv:
    """U-Net block: two conv+BN+ReLU stages."""

    def __init__(self, name, in_ch, out_ch, rng):
        self.a = _ConvBNRelu(f"{name}.a", in_ch, out_ch, rng)
        self.b = _ConvBNRelu(f"{name}.b", out_ch, out_ch, rng)
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
        self.out_channels = s1 + s2 + s3
        self.splits = (s1, s2, s3)
        self.stage1 = _ConvBNRelu(f"{name}.s1", in_ch, s1, rng)
        self.stage2 = _ConvBNRelu(f"{name}.s2", s1, s2, rng)
        self.stage3 = _ConvBNRelu(f"{name}.s3", s2, s3, rng)
        self.shortcut = Conv1d(f"{name}.shortcut", in_ch, self.out_channels, 1, rng, init="linear")
        self.post_bn = BatchNorm1d(f"{name}.post_bn", self.out_channels)
        self.post_relu = ReLU()

    def forward(self, x, mode):
        c1 = self.stage1.forward(x, mode)
        c2 = self.stage2.forward(c1, mode)
        c3 = self.stage3.forward(c2, mode)
        merged = concat_channels(c1, concat_channels(c2, c3))
        if mode == "train":
            merged += self.shortcut.forward(x, mode)
            return self.post_relu.forward(self.post_bn.forward(merged, mode), mode)
        # infer: as in _ConvBNRelu, on the fresh concatenation
        merged += self.shortcut.forward(x, mode, add_bias=False)
        return self.post_relu.infer_inplace(self.post_bn.infer_inplace(merged, self.shortcut.bias))

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
                    _ConvBNRelu(f"{name}.link{i}", ch, width, rng),
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


class _Calibration(_StatefulLayer):
    """The fixed affine map between mmHg and the trunk's normalized units: four
    0-d buffers, set by the trainer and checkpointed, never learned."""

    buffers = ("input_scale", "input_offset", "output_scale", "output_offset")

    def __init__(self):
        self.name = "calibration"
        self.set()

    def set(self, input_scale=1.0, input_offset=0.0, output_scale=1.0, output_offset=0.0):
        self._check_scales(input_scale, output_scale)
        for attr, value in zip(self.buffers, (input_scale, input_offset, output_scale, output_offset)):
            setattr(self, attr, np.array(float(value)))

    def take_state(self, table):
        super().take_state(table)
        self._check_scales(self.input_scale, self.output_scale)

    @staticmethod
    def _check_scales(input_scale, output_scale):
        if input_scale == 0.0 or output_scale == 0.0:
            raise ValueError("calibration scales must be non-zero")

    def inward(self, x):
        return (x - self.input_offset) / self.input_scale

    def outward(self, z):
        return z * self.output_scale + self.output_offset


class _UShapedNetwork:
    """The topology both networks share, with its calibration and checkpoint plumbing.

    Per level an encoder block, a skip transform of its output and a pool;
    a bottleneck block; then per level, deepest first, a 2-tap stride-2
    transposed convolution, a channel concat with the skip and a decoder
    block; then a 1-tap linear head. A subclass supplies
    _block(name, in_ch, level, rng) and _skip(level, channels, rng); a deeply
    supervised one also gets a linear auxiliary head on the tensor entering
    every transposed convolution. Layers are built in a fixed order (encoder blocks with
    their skips, bottleneck, decoder levels deepest first, auxiliary heads
    deepest first, final head): changing it changes every seeded weight,
    and tests/test_models.py pins the resulting checkpoint entries. The
    calibration layer comes last, so its four entries end every checkpoint.

    With seed None nothing is drawn: every conv and BatchNorm array is a
    read-only placeholder that holds only its shape, a skeleton for
    load_state to fill, so a bundle load allocates its payload and nothing
    else. No layer holds a gradient buffer until a backward pass,
    param_blocks or zero_grads makes it, so a network that only runs
    inference holds none.

    Activations live no longer than the backward pass needs them: each
    layer drops what it saved in a train-mode forward once its backward has
    used it, the forward drops each skip tensor once its decoder level has
    concatenated it, and the backward drops each skip gradient once its
    encoder level has used it. An infer-mode forward keeps nothing.

    Each subclass binds _forward and _backward as its own forward and
    backward, so per-network timing (perfbench/bench_trace.py) can wrap
    them class by class.
    """

    deeply_supervised = False

    def __init__(self, config, seed):
        self.config = config.validate()
        self.calibration = _Calibration()
        rng = None if seed is None else np.random.default_rng(seed)
        levels = config.depth - 1
        self.enc, self.skips, self.pools = [], [], []
        ch = 1
        for l in range(levels):
            self.enc.append(self._block(f"enc{l}", ch, l, rng))
            ch = self.enc[l].out_channels
            self.skips.append(self._skip(l, ch, rng))
            self.pools.append(MaxPool1d())
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
        if rng is None:
            # the calibration keeps its identity map, so an unloaded skeleton still runs
            for layer in self._layers():
                if layer is not self.calibration:
                    layer.hold_shapes_only()

    def set_calibration(self, input_scale=1.0, input_offset=0.0, output_scale=1.0, output_offset=0.0):
        self.calibration.set(input_scale, input_offset, output_scale, output_offset)

    def _layers(self):
        layers = []
        for enc, skip in zip(self.enc, self.skips):
            layers += enc.layers() + skip.layers()
        layers += self.bottleneck.layers()
        for up, dec in zip(self.ups, self.dec):
            layers += [up] + dec.layers()
        return layers + self.aux_heads + [self.final_head, self.calibration]

    def param_blocks(self):
        blocks = []
        for layer in self._layers():
            blocks.extend(layer.param_blocks())
        return blocks

    def _named_params(self):
        """(name, param) pairs, in param_blocks order, without making gradient buffers."""
        return [(f"{layer.name}.{a}", getattr(layer, a)) for layer in self._layers() for a in layer.params]

    def parameter_count(self):
        return sum(p.size for _, p in self._named_params())

    def zero_grads(self):
        for _, _, grad in self.param_blocks():
            grad[:] = 0.0

    def checkpoint_entries(self):
        return [entry for layer in self._layers() for entry in layer.state_entries()]

    def load_state(self, entries):
        """Check every entry's name and shape and make its array the layer's own.

        The arrays are taken, not copied (see _StatefulLayer.take_state): a
        caller that keeps using its entries passes copies.
        """
        table = dict(entries)
        for layer in self._layers():
            layer.take_state(table)
        if table:
            raise ValueError(f"checkpoint has unexpected entries: {sorted(table)}")

    def summary(self):
        lines = [f"{'layer':<42} {'shape':<16} {'params':>8}"]
        for name, param in self._named_params():
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
        h = self.calibration.inward(x)
        skips = []
        for enc, skip, pool in zip(self.enc, self.skips, self.pools):
            h = enc.forward(h, mode)
            skips.append(skip.forward(h, mode))
            h = pool.forward(h, mode)
        h = self.bottleneck.forward(h, mode)
        aux = []
        for l in reversed(range(len(self.ups))):
            if self.aux_heads:
                aux.insert(0, self.calibration.outward(self.aux_heads[l].forward(h, mode)))
            h = self.ups[l].forward(h, mode)
            h = self.dec[l].forward(concat_channels(h, skips.pop()), mode)
        final = self.calibration.outward(self.final_head.forward(h, mode))
        return NetworkOutput(final=final, auxiliaries=aux)

    def _backward(self, grad_final, grad_auxiliaries=None):
        """Input gradient; grad_auxiliaries lists the auxiliary gradients
        shallowest first (None, or None entries, for heads without a loss)."""
        aux_grads = grad_auxiliaries or [None] * len(self.ups)
        scale = self.calibration.output_scale
        g = self.final_head.backward(grad_final * scale)
        skip_grads = []
        for l, (up, dec) in enumerate(zip(self.ups, self.dec)):
            g_up, g_skip = split_channels(dec.backward(g), up.out_channels)
            skip_grads.append(g_skip)
            g = up.backward(g_up)
            if aux_grads[l] is not None:
                g = g + self.aux_heads[l].backward(aux_grads[l] * scale)
        g_up = g_skip = None  # each skip gradient now lives in skip_grads alone
        g = self.bottleneck.backward(g)
        for l in reversed(range(len(self.enc))):
            g = self.pools[l].backward(g) + self.skips[l].backward(skip_grads.pop())
            g = self.enc[l].backward(g)
        return g / self.calibration.input_scale


class UNet1D(_UShapedNetwork):
    """Deeply supervised 1D U-Net: the coarse waveform approximator.

    Auxiliary linear heads tap the tensor entering every transposed
    convolution, producing subsampled outputs at 1/2 .. 1/2^(depth-1) of
    the input length (shallowest first in NetworkOutput.auxiliaries).
    """

    deeply_supervised = True

    def __init__(self, config=None, seed=0):
        """seed None builds an unfilled skeleton for load_state (see _UShapedNetwork)."""
        super().__init__(config or UNet1DConfig(), seed)

    def _block(self, name, in_ch, level, rng):
        return _DoubleConv(name, in_ch, self.config.filters_per_level[level], rng)

    def _skip(self, level, channels, rng):
        return _Identity(channels)

    forward = _UShapedNetwork._forward
    backward = _UShapedNetwork._backward


class MultiResUNet1D(_UShapedNetwork):
    """1D MultiResUNet: the waveform refiner. Single output, no deep supervision."""

    def __init__(self, config=None, seed=0):
        """seed None builds an unfilled skeleton for load_state (see _UShapedNetwork)."""
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
