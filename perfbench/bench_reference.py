"""Reference infer-mode forward of both bpwave networks, written apart from bpwave.

It reads nothing but a network's checkpoint entries (name -> array) and
recomputes the final output with textbook operations: a direct per-tap
cross-correlation instead of bpwave's im2col product, and a stride-2
transposed convolution done the explicit way (zero-stuffing, full padding,
correlation with the flipped, channel-swapped kernel) instead of bpwave's
per-tap scatter. The topology follows the entry names, which the checkpoint
format keeps stable.
"""

import numpy as np

# BatchNorm1d's epsilon, a constant of the layer (bpwave never overrides it)
BN_EPS = 1e-5


def correlate_same(x, weight, bias):
    """Zero-padded, stride-1 cross-correlation of (B, C, L) with (O, C, K), K odd."""
    k = weight.shape[2]
    length = x.shape[2]
    xp = np.pad(x, ((0, 0), (0, 0), (k // 2, k // 2)))
    out = np.zeros((x.shape[0], weight.shape[0], length))
    for tap in range(k):
        out += np.matmul(weight[:, :, tap], xp[:, :, tap : tap + length])
    return out + bias[None, :, None]


def transposed_conv_stride2(x, weight, bias):
    """Stride-2 transposed convolution of (B, C, L) with (O, C, K), K even; output 2L."""
    b, c, length = x.shape
    k = weight.shape[2]
    stuffed = np.zeros((b, c, 2 * length - 1))
    stuffed[:, :, ::2] = x
    padded = np.pad(stuffed, ((0, 0), (0, 0), (k - 1, k - 1)))
    flipped = weight[:, :, ::-1]
    full_length = 2 * length + k - 2
    full = np.zeros((b, weight.shape[0], full_length))
    for tap in range(k):
        full += np.matmul(flipped[:, :, tap], padded[:, :, tap : tap + full_length])
    crop = (k - 2) // 2
    return full[:, :, crop : crop + 2 * length] + bias[None, :, None]


class ReferenceNetwork:
    """Common helpers over a name -> array table of checkpoint entries."""

    def __init__(self, entries):
        self.p = {name: np.asarray(value, dtype=np.float64) for name, value in entries}

    def conv(self, name, x):
        return correlate_same(x, self.p[f"{name}.weight"], self.p[f"{name}.bias"])

    def up(self, name, x):
        return transposed_conv_stride2(x, self.p[f"{name}.weight"], self.p[f"{name}.bias"])

    def bn(self, name, x):
        mean = self.p[f"{name}.running_mean"][None, :, None]
        var = self.p[f"{name}.running_var"][None, :, None]
        gamma = self.p[f"{name}.gamma"][None, :, None]
        beta = self.p[f"{name}.beta"][None, :, None]
        return gamma * (x - mean) / np.sqrt(var + BN_EPS) + beta

    def conv_bn_relu(self, name, x):
        return np.maximum(self.bn(f"{name}.bn", self.conv(f"{name}.conv", x)), 0.0)

    @staticmethod
    def pool(x):
        b, c, length = x.shape
        return x.reshape(b, c, length // 2, 2).max(axis=-1)

    def levels(self):
        count = 0
        while f"dec{count}.up.weight" in self.p:
            count += 1
        return count

    def calibrated(self, x, trunk):
        scalar = {k: float(self.p[f"calibration.{k}"]) for k in
                  ("input_scale", "input_offset", "output_scale", "output_offset")}
        z = trunk((x - scalar["input_offset"]) / scalar["input_scale"])
        return z * scalar["output_scale"] + scalar["output_offset"]


class ReferenceUNet(ReferenceNetwork):
    def forward(self, x):
        return self.calibrated(x, self._trunk)

    def _trunk(self, h):
        levels = self.levels()
        skips = []
        for l in range(levels):
            h = self.conv_bn_relu(f"enc{l}.b", self.conv_bn_relu(f"enc{l}.a", h))
            skips.append(h)
            h = self.pool(h)
        h = self.conv_bn_relu("bottleneck.b", self.conv_bn_relu("bottleneck.a", h))
        for l in range(levels - 1, -1, -1):
            h = np.concatenate([self.up(f"dec{l}.up", h), skips[l]], axis=1)
            h = self.conv_bn_relu(f"dec{l}.b", self.conv_bn_relu(f"dec{l}.a", h))
        return self.conv("head.final", h)


class ReferenceMultiResUNet(ReferenceNetwork):
    def forward(self, x):
        return self.calibrated(x, self._trunk)

    def block(self, name, x):
        s1 = self.conv_bn_relu(f"{name}.s1", x)
        s2 = self.conv_bn_relu(f"{name}.s2", s1)
        s3 = self.conv_bn_relu(f"{name}.s3", s2)
        merged = np.concatenate([s1, s2, s3], axis=1) + self.conv(f"{name}.shortcut", x)
        return np.maximum(self.bn(f"{name}.post_bn", merged), 0.0)

    def res_path(self, name, x):
        link = 0
        while f"{name}.link{link}.conv.weight" in self.p:
            x = self.conv_bn_relu(f"{name}.link{link}", x) + self.conv(f"{name}.link{link}.bypass", x)
            link += 1
        return x

    def _trunk(self, h):
        levels = self.levels()
        skips = []
        for l in range(levels):
            h = self.block(f"enc{l}", h)
            skips.append(self.res_path(f"respath{l}", h))
            h = self.pool(h)
        h = self.block("bottleneck", h)
        for l in range(levels - 1, -1, -1):
            h = np.concatenate([self.up(f"dec{l}.up", h), skips[l]], axis=1)
            h = self.block(f"dec{l}", h)
        return self.conv("head.final", h)


def cascade_forward(approx_entries, refine_entries, x):
    """Final refined waveform for (B, 1, L) conditioned inputs."""
    rough = ReferenceUNet(approx_entries).forward(x)
    return ReferenceMultiResUNet(refine_entries).forward(rough)
