"""Shared finite-difference scaffolding for layer and network tests."""

import numpy as np

from bpwave import tensorops

# every attribute a layer keeps from a train-mode forward for its backward
SAVED_STATE = ("_x", "_mask", "_argmax", "_x_hat", "_inv_std")


def linear_probe_check(layer, x, include_input=True, h=1e-3, mode="train", seed=0):
    """Gradcheck a layer against the scalar objective sum(out * R).

    R is a fixed random tensor, so grad_out = R exactly and every parameter
    (plus optionally the input) can be checked by central differences.
    """
    rng = np.random.default_rng(seed)
    probe = rng.normal(size=layer.forward(x, mode=mode).shape)

    def forward_fn():
        return float(np.sum(layer.forward(x, mode=mode) * probe))

    # analytic pass
    forward_fn()
    grad_in = layer.backward(probe.copy())
    blocks = []
    if hasattr(layer, "param_blocks"):
        blocks.extend(layer.param_blocks())
    if include_input:
        blocks.append(("input", x, grad_in))
    report = tensorops.gradcheck(forward_fn, blocks, h=h)
    # leave the layer clean for any follow-up use
    if hasattr(layer, "param_blocks"):
        for _, _, grad in layer.param_blocks():
            grad[:] = 0.0
    return report


def loop_corr_same(x, weight, bias):
    """Nested-loop same-padded cross-correlation oracle for (B,C,L)x(O,C,K)."""
    b, c, length = x.shape
    out_ch, _, k = weight.shape
    pad = k // 2
    out = np.zeros((b, out_ch, length))
    for bi in range(b):
        for o in range(out_ch):
            for i in range(length):
                acc = bias[o]
                for ci in range(c):
                    for t in range(k):
                        j = i + t - pad
                        if 0 <= j < length:
                            acc += weight[o, ci, t] * x[bi, ci, j]
                out[bi, o, i] = acc
    return out


def loop_corr_same_weight_grad(x, k, grad_out):
    """Nested-loop weight gradient of loop_corr_same: (O, C, K) from (B,C,L) and (B,O,L)."""
    b, c, length = x.shape
    out_ch = grad_out.shape[1]
    pad = k // 2
    weight_grad = np.zeros((out_ch, c, k))
    for bi in range(b):
        for o in range(out_ch):
            for ci in range(c):
                for t in range(k):
                    for i in range(length):
                        j = i + t - pad
                        if 0 <= j < length:
                            weight_grad[o, ci, t] += grad_out[bi, o, i] * x[bi, ci, j]
    return weight_grad


def loop_transposed(x, weight, bias, stride=2):
    """Scatter-accumulate oracle for the stride-2 transposed convolution."""
    b, c, length = x.shape
    out_ch, _, k = weight.shape
    crop = (k - stride) // 2
    full = np.zeros((b, out_ch, stride * length + k - stride))
    for bi in range(b):
        for o in range(out_ch):
            for ci in range(c):
                for i in range(length):
                    for t in range(k):
                        full[bi, o, stride * i + t] += weight[o, ci, t] * x[bi, ci, i]
    return full[:, :, crop : crop + stride * length] + bias[None, :, None]


def loop_transposed_grads(x, weight, grad_out, stride=2):
    """Gather-loop oracle for the input and weight gradients of loop_transposed."""
    b, c, length = x.shape
    out_ch, _, k = weight.shape
    crop = (k - stride) // 2
    g_full = np.zeros((b, out_ch, stride * length + k - stride))
    g_full[:, :, crop : crop + stride * length] = grad_out
    grad_in = np.zeros_like(x)
    weight_grad = np.zeros_like(weight)
    for bi in range(b):
        for o in range(out_ch):
            for ci in range(c):
                for i in range(length):
                    for t in range(k):
                        g = g_full[bi, o, stride * i + t]
                        grad_in[bi, ci, i] += weight[o, ci, t] * g
                        weight_grad[o, ci, t] += g * x[bi, ci, i]
    return grad_in, weight_grad
