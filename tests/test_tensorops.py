import io
import os
import struct
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest
from _gradutils import (
    SAVED_STATE,
    linear_probe_check,
    loop_corr_same,
    loop_corr_same_weight_grad,
    loop_transposed,
    loop_transposed_grads,
)

from bpwave import container, tensorops
from bpwave.container import BadMagicError, BadVersionError, TruncatedContainerError
from bpwave.tensorops import (
    Adam,
    AdamConfig,
    BatchNorm1d,
    Conv1d,
    MaxPool1d,
    NumericalError,
    ReLU,
    ShapeError,
    TransposedConv1d,
    concat_channels,
    gradcheck,
    mae_loss,
    mse_loss,
    read_checkpoint,
    split_channels,
    write_checkpoint,
)


def rng_for(seed=0):
    return np.random.default_rng(seed)


def make_conv(in_ch, out_ch, k, seed=0):
    return Conv1d(f"conv{in_ch}x{out_ch}", in_ch, out_ch, k, rng_for(seed))


# ------------------------------------------------------------------- conv1d

def test_conv_small_case():
    conv = make_conv(1, 1, 3)
    conv.weight[:] = np.array([[[1.0, 0.0, -1.0]]])
    conv.bias[:] = 0.0
    out = conv.forward(np.array([[[1.0, 2.0, 3.0]]]))
    np.testing.assert_allclose(out, [[[-2.0, -2.0, 2.0]]])


def test_conv_identity_kernel():
    conv = make_conv(1, 1, 3)
    conv.weight[:] = np.array([[[0.0, 1.0, 0.0]]])
    conv.bias[:] = 0.0
    x = rng_for(1).normal(size=(2, 1, 16))
    np.testing.assert_allclose(conv.forward(x), x)


def test_conv_zero_kernel_gives_bias():
    conv = make_conv(2, 3, 3)
    conv.weight[:] = 0.0
    conv.bias[:] = [1.0, -2.0, 0.5]
    out = conv.forward(np.zeros((1, 2, 8)) + 7.0)
    for c, b in enumerate([1.0, -2.0, 0.5]):
        np.testing.assert_allclose(out[0, c], b)


def test_conv_matches_loop_oracle():
    rng = rng_for(5)
    conv = make_conv(3, 4, 5, seed=6)
    x = rng.normal(size=(2, 3, 11))
    np.testing.assert_allclose(
        conv.forward(x), loop_corr_same(x, conv.weight, conv.bias), atol=1e-12
    )


def test_conv_channel_mismatch_rejected():
    conv = make_conv(2, 2, 3)
    with pytest.raises(ShapeError):
        conv.forward(np.zeros((1, 3, 8)))


def test_conv_gradcheck():
    conv = make_conv(2, 3, 3, seed=2)
    x = rng_for(3).normal(size=(2, 2, 16))
    report = linear_probe_check(conv, x)
    assert report.passed(1e-4), report.format()


def test_conv_backward_zero_and_linear():
    conv = make_conv(2, 2, 3, seed=4)
    x = rng_for(4).normal(size=(1, 2, 8))
    conv.forward(x)
    gin = conv.backward(np.zeros((1, 2, 8)))
    assert np.all(gin == 0.0) and np.all(conv.weight_grad == 0.0)

    g = rng_for(9).normal(size=(1, 2, 8))
    conv.forward(x)
    gin1 = conv.backward(g)
    w1 = conv.weight_grad.copy()
    conv.weight_grad[:] = 0.0
    conv.bias_grad[:] = 0.0
    conv.forward(x)
    gin2 = conv.backward(2.0 * g)
    np.testing.assert_allclose(gin2, 2.0 * gin1, atol=1e-12)
    np.testing.assert_allclose(conv.weight_grad, 2.0 * w1, atol=1e-12)


def test_conv_adjoint_consistency():
    rng = rng_for(11)
    for _ in range(20):
        c_in, c_out = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        length = int(rng.integers(4, 20))
        conv = make_conv(c_in, c_out, int(rng.choice([1, 3, 5])), seed=int(rng.integers(1e6)))
        conv.bias[:] = 0.0
        x = rng.normal(size=(1, c_in, length))
        y = rng.normal(size=(1, c_out, length))
        lhs = float(np.sum(conv.forward(x) * y))
        rhs = float(np.sum(x * conv.backward(y)))
        assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(lhs))
        conv.weight_grad[:] = 0.0
        conv.bias_grad[:] = 0.0


@pytest.mark.parametrize("out_ch", [1, 3, 13])
@pytest.mark.parametrize("k", [1, 3])
def test_conv_forward_is_batch_invariant(out_ch, k):
    conv = make_conv(5, out_ch, k, seed=out_ch)
    conv.bias[:] = rng_for(k).normal(size=out_ch)
    x = rng_for(12).normal(size=(16, 5, 96))
    stacked = conv.forward(x, mode="infer")
    singles = np.concatenate([conv.forward(x[i : i + 1], mode="infer") for i in range(16)])
    np.testing.assert_array_equal(stacked, singles)


@pytest.mark.parametrize("k", [1, 3, 5])
@pytest.mark.parametrize("length", [1, 2, 4, 23])
def test_conv_batch_weight_gradient_is_the_sum_over_samples(k, length):
    """The whole-batch weight gradient against one-sample gradients summed,
    and against a loop oracle, lengths shorter than the kernel included."""
    rng = rng_for(100 * k + length)
    batch = 5
    conv = make_conv(3, 4, k, seed=length)
    x = rng.normal(size=(batch, 3, length))
    g = rng.normal(size=(batch, 4, length))
    conv.forward(x)
    conv.backward(g)
    batched = conv.weight_grad.copy()
    conv.weight_grad[:] = 0.0
    summed = np.zeros_like(batched)
    for i in range(batch):
        conv.forward(x[i : i + 1])
        conv.backward(g[i : i + 1])
        summed += conv.weight_grad
        conv.weight_grad[:] = 0.0
    scale = np.abs(summed).max()
    np.testing.assert_allclose(batched, summed, rtol=1e-12, atol=1e-12 * scale)
    np.testing.assert_allclose(batched, loop_corr_same_weight_grad(x, k, g), rtol=1e-12, atol=1e-12 * scale)


# --------------------------------------------------------------- transposed

def test_transposed_small_case():
    up = TransposedConv1d("up", 1, 1, 2, rng_for(0))
    up.weight[:] = 1.0
    up.bias[:] = 0.0
    out = up.forward(np.array([[[1.0, 2.0]]]))
    np.testing.assert_allclose(out, [[[1.0, 1.0, 2.0, 2.0]]])


def test_transposed_matches_scatter_oracle():
    rng = rng_for(8)
    up = TransposedConv1d("up", 3, 2, 2, rng)
    x = rng.normal(size=(2, 3, 7))
    np.testing.assert_allclose(
        up.forward(x), loop_transposed(x, up.weight, up.bias), atol=1e-12
    )


def test_transposed_zero_input_gives_bias():
    up = TransposedConv1d("up", 2, 2, 2, rng_for(1))
    up.bias[:] = [3.0, -1.0]
    out = up.forward(np.zeros((1, 2, 4)))
    np.testing.assert_allclose(out[0, 0], 3.0)
    np.testing.assert_allclose(out[0, 1], -1.0)


def test_transposed_doubles_length_and_rejects_odd_kernel():
    up = TransposedConv1d("up", 1, 1, 2, rng_for(2))
    assert up.forward(np.zeros((1, 1, 6))).shape == (1, 1, 12)
    for k in (3, 4):
        with pytest.raises(ValueError):
            TransposedConv1d("bad", 1, 1, k, rng_for(0))


def test_transposed_gradcheck():
    up = TransposedConv1d("up", 2, 3, 2, rng_for(7))
    x = rng_for(13).normal(size=(2, 2, 8))
    report = linear_probe_check(up, x)
    assert report.passed(1e-4), report.format()


def test_transposed_adjoint_consistency():
    rng = rng_for(21)
    for _ in range(20):
        c_in, c_out = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        length = int(rng.integers(2, 12))
        up = TransposedConv1d("up", c_in, c_out, 2, rng_for(int(rng.integers(1e6))))
        up.bias[:] = 0.0
        x = rng.normal(size=(1, c_in, length))
        y = rng.normal(size=(1, c_out, 2 * length))
        lhs = float(np.sum(up.forward(x) * y))
        rhs = float(np.sum(x * up.backward(y)))
        assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(lhs))


@pytest.mark.parametrize("k", [2])
@pytest.mark.parametrize("batch", [1, 3])
@pytest.mark.parametrize("c_in, c_out", [(3, 5), (4, 2)])
def test_transposed_matches_loop_oracles(k, batch, c_in, c_out):
    rng = rng_for(100 + 10 * k + batch)
    up = TransposedConv1d("up", c_in, c_out, k, rng)
    up.bias[:] = rng.normal(size=c_out)
    x = rng.normal(size=(batch, c_in, 6))
    g = rng.normal(size=(batch, c_out, 12))
    np.testing.assert_allclose(
        up.forward(x), loop_transposed(x, up.weight, up.bias), rtol=0, atol=1e-12
    )
    grad_in = up.backward(g)
    want_in, want_weight = loop_transposed_grads(x, up.weight, g)
    np.testing.assert_allclose(grad_in, want_in, rtol=0, atol=1e-12)
    np.testing.assert_allclose(up.weight_grad, want_weight, rtol=0, atol=1e-12)
    np.testing.assert_allclose(up.bias_grad, g.sum(axis=(0, 2)), rtol=0, atol=1e-12)


# ------------------------------------------------------------------ maxpool

def test_maxpool_values():
    pool = MaxPool1d()
    out = pool.forward(np.array([[[1.0, 3.0, 2.0, 2.0]]]))
    np.testing.assert_allclose(out, [[[3.0, 2.0]]])


def test_maxpool_monotone_picks_odd_samples():
    pool = MaxPool1d()
    x = np.arange(16.0).reshape(1, 1, 16)
    np.testing.assert_allclose(pool.forward(x)[0, 0], x[0, 0, 1::2])


def test_maxpool_tie_goes_to_earliest():
    pool = MaxPool1d()
    pool.forward(np.array([[[5.0, 5.0]]]))
    grad = pool.backward(np.array([[[1.0]]]))
    np.testing.assert_allclose(grad, [[[1.0, 0.0]]])


def test_maxpool_indivisible_rejected():
    with pytest.raises(ShapeError):
        MaxPool1d().forward(np.zeros((1, 1, 5)))


def test_maxpool_pairwise_infer_form_matches_argmax_form():
    """Bitwise on ReLU outputs (ties and zeros included); a NaN in either
    slot of a pair comes out as NaN from both forms."""
    rng = rng_for(8)
    pre = np.round(rng.normal(size=(3, 4, 64)), 1)
    pre[1] = -0.0
    pre[2, :, 0::2] = pre[2, :, 1::2]  # exact ties
    pre[0, 0, :2] = pre[0, 0, 3] = pre[0, 0, 4] = np.nan  # both, second, first slot
    relu_out = ReLU().forward(pre, mode="infer")
    pool = MaxPool1d()
    train = pool.forward(relu_out, mode="train")
    infer = pool.forward(relu_out, mode="infer")
    assert infer.tobytes() == train.tobytes()
    assert np.isnan(infer[0, 0, :3]).all() and np.isnan(train[0, 0, :3]).all()
    assert (relu_out == 0.0).mean() > 0.3
    assert pool._argmax is None


def test_maxpool_gradcheck_away_from_ties():
    # spread values so no two window entries are within 2h of each other
    rng = rng_for(3)
    x = rng.permutation(np.arange(32.0) * 0.5).reshape(1, 2, 16)
    report = linear_probe_check(MaxPool1d(), x)
    assert report.passed(1e-4), report.format()


def argmax_pool_reference(x, grad_out):
    """Argmax-and-gather pool forward and put_along_axis backward."""
    b, c, length = x.shape
    xr = x.reshape(b, c, length // 2, 2)
    idx = xr.argmax(axis=-1)[..., None]
    grad_in = np.zeros(xr.shape)
    np.put_along_axis(grad_in, idx, grad_out[..., None], axis=-1)
    return np.take_along_axis(xr, idx, axis=-1)[..., 0], grad_in.reshape(x.shape)


def test_maxpool_train_form_is_bitwise_the_argmax_route():
    """Ties, signed zeros, NaN in the first, second or both slots, and +-inf
    go where argmax sends them; a non-finite upstream gradient reaches only
    the chosen slot."""
    rng = rng_for(21)
    x = np.round(rng.normal(size=(3, 4, 64)), 1)
    x[0, 0, :8] = [np.nan, np.nan, 1.0, np.nan, np.nan, 2.0, np.nan, -np.inf]
    x[0, 1, :8] = [np.inf, np.inf, -np.inf, -np.inf, -np.inf, np.inf, np.inf, -np.inf]
    x[0, 2, :8] = [-0.0, 0.0, 0.0, -0.0, -0.0, -0.0, np.inf, np.nan]
    x[1, :, 0::2] = x[1, :, 1::2]  # exact ties
    grad_out = rng.normal(size=(3, 4, 32))
    grad_out[0, :3, :4] = [[np.nan, np.inf, -np.inf, np.nan]] * 3
    grad_out[2, 0, ::3] = np.inf
    pool = MaxPool1d()
    out = pool.forward(x, mode="train")
    grad_in = pool.backward(grad_out)
    want_out, want_grad = argmax_pool_reference(x, grad_out)
    assert out.tobytes() == want_out.tobytes()
    assert grad_in.tobytes() == want_grad.tobytes()


def test_maxpool_train_form_matches_the_argmax_route_on_random_pairs():
    rng = rng_for(22)
    specials = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, 1.0])
    for _ in range(50):
        x = rng.choice(specials, size=(2, 3, 16))
        grad_out = rng.choice(specials, size=(2, 3, 8))
        pool = MaxPool1d()
        want_out, want_grad = argmax_pool_reference(x, grad_out)
        assert pool.forward(x).tobytes() == want_out.tobytes()
        assert pool.backward(grad_out).tobytes() == want_grad.tobytes()


# ---------------------------------------------------------------- batchnorm

def test_batchnorm_normalizes_in_train_mode():
    bn = BatchNorm1d("bn", 3)
    x = rng_for(0).normal(2.0, 3.0, size=(4, 3, 32))
    out = bn.forward(x, mode="train")
    np.testing.assert_allclose(out.mean(axis=(0, 2)), 0.0, atol=1e-6)
    np.testing.assert_allclose(out.var(axis=(0, 2)), 1.0, atol=1e-4)


def test_batchnorm_gamma_beta_shift():
    bn = BatchNorm1d("bn", 1)
    bn.gamma[:] = 2.0
    bn.beta[:] = 3.0
    x = rng_for(1).normal(size=(4, 1, 16))
    out = bn.forward(x, mode="train")
    bn2 = BatchNorm1d("bn2", 1)
    base = bn2.forward(x, mode="train")
    np.testing.assert_allclose(out, 3.0 + 2.0 * base, atol=1e-12)


def test_batchnorm_batch_of_one_rejected():
    with pytest.raises(ShapeError):
        BatchNorm1d("bn", 1).forward(np.zeros((1, 1, 8)), mode="train")


def test_batchnorm_infer_is_affine():
    bn = BatchNorm1d("bn", 2)
    bn.running_mean[:] = [1.0, -0.5]
    bn.running_var[:] = [4.0, 0.25]
    x = rng_for(2).normal(size=(1, 2, 8))
    y = rng_for(3).normal(size=(1, 2, 8))
    f = lambda a: bn.forward(a, mode="infer")
    np.testing.assert_allclose(f(x + y), f(x) + f(y) - f(np.zeros_like(x)), atol=1e-10)


def test_batchnorm_gradcheck_train_mode():
    bn = BatchNorm1d("bn", 2)
    bn.gamma[:] = [1.5, 0.7]
    bn.beta[:] = [0.2, -0.4]
    x = rng_for(5).normal(size=(3, 2, 8))
    report = linear_probe_check(bn, x, h=1e-3)
    assert report.passed(1e-3), report.format()


def test_batchnorm_updates_running_stats():
    bn = BatchNorm1d("bn", 1)
    x = rng_for(6).normal(5.0, 2.0, size=(4, 1, 64))
    bn.forward(x, mode="train")
    expected_mean = 0.99 * 0.0 + 0.01 * x.mean()
    np.testing.assert_allclose(bn.running_mean, expected_mean, atol=1e-12)
    assert np.all(bn.running_var > 0.0)


def textbook_batchnorm(x, gamma, beta, running_mean, running_var, grad_out, eps=1e-5, momentum=0.99):
    """Train-mode batch normalization written with mean/var (Ioffe & Szegedy
    2015, section 3): output, running statistics, input and parameter gradients."""
    mean = x.mean(axis=(0, 2))
    var = x.var(axis=(0, 2))
    inv_std = 1.0 / np.sqrt(var + eps)
    x_hat = (x - mean[None, :, None]) * inv_std[None, :, None]
    out = gamma[None, :, None] * x_hat + beta[None, :, None]
    new_mean = momentum * running_mean + (1.0 - momentum) * mean
    new_var = momentum * running_var + (1.0 - momentum) * var
    g_mean = grad_out.mean(axis=(0, 2), keepdims=True)
    gx_mean = (grad_out * x_hat).mean(axis=(0, 2), keepdims=True)
    grad_in = (gamma * inv_std)[None, :, None] * (grad_out - g_mean - x_hat * gx_mean)
    gamma_grad = (grad_out * x_hat).sum(axis=(0, 2))
    beta_grad = grad_out.sum(axis=(0, 2))
    return out, new_mean, new_var, grad_in, gamma_grad, beta_grad


@pytest.mark.parametrize("shape", [(2, 1, 1), (3, 64, 7), (16, 4, 1024), (5, 48, 33)])
def test_batchnorm_train_mode_is_bitwise_the_textbook_form(shape):
    rng = rng_for(sum(shape))
    channels = shape[1]
    bn = BatchNorm1d("bn", channels)
    bn.gamma[:] = rng.uniform(0.5, 1.5, channels)
    bn.beta[:] = rng.normal(size=channels)
    bn.running_mean[:] = rng.normal(size=channels)
    bn.running_var[:] = rng.uniform(0.5, 2.0, channels)
    x = rng.normal(3.0, 5.0, size=shape) + rng.normal(size=(1, channels, 1)) * 100.0
    grad_out = rng.normal(size=shape)
    want = textbook_batchnorm(
        x, bn.gamma, bn.beta, bn.running_mean, bn.running_var, grad_out, bn.eps, bn.momentum
    )
    x_before = x.copy()
    out = bn.forward(x, mode="train")
    grad_in = bn.backward(grad_out)
    got = (out, bn.running_mean, bn.running_var, grad_in, bn.gamma_grad, bn.beta_grad)
    for name, g, w in zip(("out", "running_mean", "running_var", "grad_in", "gamma_grad", "beta_grad"), got, want):
        assert g.tobytes() == w.tobytes(), name
    assert x.tobytes() == x_before.tobytes()


# --------------------------------------------------------------- activations

def test_relu_values_and_identity():
    relu = ReLU()
    out = relu.forward(np.array([[[-1.0, 0.0, 2.0]]]))
    np.testing.assert_allclose(out, [[[0.0, 0.0, 2.0]]])


def test_relu_subgradient_zero_at_zero():
    relu = ReLU()
    relu.forward(np.array([[[0.0]]]))
    np.testing.assert_allclose(relu.backward(np.array([[[5.0]]])), [[[0.0]]])


def test_relu_gradcheck_away_from_zero():
    x = rng_for(8).normal(size=(1, 2, 16))
    x = np.where(np.abs(x) < 0.2, x + 0.5, x)
    report = linear_probe_check(ReLU(), x, h=1e-3)
    assert report.passed(1e-6), report.format()


# -------------------------------------------------------------------- concat

def test_concat_shapes_and_roundtrip():
    a = rng_for(0).normal(size=(1, 1, 4))
    b = rng_for(1).normal(size=(1, 2, 4))
    cat = concat_channels(a, b)
    assert cat.shape == (1, 3, 4)
    ga, gb = split_channels(cat, 1)
    np.testing.assert_array_equal(ga, a)
    np.testing.assert_array_equal(gb, b)


def test_concat_empty_channel_identity():
    a = rng_for(2).normal(size=(1, 0, 4))
    b = rng_for(3).normal(size=(1, 2, 4))
    np.testing.assert_array_equal(concat_channels(a, b), b)


def test_concat_length_mismatch_rejected():
    with pytest.raises(ShapeError):
        concat_channels(np.zeros((1, 1, 4)), np.zeros((1, 1, 5)))


# -------------------------------------------------------------------- losses

def test_loss_values():
    pred = np.array([[[1.0, 2.0]]])
    target = np.array([[[0.0, 0.0]]])
    assert mae_loss(pred, target)[0] == 1.5
    assert mse_loss(pred, target)[0] == 2.5
    assert mae_loss(target, target)[0] == 0.0
    assert mse_loss(target, target)[0] == 0.0
    with pytest.raises(ShapeError):
        mae_loss(pred, np.zeros((1, 1, 3)))


def test_loss_gradients_by_finite_difference():
    rng = rng_for(10)
    pred = rng.normal(size=(2, 1, 8))
    target = pred + np.where(rng.normal(size=pred.shape) > 0, 0.5, -0.5)

    for loss, tol in ((mae_loss, 1e-5), (mse_loss, 1e-6)):
        _, grad = loss(pred, target)
        report = gradcheck(lambda: loss(pred, target)[0], [("pred", pred, grad)], h=1e-3)
        assert report.passed(tol), report.format()


def test_mae_gradient_zero_at_equality():
    x = np.ones((1, 1, 4))
    _, grad = mae_loss(x, x.copy())
    np.testing.assert_array_equal(grad, 0.0)


# --------------------------------------------------------- gradient buffers

@pytest.mark.parametrize(
    "make",
    [
        lambda: make_conv(3, 4, 3, seed=1),
        lambda: TransposedConv1d("up", 4, 3, 2, rng_for(2)),
        lambda: BatchNorm1d("bn", 5),
    ],
)
def test_gradient_buffers_are_made_zeroed_on_first_use(make):
    layer = make()
    assert [attr for attr in vars(layer) if attr.endswith("_grad")] == []
    blocks = layer.param_blocks()
    assert [name for name, _, _ in blocks] == [f"{layer.name}.{a}" for a in layer.params]
    for attr, (_, param, grad) in zip(layer.params, blocks):
        assert vars(layer)[f"{attr}_grad"] is grad
        assert grad.shape == param.shape and grad.dtype == np.float64
        assert not np.shares_memory(grad, param)
        assert np.all(grad == 0.0)
    assert all(again is grad for (_, _, again), (_, _, grad) in zip(layer.param_blocks(), blocks))
    for attr in layer.buffers + ("missing",):
        with pytest.raises(AttributeError):
            getattr(layer, f"{attr}_grad")


# ----------------------------------------------------- saved-state lifetime

@pytest.mark.parametrize(
    "make, shape",
    [
        (lambda: make_conv(3, 4, 3, seed=1), (2, 3, 8)),
        (lambda: TransposedConv1d("up", 4, 3, 2, rng_for(2)), (2, 4, 8)),
        (lambda: BatchNorm1d("bn", 5), (2, 5, 8)),
        (ReLU, (2, 3, 8)),
        (MaxPool1d, (2, 3, 8)),
    ],
)
def test_backward_drops_what_the_forward_saved(make, shape):
    layer = make()
    # the input is not kept here, so a Conv1d's saved input can die too
    out = layer.forward(rng_for(4).normal(size=shape), mode="train")
    saved = {attr: value for attr, value in vars(layer).items() if attr in SAVED_STATE}
    assert saved and all(value is not None for value in saved.values())
    refs = [weakref.ref(value) for value in saved.values()]
    del saved
    grad = rng_for(5).normal(size=out.shape)
    layer.backward(grad)
    assert [attr for attr, value in vars(layer).items() if attr in SAVED_STATE and value is not None] == []
    assert [ref for ref in refs if ref() is not None] == []
    with pytest.raises(ShapeError):
        layer.backward(grad)


# ---------------------------------------------------------------------- adam

def test_adam_first_step_magnitude():
    p = np.array([0.0])
    g = np.array([1.0])
    opt = Adam(AdamConfig())
    opt.step([("p", p, g)])
    expected = -0.001 / (1.0 + 1e-8)
    np.testing.assert_allclose(p, expected, rtol=1e-12)
    assert g[0] == 0.0  # gradients consumed


def test_adam_zero_gradient_keeps_parameters():
    p = np.array([1.0, -2.0])
    opt = Adam()
    for _ in range(5):
        opt.step([("p", p, np.zeros(2))])
    np.testing.assert_array_equal(p, [1.0, -2.0])


def test_adam_descends_quadratic():
    w = np.array([1.0])
    opt = Adam(AdamConfig(learning_rate=0.01))
    values = []
    for _ in range(100):
        g = 2.0 * w.copy()
        opt.step([("w", w, g)])
        values.append(abs(float(w[0])))
    assert values[-1] < 0.5
    assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))


def test_adam_nan_gradient_names_block():
    opt = Adam()
    with pytest.raises(NumericalError, match="enc0.conv.weight"):
        opt.step([("enc0.conv.weight", np.zeros(2), np.array([np.nan, 0.0]))])


# ----------------------------------------------------------------- gradcheck

def test_gradcheck_empty_blocks():
    report = gradcheck(lambda: 0.0, [])
    assert report.blocks == [] and report.max_rel_error == 0.0


def test_gradcheck_detects_sign_flip():
    x = np.array([2.0])
    wrong = np.array([-4.0])  # true gradient of x^2 is +4
    report = gradcheck(lambda: float(x[0] ** 2), [("x", x, wrong)])
    assert abs(report.blocks[0].max_rel_error - 2.0) < 1e-6


def test_gradcheck_sampling_limits_entries():
    x = rng_for(4).normal(size=64)
    grad = 2.0 * x
    report = gradcheck(
        lambda: float(x @ x), [("x", x, grad)], max_entries_per_block=10
    )
    assert report.blocks[0].checked == 10
    assert report.passed(1e-6)


# --------------------------------------------------------------- checkpoints

def test_checkpoint_roundtrip(tmp_path):
    path = tmp_path / "net.ckpt"
    entries = [
        ("layer.weight", rng_for(0).normal(size=(3, 2, 3))),
        ("layer.bias", np.zeros(3)),
        ("scalar", np.array(2.5)),
    ]
    write_checkpoint(path, entries)
    back = read_checkpoint(path)
    assert [n for n, _ in back] == [n for n, _ in entries]
    for (_, a), (_, b) in zip(entries, back):
        np.testing.assert_array_equal(np.asarray(a, dtype=np.float64), b)


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOTACKPT!" + b"\x00" * 16)
    with pytest.raises(BadMagicError):
        read_checkpoint(path)


def test_checkpoint_bad_version(tmp_path):
    path = tmp_path / "v9.ckpt"
    write_checkpoint(path, [("a", np.zeros(1))])
    raw = bytearray(path.read_bytes())
    raw[9] = 99
    path.write_bytes(bytes(raw))
    with pytest.raises(BadVersionError):
        read_checkpoint(path)


def test_checkpoint_truncation(tmp_path):
    path = tmp_path / "cut.ckpt"
    write_checkpoint(path, [("a", np.zeros(4)), ("b", np.ones(4))])
    raw = path.read_bytes()
    path.write_bytes(raw[:-5])
    with pytest.raises(TruncatedContainerError):
        read_checkpoint(path)


class RecordingReader(io.BytesIO):
    """In-memory file that records the size of every read it is asked for,
    by read(size) or by readinto(buffer)."""

    def __init__(self, data):
        super().__init__(data)
        self.requests = []

    def read(self, size=-1):
        self.requests.append(size)
        return super().read(size)

    def readinto(self, buffer):
        self.requests.append(memoryview(buffer).nbytes)
        return super().readinto(buffer)


def test_declared_sizes_past_the_end_fail_before_reading():
    too_long_name = struct.pack("<I", 2**32 - 1) + b"abc"
    reader = RecordingReader(too_long_name)
    with pytest.raises(TruncatedContainerError, match="subject id"):
        container.read_string(reader, "subject id")
    assert max(reader.requests) <= len(too_long_name)

    reader = RecordingReader(b"\x00" * 24)
    with pytest.raises(TruncatedContainerError, match="payload"):
        container.read_f64_block(reader, 2**40, "payload")
    assert reader.requests == []
    assert container.read_f64_block(reader, 3, "payload").tolist() == [0.0, 0.0, 0.0]


def test_checkpoint_declared_dims_past_the_end_fail_before_reading(monkeypatch):
    raw = io.BytesIO()
    container.write_header(raw, tensorops.CHECKPOINT_MAGIC, tensorops.CHECKPOINT_VERSION)
    container.write_string(raw, "w")
    for value in (2, 2**31, 2**31):  # rank 2, then a payload of 2**65 bytes
        container.write_u32(raw, value)
    raw.write(b"\x00" * 16)
    readers = []

    def fake_open(path, mode):
        readers.append(RecordingReader(raw.getvalue()))
        return readers[-1]

    monkeypatch.setattr(tensorops, "open", fake_open, raising=False)
    with pytest.raises(TruncatedContainerError, match="payload of 'w'"):
        read_checkpoint("w.ckpt")
    assert max(readers[0].requests) <= len(raw.getvalue())


def test_checkpoint_reads_entries_up_to_the_end(tmp_path, monkeypatch):
    path = tmp_path / "two.ckpt"
    entries = [("a", np.arange(6.0).reshape(2, 3)), ("bee", np.array(2.5))]
    write_checkpoint(path, entries)
    data = path.read_bytes()
    reader = RecordingReader(data)
    monkeypatch.setattr(tensorops, "open", lambda p, mode: reader, raising=False)
    back = read_checkpoint("two.ckpt")
    assert [name for name, _ in back] == ["a", "bee"]
    for (_, got), (_, want) in zip(back, entries):
        np.testing.assert_array_equal(got, want)
    assert max(reader.requests) <= len(data)


def test_f64_block_is_read_into_a_fresh_writable_array():
    reader = RecordingReader(np.arange(4.0).tobytes())
    values = container.read_f64_block(reader, 4, "payload")
    assert reader.requests == [32]
    assert values.dtype == np.float64 and values.flags.writeable and values.flags.c_contiguous
    assert values.tolist() == [0.0, 1.0, 2.0, 3.0]
    values += 1.0  # the array is the caller's own, not a view of a bytes object


class ShortReader(io.BytesIO):
    """A file whose size promises more bytes than readinto delivers."""

    def readinto(self, buffer):
        return super().readinto(memoryview(buffer).cast("B")[:-1])


def test_short_read_raises_truncated():
    with pytest.raises(TruncatedContainerError, match="payload"):
        container.read_f64_block(ShortReader(b"\x00" * 16), 2, "payload")


# ------------------------------------------- checkpoint payloads on helper threads

def big_entries():
    """Entries whose payload passes THREAD_READ_BYTES by a few odd sizes, with
    a 0-d and an empty entry among them, so the byte split cuts inside one."""
    rng = rng_for(40)
    half = tensorops.THREAD_READ_BYTES // 16
    return [
        ("head.weight", rng.normal(size=(3, 5, 7))),
        ("scalar", np.array(-2.5)),
        ("first", rng.normal(size=half + 3)),
        ("empty", np.zeros((0, 4))),
        ("second", rng.normal(size=(2, half // 2 + 101))),
    ]


@pytest.fixture
def big_checkpoint(tmp_path):
    path = tmp_path / "big.ckpt"
    entries = big_entries()
    write_checkpoint(path, entries)
    assert sum(values.nbytes for _, values in entries) >= tensorops.THREAD_READ_BYTES
    return path, entries


@pytest.mark.parametrize("cores", [1, 2, 5])
def test_threaded_checkpoint_read_matches_the_written_entries_bitwise(big_checkpoint, monkeypatch, cores):
    """One core: the scan's handle reads every payload. More: the calling
    thread and a helper per extra core each read an equal run of payload
    bytes. Five threads, switching every microsecond, still fill every byte
    once."""
    path, entries = big_checkpoint
    monkeypatch.setattr(tensorops, "usable_cores", lambda: cores)
    fill, shares = tensorops._fill, []

    def spy(fh, pieces, failed=()):
        shares.append((threading.current_thread() is threading.main_thread(),
                       sum(len(view) for _, _, view in pieces)))
        fill(fh, pieces, failed)

    monkeypatch.setattr(tensorops, "_fill", spy)
    alive, interval = threading.active_count(), sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        back = read_checkpoint(path)
    finally:
        sys.setswitchinterval(interval)
    assert threading.active_count() == alive
    payload = sum(values.nbytes for _, values in entries)
    assert sorted(on_main for on_main, _ in shares) == [False] * (cores - 1) + [True]
    assert sum(size for _, size in shares) == payload
    assert {size for _, size in shares} <= {payload // cores, -(-payload // cores)}
    assert [name for name, _ in back] == [name for name, _ in entries]
    for (_, got), (_, want) in zip(back, entries):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert got.dtype == np.float64 and got.flags.owndata and got.flags.writeable


def test_threaded_checkpoint_read_allocates_its_payload_and_nothing_else(big_checkpoint, monkeypatch):
    """numpy reports its array memory to tracemalloc: the two-thread read may
    trace at most 1% beyond the payload, at its peak and once done."""
    path, entries = big_checkpoint
    monkeypatch.setattr(tensorops, "usable_cores", lambda: 2)
    payload = sum(values.nbytes for _, values in entries)
    del entries
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        back = read_checkpoint(path)
        held, peak = (value - start for value in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert sum(values.nbytes for _, values in back) == payload
    assert peak <= 1.01 * payload, peak / payload
    assert held <= 1.01 * payload, held / payload


def test_threaded_read_of_a_payload_cut_short_raises_truncated(big_checkpoint, monkeypatch):
    """The file loses its last bytes after the scan has sized every entry:
    the share that meets the new end raises, every helper is joined and
    every handle closed before the error reaches the caller."""
    path, entries = big_checkpoint
    monkeypatch.setattr(tensorops, "usable_cores", lambda: 2)
    handles = []

    def opener(file, mode, **kwargs):
        if kwargs.get("buffering") == 0 and not handles[1:]:
            os.truncate(file, os.path.getsize(file) - 9)
        handles.append(open(file, mode, **kwargs))
        return handles[-1]

    monkeypatch.setattr(tensorops, "open", opener, raising=False)
    alive = threading.active_count()
    with pytest.raises(TruncatedContainerError, match=f"payload of '{entries[-1][0]}'"):
        read_checkpoint(path)
    assert threading.active_count() == alive
    assert len(handles) == 3 and all(handle.closed for handle in handles)
