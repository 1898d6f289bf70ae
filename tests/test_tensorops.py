import numpy as np
import pytest
from _gradutils import linear_probe_check, loop_corr_same, loop_transposed, loop_transposed_grads

from bpwave import tensorops
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
    up = TransposedConv1d("up", 1, 1, 4, rng_for(2))
    assert up.forward(np.zeros((1, 1, 6))).shape == (1, 1, 12)
    with pytest.raises(ValueError):
        TransposedConv1d("bad", 1, 1, 3, rng_for(0))


def test_transposed_gradcheck():
    for k in (2, 4):
        up = TransposedConv1d("up", 2, 3, k, rng_for(7))
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


@pytest.mark.parametrize("k", [2, 4, 6])
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


def test_transposed_adjoint_consistency_k4():
    rng = rng_for(22)
    for _ in range(20):
        c_in, c_out = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        batch, length = int(rng.integers(1, 4)), int(rng.integers(2, 12))
        up = TransposedConv1d("up", c_in, c_out, 4, rng_for(int(rng.integers(1e6))))
        up.bias[:] = 0.0
        x = rng.normal(size=(batch, c_in, length))
        y = rng.normal(size=(batch, c_out, 2 * length))
        lhs = float(np.sum(up.forward(x) * y))
        rhs = float(np.sum(x * up.backward(y)))
        assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(lhs))


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


def test_maxpool_gradcheck_away_from_ties():
    # spread values so no two window entries are within 2h of each other
    rng = rng_for(3)
    x = rng.permutation(np.arange(32.0) * 0.5).reshape(1, 2, 16)
    report = linear_probe_check(MaxPool1d(), x)
    assert report.passed(1e-4), report.format()


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
