import hashlib
import weakref

import numpy as np
import pytest
from _gradutils import SAVED_STATE

from bpwave import datapipe, models, pipeline, tensorops
from bpwave.models import (
    MultiResUNet1D,
    MultiResUNet1DConfig,
    UNet1D,
    UNet1DConfig,
    build_multiresunet1d,
    build_unet1d,
)
from bpwave.tensorops import ShapeError, mse_loss


# ------------------------------------------------- parameter-count oracles

def unet_expected_params(cfg):
    """Per-layer arithmetic, independent of the builder."""
    conv = lambda i, o, k: i * o * k + o
    bn = lambda c: 2 * c
    f = cfg.filters_per_level
    k = cfg.kernel_size
    levels = cfg.depth - 1
    total = 0
    in_ch = 1
    for l in range(levels):
        total += conv(in_ch, f[l], k) + bn(f[l]) + conv(f[l], f[l], k) + bn(f[l])
        in_ch = f[l]
    total += conv(f[levels - 1], f[levels], k) + bn(f[levels])
    total += conv(f[levels], f[levels], k) + bn(f[levels])
    for l in range(levels):
        total += f[l + 1] * f[l] * 2 + f[l]                      # transposed conv
        total += conv(2 * f[l], f[l], k) + bn(f[l]) + conv(f[l], f[l], k) + bn(f[l])
    for head in range(1, levels + 1):
        ch = f[levels] if head == levels else f[head]
        total += conv(ch, 1, 1)
    total += conv(f[0], 1, 1)
    return total


def multires_expected_params(cfg):
    conv = lambda i, o, k: i * o * k + o
    bn = lambda c: 2 * c
    levels = cfg.depth - 1
    u = cfg.base_widths

    def block(in_ch, level):
        s1, s2, s3 = cfg.stage_filters(level)
        out = s1 + s2 + s3
        n = conv(in_ch, s1, 3) + bn(s1) + conv(s1, s2, 3) + bn(s2) + conv(s2, s3, 3) + bn(s3)
        n += conv(in_ch, out, 1) + bn(out)
        return n, out

    total = 0
    in_ch = 1
    enc_out = []
    for l in range(levels):
        n, out = block(in_ch, l)
        total += n
        enc_out.append(out)
        ch = out
        for _ in range(cfg.res_path_lengths[l]):
            total += conv(ch, u[l], 3) + bn(u[l]) + conv(ch, u[l], 1)
            ch = u[l]
        in_ch = out
    n, bott_out = block(in_ch, levels)
    total += n
    below = bott_out
    for l in range(levels - 1, -1, -1):
        total += below * u[l] * 2 + u[l]
        n, out = block(2 * u[l], l)
        total += n
        below = out
    total += conv(below, 1, 1)
    return total


def test_unet_default_parameter_count():
    net = build_unet1d(UNet1DConfig())
    assert net.parameter_count() == unet_expected_params(UNet1DConfig())


def test_unet_scaled_parameter_count():
    cfg = UNet1DConfig.scaled(1 / 16, input_length=64)
    assert build_unet1d(cfg).parameter_count() == unet_expected_params(cfg)


def test_multires_default_parameter_count():
    cfg = MultiResUNet1DConfig()
    assert build_multiresunet1d(cfg).parameter_count() == multires_expected_params(cfg)


def test_multires_scaled_parameter_count():
    cfg = MultiResUNet1DConfig.scaled(1 / 8, input_length=64)
    assert build_multiresunet1d(cfg).parameter_count() == multires_expected_params(cfg)


# ------------------------------------------------------------- shape contracts

def test_unet_output_shapes():
    cfg = UNet1DConfig.scaled(1 / 16, input_length=1024)
    net = build_unet1d(cfg)
    out = net.forward(np.zeros((1, 1, 1024)), mode="infer")
    assert out.final.shape == (1, 1, 1024)
    assert [a.shape for a in out.auxiliaries] == [(1, 1, 512), (1, 1, 256), (1, 1, 128), (1, 1, 64)]
    assert np.all(np.isfinite(out.final))
    for a in out.auxiliaries:
        assert np.all(np.isfinite(a))


def test_aux_lengths_follow_halving():
    cfg = UNet1DConfig.scaled(1 / 16, input_length=256)
    out = build_unet1d(cfg).forward(np.zeros((1, 1, 256)), mode="infer")
    for k, aux in enumerate(out.auxiliaries, start=1):
        assert aux.shape[2] == 256 >> k


def test_multires_output_shape():
    cfg = MultiResUNet1DConfig.scaled(1 / 16, input_length=1024)
    out = build_multiresunet1d(cfg).forward(np.zeros((1, 1, 1024)), mode="infer")
    assert out.final.shape == (1, 1, 1024)
    assert out.auxiliaries == []


@pytest.mark.parametrize("depth", [1, 2, 5])
@pytest.mark.parametrize(
    "build, config_class, field",
    [(build_unet1d, UNet1DConfig, "filters_per_level"), (build_multiresunet1d, MultiResUNet1DConfig, "base_widths")],
    ids=["unet", "multires"],
)
def test_loss_weights_give_one_weight_per_output(build, config_class, field, depth):
    """The trainer weighs each network's outputs by its config's
    deep_supervision_weights, final output first."""
    config = config_class(**{field: (2,) * depth, "input_length": 64})
    out = build(config).forward(np.zeros((1, 1, 64)), mode="infer")
    assert len(config.deep_supervision_weights) == 1 + len(out.auxiliaries)
    assert config.deep_supervision_weights[0] == 1.0


def test_wrong_input_shape_rejected():
    net = build_unet1d(UNet1DConfig.scaled(1 / 16, input_length=64))
    with pytest.raises(ShapeError):
        net.forward(np.zeros((1, 1, 128)))
    with pytest.raises(ShapeError):
        net.forward(np.zeros((1, 2, 64)))


def test_invalid_configs_rejected():
    with pytest.raises(ValueError):
        UNet1DConfig(input_length=1000).validate()
    # five supervision weights: a sixth level has none
    with pytest.raises(ValueError):
        UNet1DConfig(filters_per_level=(2, 2, 2, 2, 2, 2), input_length=1024).validate()


@pytest.mark.parametrize("config", [UNet1DConfig, MultiResUNet1DConfig])
def test_both_configs_reject_a_bad_width_or_input_length(config):
    for width in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match=f"^width must be finite and > 0, got {width}$"):
            config.scaled(width)
    for length in (0, -8):
        with pytest.raises(ValueError, match=f"^input_length must be >= 1, got {length}$"):
            config.scaled(1 / 16, input_length=length).validate()
    assert config.scaled(1e-9, input_length=16).validate().input_length == 16


def test_multires_width_floor_keeps_stages_nonempty():
    cfg = MultiResUNet1DConfig.scaled(1 / 16, input_length=64)
    for level in range(cfg.depth):
        assert min(cfg.stage_filters(level)) >= 1


# -------------------------------------------------------------- determinism

def test_same_seed_builds_identical_networks():
    cfg = UNet1DConfig.scaled(1 / 16, input_length=64)
    a = build_unet1d(cfg, seed=11)
    b = build_unet1d(cfg, seed=11)
    for (na, pa, _), (nb, pb, _) in zip(a.param_blocks(), b.param_blocks()):
        assert na == nb
        np.testing.assert_array_equal(pa, pb)


def test_infer_forward_is_bitwise_deterministic():
    net = build_unet1d(UNet1DConfig.scaled(1 / 16, input_length=64), seed=2)
    x = np.random.default_rng(0).normal(size=(1, 1, 64))
    a = net.forward(x, mode="infer").final
    b = net.forward(x, mode="infer").final
    np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize(
    "build, config",
    [(build_unet1d, UNet1DConfig), (build_multiresunet1d, MultiResUNet1DConfig)],
)
def test_stacked_infer_forward_matches_single_episodes(build, config):
    net = build(config.scaled(1 / 16, input_length=1024), seed=4)
    x = np.random.default_rng(8).normal(size=(8, 1, 1024))
    stacked = net.forward(x, mode="infer")
    singles = [net.forward(x[i : i + 1], mode="infer") for i in range(8)]
    np.testing.assert_array_equal(stacked.final, np.concatenate([s.final for s in singles]))
    for j, aux in enumerate(stacked.auxiliaries):
        np.testing.assert_array_equal(aux, np.concatenate([s.auxiliaries[j] for s in singles]))


def test_outputs_finite_across_seeds():
    cfg = UNet1DConfig.scaled(1 / 16, input_length=64)
    mcfg = MultiResUNet1DConfig.scaled(1 / 16, input_length=64)
    rng = np.random.default_rng(123)
    for seed in range(1000):
        x = rng.normal(size=(1, 1, 64))
        out = build_unet1d(cfg, seed=seed).forward(x, mode="infer")
        assert np.all(np.isfinite(out.final))
        for a in out.auxiliaries:
            assert np.all(np.isfinite(a))
        mout = build_multiresunet1d(mcfg, seed=seed).forward(x, mode="infer")
        assert np.all(np.isfinite(mout.final))


# Checkpoint layout at construction: the ordered (name, shape, float64 bytes)
# entries of both networks at width 1/16, length 64, seed 0. A change to an
# entry name, the entry order or the seeded construction order changes them,
# and checkpoints written before it would no longer load the same weights.
PINNED_CHECKPOINT_DIGESTS = {
    "unet": "3eaec6cb2e82a4772ca2886ad7f72e1cd835a79e840740b70fc94b1173e82988",
    "multires": "6e4971109dbbb1ad7239353314f7e93cb8dd6ad4377a06ee53ab2395dde830b1",
}


def checkpoint_digest(net):
    h = hashlib.sha256()
    for name, value in net.checkpoint_entries():
        value = np.asarray(value, dtype=np.float64)
        h.update(name.encode())
        h.update(repr(value.shape).encode())
        h.update(value.tobytes())
    return h.hexdigest()


def test_checkpoint_layout_is_pinned():
    unet = build_unet1d(UNet1DConfig.scaled(1 / 16, input_length=64), seed=0)
    multires = build_multiresunet1d(MultiResUNet1DConfig.scaled(1 / 16, input_length=64), seed=0)
    assert checkpoint_digest(unet) == PINNED_CHECKPOINT_DIGESTS["unet"]
    assert checkpoint_digest(multires) == PINNED_CHECKPOINT_DIGESTS["multires"]


@pytest.mark.parametrize(
    "build, config",
    [(build_unet1d, UNet1DConfig), (build_multiresunet1d, MultiResUNet1DConfig)],
)
def test_unseeded_skeleton_draws_nothing_and_keeps_the_loaded_arrays(build, config, monkeypatch):
    cfg = config.scaled(1 / 16, input_length=64)
    seeded = build(cfg, seed=0)
    entries = [(name, arr.copy()) for name, arr in seeded.checkpoint_entries()]

    def no_generator(*args, **kwargs):
        raise AssertionError("an unseeded skeleton must not create a generator")

    monkeypatch.setattr(np.random, "default_rng", no_generator)
    skeleton = build(cfg, seed=None)
    skeleton.load_state(entries)
    for (name, given), (kept_name, kept) in zip(entries, skeleton.checkpoint_entries()):
        assert kept_name == name
        if not name.startswith("calibration."):
            assert kept is given, name
    x = np.linspace(-1.0, 1.0, 64)[None, None, :]
    np.testing.assert_array_equal(
        skeleton.forward(x, mode="infer").final, seeded.forward(x, mode="infer").final
    )


def test_a_loaded_bundle_holds_each_entry_in_an_array_of_its_own(tmp_path):
    seeded = [
        build_unet1d(UNet1DConfig.scaled(1 / 16), seed=1),
        build_multiresunet1d(MultiResUNet1DConfig.scaled(1 / 16), seed=1),
    ]
    pipeline.save_bundle(pipeline.PipelineBundle(*seeded), tmp_path)
    bundle = pipeline.load_bundle(tmp_path)
    for net in (bundle.approx_network, bundle.refine_network):
        entries = net.checkpoint_entries()
        assert len(entries) > 0
        assert [name for name, array in entries if array.base is not None] == []


def gradient_buffers(net):
    return [f"{layer.name}.{attr}" for layer in net._layers() for attr in vars(layer) if attr.endswith("_grad")]


def test_a_loaded_bundle_that_predicts_holds_no_gradient_buffers(tmp_path):
    seeded = [
        build_unet1d(UNet1DConfig.scaled(1 / 16), seed=1),
        build_multiresunet1d(MultiResUNet1DConfig.scaled(1 / 16), seed=1),
    ]
    pipeline.save_bundle(pipeline.PipelineBundle(*seeded), tmp_path)
    bundle = pipeline.load_bundle(tmp_path)
    rows, failures = pipeline.batch_predict(bundle, datapipe.synth_generate(3, seed=2))
    assert failures == [] and len(rows) == 3
    for net in seeded + [bundle.approx_network, bundle.refine_network]:
        net.parameter_count()
        net.summary()
        assert gradient_buffers(net) == []
        net.zero_grads()
        assert len(gradient_buffers(net)) == len(net.param_blocks())


@pytest.mark.parametrize(
    "build, config",
    [(build_unet1d, UNet1DConfig), (build_multiresunet1d, MultiResUNet1DConfig)],
)
def test_one_backward_gives_every_parameter_a_zeroed_buffer_of_its_shape(build, config):
    """With a zero upstream gradient the backward adds nothing, so each buffer
    shows how it was made: zero-filled, not left unfilled."""
    net = build(config.scaled(1 / 16, input_length=64), seed=0)
    out = net.forward(np.random.default_rng(5).normal(size=(2, 1, 64)), mode="train")
    net.backward(np.zeros_like(out.final), [np.zeros_like(a) for a in out.auxiliaries])
    made = 0
    for layer in net._layers():
        for attr in layer.params:
            param, grad = getattr(layer, attr), vars(layer)[f"{attr}_grad"]
            assert grad.shape == param.shape and not np.shares_memory(grad, param)
            assert np.all(grad == 0.0), f"{layer.name}.{attr}"
            made += 1
    assert len(gradient_buffers(net)) == made == len(net.param_blocks())


@pytest.mark.parametrize(
    "build, config",
    [(build_unet1d, UNet1DConfig), (build_multiresunet1d, MultiResUNet1DConfig)],
)
def test_an_unloaded_skeleton_holds_read_only_shapes(build, config):
    cfg = config.scaled(1 / 16, input_length=64)
    skeleton = build(cfg, seed=None)
    for (name, held), (_, seeded) in zip(skeleton.checkpoint_entries(), build(cfg, seed=0).checkpoint_entries()):
        assert held.shape == seeded.shape, name
        if not name.startswith("calibration."):
            assert not held.flags.writeable and not any(held.strides), name
    with pytest.raises(ValueError):
        tensorops.Adam().step(skeleton.param_blocks())


def saved_tensors(net):
    """Every saved-for-backward attribute of every layer object in the network."""
    seen, found, stack = set(), [], [net]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or not hasattr(obj, "__dict__"):
            continue
        seen.add(id(obj))
        for attr, value in vars(obj).items():
            if attr in SAVED_STATE:
                found.append((type(obj).__name__, attr, value))
            elif isinstance(value, (list, tuple)):
                stack.extend(value)
            elif hasattr(value, "__dict__"):
                stack.append(value)
    return found


@pytest.mark.parametrize(
    "build, config",
    [(build_unet1d, UNet1DConfig), (build_multiresunet1d, MultiResUNet1DConfig)],
)
def test_infer_forward_keeps_nothing(build, config):
    net = build(config.scaled(1 / 16, input_length=64), seed=0)
    x = np.random.default_rng(3).normal(size=(2, 1, 64))
    out = net.forward(x, mode="train")
    kept = saved_tensors(net)
    assert {attr for _, attr, _ in kept} == set(SAVED_STATE)
    assert all(value is not None for _, _, value in kept)

    net.forward(x, mode="infer")
    after = saved_tensors(net)
    assert len(after) == len(kept)
    assert all(value is None for _, _, value in after)
    with pytest.raises(ShapeError):
        net.backward(np.ones_like(out.final), [np.ones_like(a) for a in out.auxiliaries])


@pytest.mark.parametrize(
    "build, config",
    [(build_unet1d, UNet1DConfig), (build_multiresunet1d, MultiResUNet1DConfig)],
)
def test_backward_drops_every_saved_tensor(build, config):
    net = build(config.scaled(1 / 16, input_length=64), seed=0)
    out = net.forward(np.random.default_rng(3).normal(size=(2, 1, 64)), mode="train")
    grads = (np.ones_like(out.final), [np.ones_like(a) for a in out.auxiliaries])
    net.backward(*grads)
    kept = saved_tensors(net)
    assert {attr for _, attr, _ in kept} == set(SAVED_STATE)
    assert [(kind, attr) for kind, attr, value in kept if value is not None] == []
    with pytest.raises(ShapeError):
        net.backward(*grads)


@pytest.mark.parametrize(
    "net",
    [
        UNet1D(UNet1DConfig(filters_per_level=(3,), input_length=8), seed=0),
        MultiResUNet1D(MultiResUNet1DConfig(base_widths=(3,), input_length=8), seed=0),
    ],
)
def test_a_one_level_network_runs_one_backward(net):
    """No encoder or decoder level: the bottleneck alone, then the head."""
    x = np.random.default_rng(4).normal(size=(2, 1, 8))
    out = net.forward(x, mode="train")
    assert out.auxiliaries == []
    assert net.backward(np.ones_like(out.final)).shape == x.shape
    with pytest.raises(ShapeError):
        net.backward(np.ones_like(out.final))


@pytest.mark.parametrize(
    "build, config",
    [(build_unet1d, UNet1DConfig), (build_multiresunet1d, MultiResUNet1DConfig)],
)
def test_train_activations_die_once_used(build, config):
    """Each skip tensor is dead before the final head runs, each skip
    gradient before its encoder level's backward, and every array the
    forward saved once backward returns."""
    net = build(config.scaled(1 / 16, input_length=64), seed=0)
    skip_refs, dead_at_head = [], []
    grad_refs, dead_at_encoder = [], []
    for skip, enc in zip(net.skips, net.enc):
        def forward_keeping_a_ref(h, mode, forward=skip.forward):
            out = forward(h, mode)
            skip_refs.append(weakref.ref(out))
            return out

        def backward_keeping_a_ref(grad, backward=skip.backward):
            grad_refs.append(weakref.ref(grad))
            return backward(grad)

        def enc_backward(grad, backward=enc.backward):
            dead_at_encoder.append([ref() is None for ref in grad_refs])
            return backward(grad)

        skip.forward, skip.backward, enc.backward = forward_keeping_a_ref, backward_keeping_a_ref, enc_backward

    def head_forward(h, mode, forward=net.final_head.forward):
        dead_at_head.append([ref() is None for ref in skip_refs])
        return forward(h, mode)

    net.final_head.forward = head_forward
    out = net.forward(np.random.default_rng(3).normal(size=(2, 1, 64)), mode="train")
    assert dead_at_head == [[True] * len(net.skips)]

    saved_refs = [weakref.ref(value) for _, _, value in saved_tensors(net)]
    assert len(saved_refs) > len(net.skips)
    net.backward(np.ones_like(out.final), [np.ones_like(a) for a in out.auxiliaries])
    assert sum(ref() is not None for ref in saved_refs) == 0
    # encoder levels run deepest first, each after its skip's backward
    assert dead_at_encoder == [[True] * n for n in range(1, len(net.enc) + 1)]


# -------------------------------------------------------------- calibration

def test_output_calibration_is_affine():
    net = build_unet1d(UNet1DConfig.scaled(1 / 16, input_length=64), seed=5)
    x = np.random.default_rng(1).normal(size=(1, 1, 64))
    base = net.forward(x, mode="infer")
    net.set_calibration(output_scale=2.0, output_offset=3.0)
    shifted = net.forward(x, mode="infer")
    np.testing.assert_allclose(shifted.final, 2.0 * base.final + 3.0, atol=1e-10)
    for b, s in zip(base.auxiliaries, shifted.auxiliaries):
        np.testing.assert_allclose(s, 2.0 * b + 3.0, atol=1e-10)


def test_input_calibration_undoes_affine_input():
    net = build_multiresunet1d(MultiResUNet1DConfig.scaled(1 / 16, input_length=64), seed=5)
    x = np.random.default_rng(2).normal(size=(1, 1, 64))
    base = net.forward(x, mode="infer").final
    net.set_calibration(input_scale=4.0, input_offset=-1.5)
    again = net.forward(x * 4.0 - 1.5, mode="infer").final
    np.testing.assert_allclose(again, base, atol=1e-10)


# ---------------------------------------------------------- multires block

def test_multires_block_channel_count():
    cfg = MultiResUNet1DConfig()
    rng = np.random.default_rng(0)
    block = models._MultiResBlock("b", 3, cfg, 2, rng)
    s1, s2, s3 = cfg.stage_filters(2)
    assert block.out_channels == s1 + s2 + s3
    out = block.forward(rng.normal(size=(2, 3, 16)), mode="train")
    assert out.shape == (2, s1 + s2 + s3, 16)


def test_multires_block_zero_input_zero_biases():
    cfg = MultiResUNet1DConfig.scaled(1 / 8)
    block = models._MultiResBlock("b", 2, cfg, 0, np.random.default_rng(1))
    out = block.forward(np.zeros((2, 2, 16)), mode="train")
    np.testing.assert_array_equal(out, 0.0)


def test_multires_block_gradcheck():
    cfg = MultiResUNet1DConfig.scaled(1 / 8)
    block = models._MultiResBlock("b", 2, cfg, 0, np.random.default_rng(3))
    x = np.random.default_rng(4).normal(size=(2, 2, 16))
    probe = np.random.default_rng(5).normal(size=(2, block.out_channels, 16))

    def forward_fn():
        return float(np.sum(block.forward(x, mode="train") * probe))

    forward_fn()
    grad_in = block.backward(probe.copy())
    blocks = [(n, p, g) for layer in block.layers() for n, p, g in layer.param_blocks()]
    blocks.append(("input", x, grad_in))
    report = tensorops.gradcheck(forward_fn, blocks, h=1e-3, refine_tol=1e-3)
    assert report.passed(1e-3), report.format()


# --------------------------------------------------- network-level gradients

def network_scalar_check(net, x, targets, weights, per_block=6):
    def forward_fn():
        out = net.forward(x, mode="train")
        outs = [out.final] + out.auxiliaries
        return float(sum(w * mse_loss(o, t)[0] for o, t, w in zip(outs, targets, weights)))

    out = net.forward(x, mode="train")
    outs = [out.final] + out.auxiliaries
    grads = [w * mse_loss(o, t)[1] for o, t, w in zip(outs, targets, weights)]
    grad_in = net.backward(grads[0], grads[1:] if len(grads) > 1 else None)
    blocks = net.param_blocks() + [("input", x, grad_in)]
    report = tensorops.gradcheck(
        forward_fn, blocks, h=1e-3, max_entries_per_block=per_block,
        rng=np.random.default_rng(0), refine_tol=1e-3,
    )
    net.zero_grads()
    return report


def test_unet_gradcheck_sampled():
    rng = np.random.default_rng(7)
    net = build_unet1d(UNet1DConfig.scaled(1 / 16, input_length=64), seed=3)
    x = rng.normal(size=(2, 1, 64))
    targets = [rng.normal(size=(2, 1, 64 >> k)) for k in range(5)]
    report = network_scalar_check(net, x, targets, [1.0, 0.9, 0.8, 0.7, 0.6])
    assert report.passed(1e-3), report.format()


def test_multires_gradcheck_sampled():
    rng = np.random.default_rng(9)
    net = build_multiresunet1d(MultiResUNet1DConfig.scaled(1 / 8, input_length=64), seed=3)
    x = rng.normal(size=(2, 1, 64))
    report = network_scalar_check(net, x, [rng.normal(size=(2, 1, 64))], [1.0])
    assert report.passed(1e-3), report.format()


def test_two_level_unet_gradcheck_exhaustive():
    cfg = UNet1DConfig(filters_per_level=(2, 4), input_length=32)
    net = build_unet1d(cfg, seed=1)
    rng = np.random.default_rng(11)
    x = rng.normal(size=(2, 1, 32))
    targets = [rng.normal(size=(2, 1, 32)), rng.normal(size=(2, 1, 16))]
    report = network_scalar_check(net, x, targets, [1.0, 0.9], per_block=10**9)
    assert report.passed(1e-3), report.format()


# ------------------------------------------------------ receptive-field bounds

def unet_affect_intervals(cfg, index):
    """Upper bound of the output region a single input sample can reach,
    propagated structurally through the architecture."""
    levels = cfg.depth - 1
    r = cfg.kernel_size // 2
    lo = hi = index
    skips = []
    for _ in range(levels):
        lo, hi = lo - 2 * r, hi + 2 * r          # two convs
        skips.append((lo, hi))
        lo, hi = lo // 2, hi // 2                # pool
    lo, hi = lo - 2 * r, hi + 2 * r              # bottleneck convs
    intervals = {"aux4": (lo, hi)}
    for l in range(levels - 1, -1, -1):
        lo, hi = 2 * lo, 2 * hi + 1              # transposed conv
        lo = min(lo, skips[l][0])
        hi = max(hi, skips[l][1])
        lo, hi = lo - 2 * r, hi + 2 * r          # two convs
        if l > 0:
            intervals[f"aux{l}"] = (lo, hi)
    intervals["final"] = (lo, hi)
    return intervals


def test_unet_receptive_field_locality():
    cfg = UNet1DConfig.scaled(1 / 16, input_length=1024)
    net = build_unet1d(cfg, seed=4)
    x = np.random.default_rng(5).normal(size=(1, 1, 1024))
    base = net.forward(x, mode="infer")
    index = 500
    xp = x.copy()
    xp[0, 0, index] += 1.0
    bumped = net.forward(xp, mode="infer")
    bounds = unet_affect_intervals(cfg, index)

    outputs = {"final": (base.final, bumped.final)}
    for k, (b, p) in enumerate(zip(base.auxiliaries, bumped.auxiliaries), start=1):
        outputs[f"aux{k}"] = (b, p)
    for name, (b, p) in outputs.items():
        changed = np.nonzero(b[0, 0] != p[0, 0])[0]
        assert changed.size > 0
        # the propagated bound is already in this head's own coordinates
        lo, hi = bounds[name]
        assert changed.min() >= lo and changed.max() <= hi, name


def multires_affect_interval(cfg, index):
    levels = cfg.depth - 1
    lo = hi = index
    skips = []
    for l in range(levels):
        lo, hi = lo - 3, hi + 3                  # three serial 3-tap stages
        links = cfg.res_path_lengths[l]
        skips.append((lo - links, hi + links))   # one 3-tap conv per link
        lo, hi = lo // 2, hi // 2
    lo, hi = lo - 3, hi + 3                      # bottleneck block
    for l in range(levels - 1, -1, -1):
        lo, hi = 2 * lo, 2 * hi + 1
        lo = min(lo, skips[l][0])
        hi = max(hi, skips[l][1])
        lo, hi = lo - 3, hi + 3
    return lo, hi


def test_multires_receptive_field_locality():
    cfg = MultiResUNet1DConfig.scaled(1 / 16, input_length=1024)
    net = build_multiresunet1d(cfg, seed=4)
    x = np.random.default_rng(15).normal(size=(1, 1, 1024))
    base = net.forward(x, mode="infer").final
    index = 500
    xp = x.copy()
    xp[0, 0, index] += 1.0
    bumped = net.forward(xp, mode="infer").final
    changed = np.nonzero(base[0, 0] != bumped[0, 0])[0]
    lo, hi = multires_affect_interval(cfg, index)
    assert changed.size > 0
    assert changed.min() >= lo and changed.max() <= hi


def test_multires_translation_covariance_interior():
    cfg = MultiResUNet1DConfig.scaled(1 / 16, input_length=1024)
    net = build_multiresunet1d(cfg, seed=7)
    rng = np.random.default_rng(16)
    t = np.arange(1024)
    x = np.zeros(1024)
    for m in range(1, 9):
        x += rng.normal() * np.cos(2 * np.pi * m * t / 1024) + rng.normal() * np.sin(
            2 * np.pi * m * t / 1024
        )
    shift = 1 << (cfg.depth - 1)
    out = net.forward(x[None, None, :], mode="infer").final[0, 0]
    out_s = net.forward(np.roll(x, shift)[None, None, :], mode="infer").final[0, 0]
    radius = multires_affect_interval(cfg, 0)[1] + shift
    interior = slice(radius, 1024 - radius)
    assert 1024 - 2 * radius > 128
    np.testing.assert_allclose(out_s[interior], np.roll(out, shift)[interior], atol=1e-6)


def test_unet_translation_covariance_interior():
    cfg = UNet1DConfig.scaled(1 / 16, input_length=1024)
    net = build_unet1d(cfg, seed=6)
    rng = np.random.default_rng(8)
    # periodic input: random Fourier series with period 1024
    t = np.arange(1024)
    x = np.zeros(1024)
    for m in range(1, 9):
        x += rng.normal() * np.cos(2 * np.pi * m * t / 1024) + rng.normal() * np.sin(
            2 * np.pi * m * t / 1024
        )
    shift = 1 << (cfg.depth - 1)
    out = net.forward(x[None, None, :], mode="infer").final[0, 0]
    out_s = net.forward(np.roll(x, shift)[None, None, :], mode="infer").final[0, 0]
    radius = unet_affect_intervals(cfg, 0)["final"][1] + shift
    interior = slice(radius, 1024 - radius)
    assert 1024 - 2 * radius > 128
    np.testing.assert_allclose(out_s[interior], np.roll(out, shift)[interior], atol=1e-6)


# ------------------------------------------------------------------- summary

def test_summary_lists_every_block():
    net = build_unet1d(UNet1DConfig.scaled(1 / 16, input_length=64))
    text = net.summary()
    assert f"{net.parameter_count():>8}" in text
    for name, _, _ in net.param_blocks():
        assert name in text


# ------------------------------------------------------------ fused infer path

# The fused path computes the same affine as the unfused one in another order
# (the conv bias folded into one shift per channel). Over 600 seeded blocks
# like these the two differed by at most 4 ulps of the largest output.
FUSED_ULPS = 16


def unsettle(layers, rng):
    """Non-zero conv biases, and BatchNorm parameters and running statistics
    away from their (1, 0, 0, 1) start, so the bias fold is exercised."""
    for layer in layers:
        if isinstance(layer, tensorops.Conv1d):
            layer.bias = rng.normal(0.0, 0.5, layer.bias.shape)
        else:
            layer.gamma = rng.uniform(0.5, 2.0, layer.channels)
            layer.beta = rng.normal(0.0, 0.5, layer.channels)
            layer.running_mean = rng.normal(0.0, 0.5, layer.channels)
            layer.running_var = rng.uniform(0.2, 3.0, layer.channels)


def unfused(stage, x):
    """relu(bn_infer(conv(x) + bias)), each layer's own infer forward in turn."""
    return np.maximum(stage.bn.forward(stage.conv.forward(x, "infer"), "infer"), 0.0)


def frozen_state(layers):
    return [value.copy() for layer in layers for _, value in layer.state_entries()]


def assert_fused_matches(block, x, want):
    before, x_before = frozen_state(block.layers()), x.copy()
    got = block.forward(x, "infer")
    assert 0.2 < np.mean(want > 0.0) < 0.8  # both sides of the ReLU kink
    assert np.max(np.abs(got - want)) <= FUSED_ULPS * np.finfo(float).eps * np.max(np.abs(want))
    # the in-place steps write only into arrays of their own
    np.testing.assert_array_equal(x, x_before)
    for a, b in zip(frozen_state(block.layers()), before):
        np.testing.assert_array_equal(a, b)


def test_fused_conv_bn_relu_matches_unfused():
    rng = np.random.default_rng(21)
    stage = models._ConvBNRelu("s", 3, 8, rng)
    unsettle(stage.layers(), rng)
    x = rng.normal(size=(3, 3, 32))
    assert_fused_matches(stage, x, unfused(stage, x))


def test_fused_multires_block_matches_unfused():
    rng = np.random.default_rng(22)
    block = models._MultiResBlock("b", 2, MultiResUNet1DConfig.scaled(1 / 8), 0, rng)
    unsettle(block.layers(), rng)
    x = rng.normal(size=(3, 2, 32))
    c1 = unfused(block.stage1, x)
    c2 = unfused(block.stage2, c1)
    c3 = unfused(block.stage3, c2)
    merged = np.concatenate([c1, c2, c3], axis=1) + block.shortcut.forward(x, "infer")
    want = np.maximum(block.post_bn.forward(merged, "infer"), 0.0)
    assert_fused_matches(block, x, want)
