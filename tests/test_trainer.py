import hashlib
import sys
import threading
import weakref
from dataclasses import replace

import numpy as np
import pytest

from bpwave import datapipe, models, pipeline, tensorops, trainer
from bpwave.cli import parse_config_file
from bpwave.models import MultiResUNet1DConfig, NetworkOutput, UNet1DConfig
from bpwave.tensorops import AdamConfig, NumericalError, mae_loss, mse_loss
from bpwave.trainer import (
    TrainConfig,
    cross_validate,
    deep_supervised_loss,
    downsample_average,
    episodes_to_arrays,
    kfold_plan,
    load_checkpoint,
    network_gradient_report,
    read_history_csv,
    save_checkpoint,
    train_network,
    write_history_csv,
)

LENGTH = 1024


def tiny_unet(seed=0, length=LENGTH):
    return models.build_unet1d(UNet1DConfig.scaled(1 / 16, input_length=length), seed=seed)


def tiny_multires(seed=0, length=LENGTH):
    return models.build_multiresunet1d(
        MultiResUNet1DConfig.scaled(1 / 16, input_length=length), seed=seed
    )


@pytest.fixture(scope="module")
def small_store():
    return pipeline.preprocess_store(datapipe.synth_generate(8, seed=13))


# ------------------------------------------------------------ loss assembly

def test_downsample_average():
    t = np.arange(8.0).reshape(1, 1, 8)
    np.testing.assert_allclose(downsample_average(t, 2)[0, 0], [0.5, 2.5, 4.5, 6.5])
    np.testing.assert_array_equal(downsample_average(t, 1), t)
    with pytest.raises(ValueError):
        downsample_average(np.zeros((1, 1, 6)), 4)


def test_deep_supervised_loss_zero_at_targets():
    target = np.random.default_rng(0).normal(size=(2, 1, 64))
    outputs = NetworkOutput(
        final=target.copy(),
        auxiliaries=[downsample_average(target, 1 << k) for k in range(1, 5)],
    )
    total, g_final, g_aux = deep_supervised_loss(outputs, target, (1.0, 0.9, 0.8, 0.7, 0.6))
    assert total == 0.0
    np.testing.assert_array_equal(g_final, 0.0)
    for g in g_aux:
        np.testing.assert_array_equal(g, 0.0)


def test_deep_supervised_loss_degenerate_weights():
    rng = np.random.default_rng(1)
    target = rng.normal(size=(1, 1, 32))
    outputs = NetworkOutput(
        final=rng.normal(size=(1, 1, 32)),
        auxiliaries=[rng.normal(size=(1, 1, 32 >> k)) for k in range(1, 5)],
    )
    total, _, aux = deep_supervised_loss(outputs, target, (1.0, 0.0, 0.0, 0.0, 0.0))
    assert total == mae_loss(outputs.final, target)[0]
    for g in aux:
        np.testing.assert_array_equal(g, 0.0)


def test_deep_supervised_loss_matches_hand_sum():
    rng = np.random.default_rng(2)
    target = rng.normal(size=(1, 1, 64))
    outputs = NetworkOutput(
        final=rng.normal(size=(1, 1, 64)),
        auxiliaries=[rng.normal(size=(1, 1, 64 >> k)) for k in range(1, 5)],
    )
    weights = (1.0, 0.9, 0.8, 0.7, 0.6)
    total, _, _ = deep_supervised_loss(outputs, target, weights)
    expected = mae_loss(outputs.final, target)[0]
    for k, aux in enumerate(outputs.auxiliaries, start=1):
        expected += weights[k] * mae_loss(aux, downsample_average(target, 1 << k))[0]
    assert abs(total - expected) < 1e-12


def test_deep_supervised_loss_weight_count_mismatch():
    outputs = NetworkOutput(final=np.zeros((1, 1, 8)), auxiliaries=[np.zeros((1, 1, 4))])
    with pytest.raises(ValueError):
        deep_supervised_loss(outputs, np.zeros((1, 1, 8)), (1.0, 0.9, 0.8))


# ------------------------------------------------------------- training loop

def test_zero_learning_rate_freezes_parameters(small_store):
    net = tiny_unet(seed=1)
    before = [p.copy() for _, p, _ in net.param_blocks()]
    config = TrainConfig(epochs=3, batch_size=8, seed=0, adam=AdamConfig(learning_rate=0.0))
    train_network(net, small_store, None, config, which="approx")
    for (name, p, _), orig in zip(net.param_blocks(), before):
        np.testing.assert_array_equal(p, orig), name


def test_identical_seeds_reproduce_history_bitwise(small_store):
    config = TrainConfig(epochs=4, batch_size=4, seed=9)
    runs = []
    for _ in range(2):
        net = tiny_unet(seed=9)
        result = train_network(net, small_store, None, config, which="approx")
        runs.append([(h.epoch, h.train_loss) for h in result.history])
    assert runs[0] == runs[1]


def test_training_reduces_loss(small_store):
    config = TrainConfig(epochs=25, batch_size=8, seed=3)
    net = tiny_unet(seed=3)
    result = train_network(net, small_store, None, config, which="approx")
    assert result.history[-1].train_loss < result.history[0].train_loss


def test_full_batch_loss_non_increasing_first_steps(small_store):
    config = TrainConfig(epochs=5, batch_size=len(small_store), seed=2)
    approx = tiny_unet(seed=2)
    result = train_network(approx, small_store, None, config, which="approx")
    losses = [h.train_loss for h in result.history]
    assert all(b <= a + 1e-9 for a, b in zip(losses, losses[1:]))

    refine = tiny_multires(seed=2)
    r2 = train_network(refine, small_store, None, config, which="refine", approx_network=approx)
    losses = [h.train_loss for h in r2.history]
    assert all(b <= a + 1e-9 for a, b in zip(losses, losses[1:]))


def test_epoch_one_loss_matches_manual_assembly(small_store):
    """The approx objective is the deeply supervised MAE, the refine
    objective plain MSE, checked against a manually assembled step."""
    config = TrainConfig(epochs=1, batch_size=len(small_store), seed=4)
    net = tiny_unet(seed=4)
    result = train_network(net, small_store, None, config, which="approx")

    x, y = episodes_to_arrays(small_store)
    replica = tiny_unet(seed=4)
    trainer.calibrate_network(replica, y)
    idx = np.random.default_rng(4).permutation(len(small_store))
    out = replica.forward(x[idx], mode="train")
    manual, _, _ = deep_supervised_loss(out, y[idx], (1.0, 0.9, 0.8, 0.7, 0.6), mae_loss)
    assert abs(result.history[0].train_loss - manual) < 1e-12

    refine = tiny_multires(seed=4)
    r2 = train_network(refine, small_store, None, config, which="refine", approx_network=net)
    replica = tiny_multires(seed=4)
    x_ref = trainer.predict_batched(net, x)
    trainer.calibrate_network(replica, y, inputs=x_ref)
    idx = np.random.default_rng(4).permutation(len(small_store))
    manual = mse_loss(replica.forward(x_ref[idx], mode="train").final, y[idx])[0]
    assert abs(r2.history[0].train_loss - manual) < 1e-12


def test_shallow_unet_trains_with_its_own_supervision_weights(small_store):
    """The deep-supervision weights come from the network's config, so a
    U-Net of any depth trains, and its loss uses exactly those weights."""
    cfg = UNet1DConfig(filters_per_level=(2, 4), input_length=LENGTH)
    config = TrainConfig(epochs=1, batch_size=len(small_store), seed=4)
    result = train_network(models.build_unet1d(cfg, seed=4), small_store, None, config, which="approx")

    x, y = episodes_to_arrays(small_store)
    replica = models.build_unet1d(cfg, seed=4)
    trainer.calibrate_network(replica, y)
    idx = np.random.default_rng(4).permutation(len(small_store))
    out = replica.forward(x[idx], mode="train")
    manual, _, _ = deep_supervised_loss(out, y[idx], cfg.deep_supervision_weights, mae_loss)
    assert len(result.history) == 1
    assert abs(result.history[0].train_loss - manual) < 1e-12


def test_refinement_leaves_approx_untouched(small_store, tmp_path):
    approx = tiny_unet(seed=5)
    config = TrainConfig(epochs=2, batch_size=8, seed=5)
    train_network(approx, small_store, None, config, which="approx")
    frozen = tmp_path / "approx.ckpt"
    save_checkpoint(approx, frozen)
    digest = hashlib.sha256(frozen.read_bytes()).hexdigest()

    refine = tiny_multires(seed=5)
    train_network(refine, small_store, None, config, which="refine", approx_network=approx)
    save_checkpoint(approx, frozen)
    assert hashlib.sha256(frozen.read_bytes()).hexdigest() == digest


def test_nan_loss_aborts_with_diagnostics(small_store):
    net = tiny_unet(seed=6)
    # poison a head weight: no downstream ReLU masks it from the loss
    dict((n, p) for n, p, _ in net.param_blocks())["head.final.weight"][0, 0, 0] = np.nan
    with pytest.raises(NumericalError, match="epoch 1, batch 0"):
        train_network(net, small_store, None, TrainConfig(epochs=1, batch_size=8), which="approx")


def test_validation_tracked_and_best_restored(small_store):
    train_store = small_store.subset(range(6))
    val_store = small_store.subset([6, 7])
    config = TrainConfig(epochs=6, batch_size=4, seed=1)
    net = tiny_unet(seed=1)
    result = train_network(net, train_store, val_store, config, which="approx")
    vals = [h.val_loss for h in result.history]
    assert all(v is not None for v in vals)
    assert result.best_epoch == 1 + int(np.argmin(vals))
    assert result.best_score == min(vals)
    # restored network reproduces the best checkpoint's predictions
    x_val, y_val = episodes_to_arrays(val_store)
    loss_now = mae_loss(trainer.predict_batched(net, x_val), y_val)[0]
    assert abs(loss_now - result.best_score) < 1e-12


# ---------------------------------------------------------- stacked inference

class StackRecorder:
    """Test double: forwards its input (or a wrapped network's output) and
    records each infer-mode stack's size and whether a helper thread ran it."""

    def __init__(self, config, inner=None):
        self.config = config
        self.inner = inner
        self.stacks = []

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def forward(self, x, mode="infer"):
        if mode == "infer":
            self.stacks.append((x.shape[0], threading.current_thread() is not threading.main_thread()))
        if self.inner is None:
            return NetworkOutput(final=x.copy())
        return self.inner.forward(x, mode=mode)


def cores(monkeypatch, count):
    monkeypatch.setattr(trainer, "usable_cores", lambda: count)


@pytest.mark.parametrize("config", [UNet1DConfig, MultiResUNet1DConfig])
@pytest.mark.parametrize(
    "width, size, threaded",
    [(1 / 16, 4, False), (1 / 8, 4, True), (1 / 4, 2, True), (1 / 2, 1, True), (1.0, 1, True)],
)
@pytest.mark.parametrize("core_count", [1, 2])
def test_threaded_stacking_follows_the_first_level_width(monkeypatch, config, width, size, threaded, core_count):
    """A stack holds the fewest episodes whose first-level activations reach
    2^15 values, at most 4; only such stacks go to helper threads."""
    cores(monkeypatch, core_count)
    net = StackRecorder(config.scaled(width))
    x = np.random.default_rng(0).normal(size=(8, 1, LENGTH))
    out = trainer.predict_batched(net, x)
    assert out.tobytes() == x.tobytes()
    assert sorted(s for s, _ in net.stacks) == [size] * (8 // size)
    assert any(helper for _, helper in net.stacks) == (threaded and core_count > 1)


def test_threaded_stacks_hold_at_most_ceil_n_over_cores(monkeypatch):
    cores(monkeypatch, 2)
    net = StackRecorder(UNet1DConfig.scaled(1 / 8))
    trainer.predict_batched(net, np.zeros((5, 1, LENGTH)))
    assert sorted(net.stacks) == [(2, True), (3, False)]
    net.stacks.clear()
    trainer.predict_batched(net, np.zeros((1, 1, LENGTH)))
    assert net.stacks == [(1, False)]


@pytest.mark.parametrize("n", [5, 8])
def test_threaded_predict_batched_rows_equal_serial(monkeypatch, n):
    x = np.random.default_rng(n).normal(size=(n, 1, LENGTH))
    approx = models.build_unet1d(UNet1DConfig.scaled(1 / 8), seed=n)
    refine = models.build_multiresunet1d(MultiResUNet1DConfig.scaled(1 / 8), seed=n)
    outs = {}
    for core_count in (1, 2):
        cores(monkeypatch, core_count)
        alive = threading.active_count()
        rough = trainer.predict_batched(approx, x)
        outs[core_count] = (rough, trainer.predict_batched(refine, rough))
        assert threading.active_count() == alive
    for serial, threaded in zip(outs[1], outs[2]):
        assert threaded.tobytes() == serial.tobytes()
    for i in range(n):
        assert outs[2][0][i].tobytes() == approx.forward(x[i : i + 1], mode="infer").final[0].tobytes()


def test_threaded_predict_batched_keeps_every_row_under_fast_switching(monkeypatch):
    """More threads than cores, switching every 10 us: no stack's output is
    lost or misplaced."""
    cores(monkeypatch, 4)
    net = StackRecorder(UNet1DConfig.scaled(1.0))
    x = np.random.default_rng(1).normal(size=(64, 1, LENGTH))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(20):
            assert trainer.predict_batched(net, x).tobytes() == x.tobytes()
    finally:
        sys.setswitchinterval(interval)
    assert len(net.stacks) == 64 * 20 and any(helper for _, helper in net.stacks)


class FailingHelper(StackRecorder):
    def forward(self, x, mode="infer"):
        if threading.current_thread() is not threading.main_thread():
            raise NumericalError("helper stack failed")
        return super().forward(x, mode)


def test_threaded_predict_batched_reraises_a_helper_exception_and_joins(monkeypatch):
    cores(monkeypatch, 2)
    alive = threading.active_count()
    net = FailingHelper(UNet1DConfig.scaled(1.0))
    with pytest.raises(NumericalError, match="^helper stack failed$"):
        trainer.predict_batched(net, np.zeros((4, 1, LENGTH)))
    assert threading.active_count() == alive


def test_validation_passes_run_in_stacks_of_at_most_four(small_store):
    train_store = small_store.subset(range(6))
    val_store = pipeline.preprocess_store(datapipe.synth_generate(10, seed=14))
    inner = tiny_unet(seed=2)
    net = StackRecorder(inner.config, inner)
    approx = StackRecorder(UNet1DConfig.scaled(1.0))
    config = TrainConfig(epochs=2, batch_size=4, seed=2)
    train_network(net, train_store, val_store, config, which="approx")
    assert [s for s, _ in net.stacks] == [4, 4, 2] * 2
    train_network(tiny_multires(seed=2), train_store, val_store, config, which="refine", approx_network=approx)
    assert max(s for s, _ in approx.stacks) == 1 and len(approx.stacks) == 16


def test_bn_refresh_moves_only_running_statistics(small_store):
    """Refresh passes re-estimate the BatchNorm running statistics from the
    restored best weights; no weight, gamma or beta moves, and the result's
    best_entries carry the refreshed statistics."""
    results = {}
    for passes in (0, 2):
        config = TrainConfig(epochs=2, batch_size=4, seed=3, bn_refresh=bool(passes))
        net = tiny_unet(seed=3)
        results[passes] = (net, train_network(net, small_store, None, config, which="approx"))
    (plain_net, plain), (fresh_net, fresh) = results[0], results[2]
    assert [(h.train_loss, h.val_loss) for h in fresh.history] == [
        (h.train_loss, h.val_loss) for h in plain.history
    ]
    stats_moved = 0
    for (name, before), (other, after) in zip(plain.best_entries, fresh.best_entries):
        assert name == other
        if name.endswith(("running_mean", "running_var")):
            stats_moved += not np.array_equal(before, after)
        else:
            np.testing.assert_array_equal(after, before, err_msg=name)
    assert stats_moved > 0
    for (name, held), (_, live) in zip(fresh.best_entries, fresh_net.checkpoint_entries()):
        np.testing.assert_array_equal(held, live, err_msg=name)


@pytest.mark.parametrize("passes", [0, 2])
def test_best_entries_share_no_memory_with_the_live_network(small_store, passes):
    config = TrainConfig(epochs=2, batch_size=4, seed=5, bn_refresh=bool(passes))
    net = tiny_unet(seed=5)
    result = train_network(net, small_store, None, config, which="approx")
    live = [arr for _, arr in net.checkpoint_entries()]
    for name, held in result.best_entries:
        assert not any(np.shares_memory(held, arr) for arr in live), name


def record_train_inputs(norm):
    """Wrap one BatchNorm's forward so it keeps a copy of each train-mode input."""
    inputs = []
    inner = norm.forward

    def forward(x, mode="train"):
        if mode == "train":
            inputs.append(x.copy())
        return inner(x, mode)

    norm.forward = forward
    return inputs


@pytest.mark.parametrize("which", ["approx", "refine"])
def test_bn_refresh_sets_the_equal_weight_mean_of_the_batch_statistics(which):
    """One refresh pass over 10 episodes at batch 4 (batches of 4, 4 and 2)
    leaves each running mean and variance at the plain mean of that layer's
    three batch statistics; a second refresh changes no bit, and the
    momentum reads the class constant again."""
    store = pipeline.preprocess_store(datapipe.synth_generate(10, seed=21))
    approx = tiny_unet(seed=6) if which == "refine" else None
    net = tiny_unet(seed=7) if which == "approx" else tiny_multires(seed=7)
    inputs = {norm.name: record_train_inputs(norm) for norm in net.batch_norms()}
    config = TrainConfig(epochs=2, batch_size=4, seed=8, bn_refresh=True)
    train_network(net, store, None, config, which=which, approx_network=approx)
    for norm in net.batch_norms():
        refresh = inputs[norm.name][-3:]
        assert [x.shape[0] for x in refresh] == [4, 4, 2]
        np.testing.assert_allclose(
            norm.running_mean, np.mean([x.mean(axis=(0, 2)) for x in refresh], axis=0), rtol=1e-12)
        np.testing.assert_allclose(
            norm.running_var, np.mean([x.var(axis=(0, 2)) for x in refresh], axis=0), rtol=1e-12)
        assert norm.momentum == 0.99 and "momentum" not in vars(norm)

    x = episodes_to_arrays(store)[0]
    if approx is not None:
        x = trainer.predict_batched(approx, x)
    before = [(n.running_mean.copy(), n.running_var.copy()) for n in net.batch_norms()]
    trainer.refresh_batchnorm_stats(net, x, config.batch_size)
    for norm, (mean, var) in zip(net.batch_norms(), before):
        np.testing.assert_array_equal(norm.running_mean, mean, err_msg=norm.name)
        np.testing.assert_array_equal(norm.running_var, var, err_msg=norm.name)


def test_bn_refresh_restores_the_momentum_after_a_raise(small_store):
    net = tiny_unet(seed=9)
    norms = net.batch_norms()
    target = norms[len(norms) // 2]
    inner = target.forward
    seen = []

    def forward(x, mode="train"):
        seen.append(target.momentum)
        if len(seen) == 2:
            raise NumericalError("second batch")
        return inner(x, mode)

    target.forward = forward
    with pytest.raises(NumericalError, match="second batch"):
        trainer.refresh_batchnorm_stats(net, episodes_to_arrays(small_store)[0], 4)
    assert seen == [0.0, 0.5]
    for norm in norms:
        assert norm.momentum == 0.99 and "momentum" not in vars(norm), norm.name


def test_history_csv_roundtrip(tmp_path, small_store):
    config = TrainConfig(epochs=3, batch_size=8, seed=0)
    net = tiny_unet(seed=0)
    result = train_network(net, small_store, None, config, which="approx")
    path = tmp_path / "history.csv"
    write_history_csv(path, result.history)
    back = read_history_csv(path)
    assert [(h.epoch, h.train_loss, h.val_loss) for h in back] == [
        (h.epoch, h.train_loss, h.val_loss) for h in result.history
    ]


# ------------------------------------------------------------------- k-fold

def test_kfold_even_split():
    plan = kfold_plan(100, k=10, seed=0)
    assert [len(val) for _, val in plan] == [10] * 10


def test_kfold_uneven_split():
    plan = kfold_plan(105, k=10, seed=1)
    sizes = [len(val) for _, val in plan]
    assert sorted(sizes) == [10] * 5 + [11] * 5


def test_kfold_disjoint_and_exhaustive():
    for n in (17, 53, 100):
        plan = kfold_plan(n, k=5, seed=3)
        all_val = np.concatenate([val for _, val in plan])
        assert sorted(all_val.tolist()) == list(range(n))
        for train, val in plan:
            assert set(train.tolist()).isdisjoint(set(val.tolist()))
            assert sorted(np.concatenate([train, val]).tolist()) == list(range(n))


def test_kfold_too_few_items():
    with pytest.raises(ValueError):
        kfold_plan(5, k=10)


def test_cross_validate_smoke(small_store):
    config = TrainConfig(epochs=2, batch_size=4, seed=8)
    result = cross_validate(small_store, config, k=2, which="approx", width=1 / 16)
    assert len(result.histories) == 2
    assert result.selected_fold == int(np.argmin(result.fold_scores))
    again = cross_validate(small_store, config, k=2, which="approx", width=1 / 16)
    assert again.selected_fold == result.selected_fold
    assert again.fold_scores == result.fold_scores


def _record_builds(monkeypatch):
    """Weak references to every network cross_validate builds, in build
    order, and how many of the earlier ones were alive at each build."""
    built, alive_at_build = [], []
    for name in ("build_unet1d", "build_multiresunet1d"):
        def build(*args, _inner=getattr(models, name), **kwargs):
            alive_at_build.append(sum(ref() is not None for ref in built))
            net = _inner(*args, **kwargs)
            built.append(weakref.ref(net))
            return net
        monkeypatch.setattr(models, name, build)
    return built, alive_at_build


def test_cross_validate_keeps_only_the_selected_folds_networks(small_store, monkeypatch):
    config = TrainConfig(epochs=2, batch_size=4, seed=3)
    built, alive_at_build = _record_builds(monkeypatch)
    result = cross_validate(small_store, config, k=3, which="both", width=1 / 16)
    selected = result.selected_fold
    assert selected == int(np.argmin(result.fold_scores))
    # each fold builds an approximator, then a refiner; only the pair selected
    # so far outlives its fold
    assert alive_at_build == [0, 1, 2, 3, 2, 3]
    alive = [ref() is not None for ref in built]
    assert alive == [fold == selected for fold in range(3) for _ in range(2)]
    assert (built[2 * selected](), built[2 * selected + 1]()) == (
        result.approx_network,
        result.refine_network,
    )

    # the selected fold, trained again alone, as every fold was trained
    train_idx, val_idx = kfold_plan(len(small_store), k=3, seed=config.seed)[selected]
    fold_config = replace(config, seed=config.seed + 1 + selected)
    train, val = small_store.subset(train_idx), small_store.subset(val_idx)
    approx = models.build_unet1d(UNet1DConfig.scaled(1 / 16), seed=fold_config.seed)
    train_network(approx, train, val, fold_config, which="approx")
    refine = models.build_multiresunet1d(MultiResUNet1DConfig.scaled(1 / 16), seed=fold_config.seed)
    train_network(refine, train, val, fold_config, which="refine", approx_network=approx)
    for got, want in ((result.approx_network, approx), (result.refine_network, refine)):
        pairs = list(zip(got.checkpoint_entries(), want.checkpoint_entries()))
        assert len(pairs) == len(want.checkpoint_entries())
        for (name, a), (want_name, b) in pairs:
            assert name == want_name and a.tobytes() == b.tobytes(), name


@pytest.mark.parametrize(
    "scores",
    [
        (2.0, 1.0, 1.0),
        (3.0, 2.0, 1.0),
        (1.0, np.nan, 0.5, np.nan),
        (np.nan, np.nan, 0.0),
        (np.inf, 5.0, np.inf),
    ],
)
def test_cross_validate_selects_by_argmins_rule(small_store, monkeypatch, scores):
    """The first minimum wins, and the first NaN wins over any number."""
    remaining = iter(scores)

    def scripted(network, *args, **kwargs):
        return trainer.TrainResult(history=[], best_epoch=1, best_score=next(remaining), best_entries=[])

    monkeypatch.setattr(trainer, "train_network", scripted)
    built, alive_at_build = _record_builds(monkeypatch)
    config = TrainConfig(epochs=1, batch_size=2, seed=0)
    result = cross_validate(small_store, config, k=len(scores), which="approx", width=1 / 16, input_length=64)
    assert result.selected_fold == int(np.argmin(scores))
    assert alive_at_build == [0] + [1] * (len(scores) - 1)
    assert result.approx_network is built[result.selected_fold]()
    assert [ref() is not None for ref in built] == [f == result.selected_fold for f in range(len(scores))]


# -------------------------------------------------------------- checkpoints

def test_checkpoint_roundtrip_preserves_forward(tmp_path):
    net = tiny_unet(seed=7, length=64)
    net.set_calibration(output_scale=29.0, output_offset=95.0)
    x = np.random.default_rng(0).normal(size=(1, 1, 64))
    before = net.forward(x, mode="infer").final
    path = tmp_path / "net.ckpt"
    save_checkpoint(net, path)

    other = tiny_unet(seed=99, length=64)
    load_checkpoint(other, path)
    np.testing.assert_array_equal(other.forward(x, mode="infer").final, before)


def test_loaded_checkpoint_trains(tmp_path):
    """A checkpoint read into an unseeded skeleton gives arrays a train step can
    update in place (a read-only view of the file's bytes would not)."""
    path = tmp_path / "net.ckpt"
    save_checkpoint(tiny_unet(seed=6, length=64), path)
    net = models.build_unet1d(UNet1DConfig.scaled(1 / 16, input_length=64), seed=None)
    load_checkpoint(net, path)
    before = {name: p.copy() for name, p, _ in net.param_blocks()}
    x = np.random.default_rng(1).normal(size=(2, 1, 64))
    out = net.forward(x, mode="train")
    _, g_final, g_aux = deep_supervised_loss(
        out, x + 1.0, net.config.deep_supervision_weights, mae_loss
    )
    net.backward(g_final, g_aux)
    tensorops.Adam().step(net.param_blocks())
    for name, p, _ in net.param_blocks():
        if name.endswith("conv.weight"):
            assert not np.array_equal(p, before[name]), name


def test_checkpoint_shape_mismatch_names_layer(tmp_path):
    net = tiny_unet(seed=0, length=64)
    path = tmp_path / "net.ckpt"
    save_checkpoint(net, path)
    wrong = models.build_unet1d(UNet1DConfig.scaled(1 / 8, input_length=64))
    with pytest.raises(ValueError, match="enc0"):
        load_checkpoint(wrong, path)


def test_checkpoint_with_a_zero_calibration_scale_is_rejected(tmp_path):
    path = tmp_path / "net.ckpt"
    entries = [
        (name, np.array(0.0) if name == "calibration.input_scale" else arr)
        for name, arr in tiny_unet(seed=0, length=64).checkpoint_entries()
    ]
    tensorops.write_checkpoint(path, entries)
    with pytest.raises(ValueError, match="non-zero"):
        load_checkpoint(tiny_unet(seed=1, length=64), path)


def test_checkpoint_byte_size_oracle(tmp_path):
    net = tiny_unet(seed=0, length=64)
    path = tmp_path / "net.ckpt"
    save_checkpoint(net, path)
    # header: 9-byte magic + u32 version; each entry: u32 name length, name,
    # u32 rank, u32 per dim, 8 bytes per value
    expected = 9 + 4
    for name, arr in net.checkpoint_entries():
        arr = np.asarray(arr)
        expected += 4 + len(name.encode()) + 4 + 4 * arr.ndim + 8 * arr.size
    assert path.stat().st_size == expected
    n_params = len(net.param_blocks())
    n_bn = sum(1 for name, _ in net.checkpoint_entries() if name.endswith("running_mean"))
    assert len(net.checkpoint_entries()) == n_params + 2 * n_bn + 4


# --------------------------------------------------------------- gradreport

def test_network_gradient_report_passes():
    reports = network_gradient_report(width=1 / 16, input_length=64, seed=0, per_block=4)
    assert set(reports) == {"approximation", "refinement"}
    for report in reports.values():
        assert report.passed(1e-3), report.format()


# -------------------------------------------------------------- config files

def test_parse_config_file(tmp_path):
    path = tmp_path / "train.cfg"
    path.write_text("epochs = 20\nbatch_size=4   # small\n\n# comment\nseed = 7\n")
    assert parse_config_file(path) == {"epochs": "20", "batch_size": "4", "seed": "7"}


def test_parse_config_file_rejects_garbage(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("epochs 20\n")
    with pytest.raises(ValueError, match="bad.cfg:1"):
        parse_config_file(path)
