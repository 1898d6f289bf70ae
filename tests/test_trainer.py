import hashlib

import numpy as np
import pytest

from bpwave import datapipe, models, pipeline, tensorops, trainer
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
    parse_config_file,
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
    cfg = UNet1DConfig(
        depth=2, filters_per_level=(2, 4), deep_supervision_weights=(1.0, 0.5), input_length=LENGTH
    )
    config = TrainConfig(epochs=1, batch_size=len(small_store), seed=4)
    result = train_network(models.build_unet1d(cfg, seed=4), small_store, None, config, which="approx")

    x, y = episodes_to_arrays(small_store)
    replica = models.build_unet1d(cfg, seed=4)
    trainer.calibrate_network(replica, y)
    idx = np.random.default_rng(4).permutation(len(small_store))
    out = replica.forward(x[idx], mode="train")
    manual, _, _ = deep_supervised_loss(out, y[idx], (1.0, 0.5), mae_loss)
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
    assert [len(val) for _, val in plan.folds] == [10] * 10


def test_kfold_uneven_split():
    plan = kfold_plan(105, k=10, seed=1)
    sizes = [len(val) for _, val in plan.folds]
    assert sorted(sizes) == [10] * 5 + [11] * 5


def test_kfold_disjoint_and_exhaustive():
    for n in (17, 53, 100):
        plan = kfold_plan(n, k=5, seed=3)
        all_val = np.concatenate([val for _, val in plan.folds])
        assert sorted(all_val.tolist()) == list(range(n))
        for train, val in plan.folds:
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


def test_checkpoint_shape_mismatch_names_layer(tmp_path):
    net = tiny_unet(seed=0, length=64)
    path = tmp_path / "net.ckpt"
    save_checkpoint(net, path)
    wrong = models.build_unet1d(UNet1DConfig.scaled(1 / 8, input_length=64))
    with pytest.raises(ValueError, match="enc0"):
        load_checkpoint(wrong, path)


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
