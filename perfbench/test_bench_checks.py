"""Tests of the benchmark's own checks and reference forward.

Each check must pass on bpwave's real output and fail on a perturbed copy.
Run with: PYTHONPATH=src python -m pytest perfbench -q
"""

import copy
import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from bpwave import datapipe, evalstats, models, pipeline, trainer  # noqa: E402

import bench_checks as checks  # noqa: E402
import bench_inputs as inputs  # noqa: E402
import bench_reference as reference  # noqa: E402
import bench_workloads as workloads  # noqa: E402

TINY_WIDTH = 1 / 16
TINY_LENGTH = 64


def tiny_networks(seed=3):
    rng = np.random.default_rng(seed)
    approx = models.build_unet1d(models.UNet1DConfig.scaled(TINY_WIDTH, input_length=TINY_LENGTH), seed=seed)
    refine = models.build_multiresunet1d(
        models.MultiResUNet1DConfig.scaled(TINY_WIDTH, input_length=TINY_LENGTH), seed=seed + 1)
    inputs.settle(approx, rng, 0.25, 0.0)
    inputs.settle(refine, rng, 25.0, 100.0)
    return approx, refine


def flip_first_weight(entries):
    out = [(name, value.copy()) for name, value in entries]
    name, value = next((n, v) for n, v in out if n.endswith(".weight"))
    value.reshape(-1)[0] = -value.reshape(-1)[0]
    return out


# ------------------------------------------------------------------ reference

def test_reference_forward_matches_both_networks():
    approx, refine = tiny_networks()
    x = np.random.default_rng(0).normal(size=(3, 1, TINY_LENGTH))
    rough = approx.forward(x, mode="infer").final
    np.testing.assert_allclose(
        reference.ReferenceUNet(approx.checkpoint_entries()).forward(x), rough, rtol=0, atol=1e-9)
    refined = refine.forward(rough, mode="infer").final
    np.testing.assert_allclose(
        reference.ReferenceMultiResUNet(refine.checkpoint_entries()).forward(rough), refined, rtol=0, atol=1e-9)
    for i in range(3):
        checks.check_reference(i, refined[i, 0],
                               reference.cascade_forward(approx.checkpoint_entries(),
                                                         refine.checkpoint_entries(), x[i:i + 1])[0, 0])


def test_transposed_conv_matches_scatter_definition_for_wider_kernels():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(2, 3, 5))
    for k in (2, 4, 6):
        w = rng.normal(size=(4, 3, k))
        b = rng.normal(size=4)
        full = np.zeros((2, 4, 2 * 5 + k - 2))
        for l in range(5):
            for t in range(k):
                full[:, :, 2 * l + t] += np.einsum("oc,bc->bo", w[:, :, t], x[:, :, l])
        crop = (k - 2) // 2
        expected = full[:, :, crop:crop + 10] + b[None, :, None]
        np.testing.assert_allclose(reference.transposed_conv_stride2(x, w, b), expected, atol=1e-12)


def test_reference_check_catches_one_flipped_weight():
    approx, refine = tiny_networks()
    x = np.random.default_rng(0).normal(size=(1, 1, TINY_LENGTH))
    predicted = refine.forward(approx.forward(x, mode="infer").final, mode="infer").final[0, 0]
    wrong = reference.cascade_forward(flip_first_weight(approx.checkpoint_entries()),
                                      refine.checkpoint_entries(), x)[0, 0]
    with pytest.raises(checks.CheckFailed):
        checks.check_reference(0, predicted, wrong)


# ----------------------------------------------------------------- train-desk

def tiny_history(losses):
    return [trainer.EpochStats(epoch=i + 1, train_loss=v, val_loss=v + 1.0) for i, v in enumerate(losses)]


def test_loss_check():
    checks.check_losses("approx", tiny_history([3.0, 2.0, 1.0]))
    with pytest.raises(checks.CheckFailed):
        checks.check_losses("approx", tiny_history([3.0, float("nan"), 1.0]))
    with pytest.raises(checks.CheckFailed):
        checks.check_losses("approx", tiny_history([1.0, 2.0, 3.0]))


def test_identical_runs_check():
    approx, _ = tiny_networks()
    entries = approx.checkpoint_entries()
    history = tiny_history([3.0, 2.0])
    checks.check_identical("approx", history, entries, copy.deepcopy(history), copy.deepcopy(entries))
    with pytest.raises(checks.CheckFailed):
        checks.check_identical("approx", history, entries, history, flip_first_weight(entries))
    shifted = tiny_history([3.0, np.nextafter(2.0, 3.0)])
    with pytest.raises(checks.CheckFailed):
        checks.check_identical("approx", history, entries, shifted, entries)


@pytest.mark.parametrize("build", [models.build_unet1d, models.build_multiresunet1d])
def test_gradient_check_passes_backward_and_catches_a_wrong_block(build):
    config = (models.UNet1DConfig if build is models.build_unet1d else models.MultiResUNet1DConfig)
    network = build(config.scaled(TINY_WIDTH, input_length=TINY_LENGTH), seed=5)
    x = np.random.default_rng(2).normal(size=(2, 1, TINY_LENGTH))
    objective, blocks = workloads.gradient_blocks(network, x, np.random.default_rng(3))
    kinds = ("Conv1d.weight", "Conv1d.bias", "TransposedConv1d.weight", "TransposedConv1d.bias",
             "BatchNorm1d.gamma", "BatchNorm1d.beta")
    assert set(kinds) == set(blocks)
    # Only biases whose output reaches the objective other than through a batch norm are drawn.
    assert all(np.abs(grad).max() > 1e-12 for _, _, grad in blocks["Conv1d.bias"])
    checks.check_gradients("net", objective, blocks, np.random.default_rng(4))
    for kind in kinds:
        wrong = {k: list(v) for k, v in blocks.items()}
        wrong[kind] = [(name, value, -grad) for name, value, grad in blocks[kind]]
        with pytest.raises(checks.CheckFailed):
            checks.check_gradients("net", objective, wrong, np.random.default_rng(4))


# ----------------------------------------------------------------- infer-full

def predicted_rows():
    approx, refine = tiny_networks()
    bundle = pipeline.PipelineBundle(approx_network=approx, refine_network=refine, preprocess=False)
    store = datapipe.EpisodeStore([
        datapipe.EpisodeRecord(np.random.default_rng(i).normal(size=TINY_LENGTH), np.full(TINY_LENGTH, 90.0))
        for i in range(3)
    ])
    return pipeline.batch_predict(bundle, store)


def test_bp_rows_check():
    rows, failures = predicted_rows()
    checks.check_bp_rows(rows, 3, failures)
    with pytest.raises(checks.CheckFailed):
        checks.check_bp_rows(rows[:2], 3, failures)
    with pytest.raises(checks.CheckFailed):
        checks.check_bp_rows(rows, 3, [(1, "boom")])
    shifted = copy.deepcopy(rows)
    shifted[1].pred_bp = pipeline.BPValues(sbp=rows[1].pred_bp.sbp + 1e-9, dbp=rows[1].pred_bp.dbp,
                                           map=rows[1].pred_bp.map)
    with pytest.raises(checks.CheckFailed):
        checks.check_bp_rows(shifted, 3, failures)


def test_digest_check():
    approx, _ = tiny_networks()
    saved = {"approx": {n: inputs.entry_digest(v) for n, v in approx.checkpoint_entries()}}
    checks.check_digests(saved, saved)
    flipped = {"approx": {n: inputs.entry_digest(v) for n, v in flip_first_weight(approx.checkpoint_entries())}}
    with pytest.raises(checks.CheckFailed):
        checks.check_digests(saved, flipped)


# ------------------------------------------------------------------- csv-desk

@pytest.fixture(scope="module")
def imported(tmp_path_factory):
    path = tmp_path_factory.mktemp("csv") / "signals.csv"
    recordings, kept, planted = inputs.signal_recordings(11)
    inputs.write_signal_csv(path, recordings)
    store, dropped = datapipe.read_signal_csv(path)
    return store, dropped, kept, planted


def test_import_check(imported):
    store, dropped, kept, planted = imported
    checks.check_import(store, dropped, kept, planted)
    with pytest.raises(checks.CheckFailed):
        checks.check_import(store, dropped - 1, kept, planted)
    damaged = copy.deepcopy(store)
    damaged.records[3].ppg[10] = np.nextafter(damaged.records[3].ppg[10], 0.0)
    with pytest.raises(checks.CheckFailed):
        checks.check_import(damaged, dropped, kept, planted)


def test_preprocessed_check(imported):
    store, _, kept, _ = imported
    prep = pipeline.preprocess_store(store.subset(range(4)))
    checks.check_preprocessed(prep, kept[:4])
    for damage in (lambda p: p * 1e3, lambda p: p + 1e-3):
        damaged = copy.deepcopy(prep)
        damaged.records[2].ppg = damage(damaged.records[2].ppg)
        with pytest.raises(checks.CheckFailed):
            checks.check_preprocessed(damaged, kept[:4])
    with pytest.raises(checks.CheckFailed):
        checks.check_same_store(prep, damaged, "read back")


def report_inputs(seed=0, n=40):
    rng = np.random.default_rng(seed)
    true = rng.uniform(60.0, 160.0, size=(n, 3))
    pred = true + rng.normal(scale=6.0, size=(n, 3))
    rows = [{"episode_index": str(i), "subject_id": f"s{i % 5}",
             "sbp_true": t[0], "dbp_true": t[1], "map_true": t[2],
             "sbp_pred": p[0], "dbp_pred": p[1], "map_pred": p[2],
             "waveform_mae": abs(float(rng.normal(scale=5.0))), "sqi": float(rng.normal())}
            for i, (t, p) in enumerate(zip(true, pred))]
    columns = {k: np.array([r[k] for r in rows]) for k in
               ("sbp_true", "dbp_true", "map_true", "sbp_pred", "dbp_pred", "map_pred", "waveform_mae")}
    return json.loads(evalstats.evaluate(rows).to_json()), columns


def test_report_check_catches_one_shifted_value():
    report, columns = report_inputs()
    checks.check_report(report, columns)
    for key in ("sbp_pred", "dbp_true", "map_pred", "waveform_mae"):
        shifted = {k: v.copy() for k, v in columns.items()}
        shifted[key][7] += 0.5
        with pytest.raises(checks.CheckFailed):
            checks.check_report(report, shifted)


def test_true_bp_check(imported):
    _, _, kept, _ = imported
    abp = np.stack([w[2] for w in kept])
    columns = {"sbp_true": abp.max(axis=1), "dbp_true": abp.min(axis=1), "map_true": abp.mean(axis=1)}
    checks.check_true_bp(columns, kept)
    columns["sbp_true"] = columns["sbp_true"].copy()
    columns["sbp_true"][4] += 1e-9
    with pytest.raises(checks.CheckFailed):
        checks.check_true_bp(columns, kept)


def test_signal_recordings_have_fixed_size_and_planted_windows():
    sizes = set()
    for seed in (0, 1, 2):
        recordings, kept, planted = inputs.signal_recordings(seed)
        sizes.add((sum(len(p) for _, p, _ in recordings), len(kept), planted))
        lengths = [len(p) for _, p, _ in recordings]
        assert len(set(lengths)) == len(lengths)
    assert len(sizes) == 1
