"""The reproducibility contract: bitwise for one numpy/BLAS build at one BLAS
thread count, within a stated bound across thread counts.

Each run is a fresh interpreter with OPENBLAS_NUM_THREADS set before numpy
loads, so the BLAS thread count is the one named. Two threads is the most a
2-core machine can test: OpenBLAS caps its threads at the core count.
"""

import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

SRC = str(pathlib.Path(__file__).resolve().parents[1] / "src")

# Across thread counts, OpenBLAS may split a product's sums differently for
# some shapes. Predictions are compared in mmHg; the gradients of a train step
# relative to the largest gradient entry of their network, since the gradient
# of a conv bias that a batch normalization cancels is rounding noise of any size.
PREDICTION_BOUND_MMHG = 1e-10
GRADIENT_BOUND = 1e-12

PROBE = r"""
import sys
import numpy as np
from bpwave import datapipe, models, pipeline, trainer
from bpwave.tensorops import Adam, mae_loss, mse_loss

out = {}
# one seeded desk-width train step of each network, batch 16
store = datapipe.synth_generate(16, seed=3)
x, y = trainer.episodes_to_arrays(pipeline.preprocess_store(store))
for tag, build, config, loss, refine in (
    ("approx", models.build_unet1d, models.UNet1DConfig, mae_loss, False),
    ("refine", models.build_multiresunet1d, models.MultiResUNet1DConfig, mse_loss, True),
):
    net = build(config.scaled(1 / 16, input_length=1024), seed=7)
    trainer.calibrate_network(net, y, inputs=x if refine else None)
    weights = (1.0,) if refine else net.config.deep_supervision_weights
    total, g_final, g_aux = trainer.deep_supervised_loss(net.forward(x, mode="train"), y, weights, loss)
    net.backward(g_final, g_aux)
    out[f"{tag}.loss"] = np.array(total)
    for name, _, grad in net.param_blocks():
        out[f"{tag}.grad.{name}"] = grad.copy()
    Adam().step(net.param_blocks())
    for name, param in net.checkpoint_entries():
        out[f"{tag}.step.{name}"] = param
# a paper-width batch_predict of 4 synthetic episodes
approx = models.build_unet1d(models.UNet1DConfig.scaled(1.0, input_length=1024), seed=11)
refine = models.build_multiresunet1d(models.MultiResUNet1DConfig.scaled(1.0, input_length=1024), seed=12)
approx.set_calibration(output_scale=25.0, output_offset=95.0)
refine.set_calibration(input_scale=25.0, input_offset=95.0, output_scale=25.0, output_offset=95.0)
rows, failures = pipeline.batch_predict(pipeline.PipelineBundle(approx, refine), datapipe.synth_generate(4, seed=13))
assert not failures, failures
out["predictions"] = np.stack([row.pred_abp for row in rows])
np.savez(sys.argv[1], **out)
"""


def run_probe(path, threads):
    env = dict(os.environ, PYTHONPATH=SRC)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    result = subprocess.run(
        [sys.executable, "-c", PROBE, str(path)], env=env, capture_output=True, text=True, timeout=600
    )
    assert result.returncode == 0, result.stderr
    with np.load(path) as data:
        return dict(data)


@pytest.fixture(scope="module")
def probe_runs(tmp_path_factory):
    """Two runs at one BLAS thread and two at two threads."""
    tmp = tmp_path_factory.mktemp("reproducibility")
    return {
        (threads, rep): run_probe(tmp / f"t{threads}-r{rep}.npz", threads)
        for threads in (1, 2)
        for rep in (0, 1)
    }


@pytest.mark.parametrize("threads", [1, 2])
def test_repeat_at_one_thread_count_is_bitwise(probe_runs, threads):
    first, second = probe_runs[threads, 0], probe_runs[threads, 1]
    assert first.keys() == second.keys()
    for key in first:
        assert first[key].tobytes() == second[key].tobytes(), key


def test_thread_counts_agree_within_the_stated_bound(probe_runs):
    one, two = probe_runs[1, 0], probe_runs[2, 0]
    assert one.keys() == two.keys()
    pred_gap = np.abs(one["predictions"] - two["predictions"]).max()
    assert pred_gap <= PREDICTION_BOUND_MMHG, pred_gap
    assert np.isfinite(one["predictions"]).all()
    for tag in ("approx", "refine"):
        loss_one, loss_two = float(one[f"{tag}.loss"]), float(two[f"{tag}.loss"])
        assert abs(loss_one - loss_two) <= GRADIENT_BOUND * abs(loss_one), tag
        grads = [key for key in one if key.startswith(f"{tag}.grad.")]
        scale = max(np.abs(one[key]).max() for key in grads)
        assert scale > 0.0
        for key in grads:
            assert np.abs(one[key] - two[key]).max() <= GRADIENT_BOUND * scale, key
