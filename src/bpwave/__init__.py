"""bpwave: continuous arterial blood pressure waveforms from PPG signals.

Submodules
----------
sigproc    wavelet denoising, normalization, signal quality index
tensorops  differentiable 1D layers, losses, Adam, gradient checking
models     the approximation (U-Net) and refinement (MultiResUNet) networks
datapipe   episode extraction, SBP/DBP/MAP extraction, binning, storage, synthesis
trainer    loss assembly, training loops, cross-validation, checkpoints
pipeline   end-to-end inference, bundles and prediction tables
evalstats  BHS/AAMI grading, agreement statistics, classification reports
cli        command-line entry point
"""

from . import cli, container, datapipe, evalstats, models, pipeline, sigproc, tensorops, trainer

__version__ = "0.1.0"

__all__ = [
    "cli",
    "container",
    "datapipe",
    "evalstats",
    "models",
    "pipeline",
    "sigproc",
    "tensorops",
    "trainer",
]
