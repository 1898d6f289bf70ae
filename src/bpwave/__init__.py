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

import importlib

# cli is imported on first use, not here: `python -m bpwave.cli` runs the module
# as __main__ and warns if the package import already loaded it
from . import container, datapipe, evalstats, models, pipeline, sigproc, tensorops, trainer

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


def __getattr__(name):
    if name == "cli":
        return importlib.import_module(f"{__name__}.cli")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
