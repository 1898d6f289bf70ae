"""End-to-end inference: preprocess PPG, approximate, refine, extract BP."""

import csv
import json
import os
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import datapipe, models, sigproc, tensorops, trainer
from .datapipe import BPValues, extract_bp

BUNDLE_VERSION = 1
BUNDLE_META = "meta.json"
BUNDLE_APPROX = "approx.ckpt"
BUNDLE_REFINE = "refine.ckpt"


def waveform_mae(pred, truth):
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if pred.shape != truth.shape:
        raise ValueError(f"waveform shapes differ: {pred.shape} vs {truth.shape}")
    return float(np.mean(np.abs(pred - truth)))


def preprocess_ppg(ppg):
    """The training-time input conditioning: wavelet denoise, then center.
    Takes one window or a (B, L) stack, conditioned row by row."""
    return sigproc.mean_normalize(sigproc.denoise(ppg))


def preprocess_store(store):
    """Apply the PPG conditioning across a store in one stacked call; ABP passes through."""
    ppg = np.array([rec.ppg for rec in store], dtype=np.float64)
    conditioned = preprocess_ppg(ppg.reshape(len(store), datapipe.EPISODE_SAMPLES))
    records = [
        datapipe.EpisodeRecord(x, rec.abp.copy(), rec.subject_id)
        for x, rec in zip(conditioned, store)
    ]
    return datapipe.EpisodeStore(records, fs=store.fs)


@dataclass
class PipelineBundle:
    approx_network: object
    refine_network: object
    preprocess: bool = True

    def input_length(self):
        return self.approx_network.config.input_length


# one row per stage: its meta.json section (and PipelineBundle attribute
# prefix), checkpoint file, config class and models builder, the last looked
# up at call time so a wrapped or patched builder is the one called
_STAGES = (
    ("approx", BUNDLE_APPROX, models.UNet1DConfig, "build_unet1d"),
    ("refine", BUNDLE_REFINE, models.MultiResUNet1DConfig, "build_multiresunet1d"),
)


def save_bundle(bundle, directory):
    """meta.json holds each network's config, field by field, beside its checkpoint."""
    os.makedirs(directory, exist_ok=True)
    meta = {"format_version": BUNDLE_VERSION, "fs": datapipe.STORE_FS, "preprocess": bundle.preprocess}
    for stage, checkpoint, *_ in _STAGES:
        network = getattr(bundle, f"{stage}_network")
        meta[stage] = asdict(network.config)
        trainer.save_checkpoint(network, os.path.join(directory, checkpoint))
    with open(os.path.join(directory, BUNDLE_META), "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _is_positive_int(value):
    return isinstance(value, int) and not isinstance(value, bool) and value > 0


def _read_meta(directory):
    """meta.json, with every config field of every stage checked for presence
    and type: a tuple field is a non-empty list of positive integers, an int
    field a positive integer."""
    with open(os.path.join(directory, BUNDLE_META)) as fh:
        meta = json.load(fh)
    if not isinstance(meta, dict):
        raise ValueError(f"{BUNDLE_META} must hold a JSON object, got {type(meta).__name__}")
    if meta.get("format_version") != BUNDLE_VERSION:
        raise ValueError(f"unsupported bundle version {meta.get('format_version')}")
    if meta.get("fs") != datapipe.STORE_FS:
        raise ValueError(f"{BUNDLE_META}: sampling rate must be {datapipe.STORE_FS} Hz, got {meta.get('fs')!r}")
    if not isinstance(meta.get("preprocess", True), bool):
        raise ValueError(f"{BUNDLE_META}: 'preprocess' must be true or false")
    for stage, _, config_class, _ in _STAGES:
        part = meta.get(stage)
        if not isinstance(part, dict):
            raise ValueError(f"{BUNDLE_META}: '{stage}' must be an object")
        for f in fields(config_class):
            value = part.get(f.name)
            if f.type is tuple and not (isinstance(value, list) and value and all(map(_is_positive_int, value))):
                raise ValueError(f"{BUNDLE_META}: '{stage}.{f.name}' must be a non-empty list of positive integers")
            if f.type is int and not _is_positive_int(value):
                raise ValueError(f"{BUNDLE_META}: '{stage}.{f.name}' must be a positive integer")
    approx_length, refine_length = meta["approx"]["input_length"], meta["refine"]["input_length"]
    if approx_length != refine_length:
        raise ValueError(f"{BUNDLE_META}: 'approx.input_length' {approx_length} and "
                         f"'refine.input_length' {refine_length} differ")
    return meta


def load_bundle(directory):
    """Read both checkpoints, then build both networks without drawing any
    weights and fill them: each weight is written once, by the file read,
    into the array the layer keeps. Each width meta.json declares (an entry
    of a tuple field) is some checkpoint entry's length in a valid bundle,
    so a wider one fails here, before it sizes any array."""
    meta = _read_meta(directory)
    entries = {stage: tensorops.read_checkpoint(os.path.join(directory, checkpoint))
               for stage, checkpoint, *_ in _STAGES}
    for stage, checkpoint, config_class, _ in _STAGES:
        widest = max((max(arr.shape, default=0) for _, arr in entries[stage]), default=0)
        for f in fields(config_class):
            declared = max(meta[stage][f.name]) if f.type is tuple else 0
            if declared > widest:
                raise ValueError(f"{BUNDLE_META}: '{stage}.{f.name}' declares width {declared}, "
                                 f"but no entry of {checkpoint} is longer than {widest}")
    networks = {}
    for stage, _, config_class, builder in _STAGES:
        config = config_class(**{f.name: f.type(meta[stage][f.name]) for f in fields(config_class)})
        network = networks[f"{stage}_network"] = getattr(models, builder)(config, seed=None)
        network.load_state(entries.pop(stage))
    return PipelineBundle(**networks, preprocess=meta.get("preprocess", True))


_EPISODE_ERRORS = (ValueError, tensorops.ShapeError, tensorops.NumericalError)


def _checked_window(bundle, ppg):
    """One PPG window, checked for the network's input length and finite samples."""
    ppg = np.asarray(ppg, dtype=np.float64)
    length = bundle.input_length()
    if ppg.shape != (length,):
        raise ValueError(f"expected a 1-D window of {length} samples, got shape {ppg.shape}")
    if not np.all(np.isfinite(ppg)):
        raise ValueError("input contains non-finite samples")
    return ppg


def _network_inputs(bundle, windows):
    """(B, L) checked windows, conditioned as in training."""
    return preprocess_ppg(windows) if bundle.preprocess else windows


def _cascade(bundle, x):
    """(B, L) conditioned windows to (B, L) predicted pressure (mmHg), each
    network run by trainer.predict_batched. Each row is bitwise that window's
    alone, whatever the core count, so a non-finite row (from a NaN weight,
    say) leaves the others unchanged; an infer-mode forward raises only for
    a shape, which every row shares."""
    rough = trainer.predict_batched(bundle.approx_network, x[:, None, :])
    return trainer.predict_batched(bundle.refine_network, rough)[:, 0]


def _check_finite(pred):
    if not np.all(np.isfinite(pred)):
        raise tensorops.NumericalError("predicted waveform contains non-finite samples")


def predict_waveform(bundle, ppg):
    """Predict the pressure waveform for one PPG window (mmHg); NumericalError
    if any predicted sample is non-finite."""
    pred = _cascade(bundle, _network_inputs(bundle, _checked_window(bundle, ppg)[None]))[0]
    _check_finite(pred)
    return pred


@dataclass
class PredictionRow:
    index: int
    subject_id: str
    true_bp: BPValues
    pred_bp: BPValues
    waveform_mae: float
    sqi: float
    pred_abp: np.ndarray


def _conditioned_inputs(bundle, windows, failures):
    """index -> network input for each checked window of an index -> window map.

    One conditioning call over all the windows; its rows are independent, so
    each is bitwise the row that window's own call gives. If that call raises,
    each window is conditioned alone, and only those that fail drop out,
    into failures.
    """
    if not windows:
        return {}
    try:
        return dict(zip(windows, _network_inputs(bundle, np.stack(list(windows.values())))))
    except _EPISODE_ERRORS:
        pass
    inputs = {}
    for i, x in windows.items():
        try:
            inputs[i] = _network_inputs(bundle, x[None])[0]
        except _EPISODE_ERRORS as exc:
            failures.append((i, str(exc)))
    return inputs


def batch_predict(bundle, store):
    """Run the pipeline over a store; failing episodes are skipped, not fatal.

    Every episode is validated on its own, then the valid ones are
    conditioned in one call and run through one cascade pass. An episode
    whose predicted row is non-finite fails alone, with predict_waveform's
    message; an exception raised by a network propagates. Every row is
    bitwise what predict_waveform gives for its episode alone. Returns
    (rows, failures) where failures is a list of (index, message) in
    episode order.
    """
    rows = []
    failures = []
    windows = {}
    for i, rec in enumerate(store):
        try:
            windows[i] = _checked_window(bundle, rec.ppg)
        except ValueError as exc:
            failures.append((i, str(exc)))
    inputs = _conditioned_inputs(bundle, windows, failures)
    preds = _cascade(bundle, np.stack(list(inputs.values()))) if inputs else ()
    for i, pred in zip(inputs, preds):
        rec = store[i]
        try:
            _check_finite(pred)
            rows.append(
                PredictionRow(
                    index=i,
                    subject_id=rec.subject_id,
                    true_bp=extract_bp(rec.abp),
                    pred_bp=extract_bp(pred),
                    waveform_mae=waveform_mae(pred, rec.abp),
                    sqi=sigproc.skewness_sqi(rec.ppg),
                    pred_abp=pred,
                )
            )
        except _EPISODE_ERRORS as exc:
            failures.append((i, str(exc)))
    failures.sort(key=lambda failure: failure[0])
    return rows, failures


PREDICTION_COLUMNS = [
    "episode_index",
    "subject_id",
    "sbp_true",
    "dbp_true",
    "map_true",
    "sbp_pred",
    "dbp_pred",
    "map_pred",
    "waveform_mae",
    "sqi",
]


def write_predictions_csv(path, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(PREDICTION_COLUMNS)
        for row in rows:
            writer.writerow(
                [
                    row.index,
                    row.subject_id,
                    repr(row.true_bp.sbp),
                    repr(row.true_bp.dbp),
                    repr(row.true_bp.map),
                    repr(row.pred_bp.sbp),
                    repr(row.pred_bp.dbp),
                    repr(row.pred_bp.map),
                    repr(row.waveform_mae),
                    repr(row.sqi),
                ]
            )


def write_waveform_csv(path, truth, pred):
    """Paired-column dump of one episode's true and predicted waveforms."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["abp_true", "abp_pred"])
        for t, p in zip(truth, pred):
            writer.writerow([repr(float(t)), repr(float(p))])
