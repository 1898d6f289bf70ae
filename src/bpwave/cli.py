"""Command-line interface tying the modules into reproducible workflows.

Exit codes: 0 success, 1 usage error, 2 data/file error, 3 numerical
failure (including a failed gradient check). Diagnostics go to stderr,
results to files or stdout.
"""

import argparse
import os
import sys
from dataclasses import fields

from . import datapipe, evalstats, pipeline, trainer
from .tensorops import AdamConfig, NumericalError

DEFAULT_SEED = 1024  # fixed so every documented example is reproducible

# config-file keys and their defaults: the TrainConfig and AdamConfig fields,
# then the CLI's own seed and the two settings only the CLI uses
SETTING_DEFAULTS = {
    **{f.name: f.default for f in fields(trainer.TrainConfig) if f.name != "adam"},
    **{f.name: f.default for f in fields(AdamConfig)},
    "seed": DEFAULT_SEED,
    "width": 1.0,
    "val_fraction": 0.1,
}

STORE_FORMAT_HELP = (
    "episode store format (P2ABPDATA): 9-byte magic 'P2ABPDATA', u32 version (1), "
    "u32 episode count, f64 sampling rate, then per episode: u32 subject-id length, "
    "UTF-8 subject id, 1024 little-endian f64 PPG samples, 1024 f64 ABP samples. "
    "CSV import: header 'ppg,abp,subject_id', one row per sample; consecutive rows "
    "with one subject id form a recording that is cut into 1024-sample episodes."
)

STAGE_NAMES = {"approx": "approximation", "refine": "refinement"}

PREDICTIONS_FORMAT_HELP = f"predictions CSV columns: {', '.join(pipeline.PREDICTION_COLUMNS)}."

CONFIG_FORMAT_HELP = (
    "config file: 'key = value' lines ('#' comments) mirroring the training fields: "
    f"{', '.join(SETTING_DEFAULTS)}. Explicit command-line flags win."
)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="bpwave",
        description="Continuous blood-pressure waveform estimation from PPG signals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_training_flags(p, out_help):
        p.add_argument("--data", required=True, help="preprocessed training store")
        p.add_argument("--out", required=True, help=out_help)
        p.add_argument("--config", help="key = value config file")
        p.add_argument("--width", type=float, help="filter-width multiplier (default 1.0)")
        p.add_argument("--epochs", type=int, help="training epochs (default 100)")
        p.add_argument("--batch-size", type=int, help="minibatch size (default 32)")
        p.add_argument("--seed", type=int, help=f"random seed (default {DEFAULT_SEED})")

    p = sub.add_parser("synth", help="generate a synthetic episode store", epilog=STORE_FORMAT_HELP)
    p.add_argument("--n", type=int, required=True, help="number of episodes")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED, help=f"random seed (default {DEFAULT_SEED})")
    p.add_argument("--out", required=True, help="output store path (.p2a)")

    p = sub.add_parser(
        "preprocess",
        help="wavelet-denoise and mean-normalize the PPG channel of a store",
        epilog=STORE_FORMAT_HELP,
    )
    p.add_argument("--in", dest="input", required=True, help="input store (.p2a) or CSV (.csv)")
    p.add_argument("--out", required=True, help="output store path")

    p = sub.add_parser(
        "split",
        help="split a store into train/test (optionally bin-subsample first)",
        epilog="subsampling keeps min(round(fraction*n), cap) episodes per 10 mmHg "
        "(SBP, DBP) bin before the split. " + STORE_FORMAT_HELP,
    )
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--train-count", type=int, required=True)
    p.add_argument("--train-out", required=True)
    p.add_argument("--test-out", required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED, help=f"random seed (default {DEFAULT_SEED})")
    p.add_argument("--subsample", action="store_true", help="bin-subsample before splitting")
    p.add_argument("--subsample-fraction", type=float, default=0.25, help="per-bin keep fraction (default 0.25)")
    p.add_argument("--subsample-cap", type=int, default=2500, help="per-bin cap (default 2500)")

    p = sub.add_parser(
        "train",
        help="train the approximation and refinement networks, write a bundle",
        epilog=CONFIG_FORMAT_HELP + " Outputs: <out>/approx.ckpt, <out>/refine.ckpt, "
        "<out>/meta.json, <out>/approx_history.csv, <out>/refine_history.csv.",
    )
    add_training_flags(p, "bundle output directory")
    p.add_argument("--val-fraction", type=float, help="held-out fraction (default 0.1)")
    p.add_argument("--bn-refresh", action="store_true", default=None, help="one-pass BatchNorm statistics refresh")

    p = sub.add_parser(
        "cv",
        help="k-fold cross-validation; keeps the best fold's model",
        epilog=CONFIG_FORMAT_HELP,
    )
    add_training_flags(p, "output directory")
    p.add_argument("--k", type=int, default=10, help="number of folds (default 10)")
    p.add_argument("--which", choices=("approx", "both"), default="approx")

    p = sub.add_parser(
        "infer",
        help="run the pipeline over a store, write predictions CSV",
        epilog=PREDICTIONS_FORMAT_HELP + " --dump-waveforms writes per-episode "
        "paired-column CSVs (abp_true, abp_pred).",
    )
    p.add_argument("--bundle", required=True, help="trained bundle directory")
    p.add_argument("--data", required=True, help="raw episode store")
    p.add_argument("--out", required=True, help="predictions CSV path")
    p.add_argument("--dump-waveforms", help="directory for per-episode waveform CSVs")

    p = sub.add_parser(
        "evaluate",
        help="full evaluation battery over a predictions CSV",
        epilog=PREDICTIONS_FORMAT_HELP + " The JSON report carries MAE/STD, BHS "
        "grades, AAMI verdicts, agreement limits, Pearson r, classification "
        "metrics and SQI buckets; --figures writes histogram/agreement/regression CSVs.",
    )
    p.add_argument("--pred", required=True, help="predictions CSV")
    p.add_argument("--out", required=True, help="report JSON path")
    p.add_argument("--text", help="also write the human-readable report here")
    p.add_argument("--figures", help="directory for per-figure data CSVs")
    p.add_argument("--sqi-bins", type=int, default=10, help="quality-index buckets (default 10)")

    p = sub.add_parser(
        "gradcheck",
        help="finite-difference gradient report for both networks",
        epilog="exit 0 only if every parameter block stays below tolerance.",
    )
    p.add_argument("--width", type=float, default=1 / 16, help="width multiplier (default 1/16)")
    p.add_argument("--length", type=int, default=64, help="input length (default 64)")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED, help=f"random seed (default {DEFAULT_SEED})")
    p.add_argument("--per-block", type=int, default=32, help="entries sampled per block (0 = all)")
    p.add_argument("--tolerance", type=float, default=1e-3, help="relative error gate (default 1e-3)")

    p = sub.add_parser("stats", help="dataset statistics of a store", epilog=STORE_FORMAT_HELP)
    p.add_argument("data", help="episode store path")

    return parser


def _load_store(path):
    if str(path).lower().endswith(".csv"):
        store, dropped = datapipe.read_signal_csv(path)
        if dropped:
            print(f"dropped {dropped} window(s) violating sanity bounds", file=sys.stderr)
        return store
    return datapipe.read_store(path)


def parse_config_file(path):
    """key = value lines mirroring TrainConfig fields; # starts a comment."""
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw.rstrip()!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            values[key] = value
    return values


def _train_settings(args):
    """defaults <- config file <- explicit flags (flag dests are the keys)."""
    settings = dict(SETTING_DEFAULTS)
    if args.config:
        for key, raw in parse_config_file(args.config).items():
            if key not in settings:
                raise ValueError(f"unknown config key '{key}'")
            kind = type(settings[key])
            if kind is bool and raw.lower() not in ("true", "false"):
                raise ValueError(f"config key '{key}' must be true or false, got {raw!r}")
            settings[key] = raw.lower() == "true" if kind is bool else kind(raw)
    for key in settings:
        if getattr(args, key, None) is not None:
            settings[key] = getattr(args, key)
    adam = AdamConfig(**{f.name: settings.pop(f.name) for f in fields(AdamConfig)})
    width, val_fraction = settings.pop("width"), settings.pop("val_fraction")
    return trainer.TrainConfig(adam=adam, **settings).validate(), width, val_fraction


def _cmd_synth(args):
    store = datapipe.synth_generate(args.n, seed=args.seed)
    datapipe.write_store(args.out, store)
    print(f"wrote {len(store)} episodes to {args.out}")
    return 0


def _cmd_preprocess(args):
    store = _load_store(args.input)
    datapipe.write_store(args.out, pipeline.preprocess_store(store))
    print(f"preprocessed {len(store)} episodes into {args.out}")
    return 0


def _cmd_split(args):
    store = _load_store(args.input)
    if args.subsample:
        before = len(store)
        store = datapipe.bin_and_subsample(
            store, fraction=args.subsample_fraction, cap=args.subsample_cap, seed=args.seed
        )
        print(f"subsampled {before} -> {len(store)} episodes")
    train, test = datapipe.split_train_test(store, args.train_count, seed=args.seed)
    datapipe.write_store(args.train_out, train)
    datapipe.write_store(args.test_out, test)
    print(f"train: {len(train)} episodes -> {args.train_out}")
    print(f"test:  {len(test)} episodes -> {args.test_out}")
    return 0


def _split_validation(store, val_fraction, seed):
    if not 0.0 <= val_fraction < 1.0:
        raise ValueError(f"val_fraction must be in [0, 1), got {val_fraction}")
    if val_fraction == 0.0 or len(store) < 4:
        return store, None
    n_val = max(1, int(round(val_fraction * len(store))))
    if len(store) - n_val < 2:
        return store, None
    return datapipe.split_train_test(store, len(store) - n_val, seed=seed)


def _cmd_train(args):
    store = _load_store(args.data)
    config, width, val_fraction = _train_settings(args)
    train_store, val_store = _split_validation(store, val_fraction, config.seed)
    networks = {}
    for stage, network, result in trainer.train_cascade(train_store, val_store, config, width):
        os.makedirs(args.out, exist_ok=True)
        trainer.write_history_csv(os.path.join(args.out, f"{stage}_history.csv"), result.history)
        print(f"{STAGE_NAMES[stage]}: best epoch {result.best_epoch}, score {result.best_score:.4f}")
        networks[stage] = network
    pipeline.save_bundle(pipeline.PipelineBundle(networks["approx"], networks["refine"]), args.out)
    print(f"bundle written to {args.out}")
    return 0


def _cmd_cv(args):
    store = _load_store(args.data)
    config, width, _ = _train_settings(args)
    result = trainer.cross_validate(store, config, k=args.k, which=args.which, width=width)
    os.makedirs(args.out, exist_ok=True)
    for fold, history in enumerate(result.histories):
        for stage, stage_history in history.items():
            trainer.write_history_csv(
                os.path.join(args.out, f"fold{fold:02d}_{stage}_history.csv"), stage_history
            )
    with open(os.path.join(args.out, "cv_summary.csv"), "w") as fh:
        fh.write("fold,score,selected\n")
        for fold, score in enumerate(result.fold_scores):
            fh.write(f"{fold},{score!r},{int(fold == result.selected_fold)}\n")
    trainer.save_checkpoint(result.approx_network, os.path.join(args.out, "best_approx.ckpt"))
    if result.refine_network is not None:
        trainer.save_checkpoint(result.refine_network, os.path.join(args.out, "best_refine.ckpt"))
    print(f"selected fold {result.selected_fold} (score {result.fold_scores[result.selected_fold]:.4f})")
    return 0


def _cmd_infer(args):
    bundle = pipeline.load_bundle(args.bundle)
    store = _load_store(args.data)
    rows, failures = pipeline.batch_predict(bundle, store)
    for index, message in failures:
        print(f"episode {index} skipped: {message}", file=sys.stderr)
    pipeline.write_predictions_csv(args.out, rows)
    if args.dump_waveforms:
        os.makedirs(args.dump_waveforms, exist_ok=True)
        for row in rows:
            pipeline.write_waveform_csv(
                os.path.join(args.dump_waveforms, f"episode_{row.index:06d}.csv"),
                store[row.index].abp,
                row.pred_abp,
            )
    print(f"{len(rows)} predictions -> {args.out} ({len(failures)} skipped)")
    return 0


def _cmd_evaluate(args):
    rows = evalstats.load_predictions(args.pred)
    report = evalstats.evaluate(rows, sqi_bins=args.sqi_bins)
    with open(args.out, "w") as fh:
        fh.write(report.to_json())
        fh.write("\n")
    if args.text:
        with open(args.text, "w") as fh:
            fh.write(report.to_text())
            fh.write("\n")
    if args.figures:
        evalstats.write_figure_data(rows, args.figures)
    print(report.to_text())
    return 0


def _cmd_gradcheck(args):
    reports = trainer.network_gradient_report(
        width=args.width,
        input_length=args.length,
        seed=args.seed,
        per_block=args.per_block if args.per_block > 0 else None,
        tolerance=args.tolerance,
    )
    ok = True
    for name, report in reports.items():
        print(f"== {name} (max rel err {report.max_rel_error:.3e})")
        print(report.format())
        ok = ok and report.passed(args.tolerance)
    if not ok:
        print("gradient check FAILED", file=sys.stderr)
        return 3
    print(f"all blocks below tolerance {args.tolerance:g}")
    return 0


def _cmd_stats(args):
    print(datapipe.dataset_stats(_load_store(args.data)).format())
    return 0


_COMMANDS = {
    "synth": _cmd_synth,
    "preprocess": _cmd_preprocess,
    "split": _cmd_split,
    "train": _cmd_train,
    "cv": _cmd_cv,
    "infer": _cmd_infer,
    "evaluate": _cmd_evaluate,
    "gradcheck": _cmd_gradcheck,
    "stats": _cmd_stats,
}


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return _COMMANDS[args.command](args)
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, FileNotFoundError, IsADirectoryError, NotADirectoryError) as exc:
        # ValueError covers ContainerFormatError
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint():
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
