"""Command-line interface tying the modules into reproducible workflows.

Exit codes: 0 success, 1 usage error, 2 data/file error, 3 numerical
failure (including a failed gradient check). Diagnostics go to stderr,
results to files or stdout.
"""

import argparse
import os
import sys

from . import datapipe, evalstats, models, pipeline, trainer
from .container import ContainerFormatError
from .tensorops import AdamConfig, NumericalError

DEFAULT_SEED = 1024  # fixed so every documented example is reproducible

STORE_FORMAT_HELP = (
    "episode store format (P2ABPDATA): 9-byte magic 'P2ABPDATA', u32 version (1), "
    "u32 episode count, f64 sampling rate, then per episode: u32 subject-id length, "
    "UTF-8 subject id, 1024 little-endian f64 PPG samples, 1024 f64 ABP samples. "
    "CSV import: header 'ppg,abp,subject_id', one row per sample; consecutive rows "
    "with one subject id form a recording that is cut into 1024-sample episodes."
)

PREDICTIONS_FORMAT_HELP = (
    "predictions CSV columns: episode_index, subject_id, sbp_true, dbp_true, "
    "map_true, sbp_pred, dbp_pred, map_pred, waveform_mae, sqi."
)

CONFIG_FORMAT_HELP = (
    "config file: 'key = value' lines ('#' comments) mirroring the training fields: "
    "epochs, batch_size, approx_loss, refine_loss, seed, learning_rate, beta1, beta2, "
    "epsilon, bn_refresh_passes, width, val_fraction. Explicit command-line flags win."
)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="bpwave",
        description="Continuous blood-pressure waveform estimation from PPG signals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name, **kwargs):
        return sub.add_parser(name, **kwargs)

    p = add_command("synth", help="generate a synthetic episode store", epilog=STORE_FORMAT_HELP)
    p.add_argument("--n", type=int, required=True, help="number of episodes")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED, help=f"random seed (default {DEFAULT_SEED})")
    p.add_argument("--out", required=True, help="output store path (.p2a)")

    p = add_command(
        "preprocess",
        help="wavelet-denoise and mean-normalize the PPG channel of a store",
        epilog=STORE_FORMAT_HELP,
    )
    p.add_argument("--in", dest="input", required=True, help="input store (.p2a) or CSV (.csv)")
    p.add_argument("--out", required=True, help="output store path")

    p = add_command(
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

    p = add_command(
        "train",
        help="train the approximation and refinement networks, write a bundle",
        epilog=CONFIG_FORMAT_HELP + " Outputs: <out>/approx.ckpt, <out>/refine.ckpt, "
        "<out>/meta.json, <out>/approx_history.csv, <out>/refine_history.csv.",
    )
    p.add_argument("--data", required=True, help="preprocessed training store")
    p.add_argument("--out", required=True, help="bundle output directory")
    p.add_argument("--config", help="key = value config file")
    p.add_argument("--width", type=float, default=None, help="filter-width multiplier (default 1.0)")
    p.add_argument("--epochs", type=int, default=None, help="training epochs (default 100)")
    p.add_argument("--batch-size", type=int, default=None, help="minibatch size (default 32)")
    p.add_argument("--seed", type=int, default=None, help=f"random seed (default {DEFAULT_SEED})")
    p.add_argument("--val-fraction", type=float, default=None, help="held-out fraction (default 0.1)")
    p.add_argument("--bn-refresh", type=int, default=None, help="post-training stat passes")

    p = add_command(
        "cv",
        help="k-fold cross-validation; keeps the best fold's model",
        epilog=CONFIG_FORMAT_HELP,
    )
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--k", type=int, default=10, help="number of folds (default 10)")
    p.add_argument("--which", choices=("approx", "both"), default="approx")
    p.add_argument("--config", help="key = value config file")
    p.add_argument("--width", type=float, default=None)
    p.add_argument("--epochs", type=int, default=None, help="training epochs (default 100)")
    p.add_argument("--batch-size", type=int, default=None, help="minibatch size (default 32)")
    p.add_argument("--seed", type=int, default=None, help=f"random seed (default {DEFAULT_SEED})")

    p = add_command(
        "infer",
        help="run the pipeline over a store, write predictions CSV",
        epilog=PREDICTIONS_FORMAT_HELP + " --dump-waveforms writes per-episode "
        "paired-column CSVs (abp_true, abp_pred).",
    )
    p.add_argument("--bundle", required=True, help="trained bundle directory")
    p.add_argument("--data", required=True, help="raw episode store")
    p.add_argument("--out", required=True, help="predictions CSV path")
    p.add_argument("--dump-waveforms", help="directory for per-episode waveform CSVs")

    p = add_command(
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

    p = add_command(
        "gradcheck",
        help="finite-difference gradient report for both networks",
        epilog="exit 0 only if every parameter block stays below tolerance.",
    )
    p.add_argument("--width", type=float, default=1 / 16, help="width multiplier (default 1/16)")
    p.add_argument("--length", type=int, default=64, help="input length (default 64)")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED, help=f"random seed (default {DEFAULT_SEED})")
    p.add_argument("--per-block", type=int, default=32, help="entries sampled per block (0 = all)")
    p.add_argument("--tolerance", type=float, default=1e-3, help="relative error gate (default 1e-3)")

    p = add_command("stats", help="dataset statistics of a store", epilog=STORE_FORMAT_HELP)
    p.add_argument("data", help="episode store path")

    return parser


def _load_store(path):
    if str(path).endswith(".csv"):
        store, dropped = datapipe.read_signal_csv(path)
        if dropped:
            print(f"dropped {dropped} window(s) violating sanity bounds", file=sys.stderr)
        return store
    return datapipe.read_store(path)


def _train_settings(args):
    """defaults <- config file <- explicit flags."""
    settings = {
        "epochs": 100,
        "batch_size": 32,
        "approx_loss": "mae",
        "refine_loss": "mse",
        "seed": DEFAULT_SEED,
        "learning_rate": 0.001,
        "beta1": 0.9,
        "beta2": 0.999,
        "epsilon": 1e-8,
        "bn_refresh_passes": 0,
        "width": 1.0,
        "val_fraction": 0.1,
    }
    casts = {k: type(v) for k, v in settings.items()}
    if getattr(args, "config", None):
        for key, raw in trainer.parse_config_file(args.config).items():
            if key not in settings:
                raise ValueError(f"unknown config key '{key}'")
            settings[key] = casts[key](raw) if casts[key] is not str else raw
    for flag, key in (
        ("epochs", "epochs"),
        ("batch_size", "batch_size"),
        ("seed", "seed"),
        ("width", "width"),
        ("val_fraction", "val_fraction"),
        ("bn_refresh", "bn_refresh_passes"),
    ):
        value = getattr(args, flag, None)
        if value is not None:
            settings[key] = value
    config = trainer.TrainConfig(
        epochs=settings["epochs"],
        batch_size=settings["batch_size"],
        approx_loss=settings["approx_loss"],
        refine_loss=settings["refine_loss"],
        adam=AdamConfig(
            learning_rate=settings["learning_rate"],
            beta1=settings["beta1"],
            beta2=settings["beta2"],
            epsilon=settings["epsilon"],
        ),
        seed=settings["seed"],
        bn_refresh_passes=settings["bn_refresh_passes"],
    ).validate()
    return config, settings["width"], settings["val_fraction"]


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
    if val_fraction <= 0.0 or len(store) < 4:
        return store, None
    n_val = max(1, int(round(val_fraction * len(store))))
    if len(store) - n_val < 2:
        return store, None
    train, val = datapipe.split_train_test(store, len(store) - n_val, seed=seed)
    return train, val


def _cmd_train(args):
    store = _load_store(args.data)
    config, width, val_fraction = _train_settings(args)
    train_store, val_store = _split_validation(store, val_fraction, config.seed)

    approx = models.build_unet1d(models.UNet1DConfig.scaled(width), seed=config.seed)
    result = trainer.train_network(approx, train_store, val_store, config, which="approx")
    os.makedirs(args.out, exist_ok=True)
    trainer.write_history_csv(os.path.join(args.out, "approx_history.csv"), result.history)
    print(f"approximation: best epoch {result.best_epoch}, score {result.best_score:.4f}")

    refine = models.build_multiresunet1d(models.MultiResUNet1DConfig.scaled(width), seed=config.seed)
    refine_result = trainer.train_network(
        refine, train_store, val_store, config, which="refine", approx_network=approx
    )
    trainer.write_history_csv(os.path.join(args.out, "refine_history.csv"), refine_result.history)
    print(f"refinement: best epoch {refine_result.best_epoch}, score {refine_result.best_score:.4f}")

    pipeline.save_bundle(
        pipeline.PipelineBundle(approx_network=approx, refine_network=refine), args.out
    )
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
    report = evalstats.evaluation_report(args.pred, sqi_bins=args.sqi_bins)
    with open(args.out, "w") as fh:
        fh.write(report.to_json())
        fh.write("\n")
    if args.text:
        with open(args.text, "w") as fh:
            fh.write(report.to_text())
            fh.write("\n")
    if args.figures:
        evalstats.write_figure_data(evalstats.load_predictions(args.pred), args.figures)
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
    except (ContainerFormatError, FileNotFoundError, IsADirectoryError, NotADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint():
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
