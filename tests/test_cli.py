import json
import os
import pathlib
import subprocess
import sys
from dataclasses import fields

import numpy as np
import pytest

import bpwave
from bpwave import datapipe, evalstats, models, pipeline, trainer
from bpwave.cli import _build_parser, _train_settings, main
from bpwave.tensorops import AdamConfig


def run(*argv):
    return main(list(argv))


@pytest.fixture(scope="module")
def synth_store(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "d.p2a"
    assert run("synth", "--n", "24", "--seed", "7", "--out", str(path)) == 0
    return path


def test_synth_then_stats(synth_store, capsys):
    assert run("stats", str(synth_store)) == 0
    out = capsys.readouterr().out
    assert "DBP" in out and "MAP" in out and "SBP" in out and "Mean" in out


def test_synth_deterministic_outputs(tmp_path):
    a, b = tmp_path / "a.p2a", tmp_path / "b.p2a"
    assert run("synth", "--n", "6", "--seed", "3", "--out", str(a)) == 0
    assert run("synth", "--n", "6", "--seed", "3", "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_unknown_flag_exits_1(capsys):
    assert run("synth", "--n", "4", "--frobnicate") == 1


def test_missing_command_exits_1():
    assert run() == 1


def test_help_exits_0(capsys):
    assert run("--help") == 0
    for cmd in ("synth", "preprocess", "split", "train", "cv", "infer", "evaluate", "gradcheck", "stats"):
        assert run(cmd, "--help") == 0
        text = capsys.readouterr().out
        assert "--" in text or cmd == "stats"


def test_run_as_module_without_warnings():
    """`python -m bpwave.cli` loads the package first; that must not load cli."""
    src = str(pathlib.Path(bpwave.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "bpwave.cli", "--help"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert result.returncode == 0 and result.stderr == ""
    assert "usage" in result.stdout


def test_missing_file_exits_2(tmp_path):
    assert run("stats", str(tmp_path / "nope.p2a")) == 2


def test_corrupt_store_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.p2a"
    bad.write_bytes(b"NOTASTORE" + b"\x00" * 20)
    assert run("stats", str(bad)) == 2
    assert "error" in capsys.readouterr().err


def _malformed(path, value):
    """A malform that sets (or, for value None, deletes) the meta.json key at path."""

    def malform(meta):
        *parents, key = path
        part = meta
        for name in parents:
            part = part[name]
        if value is None:
            del part[key]
        else:
            part[key] = value
        return meta

    return malform


def _malformed_field(stage, field, value):
    kind = "a non-empty list of positive integers" if field != "input_length" else "a positive integer"
    return _malformed((stage, field), value), f"meta.json: '{stage}.{field}' must be {kind}"


@pytest.mark.parametrize(
    "malform, message",
    [
        (_malformed(("refine",), None), "meta.json: 'refine' must be an object"),
        (lambda meta: [meta], "meta.json must hold a JSON object, got list"),
        _malformed_field("approx", "input_length", "1024"),
        (_malformed(("fs",), 250.0), "meta.json: sampling rate must be 125.0 Hz, got 250.0"),
        (_malformed(("approx",), 3), "meta.json: 'approx' must be an object"),
        _malformed_field("approx", "filters_per_level", None),
        _malformed_field("approx", "filters_per_level", []),
        _malformed_field("approx", "filters_per_level", [4, 8, 0, 32, 64]),
        _malformed_field("approx", "filters_per_level", [4, 8, True, 32, 64]),
        _malformed_field("approx", "input_length", None),
        _malformed_field("approx", "input_length", 0),
        _malformed_field("refine", "base_widths", None),
        _malformed_field("refine", "base_widths", "2, 4"),
        _malformed_field("refine", "base_widths", [2, 4.0, 8, 16, 32]),
        _malformed_field("refine", "input_length", None),
        _malformed_field("refine", "input_length", -1024),
        _malformed_field("refine", "input_length", 1024.0),
    ],
    ids=[
        "missing-refine", "top-level-list", "string-input-length", "fs-250", "approx-not-object",
        "missing-filters", "empty-filters", "zero-filter", "bool-filter", "missing-approx-length",
        "zero-approx-length", "missing-base-widths", "string-base-widths", "float-base-width",
        "missing-refine-length", "negative-refine-length", "float-refine-length",
    ],
)
def test_infer_with_malformed_bundle_meta_exits_2(tmp_path, synth_store, capsys, malform, message):
    meta = {
        "format_version": 1,
        "fs": 125.0,
        "preprocess": True,
        "approx": {"filters_per_level": [4, 8, 16, 32, 64], "input_length": 1024},
        "refine": {"base_widths": [2, 4, 8, 16, 32], "input_length": 1024},
    }
    (tmp_path / "meta.json").write_text(json.dumps(malform(meta)))
    argv = ("infer", "--bundle", str(tmp_path), "--data", str(synth_store), "--out", str(tmp_path / "p.csv"))
    assert run(*argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_infer_rejects_a_declared_width_before_allocating_it(tmp_path, synth_store, capsys):
    """A width of 2^40 channels would ask for terabytes: it fails as a data
    error naming meta.json, before any network is built."""
    pipeline.save_bundle(
        pipeline.PipelineBundle(
            models.build_unet1d(models.UNet1DConfig.scaled(1 / 16), seed=1),
            models.build_multiresunet1d(models.MultiResUNet1DConfig.scaled(1 / 16), seed=1),
        ),
        tmp_path,
    )
    meta = json.loads((tmp_path / "meta.json").read_text())
    meta["approx"]["filters_per_level"][0] = 1 << 40
    (tmp_path / "meta.json").write_text(json.dumps(meta))
    argv = ("infer", "--bundle", str(tmp_path), "--data", str(synth_store), "--out", str(tmp_path / "p.csv"))
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert "meta.json" in err and "'approx.filters_per_level'" in err
    assert not (tmp_path / "p.csv").exists()


def test_preprocess_and_split(synth_store, tmp_path):
    prep = tmp_path / "prep.p2a"
    assert run("preprocess", "--in", str(synth_store), "--out", str(prep)) == 0
    store = datapipe.read_store(prep)
    assert all(abs(rec.ppg.mean()) < 1e-9 for rec in store)

    train, test = tmp_path / "train.p2a", tmp_path / "test.p2a"
    assert (
        run(
            "split", "--in", str(prep), "--train-count", "16",
            "--train-out", str(train), "--test-out", str(test), "--seed", "5",
        )
        == 0
    )
    assert len(datapipe.read_store(train)) == 16
    assert len(datapipe.read_store(test)) == 8


def test_split_subsample(synth_store, tmp_path):
    train, test = tmp_path / "tr.p2a", tmp_path / "te.p2a"
    code = run(
        "split", "--in", str(synth_store), "--train-count", "2",
        "--train-out", str(train), "--test-out", str(test),
        "--subsample", "--subsample-fraction", "1.0", "--subsample-cap", "3",
    )
    assert code == 0
    # every bin kept at most 3 episodes
    kept = len(datapipe.read_store(train)) + len(datapipe.read_store(test))
    assert kept <= 24


def signal_csv_rows():
    """Header and 1024 rows of one subject: one episode."""
    rows = ["ppg,abp,subject_id"]
    rng = np.random.default_rng(0)
    for i in range(1024):
        rows.append(f"{rng.normal():.6f},{100 + 10 * np.sin(i / 40):.4f},subj")
    return rows


def test_csv_import_via_preprocess(tmp_path, capsys):
    csv_path = tmp_path / "signals.csv"
    rows = signal_csv_rows()
    csv_path.write_text("\n".join(rows) + "\n")
    out = tmp_path / "out.p2a"
    assert run("preprocess", "--in", str(csv_path), "--out", str(out)) == 0
    assert len(datapipe.read_store(out)) == 1
    # a row short of fields is a data error, not a traceback
    csv_path.write_text("\n".join(rows + ["0.5"]) + "\n")
    assert run("preprocess", "--in", str(csv_path), "--out", str(tmp_path / "short.p2a")) == 2
    assert "line 1026" in capsys.readouterr().err
    # so is a row with more fields than the header names
    csv_path.write_text("\n".join(rows + ["0.1,90,subj,oops,7"]) + "\n")
    assert run("preprocess", "--in", str(csv_path), "--out", str(tmp_path / "long.p2a")) == 2
    assert "line 1026" in capsys.readouterr().err


def test_csv_suffix_in_any_case(tmp_path):
    csv_path = tmp_path / "SIGNALS.CSV"
    csv_path.write_text("\n".join(signal_csv_rows()) + "\n")
    out = tmp_path / "out.p2a"
    assert run("preprocess", "--in", str(csv_path), "--out", str(out)) == 0
    assert len(datapipe.read_store(out)) == 1


def test_train_config_file_and_overrides(tmp_path, synth_store):
    prep = tmp_path / "prep.p2a"
    assert run("preprocess", "--in", str(synth_store), "--out", str(prep)) == 0
    cfg = tmp_path / "train.cfg"
    cfg.write_text("epochs = 2\nbatch_size = 4\nwidth = 0.03125\nval_fraction = 0.0\n")
    bundle = tmp_path / "bundle"
    code = run(
        "train", "--data", str(prep), "--out", str(bundle),
        "--config", str(cfg), "--seed", "3",
    )
    assert code == 0
    assert (bundle / "meta.json").exists()
    meta = json.loads((bundle / "meta.json").read_text())
    assert meta["approx"]["filters_per_level"] == [2, 4, 8, 16, 32]
    history = (bundle / "approx_history.csv").read_text().splitlines()
    assert history[0] == "epoch,train_loss,val_loss"
    assert len(history) == 3  # two epochs from the config file

    preds = tmp_path / "preds.csv"
    waves = tmp_path / "waves"
    assert (
        run(
            "infer", "--bundle", str(bundle), "--data", str(synth_store),
            "--out", str(preds), "--dump-waveforms", str(waves),
        )
        == 0
    )
    assert len(preds.read_text().splitlines()) == 25
    assert len(list(waves.glob("episode_*.csv"))) == 24

    report_json = tmp_path / "report.json"
    report_text = tmp_path / "report.txt"
    figures = tmp_path / "figures"
    assert (
        run(
            "evaluate", "--pred", str(preds), "--out", str(report_json),
            "--text", str(report_text), "--figures", str(figures),
        )
        == 0
    )
    report = json.loads(report_json.read_text())
    assert set(report) >= {"episodes", "subjects", "waveform_mae", "dbp", "map", "sbp"}
    assert report["episodes"] == 24
    assert (figures / "hist_sbp.csv").exists()
    assert "grade" in report_text.read_text()


def test_evaluate_bad_row_exits_2(tmp_path, capsys):
    preds = tmp_path / "preds.csv"
    preds.write_text(
        "episode_index,subject_id,sbp_true,dbp_true,map_true,"
        "sbp_pred,dbp_pred,map_pred,waveform_mae,sqi\n"
        "0,a,120,80,95,bogus,81,96,2.0,0.4\n"
    )
    assert run("evaluate", "--pred", str(preds), "--out", str(tmp_path / "r.json")) == 2
    assert "row 2" in capsys.readouterr().err


def test_evaluate_perfect_prediction_fixture(tmp_path):
    preds = tmp_path / "perfect.csv"
    rng = np.random.default_rng(0)
    lines = [
        "episode_index,subject_id,sbp_true,dbp_true,map_true,"
        "sbp_pred,dbp_pred,map_pred,waveform_mae,sqi"
    ]
    for i in range(100):  # 100 distinct subjects clears the AAMI count bar
        sbp = 100.0 + float(rng.uniform(0, 80))
        dbp = 50.0 + float(rng.uniform(0, 40))
        mean_ap = (sbp + 2 * dbp) / 3.0
        lines.append(f"{i},subj{i},{sbp},{dbp},{mean_ap},{sbp},{dbp},{mean_ap},0.0,0.1")
    preds.write_text("\n".join(lines) + "\n")
    out = tmp_path / "report.json"
    assert run("evaluate", "--pred", str(preds), "--out", str(out)) == 0
    report = json.loads(out.read_text())
    for quantity in ("dbp", "map", "sbp"):
        assert report[quantity]["bhs"]["grade"] == "A"
        assert report[quantity]["aami"]["passed"] is True
        assert report[quantity]["mae"] == 0.0


def test_gradcheck_cli_smoke(capsys):
    assert run("gradcheck", "--width", "0.0625", "--length", "64", "--per-block", "2") == 0
    out = capsys.readouterr().out
    assert "approximation" in out and "refinement" in out and "below tolerance" in out


def test_evaluate_constant_prediction_writes_strict_json(tmp_path):
    # a constant sbp_pred leaves Pearson's r undefined; report.json must stay valid JSON
    preds = tmp_path / "constant.csv"
    lines = [
        "episode_index,subject_id,sbp_true,dbp_true,map_true,"
        "sbp_pred,dbp_pred,map_pred,waveform_mae,sqi"
    ]
    for i in range(12):
        sbp, dbp = 110.0 + 3 * i, 70.0 + i
        mean_ap = (sbp + 2 * dbp) / 3.0
        lines.append(f"{i},subj{i % 4},{sbp},{dbp},{mean_ap},120.0,{dbp + 1},{mean_ap + 1},2.0,0.2")
    preds.write_text("\n".join(lines) + "\n")
    out = tmp_path / "report.json"
    assert run("evaluate", "--pred", str(preds), "--out", str(out)) == 0

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    report = json.loads(out.read_text(), parse_constant=reject)
    assert report["sbp"]["agreement"]["pearson_r"] is None
    assert isinstance(report["dbp"]["agreement"]["pearson_r"], float)


def train_settings(tmp_path, config_text, *flags):
    cfg = tmp_path / "train.cfg"
    cfg.write_text(config_text)
    args = _build_parser().parse_args(
        ["train", "--data", "d.p2a", "--out", "o", "--config", str(cfg), *flags]
    )
    return _train_settings(args)


def test_flag_beats_config_file_beats_default(tmp_path):
    config, width, val_fraction = train_settings(
        tmp_path,
        "epochs = 7\nlearning_rate = 0.01\nbn_refresh = false\nwidth = 0.5\n",
        "--epochs", "5", "--bn-refresh", "--val-fraction", "0.2",
    )
    # flags win over the file, the file over the defaults; the CLI's seed is 1024
    assert config == trainer.TrainConfig(
        epochs=5, seed=1024, bn_refresh=True, adam=AdamConfig(learning_rate=0.01)
    )
    assert (width, val_fraction) == (0.5, 0.2)


def test_every_config_field_is_a_config_key(tmp_path):
    defaults = trainer.TrainConfig()
    lines = [f"{f.name} = {getattr(defaults, f.name)}" for f in fields(defaults) if f.name != "adam"]
    lines += [f"{f.name} = {getattr(defaults.adam, f.name)}" for f in fields(AdamConfig)]
    config, width, val_fraction = train_settings(tmp_path, "\n".join(lines) + "\n")
    assert config == defaults
    assert (width, val_fraction) == (1.0, 0.1)


def test_unknown_config_key_exits_2(tmp_path, synth_store, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("epochs = 1\nfrobnicate = 3\n")
    code = run("train", "--data", str(synth_store), "--out", str(tmp_path / "b"), "--config", str(cfg))
    assert code == 2
    assert "unknown config key 'frobnicate'" in capsys.readouterr().err
    assert not (tmp_path / "b").exists()


def test_bn_refresh_is_a_switch_and_parses_strictly(tmp_path, synth_store, capsys):
    assert train_settings(tmp_path, "bn_refresh = TRUE\n")[0].bn_refresh is True
    assert train_settings(tmp_path, "bn_refresh = False\n")[0].bn_refresh is False
    assert train_settings(tmp_path, "")[0].bn_refresh is False
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("bn_refresh = maybe\n")
    assert run("train", "--data", str(synth_store), "--out", str(tmp_path / "b"), "--config", str(cfg)) == 2
    assert "error: config key 'bn_refresh' must be true or false, got 'maybe'" in capsys.readouterr().err
    # the flag takes no value: a count is a usage error
    assert run("train", "--data", str(synth_store), "--out", str(tmp_path / "b"), "--bn-refresh", "200") == 1
    assert not (tmp_path / "b").exists()


def test_cv_smoke(tmp_path, synth_store):
    out = tmp_path / "cv"
    code = run(
        "cv", "--data", str(synth_store), "--out", str(out), "--k", "2",
        "--epochs", "1", "--width", "0.03125", "--batch-size", "8", "--seed", "3",
    )
    assert code == 0
    for fold in (0, 1):
        history = (out / f"fold{fold:02d}_approx_history.csv").read_text().splitlines()
        assert history[0] == "epoch,train_loss,val_loss" and len(history) == 2
    summary = (out / "cv_summary.csv").read_text().splitlines()
    assert summary[0] == "fold,score,selected"
    assert sorted(line.split(",")[2] for line in summary[1:]) == ["0", "1"]
    assert (out / "best_approx.ckpt").exists()
    assert not (out / "best_refine.ckpt").exists()


def test_cv_both_writes_both_stages(tmp_path, synth_store):
    out = tmp_path / "cv"
    code = run(
        "cv", "--data", str(synth_store), "--out", str(out), "--k", "2", "--which", "both",
        "--epochs", "1", "--width", "0.03125", "--batch-size", "8", "--seed", "3",
    )
    assert code == 0
    for fold in (0, 1):
        for stage in ("approx", "refine"):
            history = (out / f"fold{fold:02d}_{stage}_history.csv").read_text().splitlines()
            assert history[0] == "epoch,train_loss,val_loss" and len(history) == 2
    assert (out / "best_approx.ckpt").exists() and (out / "best_refine.ckpt").exists()


def test_evaluate_parses_predictions_once(tmp_path, monkeypatch):
    preds = tmp_path / "preds.csv"
    lines = ["episode_index,subject_id,sbp_true,dbp_true,map_true,sbp_pred,dbp_pred,map_pred,waveform_mae,sqi"]
    lines += [f"{i},s{i % 3},{120 + i},{80 - i},{95 + i},{121 + i},{79 - i},{96 + i},2.0,0.1" for i in range(6)]
    preds.write_text("\n".join(lines) + "\n")
    parsed = []
    load = evalstats.load_predictions
    monkeypatch.setattr(evalstats, "load_predictions", lambda path: parsed.append(path) or load(path))
    code = run(
        "evaluate", "--pred", str(preds), "--out", str(tmp_path / "r.json"),
        "--figures", str(tmp_path / "figures"),
    )
    assert code == 0
    assert parsed == [str(preds)]
    assert (tmp_path / "figures" / "regression_map.csv").read_text().count("\n") == 7


def _predictions_csv(path):
    lines = ["episode_index,subject_id,sbp_true,dbp_true,map_true,sbp_pred,dbp_pred,map_pred,waveform_mae,sqi"]
    lines += [f"{i},s{i % 3},{120 + i},{80 - i},{95 + i},{121 + i},{79 - i},{96 + i},2.0,0.{i}" for i in range(6)]
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.mark.parametrize(
    "argv, message",
    [
        (("split", "--train-count", "-1", "--train-out", "{tmp}/a.p2a", "--test-out", "{tmp}/b.p2a"),
         "train_count must be >= 0, got -1"),
        (("cv", "--k", "0", "--out", "{tmp}/cv", "--epochs", "1", "--width", "0.03125"), "k must be >= 2 folds, got 0"),
        (("cv", "--k", "1", "--out", "{tmp}/cv", "--epochs", "1", "--width", "0.03125"), "k must be >= 2 folds, got 1"),
        (("evaluate", "--sqi-bins", "0", "--out", "{tmp}/r.json"), "bins must be >= 1, got 0"),
        (("train", "--width", "-1", "--out", "{tmp}/t", "--epochs", "1"), "width must be finite and > 0, got -1.0"),
        (("train", "--width", "0", "--out", "{tmp}/t", "--epochs", "1"), "width must be finite and > 0, got 0.0"),
        (("cv", "--width", "0", "--out", "{tmp}/cv", "--epochs", "1"), "width must be finite and > 0, got 0.0"),
        (("gradcheck", "--width", "-0.5"), "width must be finite and > 0, got -0.5"),
        (("gradcheck", "--width", "nan"), "width must be finite and > 0, got nan"),
        (("gradcheck", "--width", "inf"), "width must be finite and > 0, got inf"),
        (("gradcheck", "--length", "0"), "input_length must be >= 1, got 0"),
        (("gradcheck", "--length", "-4"), "input_length must be >= 1, got -4"),
        (("split", "--train-count", "0", "--subsample", "--subsample-fraction", "-1",
          "--train-out", "{tmp}/a.p2a", "--test-out", "{tmp}/b.p2a"), "fraction must be in (0, 1], got -1.0"),
        (("split", "--train-count", "0", "--subsample", "--subsample-fraction", "0",
          "--train-out", "{tmp}/a.p2a", "--test-out", "{tmp}/b.p2a"), "fraction must be in (0, 1], got 0.0"),
        (("split", "--train-count", "0", "--subsample", "--subsample-fraction", "1.5",
          "--train-out", "{tmp}/a.p2a", "--test-out", "{tmp}/b.p2a"), "fraction must be in (0, 1], got 1.5"),
        (("split", "--train-count", "0", "--subsample", "--subsample-cap", "-3",
          "--train-out", "{tmp}/a.p2a", "--test-out", "{tmp}/b.p2a"), "cap must be >= 1, got -3"),
        (("split", "--train-count", "0", "--subsample", "--subsample-cap", "0",
          "--train-out", "{tmp}/a.p2a", "--test-out", "{tmp}/b.p2a"), "cap must be >= 1, got 0"),
        (("train", "--val-fraction", "1.5", "--out", "{tmp}/t", "--epochs", "1"),
         "val_fraction must be in [0, 1), got 1.5"),
        (("train", "--val-fraction", "-0.5", "--out", "{tmp}/t", "--epochs", "1"),
         "val_fraction must be in [0, 1), got -0.5"),
        (("train", "--val-fraction", "nan", "--out", "{tmp}/t", "--epochs", "1"),
         "val_fraction must be in [0, 1), got nan"),
    ],
    ids=["split-negative-train-count", "cv-k-0", "cv-k-1", "evaluate-sqi-bins-0",
         "train-width-negative", "train-width-0", "cv-width-0", "gradcheck-width-negative",
         "gradcheck-width-nan", "gradcheck-width-inf", "gradcheck-length-0", "gradcheck-length-negative",
         "split-subsample-fraction-negative", "split-subsample-fraction-0", "split-subsample-fraction-above-1",
         "split-subsample-cap-negative", "split-subsample-cap-0",
         "train-val-fraction-above-1", "train-val-fraction-negative", "train-val-fraction-nan"],
)
@pytest.mark.filterwarnings("error")
def test_out_of_range_arguments_exit_2(tmp_path, synth_store, capsys, argv, message):
    """Each is rejected by the function that takes it, as a data error naming
    the argument, with no warning on the way, and no output is written."""
    preds = _predictions_csv(tmp_path / "preds.csv")
    data = {"split": ("--in", synth_store), "cv": ("--data", synth_store), "train": ("--data", synth_store),
            "evaluate": ("--pred", preds), "gradcheck": ()}
    argv = [arg.format(tmp=tmp_path) for arg in argv] + [str(arg) for arg in data[argv[0]]]
    assert run(*argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert [p.name for p in tmp_path.iterdir()] == ["preds.csv"]
