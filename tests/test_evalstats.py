import json
import math
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bpwave
from bpwave import evalstats
from bpwave.evalstats import (
    aami_check_quantity,
    bhs_grade,
    bhs_grade_from_percentages,
    bland_altman,
    classification_report,
    classify_hypertension,
    evaluate,
    load_predictions,
    pearson,
    pearson_p_value,
    sqi_error_analysis,
    write_figure_data,
)
from bpwave.pipeline import PREDICTION_COLUMNS, BPValues

GRADE_ORDER = {"A": 0, "B": 1, "C": 2, "D": 3}


def table(rows):
    """Row dicts as the one prediction table load_predictions returns."""
    return {
        key: np.array([r[key] for r in rows], dtype=str if key in ("episode_index", "subject_id") else np.float64)
        for key in PREDICTION_COLUMNS
    }


def bp_table(true_bp, pred_bp):
    """The table columns classification_report reads, from two BPValues lists."""
    return {
        f"{q}_{side}": np.array([getattr(v, q) for v in values])
        for side, values in (("true", true_bp), ("pred", pred_bp))
        for q in ("sbp", "dbp", "map")
    }


# ----------------------------------------------------------------------- BHS

@pytest.mark.parametrize(
    "percentages,expected",
    [
        ((82.836, 92.157, 95.734), "A"),   # published DBP row
        ((87.381, 95.169, 97.733), "A"),   # published MAP row
        ((70.814, 85.301, 90.921), "B"),   # published SBP row
        ((100.0, 100.0, 100.0), "A"),
        ((60.0, 85.0, 95.0), "A"),         # inclusive boundaries
        ((59.9, 85.0, 95.0), "B"),
        ((40.0, 65.0, 85.0), "C"),
        ((39.0, 65.0, 85.0), "D"),
        ((95.0, 70.0, 99.0), "C"),         # misses A and B on the middle threshold
        ((95.0, 60.0, 99.0), "D"),         # all three must hold at once
    ],
)
def test_bhs_grades_from_percentages(percentages, expected):
    assert bhs_grade_from_percentages(percentages) == expected


def test_bhs_grade_from_errors():
    result = bhs_grade([0.0, 1.0, 4.9, 5.0, 12.0])
    assert result.percentages == (80.0, 80.0, 100.0)
    assert result.grade == "B"
    perfect = bhs_grade(np.zeros(10))
    assert perfect.percentages == (100.0, 100.0, 100.0) and perfect.grade == "A"


def test_bhs_percentages_non_decreasing():
    rng = np.random.default_rng(0)
    for _ in range(50):
        r = bhs_grade(np.abs(rng.normal(0, 8, size=100)))
        assert r.percentages[0] <= r.percentages[1] <= r.percentages[2]


def test_bhs_empty_rejected():
    with pytest.raises(ValueError):
        bhs_grade([])


@settings(max_examples=60)
@given(
    st.lists(st.floats(0.0, 40.0), min_size=1, max_size=60),
    st.floats(0.0, 1.0),
)
def test_bhs_monotone_under_pointwise_shrink(errors, shrink):
    before = bhs_grade(errors).grade
    after = bhs_grade([e * shrink for e in errors]).grade
    assert GRADE_ORDER[after] <= GRADE_ORDER[before]


# ---------------------------------------------------------------------- AAMI

def series_with(mean, std):
    # two points mean +/- std have exactly that mean and population std
    return np.array([mean - std, mean + std])


@pytest.mark.parametrize(
    "mean,std,subjects,expected",
    [
        (1.619, 6.859, 942, True),     # published DBP row
        (0.631, 4.962, 942, True),     # published MAP row
        (-1.582, 10.688, 942, False),  # published SBP row: std too wide
        (5.0, 8.0, 85, True),          # inclusive boundaries
        (-5.0, 8.0, 85, True),
        (5.1, 8.0, 85, False),
        (5.0, 8.1, 85, False),
        (5.0, 8.0, 84, False),
    ],
)
def test_aami_verdicts(mean, std, subjects, expected):
    result = aami_check_quantity(series_with(mean, std), subjects)
    assert result.passed is expected
    assert abs(result.mean_error - mean) < 1e-12
    assert abs(result.std - std) < 1e-12


def test_aami_boundary_grid():
    for me in (4.9, 5.0, 5.1):
        for std in (7.9, 8.0, 8.1):
            for n in (84, 85, 86):
                verdict = aami_check_quantity(series_with(me, std), n).passed
                assert verdict == (me <= 5.0 and std <= 8.0 and n >= 85)


def test_aami_empty_rejected():
    with pytest.raises(ValueError):
        aami_check_quantity(np.array([]), 100)


# --------------------------------------------------------------- bland-altman

def test_bland_altman_published_map_limits():
    truth = np.zeros(2)
    pred = series_with(0.631, 4.962)
    result = bland_altman(pred, truth)
    assert abs(result.limits[0] - (-9.095)) < 0.01
    assert abs(result.limits[1] - 10.357) < 0.01


def test_bland_altman_perfect_agreement():
    x = np.array([80.0, 120.0, 100.0])
    result = bland_altman(x, x.copy())
    assert result.mean_difference == 0.0
    assert result.limits == (0.0, 0.0)
    assert result.pearson_r == 1.0
    assert result.p_value == "< 1e-6"


def test_bland_altman_two_point_hand_oracle():
    # diffs [1, 3]: mu 2, sigma 1 -> limits [0.04, 3.96]
    result = bland_altman(np.array([2.0, 5.0]), np.array([1.0, 2.0]))
    assert abs(result.mean_difference - 2.0) < 1e-12
    assert abs(result.limits[0] - 0.04) < 1e-12
    assert abs(result.limits[1] - 3.96) < 1e-12


def test_bland_altman_limits_symmetric_about_mu():
    rng = np.random.default_rng(1)
    pred, truth = rng.normal(size=50), rng.normal(size=50)
    r = bland_altman(pred, truth)
    assert abs((r.limits[0] + r.limits[1]) / 2.0 - r.mean_difference) < 1e-12


def test_bland_altman_coverage_large_normal_sample():
    rng = np.random.default_rng(2024)
    truth = rng.normal(100.0, 10.0, size=20000)
    pred = truth + rng.normal(1.0, 5.0, size=20000)
    r = bland_altman(pred, truth)
    diffs = pred - truth
    inside = np.mean((diffs >= r.limits[0]) & (diffs <= r.limits[1]))
    assert inside >= 0.93


def test_bland_altman_mismatch_rejected():
    with pytest.raises(ValueError):
        bland_altman(np.zeros(3), np.zeros(4))


# -------------------------------------------------------------------- pearson

def test_pearson_identity_and_negation():
    x = np.array([1.0, 2.0, 4.0, 7.0])
    assert abs(pearson(x, x) - 1.0) < 1e-12
    assert abs(pearson(x, -x) + 1.0) < 1e-12


def test_pearson_matches_covariance_oracle():
    rng = np.random.default_rng(3)
    a, b = rng.normal(size=40), rng.normal(size=40)
    n = 40
    ma, mb = sum(a) / n, sum(b) / n
    cov = sum((x - ma) * (y - mb) for x, y in zip(a, b))
    va = sum((x - ma) ** 2 for x in a)
    vb = sum((y - mb) ** 2 for y in b)
    assert abs(pearson(a, b) - cov / math.sqrt(va * vb)) < 1e-12


def test_pearson_constant_rejected():
    with pytest.raises(ValueError):
        pearson(np.ones(5), np.arange(5.0))


@settings(max_examples=40)
@given(st.floats(0.01, 50.0), st.floats(-50.0, 50.0), st.integers(0, 500))
def test_pearson_affine_invariance(a, b, seed):
    rng = np.random.default_rng(seed)
    x, y = rng.normal(size=24), rng.normal(size=24)
    assert abs(pearson(a * x + b, y) - pearson(x, y)) < 1e-9


def test_pearson_p_value_indicator():
    assert pearson_p_value(0.9, 27260) == "< 1e-6"
    weak = pearson_p_value(0.05, 30)
    assert weak != "< 1e-6" and float(weak) > 0.5


# (r, n) -> the string scipy 1.17.1 gives for 2 * stats.t.sf(t, n - 2)
PINNED_P_VALUES = {
    (0.0, 3): "1", (0.05, 3): "0.968156", (-0.05, 3): "0.968156", (0.5, 3): "0.666667", (0.9, 3): "0.287133",
    (0.0, 4): "1", (0.05, 4): "0.95", (-0.05, 4): "0.95", (0.5, 4): "0.5", (0.9, 4): "0.1",
    (0.0, 5): "1", (0.05, 5): "0.936365", (-0.05, 5): "0.936365", (0.5, 5): "0.391002", (0.9, 5): "0.0373861",
    (0.0, 6): "1", (0.05, 6): "0.925063", (-0.05, 6): "0.925063", (0.5, 6): "0.3125", (0.9, 6): "0.0145",
    (0.0, 30): "1", (0.05, 30): "0.793022", (-0.05, 30): "0.793022", (0.5, 30): "0.00489993", (0.9, 30): "< 1e-6",
    (0.0, 27260): "1", (0.05, 27260): "< 1e-6", (-0.05, 27260): "< 1e-6", (0.5, 27260): "< 1e-6",
    (0.9, 27260): "< 1e-6", (0.01, 27260): "0.0987333", (-0.02, 27260): "0.000958957",
    (0.76, 30): "1.10601e-06", (0.765, 30): "< 1e-6",  # either side of the cut
    (2e-5, 10**9): "0.527089",  # lgamma terms of size 1e10 that must not cancel
}


def test_pearson_p_value_matches_pinned_strings():
    got = {pair: pearson_p_value(*pair) for pair in PINNED_P_VALUES}
    assert got == PINNED_P_VALUES


def test_pearson_p_value_keeps_its_digits_near_the_fraction_switch():
    """Just past r² = 3/n at large n, where the continued fraction's terms
    nearly cancel; the strings are mpmath's betainc (0.06847374983,
    0.06226497685 and 0.04887891105) to six digits."""
    assert pearson_p_value(-5.7612788776076224e-05, 10**9) == "0.0684737"
    assert pearson_p_value(-5.8957634509346125e-06, 10**11) == "0.062265"
    assert pearson_p_value(-6.228568777982459e-06, 10**11) == "0.0488789"


def test_import_leaves_scipy_unloaded(tmp_path):
    """bpwave needs only numpy: neither importing it nor grading predictions loads scipy."""
    preds = tmp_path / "preds.csv"
    lines = [",".join(PREDICTION_COLUMNS)]
    lines += [f"{i},s{i % 3},{120 + i},{80 - i},{95 + i},{121 + i * i % 7},{79 - i},{96 + i},2.0,0.1" for i in range(8)]
    preds.write_text("\n".join(lines) + "\n")
    src = str(pathlib.Path(bpwave.__file__).resolve().parents[1])
    argv = ["evaluate", "--pred", str(preds), "--out", str(tmp_path / "report.json")]
    probe = (
        f"import sys; sys.path.insert(0, {src!r}); import bpwave.cli; "
        f"code = bpwave.cli.main({argv!r}); print(code, 'scipy' in sys.modules)"
    )
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert result.stdout.split()[-2:] == ["0", "False"], result.stderr
    assert json.loads((tmp_path / "report.json").read_text())["sbp"]["agreement"]["p_value"] != "n/a"


# ------------------------------------------------------------- classification

def test_classify_published_ranges():
    assert classify_hypertension(sbp=110.0, dbp=80.0)[0] == "Normotension"
    assert classify_hypertension(sbp=150.0, dbp=70.0)[1] == "Hypertension"
    assert classify_hypertension(sbp=115.0, dbp=85.0) == ("Prehypertension", "Normotension")


def test_classify_boundary_grid():
    dbp_expect = {80.0: "Normotension", 85.0: "Prehypertension", 95.0: "Hypertension"}
    sbp_expect = {120.0: "Normotension", 130.0: "Prehypertension", 150.0: "Hypertension"}
    for dbp, want_d in dbp_expect.items():
        for sbp, want_s in sbp_expect.items():
            by_dbp, by_sbp = classify_hypertension(sbp, dbp)
            assert (by_dbp, by_sbp) == (want_d, want_s)


def bp(sbp, dbp):
    return BPValues(sbp=sbp, dbp=dbp, map=(sbp + 2 * dbp) / 3.0)


def test_classification_perfect_predictions():
    true_bp = [bp(110, 70), bp(130, 85), bp(160, 95), bp(118, 78)]
    report = classification_report(bp_table(true_bp, list(true_bp)))
    for rule in (report.by_dbp, report.by_sbp):
        assert np.trace(rule.confusion) == 4
        assert rule.confusion.sum() == 4
        for metrics in rule.per_class.values():
            if metrics.support:
                assert metrics.f1 == 1.0


def test_classification_single_misclassification_hand_oracle():
    true_bp = [bp(110, 70), bp(110, 70)]
    pred_bp = [bp(110, 70), bp(130, 70)]  # second crosses the SBP boundary
    rule = classification_report(bp_table(true_bp, pred_bp)).by_sbp
    normo = rule.per_class["Normotension"]
    pre = rule.per_class["Prehypertension"]
    assert normo.precision == 1.0 and normo.recall == 0.5
    assert abs(normo.f1 - 2 * (1.0 * 0.5) / 1.5) < 1e-12
    assert pre.precision == 0.0 and pre.undefined  # no true prehypertension
    assert rule.confusion[0, 0] == 1 and rule.confusion[0, 1] == 1


def test_classification_zero_prediction_class_flagged():
    true_bp = [bp(150, 95), bp(152, 96)]
    pred_bp = [bp(110, 70), bp(112, 72)]
    rule = classification_report(bp_table(true_bp, pred_bp)).by_sbp
    hyper = rule.per_class["Hypertension"]
    assert hyper.precision == 0.0 and hyper.recall == 0.0 and hyper.undefined


def test_classification_row_sums_equal_true_counts():
    rng = np.random.default_rng(5)
    true_bp = [bp(float(rng.uniform(100, 180)), float(rng.uniform(60, 100))) for _ in range(60)]
    pred_bp = [bp(float(rng.uniform(100, 180)), float(rng.uniform(60, 100))) for _ in range(60)]
    report = classification_report(bp_table(true_bp, pred_bp))
    for rule in (report.by_dbp, report.by_sbp):
        assert rule.confusion.sum() == 60
        for i, cls in enumerate(evalstats.HYPERTENSION_CLASSES):
            metrics = rule.per_class[cls]
            assert rule.confusion[i].sum() == metrics.support
            assert abs(metrics.recall * max(metrics.support, 1) - rule.confusion[i, i]) < 1e-9


def test_classification_length_mismatch_rejected():
    with pytest.raises(ValueError):
        classification_report(bp_table([bp(120, 80)], []))


# ----------------------------------------------------------------- SQI buckets

def prediction_row(sqi, dbp_err, map_err, sbp_err, subject="s"):
    return {
        "episode_index": 0,
        "subject_id": subject,
        "sqi": sqi,
        "dbp_true": 80.0, "dbp_pred": 80.0 + dbp_err,
        "map_true": 95.0, "map_pred": 95.0 + map_err,
        "sbp_true": 125.0, "sbp_pred": 125.0 + sbp_err,
        "waveform_mae": abs(map_err),
    }


def test_sqi_single_bucket_equals_global():
    rows = [prediction_row(0.5, 1.0, 2.0, -3.0), prediction_row(0.5, 3.0, 0.0, 5.0)]
    buckets = sqi_error_analysis(table(rows), bin_edges=[0.0, 1.0])
    assert len(buckets) == 1
    b = buckets[0]
    assert b.count == 2 and b.mae_dbp == 2.0 and b.mae_map == 1.0 and b.mae_sbp == 4.0


def test_sqi_known_buckets_match_direct_aggregation():
    rows = [
        prediction_row(0.1, 1.0, 1.0, 1.0),
        prediction_row(0.9, 5.0, 5.0, 5.0),
        prediction_row(0.95, 7.0, 7.0, 7.0),
    ]
    buckets = sqi_error_analysis(table(rows), bin_edges=[0.0, 0.5, 1.0])
    assert [b.count for b in buckets] == [1, 2]
    assert buckets[0].mae_dbp == 1.0
    assert buckets[1].mae_sbp == 6.0


def test_sqi_empty_buckets_absent():
    rows = [prediction_row(0.05, 1.0, 1.0, 1.0), prediction_row(0.95, 2.0, 2.0, 2.0)]
    buckets = sqi_error_analysis(table(rows), bin_edges=np.linspace(0, 1, 11))
    assert len(buckets) == 2  # eight interior bins are empty and unreported


def test_sqi_empty_input():
    assert sqi_error_analysis(table([])) == []


# ------------------------------------------------------------------ the report

def make_rows(n=200, seed=0, subjects=100):
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(n):
        dbp, sbp = float(rng.uniform(55, 105)), float(rng.uniform(90, 175))
        mean_ap = (sbp + 2 * dbp) / 3.0
        rows.append(
            {
                "episode_index": i,
                "subject_id": f"s{i % subjects}",
                "dbp_true": dbp, "dbp_pred": dbp + float(rng.normal(0.5, 3.0)),
                "map_true": mean_ap, "map_pred": mean_ap + float(rng.normal(0.2, 2.0)),
                "sbp_true": sbp, "sbp_pred": sbp + float(rng.normal(-0.5, 6.0)),
                "waveform_mae": float(abs(rng.normal(3.0, 1.0))),
                "sqi": float(rng.normal(0.2, 0.5)),
            }
        )
    return rows


def test_report_perfect_predictions():
    rows = make_rows(120, seed=1)
    for r in rows:
        for q in ("dbp", "map", "sbp"):
            r[f"{q}_pred"] = r[f"{q}_true"]
        r["waveform_mae"] = 0.0
    report = evaluate(table(rows))
    for q in ("dbp", "map", "sbp"):
        summary = getattr(report, q)
        assert summary.mae == 0.0
        assert summary.bhs.grade == "A"
        assert summary.aami.passed
        assert summary.agreement.limits == (0.0, 0.0)
    assert report.waveform_mae == 0.0


def test_report_statistics_match_formula_oracles():
    rows = make_rows(300, seed=7)
    report = evaluate(table(rows))
    for q in ("dbp", "map", "sbp"):
        truth = np.array([r[f"{q}_true"] for r in rows])
        pred = np.array([r[f"{q}_pred"] for r in rows])
        err = pred - truth
        summary = getattr(report, q)
        assert abs(summary.mae - np.mean(np.abs(err))) < 1e-12
        assert abs(summary.mae_std - np.std(np.abs(err))) < 1e-12
        assert abs(summary.aami.mean_error - err.mean()) < 1e-12
        assert abs(summary.aami.std - err.std()) < 1e-12
        assert abs(summary.agreement.pearson_r - pearson(pred, truth)) < 1e-12
        for p, t in zip(summary.bhs.percentages, (5.0, 10.0, 15.0)):
            assert abs(p - 100.0 * np.mean(np.abs(err) <= t)) < 1e-12
    assert report.subjects == 100
    assert report.episodes == 300


def test_report_json_roundtrip():
    report = evaluate(table(make_rows(80, seed=3)))
    parsed = json.loads(report.to_json())
    assert parsed == report.to_dict()
    text = report.to_text()
    assert "waveform MAE" in text and "hypertension by_sbp:" in text


def test_report_empty_rejected():
    with pytest.raises(ValueError):
        evaluate(table([]))


def test_load_predictions_row_errors(tmp_path):
    path = tmp_path / "preds.csv"
    for bad in ("oops", "nan"):  # bpwave never writes a non-finite prediction
        path.write_text(
            "episode_index,subject_id,sbp_true,dbp_true,map_true,"
            "sbp_pred,dbp_pred,map_pred,waveform_mae,sqi\n"
            "0,a,120,80,95,121,81,96,2.0,0.4\n"
            f"1,b,120,80,95,{bad},81,96,2.0,0.4\n"
        )
        with pytest.raises(ValueError, match=f"row 3: bad value for sbp_pred: '{bad}'"):
            load_predictions(path)


def test_figure_data_files(tmp_path):
    rows = make_rows(50, seed=9)
    write_figure_data(table(rows), tmp_path)
    for q in ("dbp", "map", "sbp"):
        hist = (tmp_path / f"hist_{q}.csv").read_text().splitlines()
        total = sum(int(line.split(",")[2]) for line in hist[1:])
        assert total == 50
        points = (tmp_path / f"bland_altman_{q}.csv").read_text().splitlines()
        assert len(points) == 51
        reg = (tmp_path / f"regression_{q}.csv").read_text().splitlines()
        assert len(reg) == 51
        for line in hist[1:] + points[1:] + reg[1:]:
            assert all(math.isfinite(float(field)) for field in line.split(","))
