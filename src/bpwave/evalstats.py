"""Clinical evaluation battery: BHS grading, AAMI criterion, agreement
statistics, hypertension classification, and SQI-stratified errors."""

import csv
import json
import math
import os
from dataclasses import asdict, dataclass, field

import numpy as np

from .pipeline import PREDICTION_COLUMNS, BPValues

QUANTITIES = ("dbp", "map", "sbp")
BHS_THRESHOLDS_MMHG = (5.0, 10.0, 15.0)
# grade -> minimum cumulative percentage at <=5, <=10, <=15 mmHg
BHS_GRADE_TABLE = {
    "A": (60.0, 85.0, 95.0),
    "B": (50.0, 75.0, 90.0),
    "C": (40.0, 65.0, 85.0),
}
AAMI_MAX_MEAN_ERROR = 5.0
AAMI_MAX_STD = 8.0
AAMI_MIN_SUBJECTS = 85
HYPERTENSION_CLASSES = ("Normotension", "Prehypertension", "Hypertension")


# ------------------------------------------------------------------ BHS / AAMI

@dataclass
class BHSResult:
    percentages: tuple  # cumulative % of absolute errors <= 5, 10, 15 mmHg
    grade: str


def bhs_grade_from_percentages(percentages):
    """Best grade whose three cumulative thresholds are all met; else D."""
    for candidate in ("A", "B", "C"):
        required = BHS_GRADE_TABLE[candidate]
        if all(p >= r for p, r in zip(percentages, required)):
            return candidate
    return "D"


def bhs_grade(abs_errors):
    """Grade a series of absolute errors against the cumulative thresholds.

    All three thresholds must be met simultaneously; failing grade C means
    grade D.
    """
    errors = np.abs(np.asarray(abs_errors, dtype=np.float64))
    if errors.size == 0:
        raise ValueError("cannot grade an empty error series")
    percentages = tuple(
        float(100.0 * np.mean(errors <= t)) for t in BHS_THRESHOLDS_MMHG
    )
    return BHSResult(percentages=percentages, grade=bhs_grade_from_percentages(percentages))


@dataclass
class AAMIQuantityResult:
    mean_error: float
    std: float
    subjects: int
    passed: bool


def aami_check_quantity(errors, subjects):
    """Mean error / std (population divisor) against the AAMI limits."""
    errors = np.asarray(errors, dtype=np.float64)
    if errors.size == 0:
        raise ValueError("cannot evaluate an empty error series")
    me = float(errors.mean())
    std = float(errors.std())  # population (n) divisor, pinned for tests
    passed = (
        abs(me) <= AAMI_MAX_MEAN_ERROR
        and std <= AAMI_MAX_STD
        and subjects >= AAMI_MIN_SUBJECTS
    )
    return AAMIQuantityResult(mean_error=me, std=std, subjects=subjects, passed=passed)


# ----------------------------------------------------------------- agreement

@dataclass
class AgreementResult:
    mean_difference: float
    std: float
    limits: tuple  # (mu - 1.96 sigma, mu + 1.96 sigma)
    pearson_r: float
    p_value: str


def bland_altman(pred, truth):
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if pred.shape != truth.shape or pred.size == 0:
        raise ValueError("prediction and truth series must be equal-length and non-empty")
    diff = pred - truth
    mu = float(diff.mean())
    sigma = float(diff.std())
    limits = (mu - 1.96 * sigma, mu + 1.96 * sigma)
    if pred.size >= 2 and pred.std() > 0 and truth.std() > 0:
        r = pearson(pred, truth)
        p = pearson_p_value(r, pred.size)
    else:
        r, p = float("nan"), "n/a"
    return AgreementResult(mean_difference=mu, std=sigma, limits=limits, pearson_r=r, p_value=p)


def pearson(pred, truth):
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if pred.shape != truth.shape or pred.size < 2:
        raise ValueError("pearson needs two equal-length series of at least 2 points")
    dp = pred - pred.mean()
    dt = truth - truth.mean()
    denom = math.sqrt(float(dp @ dp) * float(dt @ dt))
    if denom == 0.0:
        raise ValueError("pearson correlation is undefined for constant input")
    return float(dp @ dt) / denom


def pearson_p_value(r, n):
    """Two-sided significance, reported as '< 1e-6' past that resolution."""
    if n < 3:
        return "n/a"
    r = min(1.0, max(-1.0, r))
    if abs(r) == 1.0:
        return "< 1e-6"
    from scipy import stats  # here, not at module load: about 1 s of import time

    t = abs(r) * math.sqrt((n - 2) / (1.0 - r * r))
    p = 2.0 * float(stats.t.sf(t, df=n - 2))
    return "< 1e-6" if p < 1e-6 else f"{p:.6g}"


# ------------------------------------------------------------- classification

def classify_hypertension(sbp, dbp):
    """Independent class labels by the DBP-based and SBP-based rule sets."""
    if dbp <= 80.0:
        by_dbp = "Normotension"
    elif dbp <= 90.0:
        by_dbp = "Prehypertension"
    else:
        by_dbp = "Hypertension"
    if sbp <= 120.0:
        by_sbp = "Normotension"
    elif sbp <= 140.0:
        by_sbp = "Prehypertension"
    else:
        by_sbp = "Hypertension"
    return by_dbp, by_sbp


@dataclass
class ClassMetrics:
    precision: float
    recall: float
    f1: float
    support: int
    undefined: bool = False  # a zero denominator was reported as 0


@dataclass
class RuleReport:
    confusion: np.ndarray  # rows: true class, columns: predicted class
    per_class: dict


@dataclass
class ClassificationReport:
    by_dbp: RuleReport
    by_sbp: RuleReport


def _rule_report(true_labels, pred_labels):
    index = {name: i for i, name in enumerate(HYPERTENSION_CLASSES)}
    confusion = np.zeros((3, 3), dtype=np.int64)
    for t, p in zip(true_labels, pred_labels):
        confusion[index[t], index[p]] += 1
    per_class = {}
    for name, i in index.items():
        tp = int(confusion[i, i])
        pred_total = int(confusion[:, i].sum())
        true_total = int(confusion[i, :].sum())
        undefined = pred_total == 0 or true_total == 0
        precision = tp / pred_total if pred_total else 0.0
        recall = tp / true_total if true_total else 0.0
        f1 = (2 * precision * recall / (precision + recall)) if (precision + recall) else 0.0
        per_class[name] = ClassMetrics(
            precision=precision, recall=recall, f1=f1, support=true_total, undefined=undefined
        )
    return RuleReport(confusion=confusion, per_class=per_class)


def classification_report(true_bp, pred_bp):
    """Confusion matrices and per-class metrics under both rule sets."""
    if len(true_bp) != len(pred_bp):
        raise ValueError("true and predicted lists differ in length")
    true_dbp, true_sbp, pred_dbp, pred_sbp = [], [], [], []
    for t, p in zip(true_bp, pred_bp):
        td, ts = classify_hypertension(t.sbp, t.dbp)
        pd, ps = classify_hypertension(p.sbp, p.dbp)
        true_dbp.append(td)
        true_sbp.append(ts)
        pred_dbp.append(pd)
        pred_sbp.append(ps)
    return ClassificationReport(
        by_dbp=_rule_report(true_dbp, pred_dbp),
        by_sbp=_rule_report(true_sbp, pred_sbp),
    )


# --------------------------------------------------------------- SQI analysis

@dataclass
class SqiBucket:
    lo: float
    hi: float
    count: int
    mae_dbp: float
    mae_map: float
    mae_sbp: float


def sqi_error_analysis(rows, bin_edges=None, bins=10):
    """Bucket prediction rows by input-signal skewness; MAE triple per bucket.

    Empty buckets are absent from the result rather than reported as zero.
    """
    if not rows:
        return []
    sqis = np.array([r["sqi"] for r in rows])
    if bin_edges is None:
        lo, hi = float(sqis.min()), float(sqis.max())
        if lo == hi:
            hi = lo + 1.0
        bin_edges = np.linspace(lo, hi, bins + 1)
    bin_edges = np.asarray(bin_edges, dtype=np.float64)
    which = np.clip(np.searchsorted(bin_edges, sqis, side="right") - 1, 0, len(bin_edges) - 2)
    buckets = []
    for b in range(len(bin_edges) - 1):
        members = [rows[i] for i in np.nonzero(which == b)[0]]
        if not members:
            continue
        buckets.append(
            SqiBucket(
                lo=float(bin_edges[b]),
                hi=float(bin_edges[b + 1]),
                count=len(members),
                mae_dbp=float(np.mean([abs(m["dbp_pred"] - m["dbp_true"]) for m in members])),
                mae_map=float(np.mean([abs(m["map_pred"] - m["map_true"]) for m in members])),
                mae_sbp=float(np.mean([abs(m["sbp_pred"] - m["sbp_true"]) for m in members])),
            )
        )
    return buckets


# ------------------------------------------------------------- the full report

@dataclass
class QuantitySummary:
    mae: float
    mae_std: float
    bhs: BHSResult
    aami: AAMIQuantityResult
    agreement: AgreementResult


@dataclass
class EvaluationReport:
    episodes: int
    subjects: int
    waveform_mae: float
    waveform_mae_std: float
    dbp: QuantitySummary
    map: QuantitySummary
    sbp: QuantitySummary
    classification: ClassificationReport
    sqi_buckets: list

    def to_dict(self):
        def scrub(obj):
            if isinstance(obj, np.ndarray):
                return scrub(obj.tolist())
            if isinstance(obj, (float, np.floating)):
                # JSON has no NaN or infinity; an undefined statistic is written as null
                return float(obj) if np.isfinite(obj) else None
            if isinstance(obj, dict):
                return {k: scrub(v) for k, v in obj.items()}
            if isinstance(obj, (list, tuple)):
                return [scrub(v) for v in obj]
            return obj

        return scrub(asdict(self))

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2, sort_keys=True, allow_nan=False)

    def to_text(self):
        lines = [
            f"episodes: {self.episodes}   subjects: {self.subjects}",
            f"waveform MAE: {self.waveform_mae:.3f} +/- {self.waveform_mae_std:.3f} mmHg",
            "",
            f"{'':<5} {'MAE':>8} {'+/-':>8} {'BHS<=5':>8} {'<=10':>8} {'<=15':>8} {'grade':>6} "
            f"{'ME':>8} {'STD':>8} {'AAMI':>6}",
        ]
        for name in QUANTITIES:
            q = getattr(self, name)
            p5, p10, p15 = q.bhs.percentages
            lines.append(
                f"{name.upper():<5} {q.mae:>8.3f} {q.mae_std:>8.3f} {p5:>8.3f} {p10:>8.3f} "
                f"{p15:>8.3f} {q.bhs.grade:>6} {q.aami.mean_error:>8.3f} {q.aami.std:>8.3f} "
                f"{'pass' if q.aami.passed else 'fail':>6}"
            )
        for name in QUANTITIES:
            q = getattr(self, name)
            lo, hi = q.agreement.limits
            lines.append(
                f"{name.upper()} agreement: mu {q.agreement.mean_difference:+.3f}, "
                f"limits [{lo:.3f}, {hi:.3f}], r {q.agreement.pearson_r:.4f} (p {q.agreement.p_value})"
            )
        for rule in ("by_dbp", "by_sbp"):
            rep = getattr(self.classification, rule)
            lines.append(f"hypertension {rule}:")
            for cls in HYPERTENSION_CLASSES:
                m = rep.per_class[cls]
                flag = " (undefined)" if m.undefined else ""
                lines.append(
                    f"  {cls:<16} precision {100 * m.precision:6.2f}%  recall {100 * m.recall:6.2f}%  "
                    f"f1 {100 * m.f1:6.2f}%  support {m.support}{flag}"
                )
        if self.sqi_buckets:
            lines.append("SQI buckets (lo, hi, n, MAE dbp/map/sbp):")
            for b in self.sqi_buckets:
                lines.append(
                    f"  [{b.lo:+.3f}, {b.hi:+.3f}) n={b.count} "
                    f"{b.mae_dbp:.3f}/{b.mae_map:.3f}/{b.mae_sbp:.3f}"
                )
        return "\n".join(lines)


def load_predictions(path):
    """Parse the pipeline predictions CSV into row dicts; errors carry row numbers."""
    rows = []
    numeric = PREDICTION_COLUMNS[2:]  # all but episode_index and subject_id
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or not set(PREDICTION_COLUMNS).issubset(reader.fieldnames):
            raise ValueError(
                f"predictions CSV needs columns {sorted(PREDICTION_COLUMNS)}, got {reader.fieldnames}"
            )
        for line, raw in enumerate(reader, start=2):
            row = {"episode_index": raw["episode_index"], "subject_id": raw["subject_id"]}
            for key in numeric:
                try:
                    row[key] = float(raw[key])
                except (TypeError, ValueError):
                    raise ValueError(f"row {line}: bad value for {key}: {raw[key]!r}") from None
            rows.append(row)
    return rows


def evaluate(rows, sqi_bins=10):
    """Aggregate prediction rows into the full evaluation report."""
    if not rows:
        raise ValueError("cannot evaluate an empty prediction set")
    subjects = len({r["subject_id"] for r in rows})
    wf = np.array([r["waveform_mae"] for r in rows])

    summaries = {}
    for name in QUANTITIES:
        truth = np.array([r[f"{name}_true"] for r in rows])
        pred = np.array([r[f"{name}_pred"] for r in rows])
        err = pred - truth
        abs_err = np.abs(err)
        summaries[name] = QuantitySummary(
            mae=float(abs_err.mean()),
            mae_std=float(abs_err.std()),
            bhs=bhs_grade(abs_err),
            aami=aami_check_quantity(err, subjects),
            agreement=bland_altman(pred, truth),
        )

    true_bp = [BPValues(sbp=r["sbp_true"], dbp=r["dbp_true"], map=r["map_true"]) for r in rows]
    pred_bp = [BPValues(sbp=r["sbp_pred"], dbp=r["dbp_pred"], map=r["map_pred"]) for r in rows]

    return EvaluationReport(
        episodes=len(rows),
        subjects=subjects,
        waveform_mae=float(wf.mean()),
        waveform_mae_std=float(wf.std()),
        dbp=summaries["dbp"],
        map=summaries["map"],
        sbp=summaries["sbp"],
        classification=classification_report(true_bp, pred_bp),
        sqi_buckets=sqi_error_analysis(rows, bins=sqi_bins),
    )


# ------------------------------------------------------------ figure data files

def write_figure_data(rows, directory):
    """CSV data behind the standard figures: error histograms, agreement
    points, and regression points, one file per quantity."""
    os.makedirs(directory, exist_ok=True)
    for name in QUANTITIES:
        truth = np.array([r[f"{name}_true"] for r in rows])
        pred = np.array([r[f"{name}_pred"] for r in rows])
        err = pred - truth

        lo = math.floor(err.min())
        hi = math.ceil(err.max())
        edges = np.arange(lo, hi + 1.0) if hi > lo else np.array([lo, lo + 1.0])
        counts, edges = np.histogram(err, bins=edges)
        with open(os.path.join(directory, f"hist_{name}.csv"), "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["bin_lo", "bin_hi", "count"])
            for i, c in enumerate(counts):
                writer.writerow([repr(float(edges[i])), repr(float(edges[i + 1])), int(c)])

        with open(os.path.join(directory, f"bland_altman_{name}.csv"), "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["mean", "difference"])
            for t, p in zip(truth, pred):
                writer.writerow([repr((t + p) / 2.0), repr(p - t)])

        with open(os.path.join(directory, f"regression_{name}.csv"), "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["truth", "prediction"])
            for t, p in zip(truth, pred):
                writer.writerow([repr(t), repr(p)])
