"""Clinical evaluation battery: BHS grading, AAMI criterion, agreement
statistics, hypertension classification, and SQI-stratified errors."""

import csv
import json
import math
import os
from dataclasses import asdict, dataclass

import numpy as np

from .pipeline import PREDICTION_COLUMNS

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
# upper limits (mmHg, inclusive) of the first two classes under each rule set
HYPERTENSION_LIMITS = {"dbp": (80.0, 90.0), "sbp": (120.0, 140.0)}


# ------------------------------------------------------------------ BHS / AAMI

@dataclass
class BHSResult:
    percentages: tuple  # cumulative % of absolute errors <= 5, 10, 15 mmHg
    grade: str


def bhs_grade_from_percentages(percentages):
    """Best grade whose three cumulative thresholds are all met; else D."""
    for candidate, required in BHS_GRADE_TABLE.items():
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
    """Two-sided significance from Student's t with n - 2 degrees of freedom,
    p = I_{1-r^2}((n-2)/2, 1/2), reported as '< 1e-6' past that resolution."""
    if n < 3:
        return "n/a"
    r = min(1.0, max(-1.0, r))
    if abs(r) == 1.0:
        return "< 1e-6"
    p = _regularized_beta((n - 2) / 2.0, 0.5, 1.0 - r * r, r * r)
    return "< 1e-6" if p < 1e-6 else f"{p:.6g}"


# Stirling series coefficients B_2k / (2k (2k - 1)), k = 1..8
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156, -3617 / 122400)


def _stirling_tail(x):
    """lgamma(x) - ((x - 0.5)·ln x - x + ln sqrt(2π)), from its asymptotic
    series; the first omitted term is below 1e-17 for x >= 10."""
    inv2 = 1.0 / (x * x)
    total = 0.0
    for c in reversed(_STIRLING):
        total = total * inv2 + c
    return total / x


def _log_inverse_beta(a, b):
    """ln(1 / B(a, b)) = lgamma(a + b) - lgamma(a) - lgamma(b).

    Once the larger argument q reaches 10, lgamma(p + q) and lgamma(q), of
    size q·ln q, would cancel and cost about log10(q·ln q) digits; there
    Stirling's formula gives their difference from terms of the size of the
    result (the split R's lbeta uses). That keeps full precision while the
    smaller argument p is small, as the p-value's b = 1/2 is.
    """
    p, q = min(a, b), max(a, b)
    if q < 10.0:
        return math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    return (
        _stirling_tail(p + q) - _stirling_tail(q) - math.lgamma(p) - p
        + p * math.log(p + q) - (q - 0.5) * math.log1p(-p / (p + q))
    )


def _regularized_beta(a, b, x, y):
    """I_x(a, b) for 0 < x <= 1, given y = 1 - x too so that an x near 1 keeps
    its precision: Numerical Recipes betai, with betacf's modified Lentz loop."""
    if y == 0.0:
        return 1.0
    front = math.exp(_log_inverse_beta(a, b) + a * math.log1p(-y) + b * math.log(y))
    if b <= 1.0 and a >= 1e3 and (a + b) * y <= 16.0:
        # x near 1 with a large, where the fraction's terms nearly cancel
        # (relative error about 1e-16·a): I_x(a, b) = 1 - I_y(b, a) by the
        # all-positive series I_y(p, q) = y^p (1-y)^q / (p·B(p, q)) ·
        # 2F1(p + q, 1; p + 1; y) (DLMF 8.17.8). It needs a few dozen terms up
        # to (a + b)·y = 16, past which a p-value reads '< 1e-6'.
        term = total = 1.0
        k = 0
        while term > 1e-17 * total:
            term *= (a + b + k) * y / (b + 1.0 + k)
            total += term
            k += 1
        return 1.0 - front * total / b
    # the fraction converges fast only below (a + 1) / (a + b + 2); I_x(a, b) = 1 - I_y(b, a)
    flip = x >= (a + 1.0) / (a + b + 2.0)
    if flip:
        a, b, x = b, a, y

    def floored(value):  # Lentz's stand-in for a zero denominator
        return value if abs(value) >= 1e-300 else 1e-300

    c, d = 1.0, 1.0 / floored(1.0 - (a + b) * x / (a + 1.0))
    h = d
    for m in range(1, 100_000):  # it needs O(sqrt(max(a, b))) steps
        for coefficient in (  # the fraction's even then odd term
            m * (b - m) * x / ((a - 1.0 + 2 * m) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 1.0 + 2 * m)),
        ):
            d = 1.0 / floored(1.0 + coefficient * d)
            c = floored(1.0 + coefficient / c)
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            return 1.0 - front * h / a if flip else front * h / a
    raise ArithmeticError(f"incomplete beta fraction did not converge for a={a}, b={b}, x={x}")


# ------------------------------------------------------------- classification

def _class_index(name, values):
    """HYPERTENSION_CLASSES index of each value by the rule set of one quantity.
    A value equal to a limit is in the lower class; NaN sorts last, in Hypertension."""
    return np.searchsorted(HYPERTENSION_LIMITS[name], values)


def classify_hypertension(sbp, dbp):
    """Independent class labels by the DBP-based and SBP-based rule sets."""
    return tuple(HYPERTENSION_CLASSES[_class_index(name, v)] for name, v in (("dbp", dbp), ("sbp", sbp)))


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


def _rule_report(name, table):
    true_class = _class_index(name, table[f"{name}_true"])
    pred_class = _class_index(name, table[f"{name}_pred"])
    if true_class.shape != pred_class.shape:
        raise ValueError(f"true and predicted {name} columns differ in length")
    confusion = np.zeros((3, 3), dtype=np.int64)
    np.add.at(confusion, (true_class, pred_class), 1)
    per_class = {}
    for i, cls in enumerate(HYPERTENSION_CLASSES):
        tp = int(confusion[i, i])
        pred_total = int(confusion[:, i].sum())
        true_total = int(confusion[i, :].sum())
        undefined = pred_total == 0 or true_total == 0
        precision = tp / pred_total if pred_total else 0.0
        recall = tp / true_total if true_total else 0.0
        f1 = (2 * precision * recall / (precision + recall)) if (precision + recall) else 0.0
        per_class[cls] = ClassMetrics(
            precision=precision, recall=recall, f1=f1, support=true_total, undefined=undefined
        )
    return RuleReport(confusion=confusion, per_class=per_class)


def classification_report(table):
    """Confusion matrices and per-class metrics of a prediction table under both rule sets."""
    return ClassificationReport(by_dbp=_rule_report("dbp", table), by_sbp=_rule_report("sbp", table))


# --------------------------------------------------------------- SQI analysis

@dataclass
class SqiBucket:
    lo: float
    hi: float
    count: int
    mae_dbp: float
    mae_map: float
    mae_sbp: float


def sqi_error_analysis(table, bin_edges=None, bins=10):
    """Bucket a prediction table's episodes by input-signal skewness; MAE triple per bucket.

    Empty buckets are absent from the result rather than reported as zero.
    """
    if bins < 1:
        raise ValueError(f"bins must be >= 1, got {bins}")
    sqis = table["sqi"]
    if sqis.size == 0:
        return []
    if bin_edges is None:
        lo, hi = float(sqis.min()), float(sqis.max())
        if lo == hi:
            hi = lo + 1.0
        bin_edges = np.linspace(lo, hi, bins + 1)
    bin_edges = np.asarray(bin_edges, dtype=np.float64)
    which = np.clip(np.searchsorted(bin_edges, sqis, side="right") - 1, 0, len(bin_edges) - 2)
    abs_err = {name: np.abs(table[f"{name}_pred"] - table[f"{name}_true"]) for name in QUANTITIES}
    return [
        SqiBucket(
            lo=float(bin_edges[b]),
            hi=float(bin_edges[b + 1]),
            count=int(np.count_nonzero(which == b)),
            **{f"mae_{name}": float(abs_err[name][which == b].mean()) for name in QUANTITIES},
        )
        for b in np.unique(which)
    ]


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
    """The pipeline predictions CSV as one prediction table: a dict from each
    PREDICTION_COLUMNS name to an array, of str for episode_index and
    subject_id and of float64 for the rest. Errors carry row numbers; a value
    that is not a finite number is one."""
    labels = PREDICTION_COLUMNS[:2]
    columns = {name: [] for name in PREDICTION_COLUMNS}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or not set(PREDICTION_COLUMNS).issubset(reader.fieldnames):
            raise ValueError(
                f"predictions CSV needs columns {sorted(PREDICTION_COLUMNS)}, got {reader.fieldnames}"
            )
        for line, raw in enumerate(reader, start=2):
            for key in labels:
                columns[key].append(raw[key])
            for key in PREDICTION_COLUMNS[2:]:
                try:
                    value = float(raw[key])
                except (TypeError, ValueError):
                    value = math.nan
                if not math.isfinite(value):
                    raise ValueError(f"row {line}: bad value for {key}: {raw[key]!r}")
                columns[key].append(value)
    return {
        key: np.array(values, dtype=str if key in labels else np.float64) for key, values in columns.items()
    }


def evaluate(table, sqi_bins=10):
    """Aggregate a prediction table into the full evaluation report."""
    if not isinstance(table, dict):  # a list of row dicts, the form perfbench's report check passes
        table = {key: np.array([row[key] for row in table]) for key in PREDICTION_COLUMNS}
    episodes = table["waveform_mae"].size
    if episodes == 0:
        raise ValueError("cannot evaluate an empty prediction set")
    subjects = np.unique(table["subject_id"]).size
    summaries = {}
    for name in QUANTITIES:
        truth, pred = table[f"{name}_true"], table[f"{name}_pred"]
        err = pred - truth
        abs_err = np.abs(err)
        summaries[name] = QuantitySummary(
            mae=float(abs_err.mean()),
            mae_std=float(abs_err.std()),
            bhs=bhs_grade(abs_err),
            aami=aami_check_quantity(err, subjects),
            agreement=bland_altman(pred, truth),
        )
    return EvaluationReport(
        episodes=episodes,
        subjects=subjects,
        waveform_mae=float(table["waveform_mae"].mean()),
        waveform_mae_std=float(table["waveform_mae"].std()),
        classification=classification_report(table),
        sqi_buckets=sqi_error_analysis(table, bins=sqi_bins),
        **summaries,
    )


# ------------------------------------------------------------ figure data files

def write_figure_data(table, directory):
    """Numeric CSV data behind the standard figures: error histograms,
    agreement points, and regression points, one file per quantity."""
    os.makedirs(directory, exist_ok=True)
    for name in QUANTITIES:
        truth, pred = table[f"{name}_true"], table[f"{name}_pred"]
        err = pred - truth
        lo = math.floor(err.min())
        hi = max(math.ceil(err.max()), lo + 1)  # at least one 1 mmHg bin
        counts, edges = np.histogram(err, bins=np.arange(lo, hi + 1.0))
        edges, pairs = list(map(repr, edges.tolist())), list(zip(truth.tolist(), pred.tolist()))
        for prefix, header, rows in (
            ("hist", ["bin_lo", "bin_hi", "count"], zip(edges, edges[1:], counts.tolist())),
            ("bland_altman", ["mean", "difference"], ([repr((t + p) / 2.0), repr(p - t)] for t, p in pairs)),
            ("regression", ["truth", "prediction"], ([repr(t), repr(p)] for t, p in pairs)),
        ):
            with open(os.path.join(directory, f"{prefix}_{name}.csv"), "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(header)
                writer.writerows(rows)
