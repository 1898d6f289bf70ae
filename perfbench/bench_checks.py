"""Correctness checks on bpwave's outputs, computed apart from bpwave.

Each check raises CheckFailed with a message naming what disagreed. The
tolerances are stated beside each check; where bpwave and the check do the
same float64 arithmetic in the same order, equality is exact.
"""

import math

import numpy as np

# Off kinks, a central difference of the normalised O(1) objective agrees
# with an exact gradient to ~1e-6 relative or better; a wrong backward term
# is off by far more than GRADIENT_RTOL, the gate the repository's own
# gradient checks use. A step counts only if its one-sided slopes agree
# within KINK_RTOL, which keeps a kink inside the step from spoiling the
# central quotient. Entries below GRADIENT_FLOOR (a channel whose ReLU is
# dead everywhere has a zero gradient) are compared in absolute terms.
GRADIENT_RTOL = 1e-3
KINK_RTOL = 2e-5
GRADIENT_FLOOR = 1e-6
GRADIENT_STEPS = (1e-4, 1e-5, 1e-6, 1e-7, 1e-8)

# The reference forward sums in another order than bpwave's im2col products;
# measured disagreement is ~4e-12 mmHg at full width.
REFERENCE_RTOL = 1e-9

# bpwave pins the MAP into [DBP, SBP], which can move it by an ulp.
MEAN_RTOL = 1e-12
REPORT_RTOL = 1e-12


class CheckFailed(AssertionError):
    pass


def require(condition, message):
    if not condition:
        raise CheckFailed(message)


def _close(a, b, rtol):
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))


# ---------------------------------------------------------------- train-desk

def check_losses(stage, history):
    """Every loss finite; the last epoch's training loss below the first's."""
    losses = [h.train_loss for h in history] + [h.val_loss for h in history if h.val_loss is not None]
    require(all(math.isfinite(v) for v in losses), f"{stage}: non-finite loss in {losses}")
    require(history[-1].train_loss < history[0].train_loss,
            f"{stage}: training loss did not fall ({history[0].train_loss} -> {history[-1].train_loss})")


def check_identical(stage, history_a, entries_a, history_b, entries_b):
    """Two runs of one seed: bitwise-identical histories and checkpoint entries."""
    rows_a = [(h.epoch, h.train_loss, h.val_loss) for h in history_a]
    rows_b = [(h.epoch, h.train_loss, h.val_loss) for h in history_b]
    require(rows_a == rows_b, f"{stage}: histories differ between runs of one seed")
    require([n for n, _ in entries_a] == [n for n, _ in entries_b], f"{stage}: checkpoint entry names differ")
    for (name, a), (_, b) in zip(entries_a, entries_b):
        require(a.shape == b.shape and a.tobytes() == b.tobytes(),
                f"{stage}: checkpoint entry {name} differs between runs of one seed")


def central_difference_error(objective, value, analytic, index):
    """Relative error of one analytic gradient entry against central differences.

    Only steps over which the objective is smooth count: where the forward
    and backward one-sided slopes disagree by more than curvature and
    rounding allow, a ReLU or max-pool kink lies within the step. The entry
    keeps its best error over the smooth steps, or None when every step
    straddles a kink (the point sits on one, where the analytic value is one
    subgradient of many). A wrong gradient is wrong at every smooth step.
    """
    flat = value.reshape(-1)
    keep = flat[index]
    exact = float(analytic.reshape(-1)[index])
    best = None
    try:
        centre = objective()
        rounding = 8.0 * np.finfo(np.float64).eps * max(abs(centre), 1.0)
        for h in GRADIENT_STEPS:
            flat[index] = keep + h
            up = objective()
            flat[index] = keep - h
            down = objective()
            forward, backward = (up - centre) / h, (centre - down) / h
            smooth_gap = KINK_RTOL * max(abs(forward), abs(backward), GRADIENT_FLOOR) + rounding / h
            if abs(forward - backward) > smooth_gap:
                continue
            numeric = (up - down) / (2.0 * h)
            error = abs(numeric - exact) / max(abs(numeric), abs(exact), GRADIENT_FLOOR)
            best = error if best is None else min(best, error)
            if best < GRADIENT_RTOL:
                break
    finally:
        flat[index] = keep
    return best


def check_gradients(stage, objective, blocks, rng, per_kind=2, max_draws=6):
    """Central differences against the analytic gradient on random entries of each kind.

    blocks maps a kind (layer type and parameter) to (name, value array,
    analytic gradient array) triples. Per kind, entries are drawn until
    per_kind of them lie off kinks or max_draws were tried; every such entry
    must agree, and every kind needs at least one.
    """
    for kind in sorted(blocks):
        decided = 0
        for _ in range(max_draws):
            if decided == per_kind:
                break
            name, value, analytic = blocks[kind][rng.integers(len(blocks[kind]))]
            index = int(rng.integers(value.size))
            error = central_difference_error(objective, value, analytic, index)
            if error is None:
                continue
            require(error < GRADIENT_RTOL,
                    f"{stage}: gradient of {name}[{index}] off by relative {error:.3e} "
                    f"(tolerance {GRADIENT_RTOL:g})")
            decided += 1
        require(decided > 0,
                f"{stage}: all {max_draws} sampled entries of {kind} sit on a kink")


# ---------------------------------------------------------------- infer-full

def check_bp_rows(rows, episodes, failures):
    """One row per episode; SBP/DBP/MAP are the max/min/mean of the returned waveform."""
    require(not failures, f"episodes failed: {failures}")
    require([r.index for r in rows] == list(range(episodes)),
            f"expected a row for each of {episodes} episodes, got {len(rows)}")
    for r in rows:
        wave = np.asarray(r.pred_abp)
        require(r.pred_bp.sbp == float(wave.max()), f"episode {r.index}: SBP is not the waveform max")
        require(r.pred_bp.dbp == float(wave.min()), f"episode {r.index}: DBP is not the waveform min")
        require(_close(r.pred_bp.map, float(wave.mean()), MEAN_RTOL),
                f"episode {r.index}: MAP is not the waveform mean")


def check_digests(digests, loaded):
    """loaded: stage -> name -> digest of the entries bpwave loaded."""
    for stage, saved in digests.items():
        require(sorted(saved) == sorted(loaded[stage]), f"{stage}: loaded entry names differ from the saved ones")
        for name, digest in saved.items():
            require(loaded[stage][name] == digest, f"{stage}: loaded entry {name} differs from the saved one")


def check_reference(index, predicted, reference):
    scale = 1.0 + float(np.abs(reference).max())
    gap = float(np.abs(np.asarray(predicted) - reference).max())
    require(gap <= REFERENCE_RTOL * scale,
            f"episode {index}: waveform differs from the reference forward by {gap:.3e} mmHg "
            f"(tolerance {REFERENCE_RTOL * scale:.3e})")


# ------------------------------------------------------------------ csv-desk

def check_import(store, dropped, kept, planted):
    """The importer keeps exactly the generator's in-range windows, bitwise, and drops the rest."""
    require(dropped == planted, f"dropped {dropped} windows, {planted} were planted out of range")
    require(len(store) == len(kept), f"imported {len(store)} episodes, the generator wrote {len(kept)}")
    for i, (rec, (subject, ppg, abp)) in enumerate(zip(store, kept)):
        require(rec.subject_id == subject, f"episode {i}: subject {rec.subject_id!r}, expected {subject!r}")
        require(rec.ppg.tobytes() == np.ascontiguousarray(ppg).tobytes(), f"episode {i}: PPG differs from the generator's")
        require(rec.abp.tobytes() == np.ascontiguousarray(abp).tobytes(), f"episode {i}: ABP differs from the generator's")


def check_preprocessed(store, kept):
    """Each conditioned window has zero mean and no more energy than its raw input.

    An orthogonal transform with zeroed bands and soft shrinkage, followed by
    mean removal, cannot add energy.
    """
    require(len(store) == len(kept), f"preprocessed {len(store)} windows, expected {len(kept)}")
    for i, (rec, (subject, ppg, abp)) in enumerate(zip(store, kept)):
        raw_energy = float(np.dot(ppg, ppg))
        energy = float(np.dot(rec.ppg, rec.ppg))
        require(rec.subject_id == subject, f"window {i}: subject id changed")
        require(rec.abp.tobytes() == np.ascontiguousarray(abp).tobytes(), f"window {i}: ABP changed")
        require(abs(float(rec.ppg.mean())) <= 1e-12 * max(1.0, float(np.abs(rec.ppg).max())),
                f"window {i}: preprocessed PPG mean {rec.ppg.mean():.3e} is not zero")
        require(energy <= raw_energy * (1.0 + 1e-12), f"window {i}: preprocessing added energy")


def check_same_store(a, b, what):
    require(len(a) == len(b), f"{what}: {len(a)} vs {len(b)} episodes")
    for i, (x, y) in enumerate(zip(a, b)):
        require(x.subject_id == y.subject_id and x.ppg.tobytes() == y.ppg.tobytes()
                and x.abp.tobytes() == y.abp.tobytes(), f"{what}: episode {i} differs")


def check_true_bp(columns, kept):
    """The predictions' true SBP/DBP/MAP are the max/min/mean of the generator's windows."""
    abp = np.stack([w[2] for w in kept])
    require(len(columns["sbp_true"]) == len(kept),
            f"{len(columns['sbp_true'])} prediction rows for {len(kept)} episodes")
    require(np.array_equal(columns["sbp_true"], abp.max(axis=1)), "sbp_true is not the window max")
    require(np.array_equal(columns["dbp_true"], abp.min(axis=1)), "dbp_true is not the window min")
    require(np.allclose(columns["map_true"], abp.mean(axis=1), rtol=MEAN_RTOL, atol=0.0),
            "map_true is not the window mean")


def check_report(report, columns):
    """MAE, mean error, STD and BHS percentages per quantity, and the waveform MAE,
    against values recomputed here from the predictions CSV columns."""
    for q in ("sbp", "dbp", "map"):
        err = columns[f"{q}_pred"] - columns[f"{q}_true"]
        expected = {
            "mae": float(np.mean(np.abs(err))),
            "mean_error": float(np.mean(err)),
            "std": float(np.sqrt(np.mean((err - np.mean(err)) ** 2))),
        }
        got = {"mae": report[q]["mae"], "mean_error": report[q]["aami"]["mean_error"],
               "std": report[q]["aami"]["std"]}
        for key, value in expected.items():
            require(_close(got[key], value, REPORT_RTOL), f"report {q} {key}: {got[key]!r}, recomputed {value!r}")
        for limit, pct in zip((5.0, 10.0, 15.0), report[q]["bhs"]["percentages"]):
            expected_pct = 100.0 * np.count_nonzero(np.abs(err) <= limit) / err.size
            require(_close(pct, expected_pct, REPORT_RTOL),
                    f"report {q} BHS <= {limit:g} mmHg: {pct!r}, recomputed {expected_pct!r}")
    wf = float(np.mean(columns["waveform_mae"]))
    require(_close(report["waveform_mae"], wf, REPORT_RTOL),
            f"report waveform MAE {report['waveform_mae']!r}, recomputed {wf!r}")
    require(report["episodes"] == len(columns["waveform_mae"]), "report episode count differs from the CSV")
