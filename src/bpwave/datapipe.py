"""Episode extraction, binning/subsampling, storage, and synthetic data.

An episode is an aligned pair of 1024-sample PPG and ABP windows at 125 Hz
(8.192 s). Stores are immutable-by-convention collections of episodes with
a binary on-disk format ("P2ABPDATA") and a CSV import path for converting
externally prepared signals.
"""

import csv
import math
import sys
import warnings
from collections import Counter
from dataclasses import astuple, dataclass, field

import numpy as np

from . import container

STORE_MAGIC = b"P2ABPDATA"
STORE_VERSION = 1
EPISODE_SAMPLES = 1024
STORE_FS = 125.0
ABP_SANITY_MMHG = (20.0, 300.0)
BIN_WIDTH_MMHG = 10.0
# consecutive synth_generate episodes that share one subject id
SYNTH_EPISODES_PER_SUBJECT = 8


@dataclass(frozen=True)
class BPValues:
    sbp: float
    dbp: float
    map: float


def extract_bp(abp):
    """SBP/DBP/MAP as the max/min/mean of the pressure window."""
    abp = np.asarray(abp, dtype=np.float64)
    if abp.size == 0:
        raise ValueError("cannot extract blood pressure from an empty signal")
    sbp = float(abp.max())
    dbp = float(abp.min())
    # rounding in the mean can stray one ulp outside [min, max]; the
    # ordering dbp <= map <= sbp is a declared invariant, so pin it
    mean = min(max(float(abp.mean()), dbp), sbp)
    return BPValues(sbp=sbp, dbp=dbp, map=mean)


@dataclass
class EpisodeRecord:
    ppg: np.ndarray
    abp: np.ndarray
    subject_id: str = ""

    def __post_init__(self):
        self.ppg = np.asarray(self.ppg, dtype=np.float64)
        self.abp = np.asarray(self.abp, dtype=np.float64)

    def validate(self):
        for name, x in (("ppg", self.ppg), ("abp", self.abp)):
            if x.shape != (EPISODE_SAMPLES,):
                raise ValueError(f"{name} must have exactly {EPISODE_SAMPLES} samples, got {x.shape}")
            if not np.all(np.isfinite(x)):
                raise ValueError(f"{name} contains non-finite samples")
        lo, hi = ABP_SANITY_MMHG
        if self.abp.min() < lo or self.abp.max() > hi:
            raise ValueError(
                f"abp outside the sanity window [{lo}, {hi}] mmHg: "
                f"[{self.abp.min():.1f}, {self.abp.max():.1f}]"
            )
        return self


@dataclass
class EpisodeStore:
    records: list = field(default_factory=list)
    fs: float = STORE_FS

    def __len__(self):
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def __getitem__(self, i):
        return self.records[i]

    def validate(self):
        if self.fs != STORE_FS:
            raise ValueError(f"store sampling rate must be {STORE_FS} Hz, got {self.fs}")
        for r in self.records:
            r.validate()
        return self

    def subset(self, indices):
        return EpisodeStore([self.records[i] for i in indices], fs=self.fs)

    def equals(self, other):
        if len(self) != len(other) or self.fs != other.fs:
            return False
        return all(
            a.subject_id == b.subject_id
            and np.array_equal(a.ppg, b.ppg)
            and np.array_equal(a.abp, b.abp)
            for a, b in zip(self.records, other.records)
        )


def segment_episodes(ppg, abp, subject_id):
    """Cut aligned signals into consecutive non-overlapping episodes.

    The trailing remainder is discarded; windows violating the ABP sanity
    bounds (or containing non-finite samples) are dropped and counted.
    Returns (records, dropped_count).
    """
    ppg = np.asarray(ppg, dtype=np.float64)
    abp = np.asarray(abp, dtype=np.float64)
    if ppg.shape != abp.shape or ppg.ndim != 1:
        raise ValueError(f"ppg and abp must be aligned 1-D signals, got {ppg.shape} vs {abp.shape}")
    records = []
    dropped = 0
    for start in range(0, ppg.size - EPISODE_SAMPLES + 1, EPISODE_SAMPLES):
        end = start + EPISODE_SAMPLES
        rec = EpisodeRecord(ppg[start:end], abp[start:end], subject_id)
        try:
            rec.validate()
        except ValueError:
            dropped += 1
            continue
        records.append(rec)
    return records, dropped


def bin_key(sbp, dbp):
    """2D grid index over (SBP, DBP) with 10 mmHg bins."""
    return int(math.floor(sbp / BIN_WIDTH_MMHG)), int(math.floor(dbp / BIN_WIDTH_MMHG))


def bin_and_subsample(store, fraction=0.25, cap=2500, seed=0):
    """Per (SBP, DBP) bin, keep round(fraction*n) episodes, at most cap."""
    if not 0 < fraction <= 1:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    if cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")
    bins = {}
    for i, rec in enumerate(store):
        bp = extract_bp(rec.abp)
        bins.setdefault(bin_key(bp.sbp, bp.dbp), []).append(i)
    rng = np.random.default_rng(seed)
    chosen = []
    for key in sorted(bins):
        members = bins[key]
        take = min(round(fraction * len(members)), cap)
        if take > 0:
            chosen.extend(rng.choice(members, size=take, replace=False))
    return store.subset(sorted(int(i) for i in chosen))


def split_train_test(store, train_count, seed=0):
    """Disjoint uniform split whose union is the input store."""
    n = len(store)
    if train_count < 0:
        raise ValueError(f"train_count must be >= 0, got {train_count}")
    if train_count > n:
        raise ValueError(f"cannot take {train_count} training episodes from {n}")
    perm = np.random.default_rng(seed).permutation(n)
    train_idx = sorted(int(i) for i in perm[:train_count])
    test_idx = sorted(int(i) for i in perm[train_count:])
    return store.subset(train_idx), store.subset(test_idx)


def split_by_subject(store, train_fraction, seed=0):
    """Subject-level split: whole subjects go to one side or the other."""
    subjects = sorted({r.subject_id for r in store})
    perm = np.random.default_rng(seed).permutation(len(subjects))
    target = train_fraction * len(store)
    train_subjects = set()
    count = 0
    per_subject = Counter(r.subject_id for r in store)
    for i in perm:
        if count >= target:
            break
        train_subjects.add(subjects[i])
        count += per_subject[subjects[i]]
    train_idx = [i for i, r in enumerate(store) if r.subject_id in train_subjects]
    test_idx = [i for i, r in enumerate(store) if r.subject_id not in train_subjects]
    return store.subset(train_idx), store.subset(test_idx)


# -------------------------------------------------------------------- storage

def write_store(path, store):
    store.validate()
    with open(path, "wb") as fh:
        container.write_header(fh, STORE_MAGIC, STORE_VERSION)
        container.write_u32(fh, len(store))
        container.write_f64_block(fh, np.array([store.fs]))
        for rec in store:
            container.write_string(fh, rec.subject_id)
            container.write_f64_block(fh, rec.ppg)
            container.write_f64_block(fh, rec.abp)


def read_store(path):
    with open(path, "rb") as fh:
        container.read_header(fh, STORE_MAGIC, STORE_VERSION)
        count = container.read_u32(fh, "episode count")
        fs = float(container.read_f64_block(fh, 1, "sampling rate")[0])
        records = []
        for i in range(count):
            subject = container.read_string(fh, f"record {i} subject id")
            ppg = container.read_f64_block(fh, EPISODE_SAMPLES, f"record {i} ppg")
            abp = container.read_f64_block(fh, EPISODE_SAMPLES, f"record {i} abp")
            records.append(EpisodeRecord(ppg, abp, subject))
        if fh.read(1) != b"":
            raise container.ContainerFormatError("trailing bytes after the last record")
    return EpisodeStore(records, fs=fs).validate()


# numpy type of each signal CSV column the importer reads; a subject id is
# kept as the str the csv module would give
_SIGNAL_CSV_COLUMNS = {"ppg": np.float64, "abp": np.float64, "subject_id": object}


def read_signal_csv(path):
    """Import per-sample CSV (columns ppg, abp, subject_id) into a store.

    The header is read with the csv module and the body in one pass of
    numpy's C reader, with the same dialect: comma separated, fields may be
    quoted with ", blank lines are skipped, and CRLF and LF line ends both
    work. Other columns may appear in any order and are ignored, but every
    row must have as many fields as the header. A malformed row raises
    ValueError naming its line. Consecutive rows sharing a subject id form
    one continuous recording, which is segmented into episodes. Returns
    (store, dropped_count).
    """
    with open(path, newline="") as fh:
        header_lines, header = next(_csv_rows(fh), (0, None))
    # a repeated column name means its last column, as with csv.DictReader
    column = {name: i for i, name in enumerate(header or ())}
    if not set(_SIGNAL_CSV_COLUMNS).issubset(column):
        raise ValueError(f"signal CSV needs columns {sorted(_SIGNAL_CSV_COLUMNS)}, got {header}")
    role = {column[name]: name for name in _SIGNAL_CSV_COLUMNS}
    # an ignored column is parsed into a one-character string and dropped
    dtype = [
        (role[i], _SIGNAL_CSV_COLUMNS[role[i]]) if i in role else (f"unused{i}", "U1")
        for i in range(len(header))
    ]
    try:
        with warnings.catch_warnings():
            # a header with no rows is an empty store, not a warning
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            # interning keeps one str per subject id, not one per row
            # encoding=None decodes as open() does and hands converters str,
            # where numpy < 2 defaults to latin-1 bytes
            table = np.loadtxt(path, dtype=dtype, delimiter=",", quotechar='"', comments=None,
                               skiprows=header_lines, ndmin=1, encoding=None,
                               converters={column["subject_id"]: sys.intern})
    except ValueError:
        # numpy numbers rows, not lines, and skips blank ones: find the line
        _raise_bad_line(path, column, len(header))
        raise
    subjects = table["subject_id"]
    ppg = table["ppg"].copy()
    abp = table["abp"].copy()
    starts = np.flatnonzero(subjects[1:] != subjects[:-1]) + 1
    runs = zip([0, *starts], [*starts, len(subjects)]) if len(subjects) else ()
    records = []
    dropped = 0
    for start, stop in runs:
        recs, d = segment_episodes(ppg[start:stop], abp[start:stop], subjects[start])
        records.extend(recs)
        dropped += d
    return EpisodeStore(records), dropped


def _csv_rows(fh):
    """(line number, row) per csv.reader row of fh, the line being the last
    one the row spans. A row the csv module cannot parse (a field over its
    field size limit, say) raises ValueError naming the line it stopped on."""
    reader = csv.reader(fh)
    try:
        for row in reader:
            yield reader.line_num, row
    except csv.Error as exc:
        raise ValueError(f"line {reader.line_num}: {exc}") from None


def _raise_bad_line(path, column, width):
    """Raise the ValueError naming the first malformed row of a signal CSV,
    its line numbered as csv.reader numbers it: a row the csv module cannot
    parse, a row with another field count than the header, or a PPG or ABP
    field that float() or numpy's parser rejects. Return if there is none."""
    with open(path, newline="") as fh:
        rows = _csv_rows(fh)
        next(rows)  # the header
        for line, row in rows:
            if not row:
                continue
            if len(row) != width:
                side = "fewer" if len(row) < width else "more"
                raise ValueError(f"line {line}: row has {side} fields than the header") from None
            for name in ("ppg", "abp"):
                text = row[column[name]]
                try:
                    float(text)
                except ValueError as exc:
                    raise ValueError(f"line {line}: {exc}") from None
                # numpy also rejects digit-group underscores and non-ASCII digits
                if "_" in text or not text.strip().isascii():
                    raise ValueError(f"line {line}: could not convert string to float: {text!r}") from None


# ------------------------------------------------------------------ synthesis

def _pulse_shape(phase, sys_center, sys_width, dicrotic_center, dicrotic_height):
    """Smooth periodic pulse: systolic peak plus a dicrotic bump."""
    # evaluate the wrapped Gaussian over neighbouring periods for continuity
    value = np.zeros_like(phase)
    for k in (-1, 0, 1):
        value += np.exp(-0.5 * ((phase - sys_center + k) / sys_width) ** 2)
        value += dicrotic_height * np.exp(-0.5 * ((phase - dicrotic_center + k) / (2 * sys_width)) ** 2)
    return value


def synth_generate(n, seed=0):
    """Paired pseudo-physiological PPG/ABP episodes for desk-scale work.

    Heart rate is drawn from 50-120 bpm, SBP from [80, 180], DBP from
    [50, 110] with DBP < SBP - 10. The ABP window is rescaled so its max and
    min hit the drawn SBP/DBP exactly; the PPG channel shares the beat phase
    (fixed lag) and carries additive noise.
    """
    if n < 1:
        raise ValueError("need at least one episode")
    rng = np.random.default_rng(seed)
    t = np.arange(EPISODE_SAMPLES) / STORE_FS
    records = []
    for i in range(n):
        hr = rng.uniform(50.0, 120.0)
        sbp = rng.uniform(80.0, 180.0)
        dbp = rng.uniform(50.0, min(110.0, sbp - 10.0))
        phase0 = rng.uniform(0.0, 1.0)
        beat = (hr / 60.0 * t + phase0) % 1.0

        abp_shape = _pulse_shape(beat, 0.20, 0.085, 0.55, 0.42)
        lo, hi = abp_shape.min(), abp_shape.max()
        abp = dbp + (sbp - dbp) * (abp_shape - lo) / (hi - lo)

        ppg_beat = (beat - 0.12) % 1.0  # fixed phase lag behind the pressure wave
        ppg_shape = _pulse_shape(ppg_beat, 0.24, 0.11, 0.58, 0.30)
        ppg = ppg_shape / ppg_shape.max() + 0.02 * rng.normal(size=EPISODE_SAMPLES)

        records.append(EpisodeRecord(ppg, abp, f"synth-{i // SYNTH_EPISODES_PER_SUBJECT:05d}"))
    return EpisodeStore(records).validate()


# ------------------------------------------------------------------ statistics

@dataclass
class QuantityStats:
    minimum: float
    maximum: float
    mean: float
    std: float


@dataclass
class DatasetStats:
    dbp: QuantityStats
    map: QuantityStats
    sbp: QuantityStats
    episodes: int
    subjects: int

    def format(self):
        lines = [
            f"episodes: {self.episodes}   subjects: {self.subjects}",
            f"{'':<6} {'Min':>8} {'Max':>8} {'Mean':>8} {'Std':>8}",
        ]
        for name in ("dbp", "map", "sbp"):
            q = getattr(self, name)
            lines.append(
                f"{name.upper():<6} {q.minimum:>8.2f} {q.maximum:>8.2f} {q.mean:>8.2f} {q.std:>8.2f}"
            )
        return "\n".join(lines)


def dataset_stats(store):
    """Min/max/mean/std of ground-truth SBP, DBP and MAP over the store."""
    if len(store) == 0:
        raise ValueError("cannot compute statistics of an empty store")
    triples = np.array([astuple(extract_bp(rec.abp)) for rec in store])  # columns: sbp, dbp, map
    columns = {"sbp": triples[:, 0], "dbp": triples[:, 1], "map": triples[:, 2]}
    stats = {
        name: QuantityStats(
            minimum=float(v.min()),
            maximum=float(v.max()),
            mean=float(v.mean()),
            std=float(v.std()),
        )
        for name, v in columns.items()
    }
    return DatasetStats(
        dbp=stats["dbp"],
        map=stats["map"],
        sbp=stats["sbp"],
        episodes=len(store),
        subjects=len({r.subject_id for r in store}),
    )
