import io
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bpwave import datapipe
from bpwave.container import BadMagicError, BadVersionError, TruncatedContainerError
from bpwave.datapipe import (
    EpisodeRecord,
    EpisodeStore,
    bin_and_subsample,
    bin_key,
    dataset_stats,
    extract_bp,
    read_signal_csv,
    read_store,
    segment_episodes,
    split_by_subject,
    split_train_test,
    synth_generate,
    write_store,
)


def flat_record(level=100.0, subject="s0"):
    return EpisodeRecord(np.zeros(1024), np.full(1024, level), subject)


# ------------------------------------------------------------------ segmenting

def test_segment_counts_and_remainder():
    ppg = np.zeros(2560)
    abp = np.full(2560, 100.0)
    records, dropped = segment_episodes(ppg, abp, "a")
    assert len(records) == 2 and dropped == 0
    assert all(r.subject_id == "a" for r in records)


def test_segment_too_short():
    records, dropped = segment_episodes(np.zeros(1023), np.full(1023, 90.0), "a")
    assert records == [] and dropped == 0


def test_segment_drops_insane_abp():
    abp = np.full(2048, 100.0)
    abp[1500] = 500.0  # second window violates the sanity bounds
    records, dropped = segment_episodes(np.zeros(2048), abp, "a")
    assert len(records) == 1 and dropped == 1


def test_segment_length_mismatch_rejected():
    with pytest.raises(ValueError):
        segment_episodes(np.zeros(1024), np.zeros(1025), "a")


# --------------------------------------------------------------------- binning

def test_bin_key_floor_division():
    assert bin_key(120.0, 80.0) == (12, 8)
    assert bin_key(119.99, 79.99) == (11, 7)


def test_subsample_quarter_of_one_bin():
    store = EpisodeStore([flat_record(100.0, f"s{i}") for i in range(100)])
    out = bin_and_subsample(store, seed=1)
    assert len(out) == 25


def test_subsample_cap_applies():
    # a single bin of 20000: 25% would be 5000, capped at 2500
    store = EpisodeStore([flat_record(100.0, f"s{i}") for i in range(20000)])
    out = bin_and_subsample(store, seed=1)
    assert len(out) == 2500


@pytest.mark.parametrize("fraction, cap, message", [
    (0.0, 2500, r"^fraction must be in \(0, 1\], got 0.0$"),
    (-0.25, 2500, r"^fraction must be in \(0, 1\], got -0.25$"),
    (1.01, 2500, r"^fraction must be in \(0, 1\], got 1.01$"),
    (float("nan"), 2500, r"^fraction must be in \(0, 1\], got nan$"),
    (0.25, 0, r"^cap must be >= 1, got 0$"),
])
def test_subsample_rejects_a_fraction_or_cap_that_keeps_nothing(fraction, cap, message):
    store = EpisodeStore([flat_record(100.0, f"s{i}") for i in range(4)])
    with pytest.raises(ValueError, match=message):
        bin_and_subsample(store, fraction=fraction, cap=cap)
    assert len(bin_and_subsample(store, fraction=1.0, cap=1)) == 1


def test_subsample_deterministic_and_duplicate_free():
    rng = np.random.default_rng(0)
    records = [
        EpisodeRecord(np.zeros(1024), np.full(1024, float(rng.uniform(60, 160))), f"s{i}")
        for i in range(200)
    ]
    store = EpisodeStore(records)
    a = bin_and_subsample(store, seed=7)
    b = bin_and_subsample(store, seed=7)
    assert a.equals(b)
    ids = [id(r) for r in a]
    assert len(set(ids)) == len(ids)


def test_subsample_respects_per_bin_bound():
    rng = np.random.default_rng(3)
    records = [
        EpisodeRecord(np.zeros(1024), np.full(1024, float(rng.uniform(60, 160))), f"s{i}")
        for i in range(500)
    ]
    store = EpisodeStore(records)
    out = bin_and_subsample(store, fraction=0.25, cap=10, seed=2)
    counts = {}
    for rec in out:
        bp = extract_bp(rec.abp)
        key = bin_key(bp.sbp, bp.dbp)
        counts[key] = counts.get(key, 0) + 1
    original = {}
    for rec in store:
        bp = extract_bp(rec.abp)
        key = bin_key(bp.sbp, bp.dbp)
        original[key] = original.get(key, 0) + 1
    for key, c in counts.items():
        assert c <= min(round(0.25 * original[key]), 10)


# -------------------------------------------------------------------- splitting

def test_split_counts_disjoint_exhaustive():
    store = EpisodeStore([flat_record(100.0, f"s{i}") for i in range(50)])
    train, test = split_train_test(store, 30, seed=5)
    assert len(train) == 30 and len(test) == 20
    train_ids = {r.subject_id for r in train}
    test_ids = {r.subject_id for r in test}
    assert train_ids.isdisjoint(test_ids)
    assert train_ids | test_ids == {f"s{i}" for i in range(50)}


def test_split_all_train():
    store = EpisodeStore([flat_record(100.0, f"s{i}") for i in range(5)])
    train, test = split_train_test(store, 5, seed=0)
    assert len(train) == 5 and len(test) == 0


def test_split_overdraw_rejected():
    store = EpisodeStore([flat_record()])
    with pytest.raises(ValueError):
        split_train_test(store, 2)


def test_split_by_subject_keeps_subjects_whole():
    records = [flat_record(100.0, f"s{i // 4}") for i in range(40)]
    train, test = split_by_subject(EpisodeStore(records), 0.5, seed=1)
    assert {r.subject_id for r in train}.isdisjoint({r.subject_id for r in test})
    assert len(train) + len(test) == 40


def test_split_by_subject_is_pinned():
    """Uneven subjects, so the count of each one steers where the split stops."""
    sizes = [1, 7, 2, 9, 3, 5, 4, 6, 3]
    store = EpisodeStore([flat_record(100.0, f"s{j}") for j, n in enumerate(sizes) for _ in range(n)])
    pinned = {
        0: ({"s2", "s3", "s4", "s5", "s6", "s8"}, {"s0", "s1", "s7"}),
        5: ({"s0", "s1", "s2", "s3", "s4", "s7"}, {"s5", "s6", "s8"}),
    }
    for seed, (train_subjects, test_subjects) in pinned.items():
        train, test = split_by_subject(store, 0.6, seed=seed)
        assert {r.subject_id for r in train} == train_subjects
        assert {r.subject_id for r in test} == test_subjects


# ---------------------------------------------------------------------- storage

def test_store_roundtrip(tmp_path):
    store = synth_generate(5, seed=3)
    path = tmp_path / "d.p2a"
    write_store(path, store)
    assert read_store(path).equals(store)


def test_store_roundtrip_bitwise(tmp_path):
    store = synth_generate(4, seed=9)
    p1, p2 = tmp_path / "a.p2a", tmp_path / "b.p2a"
    write_store(p1, store)
    write_store(p2, read_store(p1))
    assert p1.read_bytes() == p2.read_bytes()


def test_empty_store_roundtrip(tmp_path):
    path = tmp_path / "empty.p2a"
    write_store(path, EpisodeStore([]))
    assert len(read_store(path)) == 0


def test_store_bad_magic(tmp_path):
    path = tmp_path / "bad.p2a"
    path.write_bytes(b"WRONGMAG!" + b"\x00" * 32)
    with pytest.raises(BadMagicError):
        read_store(path)


def test_store_bad_version(tmp_path):
    path = tmp_path / "v.p2a"
    write_store(path, EpisodeStore([]))
    raw = bytearray(path.read_bytes())
    raw[9] = 7
    path.write_bytes(bytes(raw))
    with pytest.raises(BadVersionError):
        read_store(path)


def test_store_truncation_names_record(tmp_path):
    path = tmp_path / "cut.p2a"
    write_store(path, synth_generate(3, seed=0))
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) - 900])
    with pytest.raises(TruncatedContainerError, match="record 2"):
        read_store(path)


class RecordingReader(io.BytesIO):
    """In-memory file that counts its seeks and records every read size."""

    def __init__(self, data):
        super().__init__(data)
        self.seeks, self.requests = 0, []

    def seek(self, *args):
        self.seeks += 1
        return super().seek(*args)

    def read(self, size=-1):
        self.requests.append(size)
        return super().read(size)

    def readinto(self, buffer):
        self.requests.append(memoryview(buffer).nbytes)
        return super().readinto(buffer)


def test_store_read_measures_the_file_end_once(tmp_path, monkeypatch):
    """Each record's declared sizes are checked against the file end measured
    once, so reading more records costs no more seeks; a size past the end
    still fails naming its record, before a read of that size."""
    raws = {}
    for n in (1, 12, 3):
        write_store(tmp_path / f"{n}.p2a", synth_generate(n, seed=4))
        raws[n] = (tmp_path / f"{n}.p2a").read_bytes()

    def read_back(reader):
        monkeypatch.setattr(datapipe, "open", lambda path, mode: reader, raising=False)
        return read_store("s.p2a")

    few, more = RecordingReader(raws[1]), RecordingReader(raws[12])
    assert read_back(few).equals(synth_generate(1, seed=4))
    assert read_back(more).equals(synth_generate(12, seed=4))
    assert few.seeks == more.seeks <= 2

    raw = bytearray(raws[3])
    name = len(synth_generate(3, seed=4).records[1].subject_id.encode())
    second = len(raw) - 2 * (4 + name + 2 * 8 * datapipe.EPISODE_SAMPLES)  # record 1's name length
    assert raw[second : second + 4] == struct.pack("<I", name)
    raw[second : second + 4] = struct.pack("<I", 2**32 - 1)
    cut = RecordingReader(bytes(raw))
    with pytest.raises(TruncatedContainerError, match="record 1 subject id"):
        read_back(cut)
    assert max(cut.requests) <= len(raw)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 6))
def test_store_roundtrip_bitwise_random(tmp_path_factory, seed, n):
    store = synth_generate(n, seed=seed)
    path = tmp_path_factory.mktemp("stores") / "r.p2a"
    write_store(path, store)
    first = path.read_bytes()
    write_store(path, read_store(path))
    assert path.read_bytes() == first


def test_store_roundtrip_bitwise_1000_stores(tmp_path):
    rng = np.random.default_rng(99)
    path = tmp_path / "loop.p2a"
    for i in range(1000):
        n = int(rng.integers(1, 4))
        records = [
            EpisodeRecord(
                rng.normal(size=1024),
                rng.uniform(40.0, 200.0, size=1024),
                f"r{i}-{j}",
            )
            for j in range(n)
        ]
        store = EpisodeStore(records)
        write_store(path, store)
        first = path.read_bytes()
        write_store(path, read_store(path))
        assert path.read_bytes() == first


# ------------------------------------------------------------------- csv import

def test_csv_import(tmp_path):
    path = tmp_path / "signals.csv"
    rows = ["ppg,abp,subject_id"]
    for subject, n in (("a", 2048), ("b", 1500)):
        for i in range(n):
            rows.append(f"{0.1 * (i % 7)},{90 + (i % 11)},{subject}")
    path.write_text("\n".join(rows) + "\n")
    store, dropped = read_signal_csv(path)
    assert len(store) == 3 and dropped == 0  # 2 from a, 1 from b
    assert [r.subject_id for r in store] == ["a", "a", "b"]


def test_csv_import_bad_value_names_line(tmp_path):
    path = tmp_path / "bad.csv"
    # a bad float, one float() reads and numpy does not, rows short of one
    # and of two fields, and a row with two fields more than the header
    for bad_row in ("oops,90,a", "1_0,90,a", "0.5,90", "0.5", "0.1,90,a,oops,7"):
        path.write_text(f"ppg,abp,subject_id\n0.1,90,a\n{bad_row}\n")
        with pytest.raises(ValueError, match="line 3"):
            read_signal_csv(path)


@pytest.mark.parametrize("kind", ["run", "text", "drop", "extra"])
@pytest.mark.parametrize("field", [0, 1, 2])
@pytest.mark.parametrize("line", [1, 2, 3, 4])
def test_every_csv_parse_failure_names_its_line(tmp_path, line, field, kind):
    """One field of one line spoilt: a 140,000-character run (past the csv
    module's field size limit), a word, the field dropped or one added. A
    failure names the spoilt line."""
    lines = [["ppg", "abp", "subject_id"]] + [["0.1", "90", "a"] for _ in range(3)]
    row = lines[line - 1]
    if kind == "run":
        row[field] += "x" * 140_000
    elif kind == "text":
        row[field] = "oops"
    elif kind == "drop":
        del row[field]
    else:
        row.insert(field, "7")
    path = tmp_path / "spoilt.csv"
    path.write_text("".join(",".join(fields) + "\n" for fields in lines))
    if line == 1 and kind != "run":
        return  # a spoilt column name is a missing column, not a parse failure
    if kind in ("run", "text") and field == 2 and line > 1:
        read_signal_csv(path)  # any subject id parses
        return
    with pytest.raises(ValueError, match=f"^line {line}: "):
        read_signal_csv(path)


def hand_written_signal(n):
    """PPG and ABP samples whose reprs a CSV holds and float() reads back exactly."""
    i = np.arange(n)
    return np.round(np.sin(i / 7.0), 6), 100.0 + (i % 23) * 0.5


def test_csv_import_dialect(tmp_path):
    """What the importer reads as the csv module reads it: blank lines,
    CRLF line ends, quoted fields and columns in any order, each compared
    with a store written out by hand."""
    path = tmp_path / "signals.csv"
    ppg, abp = hand_written_signal(2100)
    p_list, a_list = ppg.tolist(), abp.tolist()  # floats, whose repr is the CSV text

    # blank lines mid-file are skipped; a bad float after them names its
    # physical line (header 1, 300 rows, 2 blank lines, 400 rows: line 704)
    rows = [f"{p!r},{a!r},a" for p, a in zip(p_list[:1100], a_list[:1100])]
    path.write_text("\n".join(["ppg,abp,subject_id"] + rows[:300] + ["", ""] + rows[300:]) + "\n")
    store, dropped = read_signal_csv(path)
    assert dropped == 0
    assert store.equals(EpisodeStore([EpisodeRecord(ppg[:1024], abp[:1024], "a")]))
    bad = rows[:300] + ["", ""] + rows[300:700] + ["0.1,oops,a"] + rows[700:]
    path.write_text("\n".join(["ppg,abp,subject_id"] + bad) + "\n")
    with pytest.raises(ValueError, match="^line 704: "):
        read_signal_csv(path)

    # CRLF line ends, two subjects
    rows = [f"{p!r},{a!r},{s}" for p, a, s in zip(p_list, a_list, ["a"] * 1030 + ["b"] * 1070)]
    path.write_bytes(("\r\n".join(["ppg,abp,subject_id"] + rows) + "\r\n").encode())
    store, dropped = read_signal_csv(path)
    assert dropped == 0
    assert store.equals(EpisodeStore([
        EpisodeRecord(ppg[:1024], abp[:1024], "a"),
        EpisodeRecord(ppg[1030:2054], abp[1030:2054], "b"),
    ]))

    # a quoted subject id holding the delimiter and a doubled quote
    rows = [f'"{p!r}",{a!r},"ward 3, bed ""7"""' for p, a in zip(p_list[:1030], a_list[:1030])]
    path.write_text("\n".join(["ppg,abp,subject_id"] + rows) + "\n")
    store, dropped = read_signal_csv(path)
    assert dropped == 0
    assert store.equals(EpisodeStore([EpisodeRecord(ppg[:1024], abp[:1024], 'ward 3, bed "7"')]))

    # columns in another order plus one the importer does not use; the
    # second window leaves the ABP sanity range and is dropped
    high = abp.copy()
    high[1500] = 400.0
    rows = [f"s1,{a!r},{p!r},left" for p, a in zip(p_list, high.tolist())]
    path.write_text("\n".join(["subject_id,abp,ppg,site"] + rows) + "\n")
    store, dropped = read_signal_csv(path)
    assert dropped == 1
    assert store.equals(EpisodeStore([EpisodeRecord(ppg[:1024], abp[:1024], "s1")]))


def test_csv_import_missing_columns(tmp_path):
    path = tmp_path / "cols.csv"
    for text in ("ppg,subject_id\n0.1,a\n", ""):
        path.write_text(text)
        with pytest.raises(ValueError):
            read_signal_csv(path)


# -------------------------------------------------------------------- synthesis

def test_synth_extremes_match_draws():
    store = synth_generate(20, seed=4)
    for rec in store:
        bp = extract_bp(rec.abp)
        sbp, dbp = bp.sbp, bp.dbp
        assert 80.0 - 1e-9 <= sbp <= 180.0 + 1e-9
        assert 50.0 - 1e-9 <= dbp <= 110.0 + 1e-9
        assert dbp < sbp - 10.0 + 1e-9
        # max and min hit the drawn values exactly by construction
        assert abs(rec.abp.max() - sbp) < 1e-9
        assert abs(rec.abp.min() - dbp) < 1e-9


def test_synth_deterministic():
    assert synth_generate(10, seed=5).equals(synth_generate(10, seed=5))
    assert not synth_generate(10, seed=5).equals(synth_generate(10, seed=6))


def test_synth_sbp_mean_in_expected_band():
    store = synth_generate(1000, seed=11)
    sbps = [extract_bp(rec.abp).sbp for rec in store]
    assert 120.0 <= float(np.mean(sbps)) <= 140.0


# ------------------------------------------------------------------- statistics

def test_stats_constant_store():
    stats = dataset_stats(EpisodeStore([flat_record(100.0)]))
    for name in ("dbp", "map", "sbp"):
        q = getattr(stats, name)
        assert q.minimum == q.maximum == q.mean == 100.0
        assert q.std == 0.0


def test_stats_two_episode_hand_computation():
    a = flat_record(100.0, "x")
    b = EpisodeRecord(np.zeros(1024), np.full(1024, 100.0), "y")
    b.abp[0] = 120.0  # sbp 120, dbp 100, map 100 + 20/1024
    stats = dataset_stats(EpisodeStore([a, b]))
    assert stats.sbp.minimum == 100.0 and stats.sbp.maximum == 120.0
    assert stats.sbp.mean == 110.0
    assert abs(stats.sbp.std - 10.0) < 1e-12
    expected_map_b = 100.0 + 20.0 / 1024.0
    assert abs(stats.map.maximum - expected_map_b) < 1e-12
    assert stats.episodes == 2 and stats.subjects == 2


def test_stats_format_mirrors_table_rows():
    text = dataset_stats(synth_generate(5, seed=0)).format()
    lines = text.splitlines()
    assert "Min" in lines[1] and "Max" in lines[1] and "Mean" in lines[1] and "Std" in lines[1]
    assert lines[2].startswith("DBP") and lines[3].startswith("MAP") and lines[4].startswith("SBP")


def test_stats_empty_store_rejected():
    with pytest.raises(ValueError):
        dataset_stats(EpisodeStore([]))
