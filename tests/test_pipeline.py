import json
import re
import sys
import threading
import tracemalloc
from dataclasses import dataclass, fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bpwave import datapipe, evalstats, models, pipeline, tensorops, trainer
from bpwave.models import NetworkOutput
from bpwave.pipeline import (
    PipelineBundle,
    batch_predict,
    extract_bp,
    load_bundle,
    predict_waveform,
    preprocess_ppg,
    preprocess_store,
    save_bundle,
    waveform_mae,
    write_predictions_csv,
    write_waveform_csv,
)


@dataclass
class _StubConfig:
    input_length: int = 1024
    # desk-like: trainer.predict_batched runs serial stacks of PREDICT_STACK
    first_level_channels: int = 1


class IdentityNetwork:
    """Test double: forwards its input unchanged."""

    def __init__(self, length=1024):
        self.config = _StubConfig(input_length=length)

    def forward(self, x, mode="infer"):
        return NetworkOutput(final=x, auxiliaries=[])


def marked(x):
    """Rows of a (B, C, L) stack that hold a marker sample (above 1e5)."""
    return np.max(np.abs(x), axis=(1, 2)) > 1e5


class ExplodingNetwork(IdentityNetwork):
    def forward(self, x, mode="infer"):
        if marked(x).any():
            raise ValueError("marker episode")
        return NetworkOutput(final=x, auxiliaries=[])


class NaNRowNetwork(IdentityNetwork):
    """Test double: forwards its input, with a NaN row for a marked episode,
    as a real network gives for a non-finite value on that row's path."""

    def forward(self, x, mode="infer"):
        out = x.copy()
        out[marked(x)] = np.nan
        return NetworkOutput(final=out, auxiliaries=[])


def stub_bundle(length=1024, approx=None):
    return PipelineBundle(
        approx_network=approx or IdentityNetwork(length),
        refine_network=IdentityNetwork(length),
    )


def tiny_bundle(seed=0, width=1 / 16):
    approx = models.build_unet1d(models.UNet1DConfig.scaled(width, input_length=1024), seed=seed)
    refine = models.build_multiresunet1d(
        models.MultiResUNet1DConfig.scaled(width, input_length=1024), seed=seed
    )
    approx.set_calibration(output_scale=25.0, output_offset=95.0)
    refine.set_calibration(
        input_scale=25.0, input_offset=95.0, output_scale=25.0, output_offset=95.0
    )
    return PipelineBundle(approx_network=approx, refine_network=refine)


# ---------------------------------------------------------------- extraction

def test_extract_bp_small_case():
    values = extract_bp([80.0, 120.0, 100.0, 90.0])
    assert (values.sbp, values.dbp, values.map) == (120.0, 80.0, 97.5)


def test_extract_bp_constant():
    values = extract_bp(np.full(16, 100.0))
    assert values.sbp == values.dbp == values.map == 100.0


def test_extract_bp_matches_linear_scan():
    x = np.random.default_rng(0).uniform(60, 180, size=1024)
    values = extract_bp(x)
    hi, lo, acc = x[0], x[0], 0.0
    for v in x:
        hi, lo, acc = max(hi, v), min(lo, v), acc + v
    assert values.sbp == hi and values.dbp == lo
    assert abs(values.map - acc / x.size) < 1e-9


def test_extract_bp_empty_rejected():
    with pytest.raises(ValueError):
        extract_bp([])


@settings(max_examples=50)
@given(st.lists(st.floats(20.0, 300.0), min_size=1, max_size=64), st.integers(0, 1000))
def test_extract_bp_ordering_and_permutation_invariance(values, seed):
    bp = extract_bp(values)
    assert bp.dbp <= bp.map <= bp.sbp
    shuffled = np.random.default_rng(seed).permutation(values)
    other = extract_bp(shuffled)
    assert (bp.sbp, bp.dbp) == (other.sbp, other.dbp)
    assert abs(bp.map - other.map) < 1e-9


# ------------------------------------------------------------- waveform error

def test_waveform_mae_values():
    truth = np.random.default_rng(1).uniform(60, 180, size=1024)
    assert waveform_mae(truth, truth) == 0.0
    assert abs(waveform_mae(truth + 5.0, truth) - 5.0) < 1e-12
    with pytest.raises(ValueError):
        waveform_mae(truth, truth[:-1])


def test_waveform_mae_matches_direct_sum():
    rng = np.random.default_rng(2)
    a, b = rng.normal(size=256), rng.normal(size=256)
    direct = sum(abs(x - y) for x, y in zip(a, b)) / 256
    assert abs(waveform_mae(a, b) - direct) < 1e-12


# ----------------------------------------------------------------- preprocess

def test_preprocess_ppg_centers_and_keeps_shape():
    rng = np.random.default_rng(3)
    out = preprocess_ppg(rng.normal(2.0, 1.0, size=1024))
    assert out.shape == (1024,)
    assert abs(out.mean()) < 1e-10


def test_preprocess_store_keeps_abp():
    store = datapipe.synth_generate(3, seed=1)
    prep = preprocess_store(store)
    for a, b in zip(store, prep):
        np.testing.assert_array_equal(a.abp, b.abp)
        assert abs(b.ppg.mean()) < 1e-10


def test_preprocess_store_equals_per_record_conditioning():
    store = datapipe.synth_generate(6, seed=21)
    prep = preprocess_store(store)
    assert len(prep) == len(store) and prep.fs == store.fs
    for a, b in zip(store, prep):
        assert b.subject_id == a.subject_id
        assert b.ppg.tobytes() == preprocess_ppg(a.ppg).tobytes()
        assert b.abp.tobytes() == a.abp.tobytes()
    assert len(preprocess_store(datapipe.EpisodeStore([]))) == 0


# ------------------------------------------------------------------ inference

def test_identity_stubs_reduce_to_preprocessing():
    ppg = datapipe.synth_generate(1, seed=2)[0].ppg
    out = predict_waveform(stub_bundle(), ppg)
    np.testing.assert_array_equal(out, preprocess_ppg(ppg))


def test_predict_waveform_validates_input():
    bundle = stub_bundle()
    with pytest.raises(ValueError):
        predict_waveform(bundle, np.zeros(100))
    bad = np.zeros(1024)
    bad[0] = np.inf
    with pytest.raises(ValueError):
        predict_waveform(bundle, bad)


def test_predict_waveform_deterministic_with_real_networks():
    bundle = tiny_bundle(seed=3)
    ppg = datapipe.synth_generate(1, seed=4)[0].ppg
    a = predict_waveform(bundle, ppg)
    b = predict_waveform(bundle, ppg)
    np.testing.assert_array_equal(a, b)
    assert a.shape == (1024,) and np.all(np.isfinite(a))


# -------------------------------------------------------------- batch predict

def test_batch_predict_empty_store():
    rows, failures = batch_predict(stub_bundle(), datapipe.EpisodeStore([]))
    assert rows == [] and failures == []


def test_batch_predict_rows_match_single_calls():
    bundle = tiny_bundle(seed=5)
    store = datapipe.synth_generate(4, seed=6)
    rows, failures = batch_predict(bundle, store)
    assert failures == [] and len(rows) == 4
    for i, row in enumerate(rows):
        assert row.index == i
        single = predict_waveform(bundle, store[i].ppg)
        np.testing.assert_array_equal(row.pred_abp, single)
        assert row.waveform_mae == waveform_mae(single, store[i].abp)
        assert row.true_bp == extract_bp(store[i].abp)


def test_batch_predict_skips_a_window_whose_conditioning_overflows():
    bundle = tiny_bundle(seed=3)
    store = datapipe.synth_generate(3, seed=4)
    store.records[1].ppg[:] = 1e308  # finite, but the wavelet transform overflows
    with np.errstate(over="ignore", invalid="ignore"):
        rows, failures = batch_predict(bundle, store)
    assert [i for i, _ in failures] == [1] and "non-finite" in failures[0][1]
    assert [r.index for r in rows] == [0, 2]
    for row in rows:
        np.testing.assert_array_equal(row.pred_abp, predict_waveform(bundle, store[row.index].ppg))


class MarkerNetwork:
    """Test double: a real network whose output row is NaN for a marked
    episode; it records the stacks it runs."""

    def __init__(self, inner):
        self.inner = inner
        self.config = inner.config
        self.stacks = []

    def forward(self, x, mode="infer"):
        self.stacks.append(x)
        out = self.inner.forward(x, mode=mode)
        out.final[marked(x)] = np.nan
        return out


def test_batch_predict_multi_stack_isolates_failures():
    real = tiny_bundle(seed=12)
    marker = MarkerNetwork(real.approx_network)
    bundle = PipelineBundle(approx_network=marker, refine_network=real.refine_network)
    store = datapipe.synth_generate(9, seed=13)
    store.records[2].ppg[5] = np.nan
    store.records[5].ppg[0] = 1e6  # finite, so only the network's output rejects it
    short = store.records[7]
    store.records[7] = datapipe.EpisodeRecord(short.ppg[:-1], short.abp, short.subject_id)

    rows, failures = batch_predict(bundle, store)

    # the seven valid episodes run once each, in stacks of 4 and 3; only
    # the second holds the marked episode
    assert [x.shape[0] for x in marker.stacks] == [4, 3]
    assert [int(marked(x).sum()) for x in marker.stacks] == [0, 1]

    expected = []
    for i in (2, 5, 7):
        with pytest.raises((ValueError, tensorops.NumericalError)) as exc:
            predict_waveform(bundle, store[i].ppg)
        expected.append((i, str(exc.value)))
    assert failures == expected
    assert "non-finite" in failures[0][1] and "non-finite" in failures[1][1]
    assert "1023" in failures[2][1]
    assert [r.index for r in rows] == [0, 1, 3, 4, 6, 8]
    for row in rows:
        single = predict_waveform(real, store[row.index].ppg)
        np.testing.assert_array_equal(row.pred_abp, single)
        assert row.waveform_mae == waveform_mae(single, store[row.index].abp)


# --------------------------------------------- batch predict on helper threads

class Wide:
    """Test double: forwards to another double, under a config of paper
    first-level width, so every episode is its own stack and a helper thread
    runs every other one; records, per marked stack, whether a helper ran it."""

    def __init__(self, inner):
        self.inner = inner
        self.config = _StubConfig(first_level_channels=64)
        self.marked_on_helper = []

    def forward(self, x, mode="infer"):
        if marked(x).any():
            self.marked_on_helper.append(threading.current_thread() is not threading.main_thread())
        return self.inner.forward(x, mode)


@pytest.fixture
def two_cores(monkeypatch):
    monkeypatch.setattr(trainer, "usable_cores", lambda: 2)


@pytest.mark.parametrize("cores", [1, 2], ids=["serial", "threaded"])
def test_batch_predict_skips_failures(monkeypatch, cores):
    """Serial: one stack of three. Threaded: the double runs under a paper
    first-level width (Wide), so each episode is its own stack and the
    marked one runs on the helper thread."""
    monkeypatch.setattr(trainer, "usable_cores", lambda: cores)
    store = datapipe.synth_generate(3, seed=7)
    store.records[1].ppg[0] = 1e6  # finite, so the record itself is valid
    approx = Wide(NaNRowNetwork()) if cores == 2 else NaNRowNetwork()
    bundle = stub_bundle(approx=approx)
    alive = threading.active_count()
    rows, failures = batch_predict(bundle, store)
    if cores == 2:
        assert approx.marked_on_helper == [True]
    assert threading.active_count() == alive
    with pytest.raises(tensorops.NumericalError) as exc:
        predict_waveform(bundle, store[1].ppg)
    assert failures == [(1, str(exc.value))] and "non-finite" in failures[0][1]
    assert [r.index for r in rows] == [0, 2]
    for row in rows:
        np.testing.assert_array_equal(row.pred_abp, predict_waveform(bundle, store[row.index].ppg))


@pytest.mark.parametrize("cores", [1, 2], ids=["serial", "threaded"])
def test_batch_predict_propagates_a_network_exception(monkeypatch, cores):
    monkeypatch.setattr(trainer, "usable_cores", lambda: cores)
    store = datapipe.synth_generate(3, seed=7)
    store.records[1].ppg[0] = 1e6
    approx = Wide(ExplodingNetwork()) if cores == 2 else ExplodingNetwork()
    alive = threading.active_count()
    with pytest.raises(ValueError, match="^marker episode$"):
        batch_predict(stub_bundle(approx=approx), store)
    if cores == 2:
        assert approx.marked_on_helper == [True]
    assert threading.active_count() == alive


def test_threaded_batch_predict_rows_equal_serial(monkeypatch):
    bundle = tiny_bundle(seed=16, width=1 / 8)
    store = datapipe.synth_generate(7, seed=17)
    results = {}
    for count in (1, 2):
        monkeypatch.setattr(trainer, "usable_cores", lambda: count)
        results[count] = batch_predict(bundle, store)
    (serial, serial_failures), (threaded, failures) = results[1], results[2]
    assert serial_failures == failures == []
    assert [r.index for r in threaded] == [r.index for r in serial] == list(range(7))
    for row, want in zip(threaded, serial):
        assert row.pred_abp.tobytes() == want.pred_abp.tobytes()
        assert row.pred_bp == want.pred_bp and row.waveform_mae == want.waveform_mae
        assert row.pred_abp.tobytes() == predict_waveform(bundle, store[row.index].ppg).tobytes()


class NoThread:
    def __init__(self, *args, **kwargs):
        raise AssertionError("a thread was started")


def test_threaded_path_skipped_at_desk_width_and_for_one_episode(two_cores, monkeypatch):
    desk = tiny_bundle(seed=18)
    eighth = tiny_bundle(seed=18, width=1 / 8)
    store = datapipe.synth_generate(6, seed=19)
    monkeypatch.setattr(threading, "Thread", NoThread)
    rows, failures = batch_predict(desk, store)
    assert failures == [] and len(rows) == 6
    assert np.all(np.isfinite(predict_waveform(eighth, store[0].ppg)))
    predict_waveform(stub_bundle(approx=Wide(IdentityNetwork())), store[0].ppg)


# ------------------------------------------------------------------- bundles

def test_bundle_roundtrip(tmp_path):
    bundle = tiny_bundle(seed=8)
    ppg = datapipe.synth_generate(1, seed=9)[0].ppg
    before = predict_waveform(bundle, ppg)
    save_bundle(bundle, tmp_path / "bundle")
    loaded = load_bundle(tmp_path / "bundle")
    np.testing.assert_array_equal(predict_waveform(loaded, ppg), before)


def test_meta_json_records_every_config_field(tmp_path):
    """A network is rebuilt from its meta.json section alone, so that section
    holds every field of the network's config."""
    save_bundle(tiny_bundle(), tmp_path)
    meta = json.loads((tmp_path / "meta.json").read_text())
    for stage, config in (("approx", models.UNet1DConfig), ("refine", models.MultiResUNet1DConfig)):
        assert {f.name for f in fields(config)} == set(meta[stage]), stage


def test_depth_two_bundle_roundtrip(tmp_path):
    approx = models.build_unet1d(models.UNet1DConfig(filters_per_level=(3, 5)), seed=1)
    refine = models.build_multiresunet1d(models.MultiResUNet1DConfig(base_widths=(2, 4)), seed=2)
    approx.set_calibration(output_scale=25.0, output_offset=95.0)
    refine.set_calibration(
        input_scale=25.0, input_offset=95.0, output_scale=25.0, output_offset=95.0
    )
    bundle = PipelineBundle(approx_network=approx, refine_network=refine)
    store = datapipe.synth_generate(3, seed=4)
    save_bundle(bundle, tmp_path)
    want, _ = batch_predict(bundle, store)
    rows, failures = batch_predict(load_bundle(tmp_path), store)
    assert failures == [] and len(rows) == 3
    for row, ref in zip(rows, want):
        assert row.pred_abp.tobytes() == ref.pred_abp.tobytes()
        assert row.pred_bp == ref.pred_bp


def test_load_bundle_rejects_networks_of_two_input_lengths(tmp_path):
    save_bundle(tiny_bundle(seed=8), tmp_path)
    meta = json.loads((tmp_path / "meta.json").read_text())
    meta["refine"]["input_length"] = 512
    (tmp_path / "meta.json").write_text(json.dumps(meta))
    with pytest.raises(ValueError, match="'approx.input_length' 1024 and 'refine.input_length' 512 differ"):
        load_bundle(tmp_path)


def test_bundle_version_check(tmp_path):
    bundle = tiny_bundle(seed=8)
    save_bundle(bundle, tmp_path / "bundle")
    meta = tmp_path / "bundle" / "meta.json"
    meta.write_text(meta.read_text().replace('"format_version": 1', '"format_version": 9'))
    with pytest.raises(ValueError):
        load_bundle(tmp_path / "bundle")


def test_load_bundle_builds_through_the_models_module(tmp_path, monkeypatch):
    """The builders are looked up at call time, so a wrapped or patched
    builder (the benchmark tracer, the CV tests) sees every load."""
    save_bundle(tiny_bundle(seed=8), tmp_path)
    built = []

    def counted(name):
        original = getattr(models, name)

        def build(config, seed):
            built.append((name, original(config, seed=seed)))
            return built[-1][1]

        return build

    for name in ("build_unet1d", "build_multiresunet1d"):
        monkeypatch.setattr(models, name, counted(name))
    bundle = load_bundle(tmp_path)
    assert [name for name, _ in built] == ["build_unet1d", "build_multiresunet1d"]
    assert [network for _, network in built] == [bundle.approx_network, bundle.refine_network]


def test_load_bundle_rejects_a_declared_width_before_building(tmp_path):
    """A first U-Net level of 2^20 channels would size its skeleton's arrays
    at hundreds of MB; the load reads both checkpoints, finds no entry that
    wide, and fails with a traced peak within the payload plus 1%. At half
    width the payload is ~34 MB, so the entries' Python objects stay well
    inside that 1%."""
    seeded = [
        models.build_unet1d(models.UNet1DConfig.scaled(1 / 2), seed=3),
        models.build_multiresunet1d(models.MultiResUNet1DConfig.scaled(1 / 2), seed=3),
    ]
    save_bundle(PipelineBundle(*seeded), tmp_path)
    payload = sum(arr.nbytes for net in seeded for _, arr in net.checkpoint_entries())
    del seeded
    meta = json.loads((tmp_path / "meta.json").read_text())
    meta["approx"]["filters_per_level"][0] = 1 << 20
    (tmp_path / "meta.json").write_text(json.dumps(meta))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        with pytest.raises(ValueError, match=r"meta\.json: 'approx\.filters_per_level' declares width 1048576"):
            load_bundle(tmp_path)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert payload > 30_000_000
    assert peak <= 1.01 * payload, peak / payload


def test_load_bundle_draws_no_weights(tmp_path, monkeypatch):
    bundle = tiny_bundle(seed=16)
    save_bundle(bundle, tmp_path)

    def no_generator(*args, **kwargs):
        raise AssertionError("load_bundle must not create a generator")

    monkeypatch.setattr(np.random, "default_rng", no_generator)
    loaded = load_bundle(tmp_path)
    for original, network in ((bundle.approx_network, loaded.approx_network),
                              (bundle.refine_network, loaded.refine_network)):
        for (name, want), (_, got) in zip(original.checkpoint_entries(), network.checkpoint_entries()):
            assert got.tobytes() == want.tobytes(), name


@pytest.mark.parametrize(
    "edit, name",
    [
        (lambda entries: [e for e in entries if e[0] != "enc0.a.conv.weight"], "enc0.a.conv.weight"),
        (lambda entries: entries + [("stray.weight", np.zeros(3))], "stray.weight"),
        (
            lambda entries: [
                (n, np.zeros(a.shape[:-1] + (a.shape[-1] + 1,)) if n == "dec0.up.weight" else a)
                for n, a in entries
            ],
            "dec0.up.weight",
        ),
        (
            lambda entries: [
                (n, np.ones(2) if n == "calibration.output_scale" else a) for n, a in entries
            ],
            "calibration.output_scale",
        ),
    ],
    ids=["missing", "extra", "wrong-shape", "calibration-not-scalar"],
)
def test_load_bundle_rejects_checkpoint_entries_by_name(tmp_path, edit, name):
    save_bundle(tiny_bundle(seed=8), tmp_path)
    path = tmp_path / pipeline.BUNDLE_APPROX
    tensorops.write_checkpoint(path, edit(tensorops.read_checkpoint(path)))
    with pytest.raises(ValueError, match=re.escape(name)):
        load_bundle(tmp_path)


def test_nan_weight_in_a_loaded_bundle_fails_every_episode(tmp_path):
    save_bundle(tiny_bundle(seed=8), tmp_path)
    path = tmp_path / pipeline.BUNDLE_APPROX
    entries = tensorops.read_checkpoint(path)
    dict(entries)["enc0.a.conv.weight"].flat[0] = np.nan
    tensorops.write_checkpoint(path, entries)
    bundle = load_bundle(tmp_path)
    store = datapipe.synth_generate(3, seed=9)

    with pytest.raises(tensorops.NumericalError, match="non-finite"):
        predict_waveform(bundle, store[0].ppg)
    rows, failures = batch_predict(bundle, store)
    assert rows == []
    assert [i for i, _ in failures] == [0, 1, 2]
    assert all("non-finite" in message for _, message in failures)


def test_loaded_bundle_serves_concurrent_callers_bitwise(tmp_path):
    save_bundle(tiny_bundle(seed=14), tmp_path)
    bundle = load_bundle(tmp_path)
    store = datapipe.synth_generate(6, seed=15)
    expected, failures = batch_predict(bundle, store)
    assert failures == [] and len(expected) == 6

    results = [None] * 4

    def serve(slot):
        results[slot] = batch_predict(bundle, store)

    threads = [threading.Thread(target=serve, args=(slot,)) for slot in range(len(results))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for rows, failures in results:
        assert failures == []
        assert [r.index for r in rows] == [r.index for r in expected]
        for row, want in zip(rows, expected):
            assert row.pred_abp.tobytes() == want.pred_abp.tobytes()
            assert row.pred_bp == want.pred_bp and row.waveform_mae == want.waveform_mae


def _load_cost(directory, width):
    """(checkpoint payload bytes, traced peak, traced memory held) of a
    load_bundle of a seeded bundle at this width, counted from its start."""
    seeded = [
        models.build_unet1d(models.UNet1DConfig.scaled(width), seed=3),
        models.build_multiresunet1d(models.MultiResUNet1DConfig.scaled(width), seed=3),
    ]
    save_bundle(PipelineBundle(*seeded), directory)
    payload = sum(arr.nbytes for net in seeded for _, arr in net.checkpoint_entries())
    del seeded
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        bundle = load_bundle(directory)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert bundle.input_length() == 1024
    return payload, peak - start, held - start


def test_load_bundle_allocates_its_payload_and_nothing_else(tmp_path):
    """numpy reports its array memory to tracemalloc. The networks' Python
    objects (layers, entry names, array headers) are the same at every
    width, so a 1/64-width load measures them; what a 1/4-width load traces
    beyond that is array memory, at its peak and once loaded. It may exceed
    the payload it adds by at most 1%: no gradient buffers, no skeleton
    arrays for the checkpoints to replace."""
    base = _load_cost(tmp_path / "w64", 1 / 64)
    quarter = _load_cost(tmp_path / "w4", 1 / 4)
    payload, peak, held = (q - b for q, b in zip(quarter, base))
    assert payload > 8_000_000
    assert peak <= 1.01 * payload, peak / payload
    assert held <= 1.01 * payload, held / payload


# ----------------------------------------------------------------- csv output

def test_predictions_csv_roundtrip(tmp_path):
    bundle = tiny_bundle(seed=10)
    store = datapipe.synth_generate(5, seed=11)
    rows, _ = batch_predict(bundle, store)
    path = tmp_path / "preds.csv"
    write_predictions_csv(path, rows)
    back = evalstats.load_predictions(path)
    assert all(len(column) == 5 for column in back.values())
    for i, row in enumerate(rows):
        assert back["subject_id"][i] == row.subject_id
        assert back["sbp_pred"][i] == row.pred_bp.sbp
        assert back["waveform_mae"][i] == row.waveform_mae
        assert back["sqi"][i] == row.sqi


def test_waveform_csv(tmp_path):
    truth = np.array([100.0, 101.5])
    pred = np.array([99.0, 102.0])
    path = tmp_path / "wave.csv"
    write_waveform_csv(path, truth, pred)
    lines = path.read_text().splitlines()
    assert lines[0] == "abp_true,abp_pred"
    assert lines[1] == "100.0,99.0"
