import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bpwave import sigproc
from bpwave.sigproc import (
    DB8,
    WaveletDecomposition,
    denoise,
    dwt_decompose,
    dwt_reconstruct,
    mean_normalize,
    skewness_sqi,
    soft_threshold,
    sure_threshold,
    zero_extreme_bands,
)


# ---------------------------------------------------------------- oracles

def dwt_level_oracle(x, lowpass, highpass):
    """Nested-loop periodized convolve-and-downsample, independent of the
    vectorized gather used in production."""
    n = len(x)
    taps = len(lowpass)
    approx = [0.0] * (n // 2)
    detail = [0.0] * (n // 2)
    for i in range(n // 2):
        for k in range(taps):
            approx[i] += lowpass[k] * x[(2 * i + k) % n]
            detail[i] += highpass[k] * x[(2 * i + k) % n]
    return np.array(approx), np.array(detail)


def sure_risk_scan_oracle(coeffs):
    """Exhaustive evaluation of the soft-threshold risk over every candidate
    order statistic, with ties broken toward the smallest index."""
    sq = sorted(float(c) * float(c) for c in coeffs)
    n = len(sq)
    best_k, best_risk = None, None
    for k in range(1, n + 1):
        cum = 0.0
        for i in range(k):
            cum += sq[i]
        risk = (n - 2.0 * k + cum + (n - k) * sq[k - 1]) / n
        if best_risk is None or risk < best_risk:
            best_k, best_risk = k, risk
    return math.sqrt(sq[best_k - 1])


def denoise_reference(x, levels=10):
    """Single-window denoising written out level by level with the same
    products, reductions and bincount per level as the library, so its
    result is bitwise the library's; the stacked code is checked against it."""
    h, g = DB8.dec_lowpass, DB8.dec_highpass
    approx, details = np.asarray(x, dtype=np.float64), []
    for _ in range(levels):
        n = approx.size
        windows = approx[(2 * np.arange(n // 2)[:, None] + np.arange(16)[None, :]) % n]
        approx, detail = windows @ h, windows @ g
        details.append(detail)
    details[0] = np.zeros_like(details[0])
    for d in details[1:]:
        sigma = float(np.median(np.abs(d))) / sigproc.MAD_SCALE
        if sigma <= 0.0:
            continue
        sq = np.sort((d / sigma) ** 2)
        k = np.arange(1, sq.size + 1, dtype=np.float64)
        risk = (sq.size - 2.0 * k + np.cumsum(sq) + (sq.size - k) * sq) / sq.size
        t = math.sqrt(sq[int(np.argmin(risk))]) * sigma
        d[:] = np.sign(d) * np.maximum(np.abs(d) - t, 0.0)
    y = np.zeros_like(approx)
    for d in reversed(details):
        n = 2 * d.size
        idx = (2 * np.arange(d.size)[:, None] + np.arange(16)[None, :]) % n
        y = np.bincount(idx.ravel(), weights=(y[:, None] * h + d[:, None] * g).ravel(), minlength=n)
    return y


def band_energy(x):
    x = np.asarray(x, dtype=np.float64)
    return float(x @ x)


# ---------------------------------------------------------------- filter bank

def test_db8_bank_invariants():
    h = DB8.dec_lowpass
    assert h.size == 16
    assert abs(float(h @ h) - 1.0) < 1e-12
    assert abs(float(h.sum()) - math.sqrt(2.0)) < 1e-12
    signs = (-1.0) ** np.arange(16)
    assert np.max(np.abs(DB8.dec_highpass - signs * h[::-1])) < 1e-12


def test_db8_shifted_orthogonality():
    h = DB8.dec_lowpass
    g = DB8.dec_highpass
    for m in range(1, 8):
        assert abs(float(h[: -2 * m] @ h[2 * m :])) < 1e-12
    for m in range(-7, 8):
        lo = max(0, 2 * m)
        hi = min(16, 16 + 2 * m)
        assert abs(float(np.sum(h[lo - 2 * m : hi - 2 * m] * g[lo:hi]))) < 1e-12


def test_bank_validation_rejects_corruption():
    bad = DB8.dec_lowpass.copy()
    bad[0] += 1e-6
    with pytest.raises(ValueError):
        sigproc.WaveletFilterBank(bad, DB8.dec_highpass).validate()


# ---------------------------------------------------------------- decompose

def test_constant_signal_details_vanish():
    d = dwt_decompose(np.ones(1024), 10)
    for band in d.details:
        assert np.max(np.abs(band)) < 1e-10
    assert abs(d.energy() - 1024.0) / 1024.0 < 1e-12


def test_roundtrip_random_signal():
    rng = np.random.default_rng(42)
    x = rng.normal(size=1024)
    r = dwt_reconstruct(dwt_decompose(x, 10))
    assert np.max(np.abs(r - x)) < 1e-9 * np.max(np.abs(x))


def test_impulse_detail_matches_loop_oracle():
    x = np.zeros(1024)
    x[0] = 1.0
    d = dwt_decompose(x, 1)
    a_ref, d_ref = dwt_level_oracle(list(x), list(DB8.dec_lowpass), list(DB8.dec_highpass))
    np.testing.assert_allclose(d.details[0], d_ref, atol=1e-14)
    np.testing.assert_allclose(d.approx, a_ref, atol=1e-14)


def test_band_lengths_follow_exact_halving():
    d = dwt_decompose(np.ones(1024), 10)
    assert d.approx.size == 1
    assert [b.size for b in d.details] == [1024 >> l for l in range(1, 11)]


def test_non_dyadic_length_rejected():
    with pytest.raises(ValueError):
        dwt_decompose(np.ones(1000), 10)
    with pytest.raises(ValueError):
        dwt_decompose(np.ones(1024), 11)


def test_energy_conservation():
    rng = np.random.default_rng(7)
    x = rng.normal(size=1024) * 50.0
    d = dwt_decompose(x, 10)
    assert abs(d.energy() - band_energy(x)) / band_energy(x) < 1e-9


@pytest.mark.parametrize("length,levels", [(2, 1), (8, 3), (64, 6), (256, 8), (4096, 10)])
def test_roundtrip_other_dyadic_lengths(length, levels):
    x = np.random.default_rng(length).normal(size=length)
    r = dwt_reconstruct(dwt_decompose(x, levels))
    assert np.max(np.abs(r - x)) < 1e-9 * np.max(np.abs(x))


# ---------------------------------------------------------------- reconstruct

def test_reconstruct_zero_coefficients():
    d = dwt_decompose(np.ones(1024), 10)
    z = WaveletDecomposition(np.zeros_like(d.approx), [np.zeros_like(b) for b in d.details])
    assert np.max(np.abs(dwt_reconstruct(z))) == 0.0


def test_single_band_projection_is_idempotent():
    rng = np.random.default_rng(3)
    d = dwt_decompose(rng.normal(size=1024), 10)
    kept = d.details[2].copy()
    only = WaveletDecomposition(np.zeros_like(d.approx), [np.zeros_like(b) for b in d.details])
    only.details[2][:] = kept
    again = dwt_decompose(dwt_reconstruct(only), 10)
    scale = np.max(np.abs(kept))
    np.testing.assert_allclose(again.details[2], kept, atol=1e-9 * scale)
    assert np.max(np.abs(again.approx)) < 1e-9 * scale
    for l, band in enumerate(again.details):
        if l != 2:
            assert np.max(np.abs(band)) < 1e-9 * scale


def test_inconsistent_band_lengths_rejected():
    d = dwt_decompose(np.ones(1024), 10)
    d.details[4] = d.details[4][:-1]
    with pytest.raises(ValueError):
        dwt_reconstruct(d)


# ---------------------------------------------------------------- band zeroing

def test_zero_extreme_bands_removes_dc():
    d = zero_extreme_bands(dwt_decompose(np.full(1024, 5.0), 10))
    assert np.max(np.abs(dwt_reconstruct(d))) < 1e-9


def test_zero_extreme_bands_nyquist_energy_bookkeeping():
    x = np.tile([1.0, -1.0], 512)
    d = dwt_decompose(x, 10)
    removed = band_energy(d.details[0]) + band_energy(d.approx)
    y = dwt_reconstruct(zero_extreme_bands(d))
    assert abs(band_energy(y) - (band_energy(x) - removed)) < 1e-9 * band_energy(x)


def test_zero_extreme_bands_keeps_midband_sinusoid():
    t = np.arange(1024) / 125.0
    x = np.sin(2.0 * np.pi * 2.0 * t)
    y = dwt_reconstruct(zero_extreme_bands(dwt_decompose(x, 10)))
    loss = (band_energy(x) - band_energy(y)) / band_energy(x)
    assert 0.0 <= loss < 0.05


def test_zero_extreme_bands_leaves_other_bands():
    rng = np.random.default_rng(11)
    d = dwt_decompose(rng.normal(size=1024), 10)
    z = zero_extreme_bands(d)
    for l in range(1, 10):
        np.testing.assert_array_equal(z.details[l], d.details[l])


# ---------------------------------------------------------------- thresholds

def test_sure_threshold_all_zero():
    assert sure_threshold(np.zeros(16)) == 0.0


def test_sure_threshold_small_case_matches_oracle():
    assert sure_threshold([1.0, -2.0, 3.0]) == sure_risk_scan_oracle([1.0, -2.0, 3.0])


def test_sure_threshold_matches_oracle_randomized():
    rng = np.random.default_rng(2024)
    for _ in range(200):
        n = int(rng.integers(1, 65))
        c = rng.normal(size=n) * float(rng.uniform(0.1, 5.0))
        assert sure_threshold(c) == sure_risk_scan_oracle(c)


def test_sure_threshold_is_an_order_statistic():
    rng = np.random.default_rng(5)
    c = rng.normal(size=40)
    t = sure_threshold(c)
    assert t == 0.0 or np.min(np.abs(np.abs(c) - t)) < 1e-15


def test_sure_threshold_shrinks_pure_noise_energy():
    rng = np.random.default_rng(99)
    x = rng.normal(size=1000)
    t = sure_threshold(x)
    assert band_energy(soft_threshold(x, t)) < band_energy(x)


def test_sure_threshold_empty_rejected():
    with pytest.raises(ValueError):
        sure_threshold([])


def test_soft_threshold_values():
    assert soft_threshold(3.0, 2.0) == 1.0
    assert soft_threshold(-1.5, 2.0) == 0.0
    assert soft_threshold(0.7, 0.0) == 0.7
    with pytest.raises(ValueError):
        soft_threshold(1.0, -0.5)


@given(
    st.floats(-1e6, 1e6),
    st.floats(-1e6, 1e6),
    st.floats(0.0, 1e6),
)
def test_soft_threshold_odd_and_nonexpansive(x, y, t):
    sx = float(soft_threshold(x, t))
    sy = float(soft_threshold(y, t))
    assert sx == -float(soft_threshold(-x, t))
    assert abs(sx - sy) <= abs(x - y) + 1e-9 * max(1.0, abs(x), abs(y))


# ---------------------------------------------------------------- denoise

def test_denoise_improves_noisy_sinusoid():
    rng = np.random.default_rng(314)
    t = np.arange(1024) / 125.0
    clean = 0.4 * np.sin(2.0 * np.pi * 1.2 * t)
    noisy = clean + 0.4 * rng.normal(size=1024)
    out = denoise(noisy)
    mse_in = float(np.mean((noisy - clean) ** 2))
    mse_out = float(np.mean((out - clean) ** 2))
    assert mse_out < mse_in


def test_denoise_zero_signal():
    assert np.max(np.abs(denoise(np.zeros(1024)))) == 0.0


def test_denoise_energy_idempotent():
    rng = np.random.default_rng(8)
    x = rng.normal(size=1024)
    once = denoise(x)
    twice = denoise(once)
    assert band_energy(twice) <= band_energy(once) + 1e-9


def window_stack(rows, seed=0):
    """(rows, 1024) windows of varied scale and offset; with room for them,
    a constant row (every noise estimate is 0, so every level is skipped),
    a zero row and a sparse row (some levels skipped, some shrunk)."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(rows, 1024)) * rng.uniform(0.01, 100.0, size=(rows, 1)) + rng.uniform(-50, 50, size=(rows, 1))
    x[0] = 3.0
    if rows > 1:
        x[-1] = 0.0
    if rows > 2:
        x[1] = 0.0
        x[1, ::97] = rng.normal(size=x[1, ::97].size)
    return x


@pytest.mark.parametrize("rows", [1, 2, 3, 4, 5, 50])
def test_stacked_denoise_rows_match_single_windows(rows):
    x = window_stack(rows, seed=rows)
    out = denoise(x)
    assert out.shape == x.shape
    for i in range(rows):
        assert out[i].tobytes() == denoise(x[i]).tobytes()


def test_denoise_matches_the_single_window_reference():
    x = window_stack(6, seed=11)
    out = denoise(x)
    for i in range(6):
        expected = denoise_reference(x[i]).tobytes()
        assert denoise(x[i]).tobytes() == expected
        assert out[i].tobytes() == expected


def test_stacked_denoise_rejects_bad_input():
    x = window_stack(3)
    x[1, 10] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        denoise(x)
    with pytest.raises(ValueError):
        denoise(np.zeros((3, 1000)))  # not divisible by 2^10
    with pytest.raises(ValueError):
        denoise(np.zeros((3, 512)))  # shorter than 2^10
    with pytest.raises(ValueError):
        denoise(np.zeros((2, 3, 1024)))


def test_stacked_denoise_of_no_windows():
    assert denoise(np.zeros((0, 1024))).shape == (0, 1024)


# ---------------------------------------------------------------- normalize / SQI

def test_mean_normalize_small_case():
    np.testing.assert_allclose(mean_normalize([1.0, 2.0, 3.0]), [-1.0, 0.0, 1.0])


def test_mean_normalize_zero_mean_unchanged():
    x = np.array([-2.0, 1.0, 1.0])
    np.testing.assert_allclose(mean_normalize(x), x, atol=1e-15)


def test_mean_normalize_rows_of_a_stack():
    x = window_stack(5)
    out = mean_normalize(x)
    for i in range(5):
        assert out[i].tobytes() == mean_normalize(x[i]).tobytes()
    x[2, 0] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        mean_normalize(x)


@given(st.lists(st.floats(-1e4, 1e4), min_size=1, max_size=256))
def test_mean_normalize_centers(values):
    out = mean_normalize(np.array(values, dtype=np.float64))
    assert abs(float(out.mean())) < 1e-10 * max(1.0, float(np.max(np.abs(values))))


def test_skewness_symmetric_and_constant():
    assert abs(skewness_sqi([-1.0, 0.0, 1.0])) < 1e-12
    assert skewness_sqi(np.full(10, 3.3)) == 0.0


def test_skewness_matches_moment_formula():
    # frozen from the direct formula: mu=2.5, sigma=sqrt(18.75)
    assert abs(skewness_sqi([0.0, 0.0, 0.0, 10.0]) - 1.1547005383792515) < 1e-12


def test_skewness_too_short_rejected():
    with pytest.raises(ValueError):
        skewness_sqi([1.0, 2.0])


@given(
    st.floats(0.01, 100.0),
    st.floats(-100.0, 100.0),
    st.integers(0, 1000),
)
@settings(max_examples=50)
def test_skewness_affine_invariance(a, b, seed):
    x = np.random.default_rng(seed).normal(size=64)
    assert abs(skewness_sqi(a * x + b) - skewness_sqi(x)) < 1e-9


# ---------------------------------------------------------------- polynomial annihilation

def interior_detail_masks(n, levels, taps):
    """Indices per level whose analysis windows never touch wrapped or
    previously contaminated coefficients."""
    masks = []
    contaminated = 0
    for _ in range(levels):
        clean = max(0, (n - taps - contaminated) // 2 + 1)
        clean = min(clean, n // 2)
        masks.append(np.arange(clean))
        contaminated = n // 2 - clean
        n //= 2
    return masks


def test_polynomial_annihilation_interior():
    rng = np.random.default_rng(17)
    t = np.linspace(-1.0, 1.0, 1024)
    coefs = rng.uniform(-1.0, 1.0, size=8)
    x = np.polyval(coefs, t)
    d = dwt_decompose(x, 10)
    masks = interior_detail_masks(1024, 10, 16)
    checked = 0
    for band, mask in zip(d.details, masks):
        if mask.size:
            assert np.max(np.abs(band[mask])) < 1e-6
            checked += mask.size
    assert checked > 500
