"""Wavelet-based denoising and quality metrics for 1D physiological signals.

Signals are plain 1-D float64 arrays, sampled uniformly (125 Hz by
convention for the pressure pipeline). The transform is the orthogonal
Daubechies-8 DWT with periodized boundaries, so dyadic-length inputs
decompose with exact halving and reconstruct perfectly.
"""

import math
from dataclasses import dataclass

import numpy as np

DEFAULT_FS = 125.0
DENOISE_LEVELS = 10

# MAD -> sigma for Gaussian noise (Phi^-1(0.75))
MAD_SCALE = 0.6745


def _as_signal(x, min_len=1):
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError(f"expected 1-D signal, got shape {x.shape}")
    if x.size < min_len:
        raise ValueError(f"signal too short: {x.size} < {min_len}")
    if not np.all(np.isfinite(x)):
        raise ValueError("signal contains non-finite values")
    return x


@dataclass(frozen=True)
class WaveletFilterBank:
    """Orthogonal two-channel filter bank (analysis + synthesis, 16 taps each)."""

    dec_lowpass: np.ndarray
    dec_highpass: np.ndarray
    rec_lowpass: np.ndarray
    rec_highpass: np.ndarray

    def validate(self, tol=1e-12):
        h = self.dec_lowpass
        g = self.dec_highpass
        n = h.size
        if abs(float(h @ h) - 1.0) > tol:
            raise ValueError("lowpass filter is not orthonormal")
        if abs(float(h.sum()) - math.sqrt(2.0)) > tol:
            raise ValueError("lowpass filter taps do not sum to sqrt(2)")
        signs = (-1.0) ** np.arange(n)
        if np.max(np.abs(g - signs * h[::-1])) > tol:
            raise ValueError("highpass filter violates the quadrature-mirror relation")
        if np.max(np.abs(self.rec_lowpass - h[::-1])) > tol:
            raise ValueError("reconstruction lowpass is not the time-reverse")
        if np.max(np.abs(self.rec_highpass - g[::-1])) > tol:
            raise ValueError("reconstruction highpass is not the time-reverse")
        return self


def daubechies_lowpass(vanishing_moments):
    """Minimum-phase Daubechies lowpass taps via spectral factorization.

    Builds the binomial half-band polynomial, maps its roots into the z
    plane, keeps the roots inside the unit circle together with the
    required zeros at z = -1, and normalizes the tap sum to sqrt(2).
    """
    p = int(vanishing_moments)
    if p < 1:
        raise ValueError("vanishing_moments must be >= 1")
    bcoef = [math.comb(p - 1 + k, k) for k in range(p)]
    yroots = np.roots(bcoef[::-1]) if p > 1 else np.array([])
    zroots = []
    for y in yroots:
        b = 2.0 - 4.0 * y
        disc = np.sqrt(b * b - 4.0 + 0j)
        for z in ((b + disc) / 2.0, (b - disc) / 2.0):
            if abs(z) < 1.0:
                zroots.append(z)
    taps = np.real(np.poly([-1.0] * p + zroots))
    taps *= math.sqrt(2.0) / taps.sum()
    return taps


def build_filter_bank(vanishing_moments=8):
    """Derive the full orthogonal filter bank and gate it on its invariants."""
    h = daubechies_lowpass(vanishing_moments)
    signs = (-1.0) ** np.arange(h.size)
    g = signs * h[::-1]
    bank = WaveletFilterBank(
        dec_lowpass=h,
        dec_highpass=g,
        rec_lowpass=h[::-1].copy(),
        rec_highpass=g[::-1].copy(),
    )
    return bank.validate()


DB8 = build_filter_bank(8)


@dataclass
class WaveletDecomposition:
    """Periodized coefficient pyramid: approx at the deepest level, details d1..dL."""

    approx: np.ndarray
    details: list

    @property
    def levels(self):
        return len(self.details)

    def energy(self):
        total = float(self.approx @ self.approx)
        for d in self.details:
            total += float(d @ d)
        return total

    def copy(self):
        return WaveletDecomposition(self.approx.copy(), [d.copy() for d in self.details])


def _analysis_step(x, bank):
    n = x.size
    taps = bank.dec_lowpass.size
    idx = (2 * np.arange(n // 2)[:, None] + np.arange(taps)[None, :]) % n
    windows = x[idx]
    return windows @ bank.dec_lowpass, windows @ bank.dec_highpass


def _synthesis_step(approx, detail, bank):
    half = approx.size
    n = 2 * half
    taps = bank.dec_lowpass.size
    idx = (2 * np.arange(half)[:, None] + np.arange(taps)[None, :]) % n
    vals = approx[:, None] * bank.dec_lowpass[None, :] + detail[:, None] * bank.dec_highpass[None, :]
    return np.bincount(idx.ravel(), weights=vals.ravel(), minlength=n)


def dwt_decompose(signal, levels=DENOISE_LEVELS, bank=DB8):
    """Decompose a dyadic-length signal into a periodized coefficient pyramid."""
    x = _as_signal(signal)
    levels = int(levels)
    if levels < 1:
        raise ValueError("levels must be >= 1")
    if x.size % (1 << levels) != 0:
        raise ValueError(
            f"signal length {x.size} is not divisible by 2^{levels}; "
            "periodized decomposition requires exact halving"
        )
    details = []
    approx = x
    for _ in range(levels):
        approx, detail = _analysis_step(approx, bank)
        details.append(detail)
    return WaveletDecomposition(approx=approx, details=details)


def dwt_reconstruct(decomp, bank=DB8):
    """Invert dwt_decompose; band lengths must form a consistent pyramid."""
    x = np.asarray(decomp.approx, dtype=np.float64)
    for level, detail in enumerate(reversed(decomp.details)):
        detail = np.asarray(detail, dtype=np.float64)
        if detail.size != x.size:
            raise ValueError(
                f"inconsistent pyramid: detail band {decomp.levels - level} has "
                f"{detail.size} coefficients, expected {x.size}"
            )
        x = _synthesis_step(x, detail, bank)
    return x


def zero_extreme_bands(decomp):
    """Zero the deepest approximation band and the finest detail band.

    Removes the lowest and highest realizable frequency content; all
    intermediate bands pass through untouched.
    """
    out = decomp.copy()
    out.approx[:] = 0.0
    out.details[0][:] = 0.0
    return out


def soft_threshold(x, t):
    """Shrink toward zero: sign(x) * max(|x| - t, 0)."""
    if t < 0:
        raise ValueError("threshold must be non-negative")
    x = np.asarray(x, dtype=np.float64)
    return np.sign(x) * np.maximum(np.abs(x) - t, 0.0)


def sure_threshold(coeffs):
    """Threshold minimizing Stein's unbiased risk estimate for soft shrinkage.

    Expects noise-normalized coefficients (unit noise scale). The risk of
    thresholding at the k-th smallest magnitude is

        r(k) = [n - 2k + sum_{i<=k} c2_(i) + (n - k) * c2_(k)] / n

    over squared magnitudes sorted ascending; ties break to the smallest k.
    """
    c = np.asarray(coeffs, dtype=np.float64)
    if c.size == 0:
        raise ValueError("cannot select a threshold from empty coefficients")
    sq = np.sort(c * c)
    n = sq.size
    k = np.arange(1, n + 1, dtype=np.float64)
    risk = (n - 2.0 * k + np.cumsum(sq) + (n - k) * sq) / n
    best = int(np.argmin(risk))  # argmin returns the first minimum
    return float(math.sqrt(sq[best]))


def denoise(signal, levels=DENOISE_LEVELS, bank=DB8):
    """Wavelet-denoise one 1024-sample window.

    Decomposes, kills the extreme bands, then soft-thresholds each retained
    detail level with a SURE threshold chosen on the level rescaled by its
    own MAD noise estimate.
    """
    x = _as_signal(signal, min_len=1 << levels)
    decomp = zero_extreme_bands(dwt_decompose(x, levels, bank))
    for d in decomp.details[1:]:
        sigma = float(np.median(np.abs(d))) / MAD_SCALE
        if sigma <= 0.0:
            continue
        t = sure_threshold(d / sigma)
        d[:] = soft_threshold(d, t * sigma)
    return dwt_reconstruct(decomp, bank)


def mean_normalize(signal):
    """Subtract the sample mean."""
    x = _as_signal(signal)
    return x - x.mean()


def skewness_sqi(signal):
    """Skewness-based quality index: third standardized sample moment.

    Constant input returns 0 by convention.
    """
    x = _as_signal(signal, min_len=3)
    mu = x.mean()
    sigma = math.sqrt(float(np.mean((x - mu) ** 2)))
    if sigma == 0.0:
        return 0.0
    z = (x - mu) / sigma
    return float(np.mean(z**3))
