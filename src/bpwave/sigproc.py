"""Wavelet-based denoising and quality metrics for 1D physiological signals.

Signals are plain 1-D float64 arrays, sampled uniformly (125 Hz by
convention for the pressure pipeline); denoise and mean_normalize also take
a (B, L) stack of windows and treat each row as its own signal. The
transform is the orthogonal Daubechies-8 DWT with periodized boundaries, so
dyadic-length inputs decompose with exact halving and reconstruct perfectly.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

DENOISE_LEVELS = 10

# MAD -> sigma for Gaussian noise (Phi^-1(0.75))
MAD_SCALE = 0.6745

# denoise works through a stack this many windows at a time. The finest
# level's 16-tap gather, and its synthesis terms with their bin indices,
# take up to 200 KB per 1024-sample window, so a chunk stays near 3 MB and
# preprocessing a store costs less transient memory than importing its CSV.
_DENOISE_STACK = 16


def _as_signal(x, min_len=1, stack=False):
    """x as float64, checked: 1-D (or, with stack=True, a (B, L) stack of
    rows), at least min_len samples long, all finite."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 and not (stack and x.ndim == 2):
        kind = "a 1-D signal or a (B, L) stack" if stack else "1-D signal"
        raise ValueError(f"expected {kind}, got shape {x.shape}")
    if x.shape[-1] < min_len:
        raise ValueError(f"signal too short: {x.shape[-1]} < {min_len}")
    if not np.all(np.isfinite(x)):
        raise ValueError("signal contains non-finite values")
    return x


def _check_dyadic(length, levels):
    if levels < 1:
        raise ValueError("levels must be >= 1")
    if length % (1 << levels) != 0:
        raise ValueError(
            f"signal length {length} is not divisible by 2^{levels}; "
            "periodized decomposition requires exact halving"
        )


@dataclass(frozen=True)
class WaveletFilterBank:
    """Orthogonal two-channel analysis filter bank (16 taps each). Synthesis
    reuses the same taps, as the transpose of the orthogonal analysis."""

    dec_lowpass: np.ndarray
    dec_highpass: np.ndarray

    def validate(self):
        tol = 1e-12
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
    return WaveletFilterBank(dec_lowpass=h, dec_highpass=g).validate()


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


def _filter_rows(windows, taps):
    """(B, m, K) windows times (K,) taps -> (B, m). Each window is its own
    (m, K) @ (K,) product, the call that window alone makes, so each row is
    bitwise that window's result whatever the BLAS. One product over the
    flattened stack is not: OpenBLAS 0.3.31 summed the rows of windows one
    or two coefficients long in another order (SkylakeX, Haswell,
    Sandybridge, Nehalem and Katmai kernels), and the stack's row count, not
    the window's, decides how BLAS splits a product across threads."""
    out = np.empty(windows.shape[:2])
    for window, row in zip(windows, out):
        row[:] = window @ taps
    return out


@functools.lru_cache(maxsize=32)
def _filter_positions(n, taps):
    """(n/2, taps) sample indices under each filter position of a
    periodized length-n signal, read-only. One denoise of 1024-sample
    windows uses 10 lengths, so each is built once per process."""
    idx = (2 * np.arange(n // 2)[:, None] + np.arange(taps)[None, :]) % n
    idx.flags.writeable = False
    return idx


def _analysis_step(x):
    """One level over a (B, n) stack: (B, n/2) approximation and detail rows."""
    idx = _filter_positions(x.shape[1], DB8.dec_lowpass.size)
    # C order, as one window's gather is: a strided window's product sums
    # in another order
    windows = np.take(x, idx, axis=1)
    return _filter_rows(windows, DB8.dec_lowpass), _filter_rows(windows, DB8.dec_highpass)


def _synthesis_step(approx, detail):
    """Invert one level over (B, n/2) stacks. One bincount covers the stack;
    each row's bins are offset by n, so every bin sums its terms in the same
    order as for that row alone."""
    rows, half = approx.shape
    n = 2 * half
    idx = _filter_positions(n, DB8.dec_lowpass.size)
    bins = idx if rows == 1 else idx + n * np.arange(rows)[:, None, None]
    vals = approx[:, :, None] * DB8.dec_lowpass
    vals += detail[:, :, None] * DB8.dec_highpass
    return np.bincount(bins.ravel(), weights=vals.ravel(), minlength=rows * n).reshape(rows, n)


def _decompose_rows(x, levels):
    """Pyramid of a (B, n) stack; every band is a (B, m) stack of rows."""
    details = []
    approx = x
    for _ in range(levels):
        approx, detail = _analysis_step(approx)
        details.append(detail)
    return WaveletDecomposition(approx=approx, details=details)


def _reconstruct_rows(decomp):
    x = decomp.approx
    for detail in reversed(decomp.details):
        x = _synthesis_step(x, detail)
    return x


def dwt_decompose(signal, levels=DENOISE_LEVELS):
    """Decompose a dyadic-length signal into a periodized coefficient pyramid."""
    x = _as_signal(signal)
    levels = int(levels)
    _check_dyadic(x.size, levels)
    stacked = _decompose_rows(x[None], levels)
    return WaveletDecomposition(approx=stacked.approx[0], details=[d[0] for d in stacked.details])


def dwt_reconstruct(decomp):
    """Invert dwt_decompose; band lengths must form a consistent pyramid."""
    approx = np.asarray(decomp.approx, dtype=np.float64)
    details = [np.asarray(d, dtype=np.float64) for d in decomp.details]
    size = approx.size
    for level, detail in enumerate(reversed(details)):
        if detail.size != size:
            raise ValueError(
                f"inconsistent pyramid: detail band {decomp.levels - level} has "
                f"{detail.size} coefficients, expected {size}"
            )
        size *= 2
    stacked = WaveletDecomposition(approx=approx[None], details=[d[None] for d in details])
    return _reconstruct_rows(stacked)[0]


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
    """Shrink toward zero: sign(x) * max(|x| - t, 0). t may be an array that
    broadcasts against x, such as one threshold per row."""
    if np.any(np.asarray(t) < 0):
        raise ValueError("threshold must be non-negative")
    x = np.asarray(x, dtype=np.float64)
    return np.sign(x) * np.maximum(np.abs(x) - t, 0.0)


def _sure_thresholds(c):
    """sure_threshold of each row of a (B, n) stack."""
    sq = np.sort(c * c, axis=-1)
    n = sq.shape[-1]
    k = np.arange(1, n + 1, dtype=np.float64)
    risk = (n - 2.0 * k + np.cumsum(sq, axis=-1) + (n - k) * sq) / n
    best = np.argmin(risk, axis=-1)  # argmin returns the first minimum
    return np.sqrt(sq[np.arange(len(sq)), best])


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
    return float(_sure_thresholds(c.reshape(1, -1))[0])


def _denoise_rows(x, levels):
    decomp = zero_extreme_bands(_decompose_rows(x, levels))
    for d in decomp.details[1:]:
        sigma = np.median(np.abs(d), axis=-1) / MAD_SCALE
        live = sigma > 0.0  # a row with no noise estimate keeps this level as is
        band, scale = d[live], sigma[live, None]
        t = _sure_thresholds(band / scale)
        d[live] = soft_threshold(band, t[:, None] * scale)
    return _reconstruct_rows(decomp)


def denoise(signal, levels=DENOISE_LEVELS):
    """Wavelet-denoise one 1024-sample window, or each row of a (B, L) stack.

    Decomposes, kills the extreme bands, then soft-thresholds each retained
    detail level with a SURE threshold chosen on the level rescaled by its
    own MAD noise estimate. Each row of a stack comes out bitwise equal to
    denoising that window alone.
    """
    x = _as_signal(signal, min_len=1 << levels, stack=True)
    _check_dyadic(x.shape[-1], levels)
    rows = x.reshape(-1, x.shape[-1])
    out = np.empty_like(rows)
    for start in range(0, len(rows), _DENOISE_STACK):
        part = slice(start, start + _DENOISE_STACK)
        out[part] = _denoise_rows(rows[part], levels)
    return out.reshape(x.shape)


def mean_normalize(signal):
    """Subtract the sample mean of a signal, or of each row of a (B, L) stack."""
    x = _as_signal(signal, stack=True)
    return x - x.mean(axis=-1, keepdims=True)


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
