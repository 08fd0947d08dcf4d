"""Host radar DSP chain: range FFT, Doppler FFT, floor estimation, CA-CFAR.

Window power is normalized so that a pure-noise floor level is invariant to
the window choice; the Doppler axis is fftshifted so zero Doppler sits at bin
n_chirps // 2.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage
from scipy.constants import c as C0

from .errors import ConfigurationError
from .synthesis import IFCube


@dataclass
class RangeDopplerMap:
    power: np.ndarray            # [n_range_bins, n_doppler_bins], linear power
    range_bin_m: float
    doppler_bin_mps: float

    @property
    def n_range_bins(self):
        return self.power.shape[0]

    @property
    def n_doppler_bins(self):
        return self.power.shape[1]

    @property
    def zero_doppler_bin(self) -> int:
        return self.n_doppler_bins // 2


@dataclass(frozen=True)
class Detection:
    range_bin: int
    doppler_bin: int
    range: float
    radial_speed: float
    snr_db: float


WINDOWS = {"rect": np.ones, "hann": np.hanning}


def range_doppler(cube: IFCube, window: str = "hann") -> RangeDopplerMap:
    """Windowed 2-D FFT (fast-time then chirps), magnitude squared."""
    if window not in WINDOWS:
        raise ConfigurationError(f"unknown window: {window}")
    x = cube.samples
    w_fast = WINDOWS[window](x.shape[0])
    w_slow = WINDOWS[window](x.shape[1])
    # normalize so E|X|^2 of white noise equals the per-sample noise power
    y = np.fft.fft(x * w_fast[:, None], axis=0) / math.sqrt(np.sum(w_fast ** 2))
    y = np.fft.fft(y * w_slow[None, :], axis=1) / math.sqrt(np.sum(w_slow ** 2))
    y = np.fft.fftshift(y, axes=1)
    power = np.abs(y) ** 2

    wf = cube.host
    freq_bin = wf.adc_rate / x.shape[0]
    range_bin_m = freq_bin * C0 / (2.0 * wf.slope)
    doppler_bin_hz = 1.0 / (wf.pri * x.shape[1])
    doppler_bin_mps = doppler_bin_hz * C0 / (2.0 * wf.carrier)
    return RangeDopplerMap(power=power, range_bin_m=range_bin_m,
                           doppler_bin_mps=doppler_bin_mps)


def range_chirp(cube: IFCube) -> np.ndarray:
    """Power after the Hann-windowed range FFT only: [range bin, chirp]."""
    w = np.hanning(cube.samples.shape[0])
    y = np.fft.fft(cube.samples * w[:, None], axis=0) / math.sqrt(np.sum(w ** 2))
    return np.abs(y) ** 2


def noise_floor(rd: RangeDopplerMap, exclusion=()) -> float:
    """Median map level in dB, robust to sparse target/interference peaks.

    exclusion: iterable of (range_bin, doppler_bin) cells to leave out.
    """
    mask = np.ones(rd.power.shape, dtype=bool)
    for rb, db in exclusion:
        mask[rb, db] = False
    vals = rd.power[mask]
    if vals.size == 0:
        raise ConfigurationError("all cells excluded")
    return 10.0 * math.log10(np.median(vals))


def target_exclusion_cells(rd: RangeDopplerMap, range_bin: int, doppler_bin: int,
                           halo: int = 4):
    cells = []
    for rb in range(max(0, range_bin - halo), min(rd.n_range_bins, range_bin + halo + 1)):
        for db in range(doppler_bin - halo, doppler_bin + halo + 1):
            cells.append((rb, db % rd.n_doppler_bins))
    return cells


def _cfar_noise_estimate(power: np.ndarray, guard: int, train: int):
    """Cross-shaped training mean: wrapped on the Doppler axis, truncated on
    the range axis.  Returns (mean estimate, training-cell count) per cell."""
    n_r, n_d = power.shape
    span = guard + train

    k = np.zeros(2 * span + 1)
    k[:train] = 1.0
    k[-train:] = 1.0

    sum_d = ndimage.correlate1d(power, k, axis=1, mode="wrap")
    cnt_d = np.full(power.shape, 2 * train, dtype=float)

    sum_r = ndimage.correlate1d(power, k, axis=0, mode="constant", cval=0.0)
    ones = np.ones((n_r, 1))
    cnt_r = ndimage.correlate1d(ones, k, axis=0, mode="constant", cval=0.0)
    cnt_r = np.broadcast_to(cnt_r, power.shape)

    total = sum_d + sum_r
    count = cnt_d + cnt_r
    return total / count, count


def ca_cfar(rd: RangeDopplerMap, guard: int = 2, train: int = 8,
            pfa: float = 1e-4):
    """2-D cross-shaped cell-averaging CFAR.

    Threshold multiplier alpha = N (pfa^(-1/N) - 1) with N the training-cell
    count (per cell, accounting for range-edge truncation).
    """
    if train < 4:
        raise ConfigurationError("train must be >= 4")
    if not 0.0 < pfa < 1.0:
        raise ConfigurationError("pfa must be in (0, 1)")
    noise_est, count = _cfar_noise_estimate(rd.power, guard, train)
    alpha = count * (pfa ** (-1.0 / count) - 1.0)
    hits = rd.power > alpha * noise_est
    return _detections_from_mask(rd, hits, noise_est)


def detection_mask_ca_cfar(power: np.ndarray, guard: int = 2, train: int = 8,
                           pfa: float = 1e-4) -> np.ndarray:
    """Raw boolean CFAR hit mask (no clustering); used for Pfa calibration."""
    noise_est, count = _cfar_noise_estimate(power, guard, train)
    alpha = count * (pfa ** (-1.0 / count) - 1.0)
    return power > alpha * noise_est


def _detections_from_mask(rd: RangeDopplerMap, hits: np.ndarray,
                          noise_est: np.ndarray):
    """Cluster 8-connected hit cells to their local peak."""
    if not np.any(hits):
        return []
    labels, n = ndimage.label(hits, structure=np.ones((3, 3), dtype=int))
    out = []
    peaks = ndimage.maximum_position(rd.power, labels, range(1, n + 1))
    for rb, db in peaks:
        p = rd.power[rb, db]
        snr = 10.0 * math.log10(p / noise_est[rb, db])
        out.append(Detection(
            range_bin=int(rb), doppler_bin=int(db),
            range=rb * rd.range_bin_m,
            radial_speed=(db - rd.zero_doppler_bin) * rd.doppler_bin_mps,
            snr_db=snr))
    return out


def target_detected(detections, range_bin: int, doppler_bin: int,
                    n_doppler_bins: int, gate: int = 2) -> bool:
    """Association gate: a clustered detection within +/-gate bins (Doppler
    wraps) counts as a successful detection of the reference target."""
    for d in detections:
        ddop = (d.doppler_bin - doppler_bin) % n_doppler_bins
        ddop = min(ddop, n_doppler_bins - ddop)
        if abs(d.range_bin - range_bin) <= gate and ddop <= gate:
            return True
    return False


def target_snr_db(rd: RangeDopplerMap, range_bin: int, doppler_bin: int,
                  floor_db: float, gate: int = 2) -> float:
    """Peak power in the association gate over the given floor, in dB."""
    r0 = max(0, range_bin - gate)
    r1 = min(rd.n_range_bins, range_bin + gate + 1)
    cols = [(doppler_bin + o) % rd.n_doppler_bins for o in range(-gate, gate + 1)]
    peak = rd.power[r0:r1][:, cols].max()
    return 10.0 * math.log10(peak) - floor_db


# ---------------------------------------------------------------------------
# interference signatures (map diagnostics)

def vertical_stripes(mat: np.ndarray, thresh_db: float = 6.0):
    """Columns whose mean power exceeds the median column by thresh_db."""
    col = mat.mean(axis=0)
    ref = np.median(col)
    return np.nonzero(col > ref * 10 ** (thresh_db / 10.0))[0]


def horizontal_bands(mat: np.ndarray, thresh_db: float = 6.0):
    """Rows whose mean power exceeds the median row by thresh_db."""
    row = mat.mean(axis=1)
    ref = np.median(row)
    return np.nonzero(row > ref * 10 ** (thresh_db / 10.0))[0]
