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


def _range_fft(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Windowed FFT over fast time, normalized so E|X|^2 of white noise equals
    the per-sample noise power."""
    y = np.fft.fft(x * w[:, None], axis=0)
    y /= math.sqrt(np.sum(w ** 2))
    return y


def range_doppler(cube: IFCube, window: str = "hann") -> RangeDopplerMap:
    """Windowed 2-D FFT (fast-time then chirps), magnitude squared."""
    if window not in WINDOWS:
        raise ConfigurationError(f"unknown window: {window}")
    x = cube.samples
    w_slow = WINDOWS[window](x.shape[1])
    y = _range_fft(x, WINDOWS[window](x.shape[0]))
    y *= w_slow
    np.fft.fft(y, axis=1, out=y)
    y /= math.sqrt(np.sum(w_slow ** 2))
    power = np.fft.fftshift(np.abs(y) ** 2, axes=1)

    wf = cube.host
    freq_bin = wf.adc_rate / x.shape[0]
    range_bin_m = freq_bin * C0 / (2.0 * wf.slope)
    doppler_bin_hz = 1.0 / (wf.pri * x.shape[1])
    doppler_bin_mps = doppler_bin_hz * C0 / (2.0 * wf.carrier)
    return RangeDopplerMap(power=power, range_bin_m=range_bin_m,
                           doppler_bin_mps=doppler_bin_mps)


def range_chirp(cube: IFCube) -> np.ndarray:
    """Power after the Hann-windowed range FFT only: [range bin, chirp]."""
    return np.abs(_range_fft(cube.samples, np.hanning(cube.samples.shape[0]))) ** 2


def noise_floor(rd: RangeDopplerMap, exclusion=None) -> float:
    """Median map level in dB, robust to sparse target/interference peaks.

    exclusion: a (rows, columns) index pair, as target_exclusion_cells
    returns, of the cells to leave out.
    """
    vals = rd.power
    if exclusion is not None:
        mask = np.ones(rd.power.shape, dtype=bool)
        mask[exclusion] = False
        vals = rd.power[mask]
    if vals.size == 0:
        raise ConfigurationError("all cells excluded")
    return 10.0 * math.log10(np.median(vals))


def target_exclusion_cells(rd: RangeDopplerMap, range_bin: int, doppler_bin: int,
                           halo: int = 4):
    """The +/-halo block around a cell: a row slice (truncated at the range
    edges) and a column index array (wrapped in Doppler)."""
    rows = slice(max(0, range_bin - halo), min(rd.n_range_bins, range_bin + halo + 1))
    cols = np.arange(doppler_bin - halo, doppler_bin + halo + 1) % rd.n_doppler_bins
    return rows, cols


def _cfar_hits(power: np.ndarray, guard: int, train: int, pfa: float):
    """Cross-shaped cell-averaging CFAR: (hit mask, training mean) per cell.

    The training cells lie guard+1 .. guard+train cells away on either side,
    wrapped on the Doppler axis and truncated on the range axis, so their
    count N, and the threshold multiplier alpha = N (pfa^(-1/N) - 1), depend
    only on the range row.
    """
    if train < 4:
        raise ConfigurationError("train must be >= 4")
    if not 0.0 < pfa < 1.0:
        raise ConfigurationError("pfa must be in (0, 1)")
    k = np.zeros(2 * (guard + train) + 1)
    k[:train] = 1.0
    k[-train:] = 1.0
    noise = ndimage.correlate1d(power, k, axis=1, mode="wrap")
    noise += ndimage.correlate1d(power, k, axis=0, mode="constant", cval=0.0)
    count = 2 * train + ndimage.correlate1d(np.ones(power.shape[0]), k,
                                            mode="constant", cval=0.0)
    count = count[:, None]
    noise /= count
    alpha = count * (pfa ** (-1.0 / count) - 1.0)
    return power > alpha * noise, noise


def ca_cfar(rd: RangeDopplerMap, guard: int = 2, train: int = 8,
            pfa: float = 1e-4):
    """2-D cross-shaped CA-CFAR, with 8-connected hit cells clustered to
    their peak.

    A cluster's peak is its strongest cell; among equal powers, the first in
    row-major order.
    """
    hits, noise = _cfar_hits(rd.power, guard, train, pfa)
    labels, _ = ndimage.label(hits, structure=np.ones((3, 3), dtype=int))
    idx = np.flatnonzero(labels)
    lab = labels.ravel()[idx]
    order = np.lexsort((idx, -rd.power.ravel()[idx], lab))
    lab = lab[order]
    peaks = idx[order[np.flatnonzero(np.diff(lab, prepend=0))]]
    out = []
    for rb, db in zip(*np.unravel_index(peaks, hits.shape)):
        rb, db = int(rb), int(db)
        snr = 10.0 * math.log10(rd.power[rb, db] / noise[rb, db])
        out.append(Detection(
            range_bin=rb, doppler_bin=db,
            range=rb * rd.range_bin_m,
            radial_speed=(db - rd.zero_doppler_bin) * rd.doppler_bin_mps,
            snr_db=snr))
    return out


def detection_mask_ca_cfar(power: np.ndarray, guard: int = 2, train: int = 8,
                           pfa: float = 1e-4) -> np.ndarray:
    """Raw boolean CFAR hit mask (no clustering); used for Pfa calibration."""
    return _cfar_hits(power, guard, train, pfa)[0]


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
