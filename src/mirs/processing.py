"""Host radar DSP chain: range FFT, Doppler FFT, floor estimation, CA-CFAR.

The maps are computed in single precision from the double IF cube: the cube
is cast to complex64 in the fast-time window multiply, both FFT passes run
through scipy.fft in complex64, and the power maps are float32, as are the
floor median and the CFAR sums taken on them.

Window power is normalized so that a pure-noise floor level is invariant to
the window choice; the Doppler axis is fftshifted so zero Doppler sits at bin
n_chirps // 2.
"""
from __future__ import annotations

import math

import numpy as np
from scipy import fft, ndimage

from .errors import ConfigurationError

WINDOWS = {"rect": np.ones, "hann": np.hanning}


def _window(name: str, n: int) -> np.ndarray:
    """The length-n window scaled to unit energy, so that E|X|^2 of white
    noise equals the per-sample noise power, in float32."""
    w = WINDOWS[name](n)
    return (w / math.sqrt(np.sum(w ** 2))).astype(np.float32)


def _range_fft(x: np.ndarray, window: str) -> np.ndarray:
    """Windowed complex64 FFT over fast time of a cube [n_fast, n_chirps]."""
    y = np.multiply(x, _window(window, x.shape[0])[:, None], dtype=np.complex64)
    return fft.fft(y, axis=0, overwrite_x=True)


def range_doppler(samples: np.ndarray, window: str = "hann") -> np.ndarray:
    """Windowed 2-D FFT (fast time, then chirps) of an IF cube
    [n_fast, n_chirps]: the float32 linear power map [range bin, Doppler bin]."""
    if window not in WINDOWS:
        raise ConfigurationError(f"unknown window: {window}")
    y = _range_fft(samples, window)
    y *= _window(window, samples.shape[1])
    y = fft.fft(y, axis=1, overwrite_x=True)
    return np.fft.fftshift(np.abs(y) ** 2, axes=1)


def zero_doppler_bin(power: np.ndarray) -> int:
    """The Doppler bin of zero radial speed in a range-Doppler map."""
    return power.shape[1] // 2


def range_chirp(samples: np.ndarray) -> np.ndarray:
    """Float32 power after the Hann-windowed range FFT only: [range bin, chirp]."""
    return np.abs(_range_fft(samples, "hann")) ** 2


def noise_floor(power: np.ndarray, exclusion=None) -> float:
    """Median map level in dB, robust to sparse target/interference peaks.

    exclusion: a (rows, columns) index pair, as target_exclusion_cells
    returns, of the cells to leave out.
    """
    vals = power
    if exclusion is not None:
        mask = np.ones(power.shape, dtype=bool)
        mask[exclusion] = False
        vals = power[mask]
    if vals.size == 0:
        raise ConfigurationError("all cells excluded")
    return 10.0 * math.log10(np.median(vals))


def target_exclusion_cells(power: np.ndarray, range_bin: int, doppler_bin: int,
                           halo: int = 4):
    """The +/-halo block around a cell: a row slice (truncated at the range
    edges) and a column index array (wrapped in Doppler)."""
    n_range, n_doppler = power.shape
    rows = slice(max(0, range_bin - halo), min(n_range, range_bin + halo + 1))
    cols = np.arange(doppler_bin - halo, doppler_bin + halo + 1) % n_doppler
    return rows, cols


def detection_mask_ca_cfar(power: np.ndarray, guard: int = 2, train: int = 8,
                           pfa: float = 1e-4) -> np.ndarray:
    """Cross-shaped cell-averaging CFAR hit mask, before clustering.

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
    return power > alpha * noise


def ca_cfar(power: np.ndarray, guard: int = 2, train: int = 8,
            pfa: float = 1e-4) -> np.ndarray:
    """2-D cross-shaped CA-CFAR, with 8-connected hit cells clustered to
    their peak: one (range bin, Doppler bin) row per cluster, in label order.

    A cluster's peak is its strongest cell; among equal powers, the first in
    row-major order.
    """
    hits = detection_mask_ca_cfar(power, guard, train, pfa)
    labels, _ = ndimage.label(hits, structure=np.ones((3, 3), dtype=int))
    idx = np.flatnonzero(labels)
    lab = labels.ravel()[idx]
    order = np.lexsort((idx, -power.ravel()[idx], lab))
    lab = lab[order]
    peaks = idx[order[np.flatnonzero(np.diff(lab, prepend=0))]]
    return np.column_stack(np.unravel_index(peaks, power.shape))


def target_detected(detections: np.ndarray, range_bin: int, doppler_bin: int,
                    n_doppler_bins: int, gate: int = 2) -> bool:
    """Association gate: a detection (a ca_cfar row) within +/-gate bins
    (Doppler wraps) counts as a successful detection of the reference
    target."""
    ddop = (detections[:, 1] - doppler_bin) % n_doppler_bins
    return bool(np.any((np.abs(detections[:, 0] - range_bin) <= gate)
                       & (np.minimum(ddop, n_doppler_bins - ddop) <= gate)))


def target_snr_db(power: np.ndarray, range_bin: int, doppler_bin: int,
                  floor_db: float, gate: int = 2) -> float:
    """Peak power in the association gate over the given floor, in dB."""
    n_range, n_doppler = power.shape
    r0 = max(0, range_bin - gate)
    r1 = min(n_range, range_bin + gate + 1)
    cols = [(doppler_bin + o) % n_doppler for o in range(-gate, gate + 1)]
    peak = power[r0:r1][:, cols].max()
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
