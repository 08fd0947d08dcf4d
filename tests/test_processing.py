"""Range-Doppler processing, floor estimation and CFAR."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage
from scipy.constants import c as C0

from mirs.errors import ConfigurationError
from mirs.processing import (WINDOWS, ca_cfar, detection_mask_ca_cfar,
                             horizontal_bands, noise_floor, range_chirp,
                             range_doppler, target_detected,
                             target_exclusion_cells, target_snr_db,
                             vertical_stripes, zero_doppler_bin)
from mirs.synthesis import TargetEcho, ThermalModel, host_chirp_times, synthesize_dwell
from mirs.waveform import WaveformConfig

HOST = WaveformConfig(pri=27.4e-6, slope=26e12, chirp_duration=18.88e-6,
                      carrier=76.889e9, n_chirps=64, fps=15.0, n_elements=12,
                      tx_power=0.01, element_gain=25.0, adc_rate=25e6)


def noise_cube(nf_db=12.0, seed=0, n_chirps=64):
    wf = HOST if n_chirps == 64 else None
    host_times = host_chirp_times(HOST, 0)[:n_chirps]
    return synthesize_dwell(HOST, host_times, [], [],
                            ThermalModel(noise_figure_db=nf_db),
                            np.random.default_rng(seed))


def tone_cube(range_bin=200, power=1e-9, seed=0):
    f_b = range_bin * HOST.adc_rate / HOST.n_fast
    r = f_b * C0 / (2.0 * HOST.slope)
    host_times = host_chirp_times(HOST, 0)
    return synthesize_dwell(HOST, host_times,
                            [TargetEcho(power=power, range_m=r)], [],
                            ThermalModel(noise_figure_db=12.0),
                            np.random.default_rng(seed)), r


def test_tone_lands_in_expected_cell():
    cube, _ = tone_cube(range_bin=200, power=1e-9)
    rd = range_doppler(cube, window="hann")
    rb, db = np.unravel_index(np.argmax(rd), rd.shape)
    assert rb == 200
    assert db == zero_doppler_bin(rd)


def test_map_shape_and_zero_doppler_bin():
    rd = range_doppler(noise_cube())
    assert rd.shape == (HOST.n_fast, 64)
    assert zero_doppler_bin(rd) == 32


def test_noise_floor_window_invariant():
    # normalization makes the floor independent of the window choice
    cube = noise_cube(seed=5)
    f_rect = noise_floor(range_doppler(cube, window="rect"))
    f_hann = noise_floor(range_doppler(cube, window="hann"))
    assert abs(f_rect - f_hann) < 0.1


def test_noise_floor_median_ln2_calibration():
    # median of exponential power = ln 2 times the mean; the median floor in
    # dB sits 10 log10(ln 2) = -1.59 dB under the true noise power
    nf_db = 12.0
    noise = ThermalModel(noise_figure_db=nf_db)
    p = noise.power(HOST.adc_rate)
    vals = []
    for s in range(10):
        rd = range_doppler(noise_cube(seed=s))
        vals.append(noise_floor(rd))
    got = np.mean(vals)
    want = 10 * math.log10(p * math.log(2.0))
    assert abs(got - want) < 0.2


def test_floor_exclusion():
    cube, _ = tone_cube(range_bin=100, power=1e-6)
    rd = range_doppler(cube)
    excl = target_exclusion_cells(rd, 100, zero_doppler_bin(rd), halo=4)
    # excluding the target halo keeps the median at the clean-noise level
    with_excl = noise_floor(rd, exclusion=excl)
    clean = noise_floor(range_doppler(noise_cube(seed=0)))
    assert abs(with_excl - clean) < 0.2
    with pytest.raises(ConfigurationError):
        noise_floor(rd, exclusion=(slice(None), np.arange(rd.shape[1])))


def cell_list_floor(rd, range_bin, doppler_bin, halo=4):
    """Reference: the floor with the halo excluded cell by cell."""
    mask = np.ones(rd.shape, dtype=bool)
    for rb in range(max(0, range_bin - halo), min(rd.shape[0], range_bin + halo + 1)):
        for db in range(doppler_bin - halo, doppler_bin + halo + 1):
            mask[rb, db % rd.shape[1]] = False
    return 10.0 * math.log10(np.median(rd[mask]))


@pytest.mark.parametrize("shape", [(472, 64), (37, 9), (11, 5)])
def test_floor_exclusion_matches_cell_list_at_corners(shape):
    rng = np.random.default_rng(4)
    rd = rng.exponential(1.0, shape)
    n_r, n_d = shape
    for rb in (0, 1, n_r // 2, n_r - 1):
        for db in (0, n_d // 2, n_d - 1):
            excl = target_exclusion_cells(rd, rb, db, halo=4)
            assert noise_floor(rd, exclusion=excl) == cell_list_floor(rd, rb, db)


# few distinct levels make ties likely; 0, +inf and NaN are the edge values
MAP_LEVELS = st.one_of(
    st.sampled_from([0.0, 1.0, 2.5, 1e-30, math.inf, math.nan]),
    st.floats(0.0, 1e6, width=32))


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_noise_floor_equals_log_median_bit_for_bit(data):
    shape = (data.draw(st.integers(1, 9), label="rows"),
             data.draw(st.integers(1, 9), label="columns"))
    rd = np.array(data.draw(st.lists(MAP_LEVELS, min_size=shape[0] * shape[1],
                                     max_size=shape[0] * shape[1]),
                            label="cells"),
                  dtype=np.float32).reshape(shape)
    excl = None
    if data.draw(st.booleans(), label="exclusion"):
        excl = target_exclusion_cells(
            rd, data.draw(st.integers(0, shape[0] - 1), label="range bin"),
            data.draw(st.integers(0, shape[1] - 1), label="Doppler bin"),
            halo=data.draw(st.integers(0, 2), label="halo"))
    before = rd.copy()
    vals = rd if excl is None else rd[_kept(rd.shape, excl)]
    if vals.size == 0:
        with pytest.raises(ConfigurationError):
            noise_floor(rd, exclusion=excl)
        return
    want = _outcome(lambda: 10.0 * math.log10(np.median(vals)))
    got = _outcome(lambda: noise_floor(rd, exclusion=excl))
    if isinstance(want, float) and math.isnan(want):
        assert isinstance(got, float) and math.isnan(got)
    else:
        assert got == want
        assert not isinstance(want, float) or want.hex() == got.hex()
    # the caller's map, which CFAR and target SNR read next, is untouched
    assert np.array_equal(rd, before, equal_nan=True)


def _kept(shape, exclusion):
    mask = np.ones(shape, dtype=bool)
    mask[exclusion] = False
    return mask


def _outcome(f):
    """f()'s value, or the type of the error it raised (log10 of a zero
    median raises)."""
    try:
        return f()
    except ValueError as e:
        return type(e)


def test_noise_floor_of_a_map_with_nan_is_nan():
    rd = np.ones((8, 8), dtype=np.float32)
    for cell in ((0, 0), (4, 4), (7, 7)):
        m = rd.copy()
        m[cell] = np.nan
        assert math.isnan(noise_floor(m))
        assert math.isnan(noise_floor(m, exclusion=(slice(1, 2), np.arange(2))))


def test_cfar_detects_strong_tone():
    cube, _ = tone_cube(range_bin=200, power=1e-9)
    rd = range_doppler(cube)
    zero = zero_doppler_bin(rd)
    dets = ca_cfar(rd, 200, zero)
    assert any(abs(rb - 200) <= 1 and abs(db - zero) <= 1 for rb, db in dets)
    assert target_detected(dets, 200, zero, rd.shape[1])
    assert not target_detected(ca_cfar(rd, 350, zero), 350, zero, rd.shape[1])


def test_cfar_scale_invariance():
    # scaling the whole map leaves the hit mask unchanged (constant false
    # alarm property)
    rng = np.random.default_rng(12)
    power = rng.exponential(1.0, (256, 64))
    m1 = detection_mask_ca_cfar(power)
    m2 = detection_mask_ca_cfar(power * 1e6)
    assert np.array_equal(m1, m2)


def test_cfar_empirical_pfa():
    # quick calibration check on ~1.6e6 cells (the acceptance test scales up)
    rng = np.random.default_rng(99)
    n = 0
    hits = 0
    for _ in range(25):
        power = rng.exponential(1.0, (1024, 64))
        mask = detection_mask_ca_cfar(power, guard=2, train=8, pfa=1e-4)
        hits += int(mask.sum())
        n += mask.size
    pfa = hits / n
    assert 0.33e-4 < pfa < 3e-4


def test_cfar_validation():
    rd = range_doppler(noise_cube())
    for kwargs in ({"train": 2}, {"pfa": 0.0}, {"pfa": 1.0}):
        with pytest.raises(ConfigurationError):
            ca_cfar(rd, 100, 32, **kwargs)
        with pytest.raises(ConfigurationError):
            detection_mask_ca_cfar(rd, **kwargs)


def cfar_oracle(power, guard, train, pfa):
    """Per-cell CA-CFAR: the training cells lie guard+1 .. guard+train cells
    away on the cross, wrapped in Doppler and truncated in range."""
    n_r, n_d = power.shape
    offsets = range(guard + 1, guard + train + 1)
    hits = np.zeros(power.shape, dtype=bool)
    for r in range(n_r):
        rows = [q for j in offsets for q in (r - j, r + j) if 0 <= q < n_r]
        n = 2 * train + len(rows)
        alpha = n * (pfa ** (-1.0 / n) - 1.0)
        for d in range(n_d):
            total = sum(power[r, (d + j) % n_d] + power[r, (d - j) % n_d]
                        for j in offsets) + sum(power[q, d] for q in rows)
            hits[r, d] = power[r, d] > alpha * (total / n)
    return hits


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_cfar_matches_per_cell_oracle(data):
    # maps down to one row: on a map shorter than the 2 (guard + train) + 1
    # range cross, the training count of every row is truncated
    shape = (data.draw(st.integers(1, 48), label="rows"),
             data.draw(st.integers(1, 24), label="doppler bins"))
    guard = data.draw(st.integers(0, 3), label="guard")
    train = data.draw(st.integers(4, 10), label="train")
    pfa = data.draw(st.sampled_from([1e-4, 1e-2, 0.2]), label="pfa")
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32), label="seed"))
    power = rng.exponential(1.0, shape)
    power[rng.random(shape) < 0.02] *= 1e3
    hits = detection_mask_ca_cfar(power, guard, train, pfa)
    assert np.array_equal(hits, cfar_oracle(power, guard, train, pfa))
    # a band of rows is those rows of the whole map's mask
    start = data.draw(st.integers(0, shape[0]), label="band start")
    stop = data.draw(st.integers(start, shape[0]), label="band stop")
    assert np.array_equal(detection_mask_ca_cfar(power, guard, train, pfa,
                                                 slice(start, stop)),
                          hits[start:stop])
    # exponential draws have no float ties, so each cluster's peak is unique
    labels, n = ndimage.label(hits, structure=np.ones((3, 3), dtype=int))
    rb = data.draw(st.integers(0, shape[0] - 1), label="range bin")
    db = data.draw(st.integers(0, shape[1] - 1), label="doppler bin")
    rows, cols = target_exclusion_cells(power, rb, db, halo=2)
    touch = sorted(set(labels[rows][:, cols].ravel()) - {0})
    want = ndimage.maximum_position(power, labels, touch) if touch else []
    dets = ca_cfar(power, rb, db, guard, train, pfa)
    assert dets.shape == (len(want), 2)
    assert sorted(dets.tolist()) == sorted(list(map(int, p)) for p in want)


def test_cfar_cluster_peak_tie_goes_to_first_cell():
    power = np.ones((40, 16))
    power[20, 5:9] = 1e4          # one cluster, a four-cell plateau
    power[30, 3] = power[31, 2] = 1e4
    assert ca_cfar(power, 20, 7).tolist() == [[20, 5]]
    assert ca_cfar(power, 32, 1).tolist() == [[30, 3]]
    assert ca_cfar(power, 25, 5, gate=5).tolist() == [[20, 5], [30, 3]]


def full_map_peaks(power, guard, train, pfa):
    """Reference: the labels of the whole map's 8-connected CA-CFAR hit
    clusters, and each cluster's peak (its strongest cell, the first in
    row-major order among equal powers), in label order."""
    hits = detection_mask_ca_cfar(power, guard, train, pfa)
    labels, n = ndimage.label(hits, structure=np.ones((3, 3), dtype=int))
    peaks = []
    for lab in range(1, n + 1):
        cells = np.argwhere(labels == lab)          # row-major
        peaks.append(cells[np.argmax(power[labels == lab])].tolist())
    return labels, np.array(peaks, dtype=np.intp).reshape(-1, 2)


def check_gate_cfar(power, rb, db, guard=2, train=8, pfa=1e-4, gate=2):
    """The gate-form ca_cfar returns the full map's peaks of exactly the
    clusters touching the gate, and the gate decision is the full map's."""
    labels, peaks = full_map_peaks(power, guard, train, pfa)
    rows, cols = target_exclusion_cells(power, rb, db, halo=gate)
    touch = sorted(set(labels[rows][:, cols].ravel()) - {0})
    dets = ca_cfar(power, rb, db, guard, train, pfa, gate)
    assert sorted(dets.tolist()) == sorted(peaks[i - 1].tolist() for i in touch)
    n_d = power.shape[1]
    got = target_detected(dets, rb, db, n_d, gate)
    assert got == target_detected(peaks, rb, db, n_d, gate)
    return got


def planted_map(shape, seed, blobs, ridge, quantize):
    """An exponential background with `blobs` (row, col, rows, cols, level)
    planted as rectangles rising toward their last cell, and optionally a
    diagonal ridge (8-connected, so one cluster across many rows) through
    (row, col); `quantize` rounds every power to a few levels, so that
    clusters have exactly tied peaks."""
    rng = np.random.default_rng(seed)
    power = rng.exponential(1.0, shape)
    n_r, n_d = shape
    for r, c, h, w, level in blobs:
        r, c = r % n_r, c % n_d
        block = power[r:r + h, c:c + w]
        ramp = np.add.outer(np.arange(block.shape[0]), np.arange(block.shape[1]))
        block += level * (1.0 + ramp)
    if ridge is not None:
        r0, c0, step = ridge
        for k in range(-n_r, n_r):
            r, c = r0 % n_r + k, c0 % n_d + k * step
            if 0 <= r < n_r and 0 <= c < n_d:
                power[r, c] += 1e6 * (1.0 + (k == n_r // 2))
    if quantize:
        power = np.round(np.log2(power))
        power = 2.0 ** power
    return power.astype(np.float32)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_gate_cfar_matches_the_full_map(data):
    n_r = data.draw(st.integers(1, 80), label="rows")
    n_d = data.draw(st.integers(1, 40), label="doppler bins")
    blobs = data.draw(st.lists(st.tuples(
        st.integers(0, 79), st.integers(0, 39), st.integers(1, 12),
        st.integers(1, 4), st.sampled_from([1e2, 1e3, 1e5])), max_size=6),
        label="blobs")
    ridge = data.draw(st.none() | st.tuples(
        st.integers(0, 79), st.integers(0, 39), st.sampled_from([-1, 0, 1])),
        label="ridge")
    power = planted_map((n_r, n_d), data.draw(st.integers(0, 2 ** 32 - 1)),
                        blobs, ridge, data.draw(st.booleans(), label="ties"))
    # gates at the range edges and across the Doppler wrap are drawn often
    rb = data.draw(st.sampled_from([0, n_r - 1]) | st.integers(0, n_r - 1),
                   label="range bin")
    db = data.draw(st.sampled_from([0, n_d - 1]) | st.integers(0, n_d - 1),
                   label="doppler bin")
    guard = data.draw(st.integers(0, 3), label="guard")
    train = data.draw(st.integers(4, 8), label="train")
    gate = data.draw(st.integers(0, 3), label="gate")
    check_gate_cfar(power, rb, db, guard, train, 1e-2, gate)


def test_gate_cfar_widens_its_band_for_a_long_cluster(monkeypatch):
    # a diagonal ridge from row 0 to row 179 crosses the gate at row 20; its
    # peak lies at row 150, far outside the first band (rows 8..32)
    power = np.ones((200, 256), dtype=np.float32)
    ridge = np.arange(180)
    power[ridge, ridge] = 1e6
    power[150, 150] = 2e6
    calls = []

    def counted(*args):
        calls.append(args[4])
        return detection_mask_ca_cfar(*args)
    monkeypatch.setattr("mirs.processing.detection_mask_ca_cfar", counted)
    assert ca_cfar(power, 20, 20).tolist() == [[150, 150]]
    assert calls[0] == slice(8, 33) and len(calls) > 2
    monkeypatch.undo()
    assert not check_gate_cfar(power, 20, 20)
    assert check_gate_cfar(power, 150, 151)


@pytest.mark.parametrize("rb, db, want", [
    (21, 4, False),   # the cluster touches the gate, its peak lies outside
    (26, 4, True),    # the peak itself
    (0, 15, False),   # a gate at the first range row, across the Doppler wrap
    (39, 0, True),    # a gate at the last range row, across the Doppler wrap
])
def test_gate_cfar_at_the_edges_and_for_an_outside_peak(rb, db, want):
    power = np.ones((40, 16), dtype=np.float32)
    power[20:27, 4] = 1e3 * np.arange(1, 8)     # peak at row 26
    power[39, 15] = power[38, 1] = 1e4          # one cluster each side of the wrap
    power[0, 3] = 1e4                           # outside the wrapped gate at 0, 15
    assert check_gate_cfar(power, rb, db) == want


def test_fixed_vs_cfar_under_uniform_floor_rise():
    # the Fig. 11 contrast at module scale: raising every cell by 8 dB
    # multiplies fixed-threshold false alarms but leaves CFAR unchanged
    rng = np.random.default_rng(5)
    power = rng.exponential(1.0, (1024, 256))
    lifted = power * 10 ** 0.8
    floor_db = 10 * math.log10(np.median(power) / math.log(2.0) * math.log(2.0))

    def fixed_hits(p):
        level = 10 ** ((floor_db + 9.64) / 10.0)
        return int(np.count_nonzero(p > level))

    assert fixed_hits(lifted) > 50 * max(1, fixed_hits(power))
    cf0 = int(detection_mask_ca_cfar(power).sum())
    cf1 = int(detection_mask_ca_cfar(lifted).sum())
    assert cf1 == cf0


def test_target_snr_db():
    cube, _ = tone_cube(range_bin=200, power=1e-9)
    rd = range_doppler(cube)
    excl = target_exclusion_cells(rd, 200, zero_doppler_bin(rd))
    floor = noise_floor(rd, exclusion=excl)
    snr = target_snr_db(rd, 200, zero_doppler_bin(rd), floor)
    # coherent gain: tone power * n_fast * n_chirps over the per-cell floor,
    # with Hann windows costing about 4.3 dB total; just sanity-band it
    assert 20.0 < snr < 90.0
    low = target_snr_db(rd, 350, zero_doppler_bin(rd), floor)
    assert low < snr - 10.0


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_target_snr_gate_is_the_wrapped_block(data):
    # the gate is the +/-gate block, truncated in range and wrapped in
    # Doppler, as a list of wrapped columns gives it, at the map edges too
    n_r = data.draw(st.integers(1, 40))
    n_d = data.draw(st.integers(1, 24))
    gate = data.draw(st.integers(0, 4))
    rb = data.draw(st.integers(0, n_r - 1))
    db = data.draw(st.integers(0, n_d - 1))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    rd = rng.exponential(size=(n_r, n_d)).astype(np.float32)
    cols = [(db + o) % n_d for o in range(-gate, gate + 1)]
    peak = rd[max(0, rb - gate):min(n_r, rb + gate + 1)][:, cols].max()
    assert target_snr_db(rd, rb, db, 1.5, gate) == \
        10.0 * math.log10(peak) - 1.5


def test_doppler_gate_wraps():
    d = np.array([[10, 63]])
    assert target_detected(d, 10, 0, 64, gate=2)
    assert not target_detected(d, 10, 8, 64, gate=2)
    # a map without hits has no detection to gate
    none = ca_cfar(np.ones((40, 16)), 10, 0)
    assert none.shape == (0, 2)
    assert not target_detected(none, 10, 0, 16)


def gate_loop(detections, range_bin, doppler_bin, n_doppler_bins, gate):
    """Reference: the association gate, one detection at a time."""
    for rb, db in detections.tolist():
        ddop = (db - doppler_bin) % n_doppler_bins
        if abs(rb - range_bin) <= gate and min(ddop, n_doppler_bins - ddop) <= gate:
            return True
    return False


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_target_detected_matches_loop(data):
    n_doppler = data.draw(st.integers(1, 64), label="doppler bins")
    cells = data.draw(st.lists(st.tuples(st.integers(0, 40),
                                         st.integers(0, n_doppler - 1)),
                               max_size=6), label="detections")
    dets = np.array(cells, dtype=np.intp).reshape(-1, 2)
    rb = data.draw(st.integers(0, 40), label="range bin")
    db = data.draw(st.integers(0, n_doppler - 1), label="doppler bin")
    gate = data.draw(st.integers(0, 4), label="gate")
    assert target_detected(dets, rb, db, n_doppler, gate) == \
        gate_loop(dets, rb, db, n_doppler, gate)


def test_range_chirp_shape_and_stripes():
    cube = noise_cube(seed=3)
    rc = range_chirp(cube)
    assert rc.shape == (HOST.n_fast, 64)
    # inject a hot chirp column: stripe detector flags exactly that column
    hot = rc.copy()
    hot[:, 17] *= 10 ** 2.0
    cols = vertical_stripes(hot, thresh_db=6.0)
    assert 17 in cols and len(cols) == 1
    assert vertical_stripes(rc, thresh_db=6.0).size == 0
    # horizontal analog
    hot2 = rc.copy()
    hot2[33, :] *= 10 ** 3.0
    rows = horizontal_bands(hot2, thresh_db=6.0)
    assert 33 in rows and len(rows) == 1


def two_pass_range_doppler(x, window):
    """Reference: the out-of-place two-pass formula in float64."""
    w_fast = WINDOWS[window](x.shape[0])
    w_slow = WINDOWS[window](x.shape[1])
    y = np.fft.fft(x * w_fast[:, None], axis=0) / math.sqrt(np.sum(w_fast ** 2))
    y = np.fft.fft(y * w_slow[None, :], axis=1) / math.sqrt(np.sum(w_slow ** 2))
    return np.abs(np.fft.fftshift(y, axes=1)) ** 2


def amplitude_error_bound(x, window):
    """A worst-case bound on ||sqrt(range_doppler(x)) - sqrt(two_pass)||_F,
    from the unit round-offs and the transform lengths alone.

    Against the exact map Y, a map computed with unit round-off u has these
    errors: the cast, the rounded fast-time window and their product (3u,
    relative per element); the rounded slow-time window and its product
    (2u); each length-n FFT pass, a norm-wise relative error of at most
    ceil(log2 n) eta with eta = mu + gamma_4 (sqrt 2 + mu) and twiddles good
    to mu = u (Higham, Accuracy and Stability of Numerical Algorithms, 2nd
    ed., Thm. 24.2); the modulus and the square (2u).  The passes scale
    norms by sqrt(n) and the slow window by at most max|w_slow|, so each
    error is relative to sqrt(n_fast n_slow) max|w_slow| ||w_fast x||_F,
    which bounds ||Y||_F.  Both maps' bounds add; 1.01 covers the
    second-order terms.
    """
    def unit_energy(n):
        w = WINDOWS[window](n)
        return w / math.sqrt(np.sum(w ** 2))

    n_fast, n_slow = x.shape
    w_fast, w_slow = unit_energy(n_fast), unit_energy(n_slow)
    scale = (math.sqrt(n_fast * n_slow) * w_slow.max()
             * np.linalg.norm(x * w_fast[:, None]))
    stages = math.ceil(math.log2(n_fast)) + math.ceil(math.log2(n_slow))

    def rel(u):
        eta = u + 4 * u / (1 - 4 * u) * (math.sqrt(2) + u)
        return 7 * u + stages * eta

    u32, u64 = (float(np.finfo(t).eps) / 2 for t in (np.float32, np.float64))
    return 1.01 * (rel(u32) + rel(u64)) * scale


def check_single_precision_map(x, window):
    """range_doppler(x) is float32 and within amplitude_error_bound of the
    float64 map, and so is its floor: every cell amplitude moves by at most
    the bound b, so the median power m moves by at most 2 b sqrt(m) + b^2."""
    rd32 = range_doppler(x, window)
    rd64 = two_pass_range_doppler(x, window)
    assert rd32.dtype == np.float32 and rd32.shape == rd64.shape
    b = amplitude_error_bound(x, window)
    assert np.linalg.norm(np.sqrt(rd32.astype(float)) - np.sqrt(rd64)) <= b
    m = np.median(rd64)
    g = 2 * b * math.sqrt(m) + b * b
    assert g < m
    assert (abs(noise_floor(rd32) - noise_floor(rd64))
            <= -10 * math.log10(1 - g / m))
    return rd64


@pytest.mark.parametrize("window", ["rect", "hann"])
@pytest.mark.parametrize("shape", [(472, 64), (97, 31), (101, 13), (45, 7)])
def test_range_doppler_within_float32_bound_of_two_pass(window, shape):
    rng = np.random.default_rng(11)
    x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    check_single_precision_map(x, window)


def test_range_doppler_bound_holds_under_a_60_db_interferer():
    # float32 round-off scales with the map's energy, so a strong peak is
    # the hard case for the thermal cells: a chamber-shaped map with a tone
    # off the bin grid in range and Doppler, 62 dB over the floor
    rng = np.random.default_rng(12)
    shape = (472, 512)
    x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    x += 5.0 * np.exp(2j * np.pi * (0.2373 * np.arange(shape[0])[:, None]
                                    + 0.1119 * np.arange(shape[1])))
    rd64 = check_single_precision_map(x, "hann")
    assert rd64.max() > 1e6 * np.median(rd64)


def test_unknown_window_rejected():
    with pytest.raises(ConfigurationError):
        range_doppler(noise_cube(), window="kaiser")
