"""Range-Doppler processing, floor estimation and CFAR."""
import math

import numpy as np
import pytest
from scipy.constants import c as C0

from mirs.errors import ConfigurationError
from mirs.processing import (Detection, RangeDopplerMap, ca_cfar,
                             detection_mask_ca_cfar, horizontal_bands,
                             noise_floor, range_chirp, range_doppler,
                             target_detected, target_exclusion_cells,
                             target_snr_db, vertical_stripes)
from mirs.synthesis import IFCube, TargetEcho, ThermalModel, host_chirp_times, synthesize_dwell
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
    cube, r = tone_cube(range_bin=200, power=1e-9)
    rd = range_doppler(cube, window="hann")
    rb, db = np.unravel_index(np.argmax(rd.power), rd.power.shape)
    assert rb == 200
    assert db == rd.zero_doppler_bin
    assert 200 * rd.range_bin_m == pytest.approx(r, rel=2e-3)


def test_axis_scalings():
    cube = noise_cube()
    rd = range_doppler(cube)
    assert rd.range_bin_m == pytest.approx(
        (HOST.adc_rate / HOST.n_fast) * C0 / (2 * HOST.slope))
    assert rd.doppler_bin_mps == pytest.approx(
        (1.0 / (HOST.pri * 64)) * C0 / (2 * HOST.carrier))
    assert rd.zero_doppler_bin == 32
    assert rd.n_range_bins == HOST.n_fast
    assert rd.n_doppler_bins == 64


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
    excl = target_exclusion_cells(rd, 100, rd.zero_doppler_bin, halo=4)
    # excluding the target halo keeps the median at the clean-noise level
    with_excl = noise_floor(rd, exclusion=excl)
    clean = noise_floor(range_doppler(noise_cube(seed=0)))
    assert abs(with_excl - clean) < 0.2
    with pytest.raises(ConfigurationError):
        noise_floor(rd, exclusion=[(r, d) for r in range(rd.n_range_bins)
                                   for d in range(rd.n_doppler_bins)])


def test_cfar_detects_strong_tone():
    cube, r = tone_cube(range_bin=200, power=1e-9)
    rd = range_doppler(cube)
    dets = ca_cfar(rd)
    assert any(abs(d.range_bin - 200) <= 1
               and abs(d.doppler_bin - rd.zero_doppler_bin) <= 1
               for d in dets)
    assert target_detected(dets, 200, rd.zero_doppler_bin, rd.n_doppler_bins)
    assert not target_detected(dets, 350, rd.zero_doppler_bin, rd.n_doppler_bins)


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
    with pytest.raises(ConfigurationError):
        ca_cfar(rd, train=2)
    with pytest.raises(ConfigurationError):
        ca_cfar(rd, pfa=0.0)


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
    excl = target_exclusion_cells(rd, 200, rd.zero_doppler_bin)
    floor = noise_floor(rd, exclusion=excl)
    snr = target_snr_db(rd, 200, rd.zero_doppler_bin, floor)
    # coherent gain: tone power * n_fast * n_chirps over the per-cell floor,
    # with Hann windows costing about 4.3 dB total; just sanity-band it
    assert 20.0 < snr < 90.0
    low = target_snr_db(rd, 350, rd.zero_doppler_bin, floor)
    assert low < snr - 10.0


def test_doppler_gate_wraps():
    d = Detection(range_bin=10, doppler_bin=63, range=0.0, radial_speed=0.0,
                  snr_db=20.0)
    assert target_detected([d], 10, 0, 64, gate=2)
    assert not target_detected([d], 10, 8, 64, gate=2)


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


def test_unknown_window_rejected():
    with pytest.raises(ConfigurationError):
        range_doppler(noise_cube(), window="kaiser")
