"""Waveform sampling, chirp timing and clock-drift tests."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mirs.errors import ConfigurationError
from mirs.synthesis import host_chirp_times
from mirs.waveform import (WAVEFORM_FIELDS, RadarType,
                           WAVEFORM_RANGES, WaveformConfig, apply_clock_drift,
                           check_waveform_rows, sample_waveform)


def draw_many(radar_type, n=10000, seed=1):
    rng = np.random.default_rng(seed)
    return [sample_waveform(radar_type, rng, interferer_ok=True)
            for _ in range(n)]


def test_sampled_fields_stay_inside_ranges():
    for rt in (RadarType.LRR, RadarType.SRR, RadarType.SBZA):
        spec = WAVEFORM_RANGES[rt]
        for wf in draw_many(rt, n=2000, seed=hash(rt.value) % 1000):
            assert spec["pri"][0] <= wf.pri <= spec["pri"][1]
            assert spec["slope"][0] <= wf.slope <= spec["slope"][1]
            assert spec["chirp_duration"][0] <= wf.chirp_duration <= spec["chirp_duration"][1]
            assert spec["carrier"][0] <= wf.carrier <= spec["carrier"][1]
            assert spec["n_chirps"][0] <= wf.n_chirps <= spec["n_chirps"][1]
            assert spec["fps"][0] <= wf.fps <= spec["fps"][1]
            assert wf.chirp_duration <= wf.pri
            assert 0.0 <= wf.start_offset <= wf.pri
            assert wf.slope * wf.chirp_duration <= 4e9 + 1.0


def test_sampled_quartiles_near_uniform():
    # continuous fields should look uniform: quartiles within 3% of range
    wfs = draw_many(RadarType.LRR, n=10000, seed=7)
    for field_name in ("slope", "carrier", "fps"):
        lo, hi = WAVEFORM_RANGES[RadarType.LRR][field_name]
        vals = np.array([getattr(w, field_name) for w in wfs])
        u = (vals - lo) / (hi - lo)
        for q in (0.25, 0.5, 0.75):
            assert abs(np.quantile(u, q) - q) < 0.03


def test_usrr_requires_interferer_flag():
    rng = np.random.default_rng(0)
    with pytest.raises(ConfigurationError):
        sample_waveform(RadarType.USRR, rng)
    wf = sample_waveform(RadarType.USRR, rng, interferer_ok=True)
    assert wf.element_gain == pytest.approx(10.0)


def test_clock_drift_round_trip_and_scaling():
    wf = WaveformConfig(pri=20e-6, slope=10e12, chirp_duration=15e-6,
                        carrier=78e9, n_chirps=256, fps=25.0, n_elements=12,
                        tx_power=0.01, element_gain=25.0, adc_rate=25e6)
    d = apply_clock_drift(wf, 20.0)
    f = 1.0 + 20e-6
    assert d.carrier == pytest.approx(wf.carrier * f)
    assert d.slope == pytest.approx(wf.slope * f)
    assert d.pri == pytest.approx(wf.pri / f)
    assert d.chirp_duration == pytest.approx(wf.chirp_duration / f)
    # sweep bandwidth is preserved to first order: (s*f)*(T/f) = s*T
    assert d.slope * d.chirp_duration == pytest.approx(
        wf.slope * wf.chirp_duration)
    back = apply_clock_drift(d, 0.0)
    assert back == d
    assert apply_clock_drift(wf, 0.0) == wf


def test_clock_drift_bound():
    # the radar table's row check holds the +/-100 ppm bound
    for drift in (150.0, -100.5, math.nan):
        cols = {k: np.array([v]) for k, v in zip(
            WAVEFORM_FIELDS + ("drift_ppm",), GOOD_ROW[:-1] + (drift,))}
        with pytest.raises(ConfigurationError, match="clock drift limited"):
            check_waveform_rows(cols)


def test_chirp_start_times_grid():
    wf = WaveformConfig(pri=20e-6, slope=10e12, chirp_duration=15e-6,
                        carrier=78e9, n_chirps=8, fps=25.0, n_elements=12,
                        tx_power=0.01, element_gain=25.0, adc_rate=25e6,
                        start_offset=3e-6)
    t0 = host_chirp_times(wf, 0)
    assert t0.shape == (8,)
    assert t0[0] == pytest.approx(3e-6)
    assert np.allclose(np.diff(t0), wf.pri)
    t5 = host_chirp_times(wf, 5)
    assert t5[0] == pytest.approx(3e-6 + 5 / 25.0)


def test_config_validation():
    good = dict(pri=20e-6, slope=10e12, chirp_duration=15e-6, carrier=78e9,
                n_chirps=256, fps=25.0, n_elements=12, tx_power=0.01,
                element_gain=25.0, adc_rate=25e6)
    WaveformConfig(**good)
    with pytest.raises(ConfigurationError):
        WaveformConfig(**{**good, "chirp_duration": 21e-6})
    with pytest.raises(ConfigurationError):
        WaveformConfig(**{**good, "slope": 1e15})  # sweep over 4 GHz
    with pytest.raises(ConfigurationError):
        WaveformConfig(**{**good, "n_chirps": 4000})  # dwell over frame
    with pytest.raises(ConfigurationError):
        WaveformConfig(**{**good, "tx_power": 0.0})


def test_erp_and_rx_gain():
    wf = WaveformConfig(pri=20e-6, slope=10e12, chirp_duration=15e-6,
                        carrier=78e9, n_chirps=256, fps=25.0, n_elements=12,
                        tx_power=10 ** (10 / 10.0) * 1e-3,
                        element_gain=10 ** (14 / 10.0), adc_rate=25e6)
    # 10 dBm + 10log10(12) + 14 dBi = 34.8 dBm ERP, the front-LRR budget
    erp_dbm = 10 * math.log10(wf.erp / 1e-3)
    assert erp_dbm == pytest.approx(10 + 10 * math.log10(12) + 14, abs=1e-9)
    assert wf.rx_gain == pytest.approx(12 * 10 ** 1.4)


def test_n_fast_and_dwell_duration():
    wf = WaveformConfig(pri=27.4e-6, slope=26e12, chirp_duration=18.88e-6,
                        carrier=76.889e9, n_chirps=512, fps=15.0,
                        n_elements=12, tx_power=0.01, element_gain=25.0,
                        adc_rate=25e6)
    assert wf.n_fast == 472
    assert wf.dwell_duration == pytest.approx(512 * 27.4e-6)


def _first_record_error(rows):
    """The message of the first row of (waveform fields..., drift) whose
    WaveformConfig fails to build or whose drift is outside +/-100 ppm, or
    None."""
    for *fields, drift in rows:
        try:
            WaveformConfig(*fields)
        except ConfigurationError as e:
            return str(e)
        if not abs(drift) <= 100:
            return "clock drift limited to +/-100 ppm"
    return None


# a valid LRR row, and per field a few values that may break one check
GOOD_ROW = (19e-6, 10e12, 15e-6, 79e9, 300, 27.0, 12, 0.01, 25.0, 25e6,
            5e-6, 3.0)
EDITS = {"pri": [0.0, 10e-6, -1e-6, math.nan], "slope": [-1.0, 3e14, math.nan],
         "chirp_duration": [20e-6, 0.0, math.nan], "carrier": [0.0],
         "n_chirps": [0, 3000], "fps": [0.0, -1.0, 200.0, math.nan],
         "n_elements": [0], "tx_power": [-0.01], "element_gain": [0.0],
         "adc_rate": [0.0], "start_offset": [-1.0],
         "drift_ppm": [100.0, 100.5, -150.0, math.nan]}


@st.composite
def waveform_rows(draw):
    row = list(GOOD_ROW)
    for _ in range(draw(st.integers(0, 3))):
        name = draw(st.sampled_from(sorted(EDITS)))
        i = (WAVEFORM_FIELDS + ("drift_ppm",)).index(name)
        row[i] = draw(st.sampled_from(EDITS[name]))
    return tuple(row)


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(waveform_rows(), min_size=1, max_size=4))
def test_row_checks_match_the_record_checks(rows):
    # check_waveform_rows raises what building the first bad row's
    # WaveformConfig raises, or the drift bound, NaNs and zero fps included
    cols = dict(zip(WAVEFORM_FIELDS + ("drift_ppm",),
                    (np.array(c) for c in zip(*rows))))
    try:
        check_waveform_rows(cols)
        got = None
    except ConfigurationError as e:
        got = str(e)
    assert got == _first_record_error(rows)
