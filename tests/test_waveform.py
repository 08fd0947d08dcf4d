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
                           check_waveform_rows, draw_waveforms)


def draw_many(radar_type, n=10000, seed=1):
    """The waveform columns of n radars of one class."""
    cols, _ = draw_waveforms([radar_type.value] * n,
                             np.random.default_rng(seed))
    return cols


def test_sampled_fields_stay_inside_ranges():
    for rt in RadarType:
        spec = WAVEFORM_RANGES[rt]
        wf = draw_many(rt, n=2000, seed=hash(rt.value) % 1000)
        for k in ("pri", "slope", "chirp_duration", "carrier", "n_chirps",
                  "fps"):
            assert np.all((spec[k][0] <= wf[k]) & (wf[k] <= spec[k][1])), k
        for k in ("n_elements", "tx_power", "element_gain"):
            assert np.all(wf[k] == spec[k]), k
        assert np.all(wf["chirp_duration"] <= wf["pri"])
        assert np.all((0.0 <= wf["start_offset"])
                      & (wf["start_offset"] <= wf["pri"]))
        assert np.all(wf["slope"] * wf["chirp_duration"] <= 4e9 + 1.0)


def test_sampled_quartiles_near_uniform():
    # continuous fields should look uniform: quartiles within 3% of range
    wfs = draw_many(RadarType.LRR, n=10000, seed=7)
    for field_name in ("slope", "carrier", "fps"):
        lo, hi = WAVEFORM_RANGES[RadarType.LRR][field_name]
        u = (wfs[field_name] - lo) / (hi - lo)
        for q in (0.25, 0.5, 0.75):
            assert abs(np.quantile(u, q) - q) < 0.03


def test_chirp_duration_always_fits_the_pri():
    # draw_waveforms never redraws chirp_duration: in every class its
    # largest value is at most the smallest pri
    for spec in WAVEFORM_RANGES.values():
        assert spec["chirp_duration"][1] <= spec["pri"][0]


def test_clock_drift_round_trip_and_scaling():
    wf = dict(pri=20e-6, slope=10e12, chirp_duration=15e-6, carrier=78e9,
              n_chirps=256, fps=25.0, n_elements=12, tx_power=0.01,
              element_gain=25.0, adc_rate=25e6, start_offset=3e-6)
    before = dict(wf)
    d = apply_clock_drift(wf, 20.0)
    assert wf == before                  # a new mapping; the input stays
    f = 1.0 + 20e-6
    assert d == {**wf, "carrier": wf["carrier"] * f, "slope": wf["slope"] * f,
                 "pri": wf["pri"] / f,
                 "chirp_duration": wf["chirp_duration"] / f}
    # sweep bandwidth is preserved to first order: (s*f)*(T/f) = s*T
    assert d["slope"] * d["chirp_duration"] == pytest.approx(
        wf["slope"] * wf["chirp_duration"])
    assert apply_clock_drift(d, 0.0) == d
    assert apply_clock_drift(wf, 0.0) == wf
    # columns with a drift each: every row as its one-radar call
    drifts = np.array([20.0, -100.0, 0.0, 7.5])
    cols = apply_clock_drift({k: np.full(4, v) for k, v in wf.items()}, drifts)
    for i, ppm in enumerate(drifts.tolist()):
        assert {k: c[i].item() for k, c in cols.items()} == \
            apply_clock_drift(wf, ppm)


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


# field edits that break a valid waveform, and the message each raises
BAD_RECORDS = [
    ({"chirp_duration": 21e-6}, "chirp_duration must fit inside the PRI"),
    ({"slope": 1e15}, "sweep exceeds the 4 GHz band"),
    ({"n_chirps": 4000}, "dwell does not fit inside a frame"),
    ({"tx_power": 0.0}, "waveform fields must be strictly positive"),
    ({"pri": math.nan}, "waveform fields must be strictly positive"),
    # a zero fps is not a ZeroDivisionError: the positivity check wins
    ({"fps": 0.0}, "waveform fields must be strictly positive"),
    # the first failing check in order wins
    ({"chirp_duration": 21e-6, "slope": 1e15},
     "chirp_duration must fit inside the PRI"),
]


def test_config_validation():
    good = dict(pri=20e-6, slope=10e12, chirp_duration=15e-6, carrier=78e9,
                n_chirps=256, fps=25.0, n_elements=12, tx_power=0.01,
                element_gain=25.0, adc_rate=25e6)
    WaveformConfig(**good)
    for edit, message in BAD_RECORDS:
        with pytest.raises(ConfigurationError) as e:
            WaveformConfig(**{**good, **edit})
        assert str(e.value) == message, edit


def test_erp_and_rx_gain():
    wf = WaveformConfig(pri=20e-6, slope=10e12, chirp_duration=15e-6,
                        carrier=78e9, n_chirps=256, fps=25.0, n_elements=12,
                        tx_power=10 ** (10 / 10.0) * 1e-3,
                        element_gain=10 ** (14 / 10.0), adc_rate=25e6)
    # 10 dBm + 10log10(12) + 14 dBi = 34.8 dBm ERP, the front-LRR budget
    erp_dbm = 10 * math.log10(wf.erp / 1e-3)
    assert erp_dbm == pytest.approx(10 + 10 * math.log10(12) + 14, abs=1e-9)
    assert wf.rx_gain == pytest.approx(12 * 10 ** 1.4)


def test_n_fast():
    wf = WaveformConfig(pri=27.4e-6, slope=26e12, chirp_duration=18.88e-6,
                        carrier=76.889e9, n_chirps=512, fps=15.0,
                        n_elements=12, tx_power=0.01, element_gain=25.0,
                        adc_rate=25e6)
    assert wf.n_fast == 472


def _scalar_error(pri, slope, chirp_duration, carrier, n_chirps, fps,
                  n_elements, tx_power, element_gain, adc_rate, start_offset,
                  drift):
    """The first fault of one row, checked with Python scalars in order, or
    None: every field but start_offset strictly positive (NaN is not), the
    chirp inside its PRI, the sweep inside 4 GHz, the dwell inside its
    frame, all with a 1e-12 tolerance, then the drift within 100 ppm."""
    if not all(v > 0 for v in (pri, slope, chirp_duration, carrier, n_chirps,
                               fps, n_elements, tx_power, element_gain,
                               adc_rate)):
        return "waveform fields must be strictly positive"
    if chirp_duration > pri * (1 + 1e-12):
        return "chirp_duration must fit inside the PRI"
    if slope * chirp_duration > 4e9 * (1 + 1e-12):
        return "sweep exceeds the 4 GHz band"
    if n_chirps * pri > (1.0 / fps) * (1 + 1e-12):
        return "dwell does not fit inside a frame"
    if not abs(drift) <= 100:
        return "clock drift limited to +/-100 ppm"
    return None


def _record_error(fields):
    """The message of building a WaveformConfig of `fields`, or None."""
    try:
        WaveformConfig(*fields)
    except ConfigurationError as e:
        return str(e)
    return None


def _first_record_error(rows):
    """The scalar fault of the first row of (waveform fields..., drift)
    that has one, or None."""
    return next(filter(None, (_scalar_error(*row) for row in rows)), None)


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
    # check_waveform_rows raises the first bad row's first scalar fault,
    # NaNs and zero fps included; a WaveformConfig raises its row's fault
    # but the drift bound, which is not one of its fields
    cols = dict(zip(WAVEFORM_FIELDS + ("drift_ppm",),
                    (np.array(c) for c in zip(*rows))))
    try:
        check_waveform_rows(cols)
        got = None
    except ConfigurationError as e:
        got = str(e)
    assert got == _first_record_error(rows)
    for *fields, _ in rows:
        assert _record_error(fields) == _scalar_error(*fields, 0.0)
