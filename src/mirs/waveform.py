"""LFM-CW chirp parameterization, per-type waveform randomization and clock drift.

Waveform ranges for the three analysis radar classes (LRR / SRR / SBZA) are
uniformly randomized; the USRR class exists only as an interferer profile for
the chamber/field experiment analogs.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import ConfigurationError

SWEEP_BAND_HZ = 4e9          # 77-81 GHz automotive band
DEFAULT_ADC_RATE_HZ = 25e6   # complex IF sampling rate shared by all profiles


class RadarType(enum.Enum):
    LRR = "LRR"
    SRR = "SRR"
    SBZA = "SBZA"
    USRR = "USRR"   # interferer-only profile


@dataclass(frozen=True)
class WaveformConfig:
    pri: float               # chirp repetition interval [s]
    slope: float             # chirp slope [Hz/s]
    chirp_duration: float    # [s]
    carrier: float           # [Hz]
    n_chirps: int            # chirps per dwell
    fps: float               # frames (dwells) per second
    n_elements: int
    tx_power: float          # per-element transmit power [W]
    element_gain: float      # linear gain per element
    adc_rate: float          # complex sampling rate f_s [Hz]
    start_offset: float = 0.0

    def __post_init__(self):
        # check_waveform_rows makes the same checks on table columns; a NaN
        # field fails the positivity check, wherever it stands
        if not all(v > 0 for v in (
                self.pri, self.slope, self.chirp_duration, self.carrier,
                self.n_chirps, self.fps, self.n_elements, self.tx_power,
                self.element_gain, self.adc_rate)):
            raise ConfigurationError("waveform fields must be strictly positive")
        if self.chirp_duration > self.pri * (1 + 1e-12):
            raise ConfigurationError("chirp_duration must fit inside the PRI")
        if self.slope * self.chirp_duration > SWEEP_BAND_HZ * (1 + 1e-12):
            raise ConfigurationError("sweep exceeds the 4 GHz band")
        if self.n_chirps * self.pri > (1.0 / self.fps) * (1 + 1e-12):
            raise ConfigurationError("dwell does not fit inside a frame")

    @property
    def n_fast(self) -> int:
        # tolerate fp noise so exact products do not floor one short
        return int(math.floor(self.adc_rate * self.chirp_duration * (1 + 1e-12)))

    @property
    def dwell_duration(self) -> float:
        return self.n_chirps * self.pri

    @property
    def erp(self) -> float:
        """Effective radiated power P_t * n_el * g_el [W]."""
        return self.tx_power * self.n_elements * self.element_gain

    @property
    def rx_gain(self) -> float:
        """Receive antenna gain inside the FOV sector (linear)."""
        return self.n_elements * self.element_gain


WAVEFORM_FIELDS = tuple(f.name for f in fields(WaveformConfig))


def _dbm(x):
    return 10 ** (x / 10.0) * 1e-3


def _dbi(x):
    return 10 ** (x / 10.0)


# (min, max) ranges in SI units; fixed fields as scalars.
WAVEFORM_RANGES = {
    RadarType.LRR: dict(
        pri=(18e-6, 20e-6), slope=(9e12, 11e12), chirp_duration=(14e-6, 16e-6),
        carrier=(77e9, 81e9), n_chirps=(256, 512), fps=(25.0, 30.0),
        n_elements=12, tx_power=_dbm(10), element_gain=_dbi(14),
    ),
    RadarType.SRR: dict(
        pri=(22e-6, 27e-6), slope=(27e12, 33e12), chirp_duration=(15e-6, 20e-6),
        carrier=(77e9, 81e9), n_chirps=(128, 256), fps=(25.0, 30.0),
        n_elements=8, tx_power=_dbm(10), element_gain=_dbi(12.8),
    ),
    RadarType.SBZA: dict(
        pri=(30e-6, 35e-6), slope=(35e12, 39e12), chirp_duration=(20e-6, 25e-6),
        carrier=(77e9, 81e9), n_chirps=(128, 256), fps=(25.0, 30.0),
        n_elements=4, tx_power=_dbm(10), element_gain=_dbi(12.8),
    ),
    # Interferer-only experiment-analog profile: SRR timing with a low-gain
    # single-channel front end.
    RadarType.USRR: dict(
        pri=(22e-6, 27e-6), slope=(27e12, 33e12), chirp_duration=(15e-6, 20e-6),
        carrier=(77e9, 81e9), n_chirps=(128, 256), fps=(25.0, 30.0),
        n_elements=8, tx_power=_dbm(10), element_gain=_dbi(10),
    ),
}


def draw_uniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    """`rng.uniform(lo, hi)`, bit for bit and from the same stream position,
    for under a third of its per-call cost: numpy computes lo + (hi - lo) * u
    from the next double, and so does this."""
    return lo + (hi - lo) * rng.random()


def draw_waveform(radar_type: RadarType, rng: np.random.Generator,
                  interferer_ok: bool = False) -> tuple:
    """Draw one waveform uniformly from the per-type parameter ranges: the
    values of WaveformConfig's fields, in field order."""
    if not isinstance(radar_type, RadarType):
        raise ConfigurationError(f"unknown radar type: {radar_type!r}")
    if radar_type is RadarType.USRR and not interferer_ok:
        raise ConfigurationError("USRR is an interferer-only profile")
    spec = WAVEFORM_RANGES[radar_type]

    pri = draw_uniform(rng, *spec["pri"])
    slope = draw_uniform(rng, *spec["slope"])
    chirp_duration = draw_uniform(rng, *spec["chirp_duration"])
    # Re-draw the chirp duration if the draw order allowed a violation.
    for _ in range(1000):
        if chirp_duration <= pri:
            break
        chirp_duration = draw_uniform(rng, *spec["chirp_duration"])
    else:
        raise ConfigurationError("chirp_duration range incompatible with PRI range")
    carrier = draw_uniform(rng, *spec["carrier"])
    n_chirps = int(rng.integers(spec["n_chirps"][0], spec["n_chirps"][1] + 1))
    fps = draw_uniform(rng, *spec["fps"])
    start_offset = draw_uniform(rng, 0.0, pri)
    return (pri, slope, chirp_duration, carrier, n_chirps, fps,
            spec["n_elements"], spec["tx_power"], spec["element_gain"],
            DEFAULT_ADC_RATE_HZ, start_offset)


def sample_waveform(radar_type: RadarType, rng: np.random.Generator,
                    interferer_ok: bool = False) -> WaveformConfig:
    """One WaveformConfig of `draw_waveform`'s draws."""
    return WaveformConfig(*draw_waveform(radar_type, rng, interferer_ok))


def check_waveform_rows(w) -> None:
    """WaveformConfig's checks, and the +/-100 ppm clock-drift bound, on
    every row of the columns `w` (WAVEFORM_FIELDS and drift_ppm): raise the
    first bad row's first fault."""
    positive = np.logical_and.reduce(
        [w[k] > 0 for k in WAVEFORM_FIELDS[:-1]])   # False for NaN too
    cd, pri = w["chirp_duration"], w["pri"]
    with np.errstate(divide="ignore"):
        faults = {
            "waveform fields must be strictly positive": ~positive,
            "chirp_duration must fit inside the PRI": cd > pri * (1 + 1e-12),
            "sweep exceeds the 4 GHz band":
                w["slope"] * cd > SWEEP_BAND_HZ * (1 + 1e-12),
            "dwell does not fit inside a frame":
                w["n_chirps"] * pri > (1.0 / w["fps"]) * (1 + 1e-12),
            "clock drift limited to +/-100 ppm":
                ~(np.abs(w["drift_ppm"]) <= 100)}   # NaN fails too
    bad = np.array(list(faults.values())).reshape(len(faults), -1)
    rows = np.flatnonzero(bad.any(axis=0))
    if rows.size:
        raise ConfigurationError(list(faults)[np.argmax(bad[:, rows[0]])])


def apply_clock_drift(cfg: WaveformConfig, drift_ppm: float) -> WaveformConfig:
    """Scale frequencies up and times down by the same (1 + ppm*1e-6) factor."""
    f = 1.0 + drift_ppm * 1e-6
    if f == 1.0:
        return cfg
    return replace(cfg, carrier=cfg.carrier * f, slope=cfg.slope * f,
                   pri=cfg.pri / f, chirp_duration=cfg.chirp_duration / f)

