"""LFM-CW chirp parameterization, per-type waveform randomization and clock drift.

Waveform ranges for the three analysis radar classes (LRR / SRR / SBZA) are
uniformly randomized; the USRR class exists only as an interferer profile for
the chamber/field experiment analogs.  `draw_waveforms` draws the waveforms
of many radars from one block of PCG64 words, exactly as one numpy call per
quantity would.  `check_waveform_rows` holds the waveform checks, on table
columns and on one `WaveformConfig` alike, and `apply_clock_drift` the drift
rule, on columns and on one radar's values alike.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, fields

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
        # one-element arrays: numpy's 1 / 0 is inf, so a zero fps fails the
        # positivity check as a NaN field does
        check_waveform_rows({**{k: np.array([getattr(self, k)])
                                for k in WAVEFORM_FIELDS},
                             "drift_ppm": np.zeros(1)})

    @property
    def n_fast(self) -> int:
        # tolerate fp noise so exact products do not floor one short
        return int(math.floor(self.adc_rate * self.chirp_duration * (1 + 1e-12)))

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


# numpy's PCG64 arithmetic: a double is the top 53 bits of the next word; a
# 32-bit draw takes a buffered high half, or the low half of a fresh word and
# buffers its high half
_DOUBLE = 2.0 ** -53
_LOW32 = np.uint64(0xFFFFFFFF)
_PRE = ("pri", "slope", "chirp_duration", "carrier")   # the draws before n_chirps


def draw_waveforms(types, rng: np.random.Generator, extra: int = 0):
    """Waveforms of radars of `types` (RadarType values), each followed by
    `extra` uniforms on [0, 1): ({WAVEFORM_FIELDS name: column}, [the extra
    columns]), every column its own array.

    Values and the generator state left behind are those of drawing radar
    after radar with `rng.uniform` for pri, slope, chirp_duration and
    carrier, `rng.integers` for n_chirps, `rng.uniform` for fps and
    start_offset (on [0, pri)), then `extra` `rng.random()` calls.  They come
    from one `random_raw` block of the PCG64 stream: a uniform is
    lo + (hi - lo) * u of the double u of its word, and n_chirps is numpy's
    Lemire draw on 32-bit halves.  A half whose draw numpy rejects (about one
    in 2.7e8) gives its radar one more half, and the layout of every later
    radar is recomputed.  chirp_duration is never redrawn: in each
    WAVEFORM_RANGES class its maximum is at most the pri minimum.
    """
    bg = rng.bit_generator
    if type(bg) is not np.random.PCG64:
        raise ConfigurationError(
            f"waveform draws need a PCG64 generator, not {type(bg).__name__}")
    names, code = np.unique(np.asarray(types, dtype=str), return_inverse=True)
    try:
        specs = [WAVEFORM_RANGES[RadarType(t)] for t in names]
    except ValueError as e:
        raise ConfigurationError(f"unknown radar type: {e}") from None

    def per_row(f, dtype=float, i=None):
        return np.array([s[f] if i is None else s[f][i] for s in specs],
                        dtype)[code]

    n, d = code.size, 6 + extra    # d: the doubles of one radar
    first = per_row("n_chirps", np.uint64, 0)
    excl = per_row("n_chirps", np.uint64, 1) - first + np.uint64(1)
    reject = (np.uint64(2 ** 32) - excl) % excl   # numpy's Lemire threshold
    state = bg.state
    spare = state["has_uint32"]

    # Half h >= 0 is half h % 2 of fresh word h // 2, and half -1 the
    # buffered one.  Radar i takes halves [end[i] - c[i], end[i]) and keeps
    # the last.  Fresh word m follows the four first doubles of the radar
    # taking half 2m: it is word d * (that radar) + 4 + m of the block.
    def fresh(m):
        return d * np.searchsorted(end, 2 * m, side="right") + 4 + m

    c = np.ones(n, np.int64)
    words = np.empty(0, np.uint64)
    while True:
        end = np.cumsum(c) - spare
        taken = int(c.sum()) - spare    # halves after the buffered one
        need = d * n + (taken + 1) // 2
        if need > words.size:
            words = np.concatenate([words, bg.random_raw(need - words.size)])
        kept = end - 1
        w = words[fresh(kept // 2)]
        x32 = np.where(kept % 2, w >> np.uint64(32), w & _LOW32)
        x32[kept < 0] = state["uinteger"]
        lemire = x32 * excl
        bad = np.flatnonzero((lemire & _LOW32) < reject)
        if not bad.size:
            break
        c[bad[0]] += 1

    # leave the buffered half and the stale one where the scalar draws would
    last = (taken - 1) // 2    # the last fresh word, if any
    state = bg.state
    state["has_uint32"] = taken % 2
    if last >= 0:
        state["uinteger"] = int(words[fresh(last)] >> np.uint64(32))
    bg.state = state

    # a radar's first four doubles follow the fresh words of the radars
    # before it, and its last ones its own fresh words
    pre = d * np.arange(n) + (end - c + 1) // 2
    post = d * np.arange(n) + 4 + (end + 1) // 2

    def unit(at):
        return (words[at] >> np.uint64(11)).astype(np.float64) * _DOUBLE

    def uniform(lo, hi, at):
        return lo + (hi - lo) * unit(at)

    def ranged(f, at):
        return uniform(per_row(f, i=0), per_row(f, i=1), at)

    cols = {f: ranged(f, pre + k) for k, f in enumerate(_PRE)}
    cols["n_chirps"] = (first + (lemire >> np.uint64(32))).astype(np.int64)
    cols["fps"] = ranged("fps", post)
    cols["n_elements"] = per_row("n_elements", np.int64)
    cols["tx_power"] = per_row("tx_power")
    cols["element_gain"] = per_row("element_gain")
    cols["adc_rate"] = np.full(n, DEFAULT_ADC_RATE_HZ)
    cols["start_offset"] = uniform(0.0, cols["pri"], post + 1)
    return cols, [unit(post + 2 + k) for k in range(extra)]


def check_waveform_rows(w) -> None:
    """The waveform checks and the +/-100 ppm clock-drift bound on every row
    of the columns `w` (WAVEFORM_FIELDS and drift_ppm), in this order: raise
    the first bad row's first fault."""
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


def apply_clock_drift(w, drift_ppm):
    """The mapping `w` of waveform fields with carrier and slope scaled up,
    and pri and chirp_duration down, by the factor 1 + drift_ppm * 1e-6:
    columns and their drifts, or one radar's values and its drift."""
    f = 1.0 + drift_ppm * 1e-6
    return {**w, "carrier": w["carrier"] * f, "slope": w["slope"] * f,
            "pri": w["pri"] / f, "chirp_duration": w["chirp_duration"] / f}

