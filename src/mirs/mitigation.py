"""Interference mitigation techniques applied as scenario transforms.

All four transforms are pure scenario -> scenario functions that leave the
geometry untouched; they only write waveform/polarization/timing columns of
the radar table, as new arrays.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigurationError
from .scenario import Polarization, Scenario
from .waveform import check_waveform_rows

BAND_LO_HZ = 77e9
BAND_TOTAL_HZ = 4e9

# cross-polarization power suppression [dB]
CROSS_POL_DIRECT_DB = 15.0
CROSS_POL_REFLECTED_DB = 5.0


class Technique(enum.Enum):
    NONE = "none"
    PREDEFINED_FREQUENCY = "predefined_frequency"
    PREDEFINED_POLARIZATION = "predefined_polarization"
    TIME_DITHERING = "time_dithering"
    TIME_FREQUENCY_CODING = "time_frequency_coding"


@dataclass(frozen=True)
class MitigationPlan:
    technique: Technique = Technique.NONE
    jitter_bound: float = 2e-6          # time dithering
    n_bands: int = 4                    # time-frequency coding
    n_slots: int = 4
    sync_jitter: float = 0.0
    tf_frame_rate: float = 15.0         # synchronized slot-grid frame rate [Hz]


def tf_slot_need(n_chirps, pri, drift_ppm, start_offset, sync_jitter):
    """The TF slot a dwell needs: n_chirps * pri slowed by the clock drift,
    the start offset and both neighbouring slots' sync jitter (scalars or
    radar-table columns)."""
    return n_chirps * pri / (1 + drift_ppm * 1e-6) + start_offset + 2.0 * sync_jitter


def dither_breaks_pri(jitter_bound, chirp_duration, pri):
    """Whether a jittered chirp can end past its PRI, with WaveformConfig's
    tolerance (scalars or radar-table columns)."""
    return jitter_bound + chirp_duration > pri * (1 + 1e-12)


def mount_class(radars: dict) -> np.ndarray:
    """Per row of the radar table: 0 front-center, 1 rear-center,
    2 front-corner, 3 rear-corner."""
    front = radars["mount_x"] > 0
    center = np.abs(radars["mount_y"]) < 1e-9
    return np.where(center, np.where(front, 0, 1), np.where(front, 2, 3))


def _fit_in_bands(radars: dict, band, width: float, rng: np.random.Generator,
                  sync_jitter: float = 0.0):
    """`radars` with each slope shrunk to fit its band [lo, lo + width]
    (lo = BAND_LO_HZ + band * width) if needed, each carrier redrawn so the
    sweep stays inside and the band edges written; plus one sync offset per
    radar.

    All draws come from one `rng.uniform` call over the rows in order, each
    carrier followed by its sync offset when `sync_jitter` > 0: the same
    values as one scalar call per draw."""
    cd = radars["chirp_duration"]
    slope = radars["slope"]
    lo = BAND_LO_HZ + np.asarray(band) * width
    sweep = slope * cd
    slope = np.where(sweep > width, width / cd, slope)
    high = lo + width - np.minimum(sweep, width)
    n = len(cd)
    if sync_jitter > 0:
        carrier, sync = rng.uniform(
            np.column_stack([lo, np.full(n, -sync_jitter)]),
            np.column_stack([high, np.full(n, sync_jitter)])).T
    else:
        carrier, sync = rng.uniform(lo, high), np.zeros(n)
    out = {**radars, "slope": slope, "carrier": carrier, "band_lo": lo,
           "band_hi": lo + width}
    check_waveform_rows(out)
    return out, sync


def apply_predefined_frequency(scenario: Scenario,
                               rng: np.random.Generator) -> Scenario:
    """Allocate one of four 1 GHz sub-bands per mount class and re-draw each
    carrier so the sweep stays inside its band."""
    radars, _ = _fit_in_bands(scenario.radars, mount_class(scenario.radars),
                              BAND_TOTAL_HZ / 4.0, rng)
    return replace(scenario, radars=radars)


def apply_predefined_polarization(scenario: Scenario) -> Scenario:
    """Vertical polarization for the forward direction, horizontal for the
    oncoming direction."""
    r = scenario.radars
    forward = np.cos(scenario.vehicles["heading"])[r["vehicle"]] > 0
    return replace(scenario, radars={**r, "polarization": np.where(
        forward, Polarization.V.value, Polarization.H.value)})


def cross_pol_factor(tx_pol: str, rx_pol: str, reflected: bool) -> float:
    """Linear power factor applied to an interference path at the receiver,
    from the two radars' polarization values ("V" or "H")."""
    if tx_pol == rx_pol:
        return 1.0
    db = CROSS_POL_REFLECTED_DB if reflected else CROSS_POL_DIRECT_DB
    return 10 ** (-db / 10.0)


def apply_time_dithering(scenario: Scenario, jitter_bound: float = 2e-6) -> Scenario:
    """Arm per-chirp uniform start jitter on every radar (host included)."""
    r = scenario.radars
    if np.any(dither_breaks_pri(jitter_bound, r["chirp_duration"], r["pri"])):
        raise ConfigurationError("jitter bound breaks chirp timing")
    return replace(scenario, radars={
        **r, "dither_bound": np.full(r["pri"].size, jitter_bound, dtype=float)})


def apply_time_frequency_coding(scenario: Scenario, n_bands: int = 4,
                                n_slots: int = 4, sync_jitter: float = 0.0,
                                *, rng: np.random.Generator,
                                frame_rate: float = 15.0) -> Scenario:
    """Assign orthogonal (band, slot) resources on a synchronized slot grid.

    Assignment is by rank of (vehicle id, radar index), so grids at least as
    large as the radar count are collision-free; beyond that radars collide by
    pigeonhole and interfere normally.
    """
    if n_bands * n_slots < 1:
        raise ConfigurationError("empty resource grid")
    frame_p = 1.0 / frame_rate
    slot_len = frame_p / n_slots
    width = BAND_TOTAL_HZ / n_bands

    r = scenario.radars
    if np.any(tf_slot_need(r["n_chirps"], r["pri"], r["drift_ppm"],
                           r["start_offset"], sync_jitter) > slot_len):
        raise ConfigurationError("dwell does not fit the time slot")
    n = r["pri"].size
    rank = np.empty(n, dtype=int)
    rank[np.lexsort((r["index"], scenario.vehicles["id"][r["vehicle"]]))] = \
        np.arange(n)
    cells = rank % (n_bands * n_slots)
    bands = cells % n_bands
    radars, sync = _fit_in_bands(r, bands, width, rng, sync_jitter)
    return replace(scenario, radars={
        **radars, "tf_band": bands, "tf_slot": cells // n_bands,
        "tf_n_slots": np.full(n, n_slots), "tf_frame": np.full(n, frame_p),
        "tf_sync": sync})


def apply_technique(scenario: Scenario, plan: MitigationPlan,
                    rng: np.random.Generator) -> Scenario:
    t = plan.technique
    if t is Technique.NONE:
        return scenario
    if t is Technique.PREDEFINED_FREQUENCY:
        return apply_predefined_frequency(scenario, rng)
    if t is Technique.PREDEFINED_POLARIZATION:
        return apply_predefined_polarization(scenario)
    if t is Technique.TIME_DITHERING:
        return apply_time_dithering(scenario, plan.jitter_bound)
    if t is Technique.TIME_FREQUENCY_CODING:
        return apply_time_frequency_coding(
            scenario, plan.n_bands, plan.n_slots, plan.sync_jitter, rng=rng,
            frame_rate=plan.tf_frame_rate)
    raise ConfigurationError(f"unknown technique: {t!r}")
