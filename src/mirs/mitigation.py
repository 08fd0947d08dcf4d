"""Interference mitigation techniques applied as scenario transforms.

All four transforms are pure scenario -> scenario functions that leave the
geometry untouched; they only rewrite waveform/polarization/timing fields on
the installed radars.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigurationError
from .scenario import Polarization, RadarInstance, Scenario
from .waveform import WaveformConfig

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

    def params_dict(self):
        return {"technique": self.technique.value,
                "jitter_bound": self.jitter_bound, "n_bands": self.n_bands,
                "n_slots": self.n_slots, "sync_jitter": self.sync_jitter,
                "tf_frame_rate": self.tf_frame_rate}


def mount_class(radar: RadarInstance) -> int:
    """0 front-center, 1 rear-center, 2 front-corner, 3 rear-corner."""
    mx, my = radar.mount
    front = mx > 0
    center = abs(my) < 1e-9
    if center:
        return 0 if front else 1
    return 2 if front else 3


def _fit_in_band(wf: WaveformConfig, band_lo: float, band_width: float,
                 rng: np.random.Generator) -> WaveformConfig:
    """`wf` with its slope shrunk to fit the band if needed and its carrier
    redrawn so the sweep stays inside [band_lo, band_lo + band_width]."""
    slope = wf.slope
    sweep = slope * wf.chirp_duration
    if sweep > band_width:
        # shrink the slope so the sweep fits the allocation
        slope = band_width / wf.chirp_duration
        sweep = band_width
    if sweep > band_width:
        raise ConfigurationError("sweep cannot fit the allocated band")
    carrier = rng.uniform(band_lo, band_lo + band_width - sweep)
    return replace(wf, slope=slope, carrier=carrier)


def apply_predefined_frequency(scenario: Scenario,
                               rng: np.random.Generator) -> Scenario:
    """Allocate one of four 1 GHz sub-bands per mount class and re-draw each
    carrier so the sweep stays inside its band."""
    width = BAND_TOTAL_HZ / 4.0
    out = []
    for v in scenario.vehicles:
        radars = []
        for r in v.radars:
            band = mount_class(r)
            lo = BAND_LO_HZ + band * width
            radars.append(replace(
                r, waveform=_fit_in_band(r.waveform, lo, width, rng),
                band_assignment=(lo, lo + width)))
        out.append(replace(v, radars=tuple(radars)))
    return scenario.with_vehicles(out)


def apply_predefined_polarization(scenario: Scenario) -> Scenario:
    """Vertical polarization for the forward direction, horizontal for the
    oncoming direction."""
    out = []
    for v in scenario.vehicles:
        pol = Polarization.V if math.cos(v.heading) > 0 else Polarization.H
        out.append(replace(v, radars=tuple(replace(r, polarization=pol)
                                           for r in v.radars)))
    return scenario.with_vehicles(out)


def cross_pol_factor(tx_pol: Polarization, rx_pol: Polarization,
                     reflected: bool) -> float:
    """Linear power factor applied to an interference path at the receiver."""
    if tx_pol == rx_pol:
        return 1.0
    db = CROSS_POL_REFLECTED_DB if reflected else CROSS_POL_DIRECT_DB
    return 10 ** (-db / 10.0)


def apply_time_dithering(scenario: Scenario, jitter_bound: float = 2e-6) -> Scenario:
    """Arm per-chirp uniform start jitter on every radar (host included)."""
    for v in scenario.vehicles:
        for r in v.radars:
            if jitter_bound + r.waveform.chirp_duration > r.waveform.pri:
                raise ConfigurationError("jitter bound breaks chirp timing")
    out = [replace(v, radars=tuple(replace(r, dither_bound=jitter_bound)
                                   for r in v.radars))
           for v in scenario.vehicles]
    return scenario.with_vehicles(out)


def apply_time_frequency_coding(scenario: Scenario, n_bands: int = 4,
                                n_slots: int = 4, sync_jitter: float = 0.0,
                                rng: np.random.Generator = None,
                                frame_rate: float = 15.0) -> Scenario:
    """Assign orthogonal (band, slot) resources on a synchronized slot grid.

    Assignment is by rank of (vehicle id, radar index), so grids at least as
    large as the radar count are collision-free; beyond that radars collide by
    pigeonhole and interfere normally.
    """
    if n_bands * n_slots < 1:
        raise ConfigurationError("empty resource grid")
    rng = rng if rng is not None else np.random.default_rng()
    frame_p = 1.0 / frame_rate
    slot_len = frame_p / n_slots
    width = BAND_TOTAL_HZ / n_bands

    keys = [(v.id, i) for v in scenario.vehicles for i in range(len(v.radars))]
    rank = {k: j for j, k in enumerate(sorted(keys))}

    out = []
    for v in scenario.vehicles:
        radars = []
        for i, r in enumerate(v.radars):
            if r.waveform.dwell_duration > slot_len:
                raise ConfigurationError("dwell does not fit the time slot")
            cell = rank[(v.id, i)] % (n_bands * n_slots)
            band, slot = cell % n_bands, cell // n_bands
            lo = BAND_LO_HZ + band * width
            wf = _fit_in_band(r.waveform, lo, width, rng)
            sync = rng.uniform(-sync_jitter, sync_jitter) if sync_jitter > 0 else 0.0
            radars.append(replace(
                r, waveform=wf, band_assignment=(lo, lo + width),
                tf_slot=(band, slot, n_slots, frame_p, sync)))
        out.append(replace(v, radars=tuple(radars)))
    return scenario.with_vehicles(out)


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
            scenario, plan.n_bands, plan.n_slots, plan.sync_jitter, rng,
            plan.tf_frame_rate)
    raise ConfigurationError(f"unknown technique: {t!r}")
