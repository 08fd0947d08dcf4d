"""Interference mitigation techniques applied as scenario transforms.

All four transforms are pure scenario -> scenario functions that leave the
geometry untouched; they only rewrite waveform/polarization/timing fields on
the installed radars.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

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


def _fitted_waveforms(radars, band, width: float, rng: np.random.Generator,
                      sync_jitter: float = 0.0):
    """The waveforms of `radars`, each slope shrunk to fit its band
    [lo, lo + width] (lo = BAND_LO_HZ + band * width) if needed and each
    carrier redrawn so the sweep stays inside; plus the band edges and one
    sync offset per radar.

    All draws come from one `rng.uniform` call over the radars in order,
    each carrier followed by its sync offset when `sync_jitter` > 0: the
    same values as one scalar call per draw."""
    cd = np.array([r.waveform.chirp_duration for r in radars])
    slope = np.array([r.waveform.slope for r in radars])
    lo = BAND_LO_HZ + np.asarray(band) * width
    sweep = slope * cd
    slope = np.where(sweep > width, width / cd, slope)
    high = lo + width - np.minimum(sweep, width)
    if sync_jitter > 0:
        n = len(radars)
        draws = rng.uniform(np.column_stack([lo, np.full(n, -sync_jitter)]),
                            np.column_stack([high, np.full(n, sync_jitter)]))
        carrier, sync = draws.T.tolist()
    else:
        carrier = rng.uniform(lo, high).tolist()
        sync = [0.0] * len(radars)
    wfs = [WaveformConfig(
        pri=wf.pri, slope=k, chirp_duration=wf.chirp_duration, carrier=f,
        n_chirps=wf.n_chirps, fps=wf.fps, n_elements=wf.n_elements,
        tx_power=wf.tx_power, element_gain=wf.element_gain,
        adc_rate=wf.adc_rate, start_offset=wf.start_offset)
        for wf, k, f in zip((r.waveform for r in radars), slope.tolist(), carrier)]
    return wfs, lo.tolist(), sync


def _radar(r: RadarInstance, **changes) -> RadarInstance:
    """`r` with `changes`, built by the constructor: this runs per radar of
    a scene, where dataclasses.replace costs about half as much again."""
    return RadarInstance(**(vars(r) | changes))


def _with_radars(scenario: Scenario, radars) -> Scenario:
    """`scenario` with its radars, in (vehicle, radar) order, replaced."""
    it = iter(radars)
    return scenario.with_vehicles(
        v.with_radars([next(it) for _ in v.radars]) for v in scenario.vehicles)


def apply_predefined_frequency(scenario: Scenario,
                               rng: np.random.Generator) -> Scenario:
    """Allocate one of four 1 GHz sub-bands per mount class and re-draw each
    carrier so the sweep stays inside its band."""
    width = BAND_TOTAL_HZ / 4.0
    radars = [r for v in scenario.vehicles for r in v.radars]
    wfs, lo, _ = _fitted_waveforms(radars, [mount_class(r) for r in radars],
                                   width, rng)
    return _with_radars(scenario, (
        _radar(r, waveform=wf, band_assignment=(f, f + width))
        for r, wf, f in zip(radars, wfs, lo)))


def apply_predefined_polarization(scenario: Scenario) -> Scenario:
    """Vertical polarization for the forward direction, horizontal for the
    oncoming direction."""
    out = []
    for v in scenario.vehicles:
        pol = Polarization.V if math.cos(v.heading) > 0 else Polarization.H
        out.append(v.with_radars(_radar(r, polarization=pol) for r in v.radars))
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
    return scenario.with_vehicles(
        v.with_radars(_radar(r, dither_bound=jitter_bound) for r in v.radars)
        for v in scenario.vehicles)


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

    radars = [r for v in scenario.vehicles for r in v.radars]
    if any(r.waveform.dwell_duration > slot_len for r in radars):
        raise ConfigurationError("dwell does not fit the time slot")
    keys = [(v.id, i) for v in scenario.vehicles for i in range(len(v.radars))]
    rank = {k: j for j, k in enumerate(sorted(keys))}
    cells = [rank[k] % (n_bands * n_slots) for k in keys]
    bands = [c % n_bands for c in cells]
    wfs, lo, sync = _fitted_waveforms(radars, bands, width, rng, sync_jitter)
    return _with_radars(scenario, (
        _radar(r, waveform=wf, band_assignment=(f, f + width),
               tf_slot=(b, c // n_bands, n_slots, frame_p, dt))
        for r, wf, f, b, c, dt in zip(radars, wfs, lo, bands, cells, sync)))


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
