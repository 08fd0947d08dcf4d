"""Aggregate metrics: PD, noise-floor rise, range scaling, field equivalence."""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigurationError


@dataclass(frozen=True)
class SweepResult:
    """One (seed, rate) cell of a sweep; its fields are the sweep CSV's
    columns, in order."""
    scenario_label: str
    topology: str
    host_radar_type: str
    technique: str
    penetration_rate: float
    seed: int
    n_dwells: int
    pd: float
    mean_noise_floor_db: float
    mean_target_snr_db: float

    def __post_init__(self):
        if not 0.0 <= self.pd <= 1.0:
            raise ConfigurationError("pd out of [0, 1]")


def probability_of_detection(per_dwell_outcomes) -> float:
    outcomes = list(per_dwell_outcomes)
    if not outcomes:
        raise ConfigurationError("no dwell outcomes")
    return sum(bool(o) for o in outcomes) / len(outcomes)


def max_range_factor(snr_loss_db: float) -> float:
    """Maximum-range multiplier implied by an SNR_min rise (fourth-root law)."""
    if snr_loss_db < 0:
        raise ConfigurationError("loss must be >= 0 dB")
    return 10 ** (-snr_loss_db / 40.0)


def field_equivalent_range(r_sim: float, p_field: float, p_sim: float) -> float:
    """Distance at which p_field emulates p_sim observed at r_sim."""
    if p_field <= 0 or p_sim <= 0:
        raise ConfigurationError("powers must be positive")
    return r_sim * math.sqrt(p_field / p_sim)


def noise_rise_curve(floors_by_count: dict) -> list:
    """(count, dB rise over the 0-interferer baseline) from mean floors in dB."""
    if 0 not in floors_by_count:
        raise ConfigurationError("baseline (0 interferers) missing")
    base = floors_by_count[0]
    return [(n, floors_by_count[n] - base) for n in sorted(floors_by_count)]


def stable_mean(values) -> float:
    """Order-independent mean (compensated summation over sorted values)."""
    vals = sorted(float(v) for v in values)
    if not vals:
        raise ConfigurationError("empty mean")
    return math.fsum(vals) / len(vals)
