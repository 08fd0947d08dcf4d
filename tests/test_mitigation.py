"""Mitigation transforms: band fitting, polarization, dithering, TF coding."""
import math
from dataclasses import replace

import numpy as np
import pytest

from mirs.errors import ConfigurationError
from mirs.mitigation import (BAND_LO_HZ, BAND_TOTAL_HZ, MitigationPlan,
                             Technique, apply_predefined_frequency,
                             apply_predefined_polarization, apply_technique,
                             apply_time_dithering, apply_time_frequency_coding,
                             cross_pol_factor, mount_class)
from mirs.scenario import (Polarization, Topology, generate_highway,
                           install_radars, scenario_to_dict)
from mirs.synthesis import can_beat_in_band
from mirs.waveform import RadarType


def rigged_scene(topology=Topology.FULL, density="low", seed=0,
                 host_type=RadarType.LRR):
    rng = np.random.default_rng(seed)
    return install_radars(generate_highway(density, rng=rng), topology,
                          host_type, rng)


def all_radars(s):
    """(vehicle record, radar row, mount class) per radar row."""
    classes = mount_class(s.radars).tolist()
    return [(s.vehicle(i), j, classes[j])
            for j, i in enumerate(s.radars["vehicle"].tolist())]


def geometry_fingerprint(s):
    return [(v.id, v.x, v.y, v.heading, v.speed, v.lane)
            for v in map(s.vehicle, range(s.vehicles["id"].size))]


def test_mount_class_partition():
    s = rigged_scene()
    v = next(i for i in range(s.vehicles["id"].size) if i != s.host)
    classes = sorted(mount_class(s.radars)[s.radars["vehicle"] == v].tolist())
    # full topology: LRR+SRR front-center, SRR rear-center, 2 front corners,
    # 2 rear corners
    assert classes == [0, 0, 1, 2, 2, 3, 3]


def test_predefined_frequency_band_containment():
    s = rigged_scene()
    out = apply_predefined_frequency(s, np.random.default_rng(1))
    width = BAND_TOTAL_HZ / 4.0
    r = out.radars
    for v, j, band in all_radars(out):
        lo = BAND_LO_HZ + band * width
        assert (r["band_lo"][j], r["band_hi"][j]) == (lo, lo + width)
        carrier = r["carrier"][j]
        assert lo <= carrier
        assert carrier + r["slope"][j] * r["chirp_duration"][j] \
            <= lo + width + 1.0
    assert geometry_fingerprint(out) == geometry_fingerprint(s)


def test_predefined_frequency_same_placement_same_band():
    s = rigged_scene()
    out = apply_predefined_frequency(s, np.random.default_rng(1))
    fronts = [(out.radars["band_lo"][j], out.radars["band_hi"][j])
              for v, j, c in all_radars(out) if c == 0]
    assert len(set(fronts)) == 1


def test_disjoint_bands_cannot_beat():
    # front-center vs rear-corner radars live a full GHz apart: the
    # reachability test rules out any in-band beat
    s = rigged_scene()
    out = apply_predefined_frequency(s, np.random.default_rng(2))
    host_wf = out.waveform(out.host_row)
    assert mount_class(out.radars)[out.host_row] == 0
    checked = 0
    for v, j, c in all_radars(out):
        if v.id == out.host_vehicle_id or c == 0:
            continue
        assert not can_beat_in_band(host_wf, out.waveform(j))
        checked += 1
    assert checked > 0


def test_predefined_polarization_by_direction():
    s = rigged_scene()
    out = apply_predefined_polarization(s)
    for v, j, _ in all_radars(out):
        want = Polarization.V if math.cos(v.heading) > 0 else Polarization.H
        assert out.radars["polarization"][j] == want.value
    assert geometry_fingerprint(out) == geometry_fingerprint(s)


def test_cross_pol_factors():
    assert cross_pol_factor("V", "V", False) == 1.0
    assert cross_pol_factor("H", "H", True) == 1.0
    direct = cross_pol_factor("V", "H", False)
    refl = cross_pol_factor("V", "H", True)
    assert 10 * math.log10(direct) == pytest.approx(-15.0)
    assert 10 * math.log10(refl) == pytest.approx(-5.0)
    assert refl > direct


def test_time_dithering_sets_bound_and_validates():
    s = rigged_scene()
    out = apply_time_dithering(s, 2e-6)
    r = out.radars
    assert np.all(r["dither_bound"] == 2e-6)
    assert np.all(r["dither_bound"] + r["chirp_duration"] <= r["pri"])
    assert geometry_fingerprint(out) == geometry_fingerprint(s)
    with pytest.raises(ConfigurationError):
        apply_time_dithering(s, 20e-6)  # breaks chirp timing for some draw


def _edit_row(s, row, **columns):
    """`s` with radar row `row` of the named columns set to the values."""
    radars = dict(s.radars)
    for k, v in columns.items():
        radars[k] = radars[k].copy()
        radars[k][row] = v
    return replace(s, radars=radars)


def test_time_dithering_keeps_the_waveform_tolerance():
    # a bound that ends the chirp one rounding step past its PRI fits, as
    # it does in WaveformConfig's check and RunConfig's class check
    pri, bound = 20e-6, 2e-6
    cd = np.nextafter(pri - bound, 1.0)
    assert bound + cd > pri
    s = _edit_row(rigged_scene(), 1, pri=pri, chirp_duration=cd)
    assert np.all(apply_time_dithering(s, bound).radars["dither_bound"] == bound)
    with pytest.raises(ConfigurationError, match="jitter bound breaks"):
        apply_time_dithering(s, bound * (1 + 1e-9))


SLOT = 1.0 / 15.0 / 6          # 6 slots at 15 Hz: 11.11 ms


@pytest.mark.parametrize("edit, sync_jitter, fits", [
    # 555 chirps of 20 us with a 19 us start offset and -20 ppm of drift:
    # n_chirps * pri alone fits, the last chirp ends 3.1 us into the next slot
    (dict(n_chirps=555, pri=20e-6, start_offset=19e-6, drift_ppm=-20.0),
     0.0, False),
    # 0.5 us short of the slot: each term alone overruns it
    (dict(n_chirps=555, pri=(SLOT - 0.5e-6) / 555, start_offset=0.0,
          drift_ppm=0.0), 0.0, True),
    (dict(n_chirps=555, pri=(SLOT - 0.5e-6) / 555, start_offset=1e-6,
          drift_ppm=0.0), 0.0, False),
    (dict(n_chirps=555, pri=(SLOT - 0.5e-6) / 555, start_offset=0.0,
          drift_ppm=-100.0), 0.0, False),
    (dict(n_chirps=555, pri=(SLOT - 0.5e-6) / 555, start_offset=0.0,
          drift_ppm=0.0), 0.3e-6, False),
], ids=["long_dwell", "fits", "start_offset", "clock_drift", "sync_jitter"])
def test_tf_coding_checks_each_radar_as_the_config_checks_a_class(
        edit, sync_jitter, fits):
    s = _edit_row(rigged_scene(topology=Topology.FRONT), 1, **edit)
    def run():
        return apply_time_frequency_coding(
            s, n_bands=64, n_slots=6, sync_jitter=sync_jitter,
            rng=np.random.default_rng(0), frame_rate=15.0)
    if fits:
        run()
    else:
        with pytest.raises(ConfigurationError,
                           match="dwell does not fit the time slot"):
            run()


def test_time_dithering_zero_is_identity():
    s = rigged_scene()
    out = apply_time_dithering(s, 0.0)
    assert scenario_to_dict(out) == scenario_to_dict(s)


def test_tf_coding_assignment_and_containment():
    s = rigged_scene(topology=Topology.FRONT, density="low")
    out = apply_time_frequency_coding(s, n_bands=8, n_slots=6,
                                      rng=np.random.default_rng(3),
                                      frame_rate=15.0)
    seen = set()
    r = out.radars
    for v, j, _ in all_radars(out):
        band, slot, n_slots, frame_p, sync = out.tf_slot(j)
        assert 0 <= band < 8 and 0 <= slot < 6
        assert n_slots == 6 and frame_p == pytest.approx(1 / 15.0)
        assert sync == 0.0
        assert r["n_chirps"][j] * r["pri"][j] <= frame_p / n_slots
        lo, hi, carrier = r["band_lo"][j], r["band_hi"][j], r["carrier"][j]
        assert lo <= carrier
        assert carrier + r["slope"][j] * r["chirp_duration"][j] <= hi + 1.0
        seen.add((v.id, band, slot))
    # rank assignment: with 48 resources and 49 radars exactly one pair
    # collides by pigeonhole
    cells = [(band, slot) for _, band, slot in seen]
    assert len(cells) - len(set(cells)) == max(0, len(cells) - 48)


def test_tf_coding_rejects_oversized_dwell():
    s = rigged_scene(topology=Topology.FRONT)
    with pytest.raises(ConfigurationError):
        # 100 slots of 0.67 ms cannot hold a multi-ms dwell
        apply_time_frequency_coding(s, n_bands=1, n_slots=100,
                                    rng=np.random.default_rng(0))


def test_tf_coding_orthogonality_eliminates_overlap():
    # sufficient grid, zero jitter: no interferer chirp can overlap the host
    # dwell because slots are disjoint half-open intervals
    from mirs.synthesis import chirp_times_in_window, host_chirp_times
    s = rigged_scene(topology=Topology.FRONT, density="low")
    out = apply_time_frequency_coding(s, n_bands=64, n_slots=6,
                                      rng=np.random.default_rng(4),
                                      frame_rate=15.0)
    host_wf = out.waveform(out.host_row)
    host_slot = out.tf_slot(out.host_row)
    for d in range(3):
        ht = host_chirp_times(host_wf, d, tf_slot=host_slot)
        t0, t1 = ht[0], ht[-1] + host_wf.chirp_duration
        for v, j, _ in all_radars(out):
            slot = out.tf_slot(j)
            if v.id == out.host_vehicle_id:
                continue
            if slot[:2] == host_slot[:2]:
                continue  # same resource cell would collide legitimately
            if slot[0] != host_slot[0]:
                continue  # different band: frequency-orthogonal anyway
            times = chirp_times_in_window(out.waveform(j), t0, t1,
                                          tf_slot=slot)
            assert times.size == 0


def test_apply_technique_dispatch():
    s = rigged_scene()
    rng = np.random.default_rng(0)
    assert apply_technique(s, MitigationPlan(Technique.NONE), rng) is s
    for tech in Technique:
        plan = MitigationPlan(technique=tech, n_bands=64, n_slots=6)
        out = apply_technique(s, plan, np.random.default_rng(1))
        assert geometry_fingerprint(out) == geometry_fingerprint(s)
