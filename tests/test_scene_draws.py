"""Scene preparation against a scalar-draw reference.

The library writes a scene's radars into the columns of one radar table: a
radar's uniforms are scalar `draw_uniform` calls, the penetration draws one
`rng.random` call per scene and every carrier of a frequency-allocating
technique one `rng.uniform` call, and each transform writes whole columns.
The reference below keeps the scene as objects (tests/scene_objects.py),
draws one scalar per quantity with `rng.uniform` and rebuilds each radar
record with `dataclasses.replace`.  Both must give the same scene, compared
through `scenario_to_dict` with every technique field, for the same seeds.
"""
import math
from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mirs import harness as H
from mirs.errors import ConfigurationError
from mirs.mitigation import BAND_LO_HZ, BAND_TOTAL_HZ, MitigationPlan, Technique
from mirs.scenario import (CLOCK_DRIFT_PPM, FOV_HALFWIDTH, Polarization, Topology,
                           generate_highway, radar_layout, scenario_from_dict,
                           scenario_to_dict)
from mirs.waveform import (DEFAULT_ADC_RATE_HZ, WAVEFORM_RANGES,
                           RadarType, WaveformConfig, sample_waveform)
from scene_objects import ObjRadar, objects_from_scene, scene_dict


# ---------------------------------------------------------------------------
# reference: one scalar draw per quantity, dataclasses.replace per object

def ref_sample_waveform(radar_type, rng):
    spec = WAVEFORM_RANGES[radar_type]
    pri = rng.uniform(*spec["pri"])
    slope = rng.uniform(*spec["slope"])
    chirp_duration = rng.uniform(*spec["chirp_duration"])
    for _ in range(1000):
        if chirp_duration <= pri:
            break
        chirp_duration = rng.uniform(*spec["chirp_duration"])
    else:
        raise ConfigurationError("chirp_duration range incompatible with PRI range")
    carrier = rng.uniform(*spec["carrier"])
    n_chirps = int(rng.integers(spec["n_chirps"][0], spec["n_chirps"][1] + 1))
    fps = rng.uniform(*spec["fps"])
    start_offset = rng.uniform(0.0, pri)
    return WaveformConfig(
        pri=pri, slope=slope, chirp_duration=chirp_duration, carrier=carrier,
        n_chirps=n_chirps, fps=fps, n_elements=spec["n_elements"],
        tx_power=spec["tx_power"], element_gain=spec["element_gain"],
        adc_rate=DEFAULT_ADC_RATE_HZ, start_offset=start_offset)


def ref_make_radar(radar_type, mount, boresight, rng):
    wf = ref_sample_waveform(radar_type, rng)
    drift = rng.uniform(-CLOCK_DRIFT_PPM, CLOCK_DRIFT_PPM)
    return ObjRadar(mount=mount, boresight=boresight,
                    fov_halfwidth=FOV_HALFWIDTH[radar_type],
                    radar_type=radar_type, waveform=wf, drift_ppm=drift)


def ref_mount_class(radar):
    """0 front-center, 1 rear-center, 2 front-corner, 3 rear-corner."""
    mx, my = radar.mount
    front = mx > 0
    if abs(my) < 1e-9:
        return 0 if front else 1
    return 2 if front else 3


def ref_build_scene(cfg, seed_index):
    """(vehicles with radars, scenario dict without them)."""
    rng = np.random.default_rng(
        np.random.SeedSequence([cfg.seed, seed_index, H.SCEN_TAG]))
    scen = generate_highway(
        cfg.density, rng=rng, duration=cfg.duration,
        target_rcs_dbsm=cfg.target_rcs_dbsm,
        target_range=cfg.target_range or H.HOST_TARGET_RANGE[cfg.host_type])
    out = []
    for v in objects_from_scene(scen):
        hl, hw = v.length / 2.0, v.width / 2.0
        if v.id == scen.host_vehicle_id:
            # front-center host, except a rear-left SBZA host
            mount, boresight = (((-hl, hw), math.pi - math.pi / 4.0)
                                if cfg.host_type is RadarType.SBZA
                                else ((hl, 0.0), 0.0))
            radars = (ref_make_radar(cfg.host_type, mount, boresight, rng),)
        else:
            radars = tuple(ref_make_radar(t, m, b, rng)
                           for t, m, b in radar_layout(cfg.topology, v.width,
                                                       v.length))
        out.append(replace(v, radars=radars))
    return out, scenario_to_dict(scen)


def ref_assign_penetration(vehicles, host_id, rate, rng):
    out = []
    for v in vehicles:
        if v.id == host_id or rng.random() < rate:
            out.append(v)
        else:
            out.append(replace(v, radars=()))
    return out


def ref_fit_in_band(wf, band_lo, band_width, rng):
    slope = wf.slope
    sweep = slope * wf.chirp_duration
    if sweep > band_width:
        slope = band_width / wf.chirp_duration
        sweep = band_width
    carrier = rng.uniform(band_lo, band_lo + band_width - sweep)
    return replace(wf, slope=slope, carrier=carrier)


def ref_predefined_frequency(vehicles, rng):
    width = BAND_TOTAL_HZ / 4.0
    out = []
    for v in vehicles:
        radars = []
        for r in v.radars:
            lo = BAND_LO_HZ + ref_mount_class(r) * width
            radars.append(replace(
                r, waveform=ref_fit_in_band(r.waveform, lo, width, rng),
                band_assignment=(lo, lo + width)))
        out.append(replace(v, radars=tuple(radars)))
    return out


def ref_predefined_polarization(vehicles):
    out = []
    for v in vehicles:
        pol = Polarization.V if math.cos(v.heading) > 0 else Polarization.H
        out.append(replace(v, radars=tuple(replace(r, polarization=pol)
                                           for r in v.radars)))
    return out


def ref_time_dithering(vehicles, jitter_bound):
    for v in vehicles:
        for r in v.radars:
            wf = r.waveform
            if jitter_bound + wf.chirp_duration > wf.pri * (1 + 1e-12):
                raise ConfigurationError("jitter bound breaks chirp timing")
    return [replace(v, radars=tuple(replace(r, dither_bound=jitter_bound)
                                    for r in v.radars))
            for v in vehicles]


def ref_time_frequency_coding(vehicles, n_bands, n_slots, sync_jitter, rng,
                              frame_rate):
    frame_p = 1.0 / frame_rate
    slot_len = frame_p / n_slots
    width = BAND_TOTAL_HZ / n_bands
    keys = [(v.id, i) for v in vehicles for i in range(len(v.radars))]
    rank = {k: j for j, k in enumerate(sorted(keys))}
    out = []
    for v in vehicles:
        radars = []
        for i, r in enumerate(v.radars):
            wf = r.waveform
            # the dwell slowed by the clock drift, the start offset and the
            # sync jitter of both neighbouring slots
            if (wf.dwell_duration / (1 + r.drift_ppm * 1e-6) + wf.start_offset
                    + 2.0 * sync_jitter > slot_len):
                raise ConfigurationError("dwell does not fit the time slot")
            cell = rank[(v.id, i)] % (n_bands * n_slots)
            band, slot = cell % n_bands, cell // n_bands
            lo = BAND_LO_HZ + band * width
            wf = ref_fit_in_band(r.waveform, lo, width, rng)
            sync = rng.uniform(-sync_jitter, sync_jitter) if sync_jitter > 0 else 0.0
            radars.append(replace(
                r, waveform=wf, band_assignment=(lo, lo + width),
                tf_slot=(band, slot, n_slots, frame_p, sync)))
        out.append(replace(v, radars=tuple(radars)))
    return out


def ref_prepare_scene(cfg, seed_index, rate, scene):
    """The vehicles of the library scene `scene` with penetration and
    technique applied."""
    rng_p = np.random.default_rng(np.random.SeedSequence(
        [cfg.seed, seed_index, H.PEN_TAG, int(round(rate * 1000))]))
    scen = ref_assign_penetration(objects_from_scene(scene),
                                  scene.host_vehicle_id, rate, rng_p)
    p = cfg.plan
    rng = np.random.default_rng(np.random.SeedSequence(
        [cfg.seed, seed_index, H.TECH_TAG, list(Technique).index(p.technique)]))
    if p.technique is Technique.PREDEFINED_FREQUENCY:
        return ref_predefined_frequency(scen, rng)
    if p.technique is Technique.PREDEFINED_POLARIZATION:
        return ref_predefined_polarization(scen)
    if p.technique is Technique.TIME_DITHERING:
        return ref_time_dithering(scen, p.jitter_bound)
    if p.technique is Technique.TIME_FREQUENCY_CODING:
        return ref_time_frequency_coding(scen, p.n_bands, p.n_slots,
                                         p.sync_jitter, rng, p.tf_frame_rate)
    return scen


# ---------------------------------------------------------------------------

def check_against_reference(cfg, seed_index, rate, permutation_seed=None):
    scene = H.build_scene(cfg, seed_index)
    got = scenario_to_dict(scene)
    assert got == scene_dict(*ref_build_scene(cfg, seed_index))
    if permutation_seed is not None:
        # TF coding ranks radars by vehicle id, not by row
        order = np.random.default_rng(permutation_seed).permutation(
            len(got["vehicles"]))
        scene = scenario_from_dict(
            {**got, "vehicles": [got["vehicles"][i] for i in order]})
    assert (scenario_to_dict(H.prepare_scene(cfg, seed_index, rate, scene))
            == scene_dict(ref_prepare_scene(cfg, seed_index, rate, scene),
                          scenario_to_dict(scene)))


@settings(max_examples=40, deadline=None)
@given(technique=st.sampled_from(list(Technique)),
       grid=st.sampled_from([(4, 4), (64, 6)]),
       sync_jitter=st.sampled_from([0.0, 1e-6]),
       rate=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
       topology=st.sampled_from(list(Topology)),
       host=st.sampled_from(list(H.HOST_TARGET_RANGE)),
       seed=st.integers(0, 2 ** 16), seed_index=st.integers(0, 3),
       permutation_seed=st.one_of(st.none(), st.integers(0, 2 ** 16)))
def test_scene_preparation_matches_scalar_reference(
        technique, grid, sync_jitter, rate, topology, host, seed, seed_index,
        permutation_seed):
    plan = MitigationPlan(technique=technique, n_bands=grid[0],
                          n_slots=grid[1], sync_jitter=sync_jitter)
    cfg = H.RunConfig(density="low", topology=topology, host_type=host,
                      plan=plan, seed=seed)
    check_against_reference(cfg, seed_index, rate, permutation_seed)


def test_medium_tf_scene_matches_scalar_reference():
    plan = MitigationPlan(technique=Technique.TIME_FREQUENCY_CODING,
                          n_bands=64, n_slots=6, sync_jitter=1e-6)
    cfg = H.RunConfig(density="medium", topology=Topology.FULL,
                      host_type=RadarType.LRR, plan=plan, seed=5)
    check_against_reference(cfg, 1, 0.5, permutation_seed=7)


@settings(max_examples=30, deadline=None)
@given(radar_type=st.sampled_from(list(RadarType)), seed=st.integers(0, 2 ** 32))
def test_sample_waveform_matches_scalar_reference(radar_type, seed):
    a, b = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(3):   # the integers draw leaves half a word buffered
        assert (sample_waveform(radar_type, a, interferer_ok=True)
                == ref_sample_waveform(radar_type, b))
    assert a.random() == b.random()
