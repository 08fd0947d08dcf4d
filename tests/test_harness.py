"""Harness tests: presets, config parsing, determinism, analogs, dumps."""
import concurrent.futures
import math
import os
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest
import scipy
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mirs
from mirs import synthesis
from mirs.errors import ConfigurationError
from mirs.harness import (HOST_ORDER, HOST_TARGET_RANGE, PENETRATION_GRID,
                          RADAR_A, DwellResult, RunConfig, _rates_per_task,
                          build_scene,
                          chamber_layout,
                          config_from_dict, dump_maps, dwell_schedule,
                          field_layout, load_config, output_dir,
                          prepare_scene, preset_config, read_results_csv,
                          report, results_csv, run_anechoic_analog, run_cell,
                          run_cells, run_sweep, simulate_dwell, table2_cells)
from mirs.metrics import SweepResult
from mirs.mitigation import MitigationPlan, Technique
from mirs.processing import vertical_stripes
from mirs.scenario import Topology, scenario_from_dict, scenario_to_dict
from mirs.synthesis import read_cube, synthesize_dwell
from mirs.waveform import RadarType


QUICK = dict(density="low", topology=Topology.FRONT, host_type=RadarType.LRR,
             n_seeds=2, n_dwells=2, penetration_rates=(0.0, 1.0))


def test_table2_cells_cardinality_and_order():
    cells = table2_cells()
    assert len(cells) == 27
    assert cells[0] == ("low", Topology.FRONT, RadarType.SBZA)
    assert cells[26] == ("high", Topology.FULL, RadarType.LRR)
    # row order: density outer, topology middle, host inner
    assert cells[9][0] == "medium" and cells[18][0] == "high"
    assert len(set(cells)) == 27


def test_preset_config_labels():
    cfg = preset_config(26)
    assert cfg.density == "high"
    assert cfg.topology is Topology.FULL
    assert cfg.host_type is RadarType.LRR
    assert cfg.label == "cell26_high_full_LRR"
    with pytest.raises(ConfigurationError):
        preset_config(27)


def test_runconfig_validation():
    with pytest.raises(ConfigurationError):
        RunConfig(penetration_rates=(0.5, 0.1))
    with pytest.raises(ConfigurationError):
        RunConfig(penetration_rates=(0.0, 1.5))
    with pytest.raises(ConfigurationError):
        RunConfig(n_seeds=0)


def _or_bad(good):
    """`good`, or a value that no numeric field takes."""
    return st.one_of(good, st.sampled_from(["abc", math.nan, True]))


# every field of a one-seed, one-dwell, low-density sweep, each optional and
# drawn to cross its bounds (some also to be no number at all); only
# workers=1 is valid, so no pool is started
CONFIG_FIELDS = dict(
    density=st.sampled_from(["low", "jam"]),
    topology=st.sampled_from([t.value for t in Topology] + ["ring"]),
    host_type=st.sampled_from([t.value for t in RadarType] + ["XYZ"]),
    technique=st.sampled_from([t.value for t in Technique] + ["foo"]),
    plan=st.fixed_dictionaries({}, optional=dict(
        jitter_bound=st.floats(-1e-6, 5e-6),
        n_bands=st.integers(-1, 64),
        n_slots=st.integers(-1, 8),
        sync_jitter=st.floats(-1e-4, 1e-3),
        tf_frame_rate=st.floats(-1.0, 30.0))),
    penetration_rates=st.lists(_or_bad(st.floats(-0.5, 1.5)), min_size=1,
                               max_size=3),
    n_seeds=_or_bad(st.integers(-2, 1)),
    seed=_or_bad(st.integers(-3, 2 ** 40)),
    duration=_or_bad(st.floats(-1.0, 12.0)),
    n_dwells=_or_bad(st.sampled_from([-2, -1, 1])),
    target_range=st.floats(-50.0, 500.0),
    target_rcs_dbsm=st.floats(-40.0, 40.0),
    noise_figure_db=st.floats(-20.0, 80.0),
    window=st.sampled_from(["rect", "hann", "kaiser"]),
    lpf_gating=st.booleans(),
    cfar_guard=st.integers(-1, 4),
    cfar_train=st.integers(2, 10),
    cfar_pfa=_or_bad(st.floats(-0.1, 1.1)),
    workers=st.integers(-1, 1),
)


@settings(max_examples=30, deadline=None)
@given(st.fixed_dictionaries({}, optional=CONFIG_FIELDS))
@example({"technique": "time_frequency_coding", "seed": 5,
          "plan": {"n_bands": 8, "n_slots": 6}, "penetration_rates": [0.0, 1.0]})
@example({"host_type": "SBZA", "topology": "full", "technique": "time_dithering",
          "target_range": 1.0, "duration": 0.05})
def test_config_fails_at_construction_or_runs(d):
    d = {"n_seeds": 1, "n_dwells": 1, **d}
    try:
        cfg = config_from_dict(d)
    except ConfigurationError:
        return
    assert (cfg.density, cfg.n_seeds, cfg.n_dwells, cfg.workers) == ("low", 1, 1, 1)
    results = run_sweep(cfg)
    assert [r.penetration_rate for r in results] == list(cfg.penetration_rates)


def test_config_from_dict_and_yaml(tmp_path):
    cfg = config_from_dict({"preset": 4, "n_seeds": 3,
                            "technique": "time_dithering"})
    assert cfg.density == "low" and cfg.topology is Topology.PARTIAL
    assert cfg.host_type is RadarType.SRR
    assert cfg.plan.technique is Technique.TIME_DITHERING
    assert cfg.n_seeds == 3
    cfg2 = config_from_dict({"plan": {"technique": "time_frequency_coding",
                                      "n_bands": 64, "n_slots": 6}})
    assert cfg2.plan.n_bands == 64
    with pytest.raises(ConfigurationError):
        config_from_dict({"bogus_key": 1})

    doc = {"label": "t", "density": "low", "topology": "front",
           "host_type": "LRR", "penetration_rates": [0.0, 1.0]}
    p = tmp_path / "cfg.yaml"
    p.write_text(yaml.safe_dump(doc))
    loaded = load_config(p)
    assert loaded.label == "t"
    assert loaded.penetration_rates == (0.0, 1.0)


def test_repo_configs_parse():
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    for name in ("scene_low.yaml", "scene_medium.yaml", "scene_high.yaml",
                 "matrix.yaml"):
        cfg = load_config(os.path.join(here, "configs", name))
        assert isinstance(cfg, RunConfig)


def test_output_dir_env_override(monkeypatch):
    assert output_dir("somewhere") == "somewhere"
    monkeypatch.setenv("MIRS_OUTPUT_DIR", "/tmp/elsewhere")
    assert output_dir("somewhere") == "/tmp/elsewhere"


def test_build_scene_installs_expected_radars():
    cfg = RunConfig(**QUICK)
    s = build_scene(cfg, 0)
    counts = np.bincount(s.radars["vehicle"])
    assert counts.tolist() == [1] * s.vehicles["id"].size  # front topology
    assert s.radars["radar_type"][s.host_row] == RadarType.LRR.value
    # deterministic in (seed, seed_index), independent across indexes
    assert scenario_to_dict(build_scene(cfg, 0)) == scenario_to_dict(s)
    assert scenario_to_dict(build_scene(cfg, 1)) != scenario_to_dict(s)


def test_prepare_scene_penetration_zero_strips_interferers():
    cfg = RunConfig(**QUICK)
    s = prepare_scene(cfg, 0, 0.0)
    assert s.radars["vehicle"].tolist() == [s.host]
    s1 = prepare_scene(cfg, 0, 1.0)
    assert np.unique(s1.radars["vehicle"]).size == s1.vehicles["id"].size


def test_host_target_range_defaults():
    for host in HOST_ORDER:
        cfg = RunConfig(**{**QUICK, "host_type": host, "n_seeds": 1})
        s = build_scene(cfg, 0)
        want = HOST_TARGET_RANGE[host]
        assert math.hypot(*s.reference_target.position) == pytest.approx(want)


def test_dwell_schedule_caps_and_auto():
    cfg = RunConfig(**QUICK)
    s = prepare_scene(cfg, 0, 0.0)
    n, frame_p = dwell_schedule(cfg, s)
    assert n == 2
    assert frame_p == pytest.approx(1.0 / s.radars["fps"][s.host_row])
    auto = RunConfig(**{**QUICK, "n_dwells": 0})
    n2, _ = dwell_schedule(auto, s)
    assert n2 == int(s.duration / frame_p)


def test_zero_penetration_dwell_has_no_emitters_and_detects():
    cfg = RunConfig(**QUICK)
    s = prepare_scene(cfg, 0, 0.0)
    n, frame_p = dwell_schedule(cfg, s)
    r = simulate_dwell(cfg, s, 0, 0, frame_p)
    assert r.n_emitters == 0
    assert r.detected
    assert r.target_snr_db > 10.0


def test_run_cell_and_sweep_cardinality():
    cfg = RunConfig(**QUICK)
    res = run_sweep(cfg)
    assert len(res) == cfg.n_seeds * len(cfg.penetration_rates)
    # fixed ordering: seed-major, rate-minor
    assert [(r.seed, r.penetration_rate) for r in res] == \
        [(s, p) for s in range(2) for p in (0.0, 1.0)]
    base = run_cell(cfg, 0, 0.0)
    assert base.pd == res[0].pd
    assert base.mean_noise_floor_db == res[0].mean_noise_floor_db


def test_sweep_builds_each_seed_scene_once(monkeypatch):
    cfg = RunConfig(**{**QUICK, "penetration_rates": (0.0, 0.5, 1.0)})
    built = []

    def counted(*args):
        built.append(args[1])
        return build_scene(*args)
    monkeypatch.setattr("mirs.harness.build_scene", counted)
    rows = run_sweep(cfg)
    assert built == [0, 1]
    monkeypatch.undo()
    assert rows == [run_cell(cfg, s, r) for s in range(2)
                    for r in cfg.penetration_rates]


# full topology: every technique's sweep mixes clean and interfered dwells
REUSE = {**QUICK, "topology": Topology.FULL,
         "penetration_rates": PENETRATION_GRID, "n_dwells": 3}
TF_64x6 = MitigationPlan(technique=Technique.TIME_FREQUENCY_CODING,
                         n_bands=64, n_slots=6)


def _count_synthesis(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(len(args[3]))     # the dwell's emitters
        return synthesize_dwell(*args, **kwargs)
    monkeypatch.setattr("mirs.harness.synthesize_dwell", counted)
    return calls


@pytest.mark.parametrize("technique", list(Technique), ids=lambda t: t.value)
def test_sweep_with_dwell_reuse_equals_run_cell(technique, monkeypatch):
    plan = MitigationPlan(technique=technique, n_bands=64, n_slots=6)
    cfg = RunConfig(**{**REUSE, "plan": plan})
    want = [run_cell(cfg, s, r) for s in range(2)
            for r in cfg.penetration_rates]
    calls = _count_synthesis(monkeypatch)
    assert run_sweep(cfg) == want
    assert len(calls) < len(want) * cfg.n_dwells     # some dwell is reused


def _synthesis_once_per_clean_dwell(cfg):
    """(dwells with emitters, distinct clean dwell indices) of a one-seed
    sweep, from every dwell simulated without reuse."""
    with_emitters, clean = 0, set()
    for rate in cfg.penetration_rates:
        scen = prepare_scene(cfg, 0, rate)
        n, frame_p = dwell_schedule(cfg, scen)
        for d in range(n):
            if simulate_dwell(cfg, scen, 0, d, frame_p).n_emitters:
                with_emitters += 1
            else:
                clean.add(d)
    return with_emitters, len(clean)


TF_SWEEP = {**REUSE, "density": "medium", "n_seeds": 1, "plan": TF_64x6}


def test_sweep_synthesizes_each_clean_dwell_once(monkeypatch):
    cfg = RunConfig(**TF_SWEEP)
    with_emitters, clean = _synthesis_once_per_clean_dwell(cfg)
    assert with_emitters + clean < len(cfg.penetration_rates) * cfg.n_dwells
    calls = _count_synthesis(monkeypatch)
    run_sweep(cfg)
    assert len(calls) == with_emitters + clean
    assert calls.count(0) == clean


@pytest.mark.parametrize("workers", [1, 2])
def test_dwell_major_sweep_equals_one_rate_at_a_time(workers):
    cfg = RunConfig(**{**TF_SWEEP, "n_seeds": 2, "workers": workers})
    assert len(cfg.penetration_rates) >= 3 and cfg.n_dwells >= 3
    want = [run_cell(cfg, s, r) for s in range(2)
            for r in cfg.penetration_rates]
    assert run_sweep(cfg) == want


def test_sweep_draws_each_dwell_noise_once(monkeypatch):
    cfg = RunConfig(**TF_SWEEP)
    draws = []

    def counted(shape, scale, rng):
        draws.append(shape)
        return noise_cube(shape, scale, rng)
    noise_cube = synthesis._noise_cube
    monkeypatch.setattr(synthesis, "_noise_cube", counted)
    run_sweep(cfg)
    # one task runs every rate of the seed; each dwell index draws once
    assert len(draws) == cfg.n_dwells


def test_dwell_reuse_ends_with_its_task(monkeypatch):
    cfg = RunConfig(**TF_SWEEP)
    want = sum(_synthesis_once_per_clean_dwell(cfg))
    calls = _count_synthesis(monkeypatch)
    for _ in range(2):
        calls.clear()
        run_sweep(cfg)
        assert len(calls) == want


def test_dwell_reuse_keys_on_the_dwell_index(monkeypatch):
    # a parked host is the same vehicle at every dwell: only the dwell index
    # (the noise stream) tells its clean dwells apart, and run_cells keeps
    # one shared dict per dwell index
    cfg = RunConfig(**{**QUICK, "penetration_rates": (0.0,), "n_dwells": 4})
    scene = build_scene(cfg, 0)
    v = scene.vehicles
    parked = replace(scene, vehicles={**v, "speed": np.where(
        np.arange(v["id"].size) == scene.host, 0.0, v["speed"])})
    alone = run_cell(cfg, 0, 0.0, parked)
    calls = _count_synthesis(monkeypatch)
    assert run_cells(cfg, 0, (0.0, 0.0), parked) == [alone, alone]
    assert calls == [0] * cfg.n_dwells


def _one_dict_per_dwell(cfg, scenes):
    """The dwells of seed 0 at rate 0 on each of `scenes`, run as run_cells
    runs them, with every scene's dwell d sharing one simulate_dwell dict,
    and the number of results stored in those dicts."""
    prepared = [prepare_scene(cfg, 0, 0.0, s) for s in scenes]
    out, stored = [[] for _ in scenes], 0
    for d in range(cfg.n_dwells):
        shared = {}
        for s, dwells in zip(prepared, out):
            dwells.append(simulate_dwell(cfg, s, 0, d,
                                         dwell_schedule(cfg, s)[1], shared))
        stored += sum(isinstance(v, DwellResult) for v in shared.values())
    return out, stored


def _dwells_alone(cfg, scenes):
    """The dwells of `_one_dict_per_dwell`, each simulated without a dict."""
    prepared = [prepare_scene(cfg, 0, 0.0, s) for s in scenes]
    return [[simulate_dwell(cfg, s, 0, d, dwell_schedule(cfg, s)[1])
             for d in range(cfg.n_dwells)] for s in prepared]


def _host_radar_dict(s):
    radars = scenario_to_dict(s)["vehicles"][s.host]["radars"]
    return radars[s.host_radar_index]


def _with_host_radars(s, radars, index=0):
    """`s` with the host vehicle's radars replaced by the radar dicts
    `radars`, the host radar being radars[index]."""
    d = scenario_to_dict(s)
    d["vehicles"][s.host]["radars"] = list(radars)
    return scenario_from_dict({**d, "host_radar_index": index})


@pytest.mark.parametrize("differ", ["host_radar", "host_radar_index",
                                    "reference_target"])
def test_dwell_reuse_keeps_different_hosts_apart(differ):
    cfg = RunConfig(**{**QUICK, "penetration_rates": (0.0,)})
    scene = build_scene(cfg, 0)
    hr = _host_radar_dict(scene)
    wf = hr["waveform"]
    other = {**hr, "waveform": {**wf, "n_chirps": wf["n_chirps"] // 2}}
    if differ == "host_radar":
        a, b = scene, _with_host_radars(scene, (other,))
    elif differ == "host_radar_index":   # one host vehicle with two radars
        a = _with_host_radars(scene, (hr, other), 0)
        b = _with_host_radars(scene, (hr, other), 1)
    else:
        a, b = scene, replace(scene, reference_target=replace(
            scene.reference_target, rcs=scene.reference_target.rcs / 4.0))
    got, stored = _one_dict_per_dwell(cfg, (a, b))
    assert stored == 2 * cfg.n_dwells
    assert got == _dwells_alone(cfg, (a, b))
    assert got[0] != got[1]


def test_dwell_reuse_shares_hosts_a_clean_dwell_cannot_tell_apart():
    # polarization, the dither bound and band edges do not enter an
    # interference-free dwell: both hosts' dwells share one stored result
    cfg = RunConfig(**{**QUICK, "penetration_rates": (0.0,)})
    scene = build_scene(cfg, 0)
    hr = _host_radar_dict(scene)
    assert (hr["polarization"], hr["dither_bound"],
            hr["band_assignment"]) == ("V", 0.0, None)
    other = _with_host_radars(scene, [{
        **hr, "polarization": "H", "dither_bound": 1e-6,
        "band_assignment": [77e9, 78e9]}])
    got, stored = _one_dict_per_dwell(cfg, (scene, other))
    assert stored == cfg.n_dwells
    alone = _dwells_alone(cfg, (scene, other))
    assert got == alone and alone[0] == alone[1]


def test_dwell_result_is_frozen():
    cfg = RunConfig(**QUICK)
    s = prepare_scene(cfg, 0, 0.0)
    r = simulate_dwell(cfg, s, 0, 0, dwell_schedule(cfg, s)[1])
    with pytest.raises(FrozenInstanceError):
        r.detected = False


@pytest.mark.parametrize("technique", list(Technique), ids=lambda t: t.value)
def test_prepare_scene_on_a_shared_scene(technique):
    plan = MitigationPlan(technique=technique, n_bands=64, n_slots=6)
    cfg = RunConfig(**{**QUICK, "density": "medium", "topology": Topology.FULL,
                       "plan": plan})
    for i in range(2):
        base = build_scene(cfg, i)
        for rate in PENETRATION_GRID:
            assert scenario_to_dict(prepare_scene(cfg, i, rate, base)) == \
                scenario_to_dict(prepare_scene(cfg, i, rate))
        # preparing every rate left the shared scene as built
        assert scenario_to_dict(base) == scenario_to_dict(build_scene(cfg, i))


@pytest.mark.parametrize("n_seeds, n_rates, workers, want", [
    (16, 6, 2, 6), (10, 6, 1, 6), (10, 6, 2, 6), (10, 6, 3, 2), (10, 6, 4, 3),
    (10, 6, 8, 2), (3, 6, 2, 3), (1, 6, 4, 2), (2, 1, 2, 1), (1, 0, 2, 1)])
def test_rates_per_task(n_seeds, n_rates, workers, want):
    assert _rates_per_task(n_seeds, n_rates, workers) == want

    def busiest(k):   # cells on the busiest worker, tasks dealt out evenly
        return math.ceil(n_seeds * math.ceil(n_rates / k) / workers) * k
    if n_rates:
        assert busiest(want) == busiest(1)


def test_sweep_pool_is_capped_at_the_task_count(monkeypatch):
    opened, built = [], []

    class InlinePool:
        def __init__(self, workers):
            opened.append(workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    def counted(*args):
        built.append(args[1])
        return build_scene(*args)
    one = {**QUICK, "n_dwells": 1, "penetration_rates": (0.0,)}
    three = {**one, "n_seeds": 1, "penetration_rates": (0.0, 0.5, 1.0)}
    want = run_sweep(RunConfig(**three))
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr("mirs.harness.build_scene", counted)
    run_sweep(RunConfig(**{**one, "n_seeds": 1, "workers": 4}))
    run_sweep(RunConfig(**{**one, "n_seeds": 2, "workers": 8}))
    assert opened == [2]
    # one seed's three rates on two workers: tasks of two rates and one
    built.clear()
    assert run_sweep(RunConfig(**{**three, "workers": 2})) == want
    assert opened == [2, 2] and built == [0, 0]


def test_csv_byte_determinism_and_worker_independence(tmp_path):
    cfg = RunConfig(**QUICK)
    a = results_csv(cfg, run_sweep(cfg))
    b = results_csv(cfg, run_sweep(cfg))
    assert a == b
    cfg2 = RunConfig(**{**QUICK, "workers": 2})
    c = results_csv(cfg2, run_sweep(cfg2))
    # metadata omits worker count-independent fields; rows must match exactly
    assert a.splitlines()[-4:] == c.splitlines()[-4:]

    path = tmp_path / "out.csv"
    run_sweep(cfg, csv_path=str(path))
    assert path.read_text() == a
    rows = read_results_csv(path)
    assert len(rows) == 4
    assert rows[0]["technique"] == "none"


def test_report_aggregates_mean_pd(tmp_path):
    cfg = RunConfig(**QUICK)
    p = tmp_path / "r.csv"
    res = run_sweep(cfg, csv_path=str(p))
    text = report([str(p)])
    lines = text.strip().splitlines()
    assert lines[0] == "technique,penetration_rate,mean_pd,n_cells"
    got = {}
    import csv as csvmod
    for row in csvmod.DictReader(lines):
        got[float(row["penetration_rate"])] = (float(row["mean_pd"]),
                                               int(row["n_cells"]))
    for rate in (0.0, 1.0):
        vals = [r.pd for r in res if r.penetration_rate == rate]
        assert got[rate][0] == pytest.approx(sum(vals) / len(vals))
        assert got[rate][1] == 2


def test_metadata_embeds_parameters():
    cfg = RunConfig(**QUICK)
    text = results_csv(cfg, run_sweep(cfg))
    head = [l for l in text.splitlines() if l.startswith("#")]
    joined = "\n".join(head)
    for key in ("cfar_pfa", "noise_figure_db", "technique", "n_bands",
                "density", "host_type"):
        assert f"# {key}=" in joined
    # provenance: the versions the results were computed with
    for key, version in (("mirs", mirs.__version__),
                         ("numpy", np.__version__),
                         ("scipy", scipy.__version__)):
        assert f"# {key}_version={version}" in head


# results_csv of one TF-coded config and one row with a NaN SNR, byte for
# byte but for the three installed versions
PINNED_CSV = """\
# cfar_guard=2
# cfar_pfa=0.0001
# cfar_train=8
# density=low
# duration=10.0
# host_type=LRR
# jitter_bound=2e-06
# label=pinned
# lpf_gating=True
# mirs_version={mirs}
# n_bands=64
# n_dwells=2
# n_seeds=2
# n_slots=6
# noise_figure_db=12.0
# numpy_version={numpy}
# penetration_rates=0.0,1.0
# scenario_file=
# scipy_version={scipy}
# seed=0
# sync_jitter=0.0
# target_range=0.0
# target_rcs_dbsm=10.0
# technique=time_frequency_coding
# tf_frame_rate=15.0
# topology=front
# window=hann
scenario_label,topology,host_radar_type,technique,penetration_rate,seed,n_dwells,pd,mean_noise_floor_db,mean_target_snr_db
low,front,LRR,time_frequency_coding,1.0,1,2,0.5,-120.25,nan
"""


def test_csv_pins_every_config_field():
    cfg = RunConfig(label="pinned", plan=MitigationPlan(
        technique=Technique.TIME_FREQUENCY_CODING, n_bands=64, n_slots=6),
        penetration_rates=(0.0, 1.0), n_seeds=2, n_dwells=2, workers=2,
        output_dir="elsewhere")
    row = SweepResult(scenario_label="low", topology="front",
                      host_radar_type="LRR", technique="time_frequency_coding",
                      penetration_rate=1.0, seed=1, n_dwells=2, pd=0.5,
                      mean_noise_floor_db=-120.25, mean_target_snr_db=math.nan)
    text = results_csv(cfg, [row])
    assert text == PINNED_CSV.format(mirs=mirs.__version__,
                                     numpy=np.__version__,
                                     scipy=scipy.__version__)
    keys = {l[2:].split("=")[0] for l in text.splitlines() if l.startswith("#")}
    assert keys == ({f.name for f in fields(RunConfig)}
                    - {"plan", "workers", "output_dir"}
                    | {f.name for f in fields(MitigationPlan)}
                    | {"mirs_version", "numpy_version", "scipy_version"})


def test_layouts():
    ch = chamber_layout(30, 7.0)
    assert len(ch) == 30
    assert all(x == 7.0 for x, _ in ch)
    assert all(abs(math.degrees(math.atan2(y, x))) < 15.0 for x, y in ch)
    fl = field_layout()
    assert len(fl) == 15
    assert sorted({x for x, _ in fl}) == [5.0, 10.0, 15.0]


def test_anechoic_analog_quick_monotone():
    floors = run_anechoic_analog(n_interferers=4, counts=(0, 2, 4),
                                 n_seeds=1, n_dwells=2, seed=0)
    assert set(floors) == {0, 2, 4}
    assert floors[2] >= floors[0]
    assert floors[4] >= floors[2]
    with pytest.raises(ConfigurationError):
        run_anechoic_analog(n_interferers=4, counts=(0, 9), n_seeds=1,
                            n_dwells=1)


def test_anechoic_counts_share_dwells_exactly():
    # counts share each dwell's noise and emitters; every floor must equal
    # that of a run with its count alone
    kw = dict(n_interferers=30, n_seeds=2, n_dwells=2, seed=3)
    alone = {c: run_anechoic_analog(counts=(c,), **kw)[c] for c in (0, 5, 15, 30)}
    assert run_anechoic_analog(counts=(0, 5, 15, 30), **kw) == alone
    got = run_anechoic_analog(counts=(30, 0, 5), **kw)
    assert list(got) == [30, 0, 5]
    assert got == {c: alone[c] for c in (30, 0, 5)}
    got = run_anechoic_analog(counts=(5, 0, 5, 30, 0), **kw)
    assert list(got) == [5, 0, 30]
    assert got == {c: alone[c] for c in (5, 0, 30)}


@pytest.mark.parametrize("counts", [(0, 2.5), (0, True), (False, 2), (0, "2"),
                                    (0, 2.0)])
def test_anechoic_rejects_counts_that_are_not_integers(monkeypatch, counts):
    def no_dwell(*args, **kwargs):
        raise AssertionError("a chamber dwell was built")
    monkeypatch.setattr("mirs.harness.chamber_cubes", no_dwell)
    with pytest.raises(ConfigurationError, match="counts must be integers"):
        run_anechoic_analog(n_interferers=4, counts=counts, n_seeds=1,
                            n_dwells=1)


def test_dump_maps_files_and_round_trip(tmp_path):
    paths = dump_maps(str(tmp_path), n_interferers=2)
    assert len(paths) == 6
    names = {os.path.basename(p) for p in paths}
    assert names == {"time_chirp_clean.bin", "range_chirp_clean.bin",
                     "range_doppler_clean.bin", "time_chirp_interf.bin",
                     "range_chirp_interf.bin", "range_doppler_interf.bin"}
    for p in paths:
        assert os.path.exists(p) and os.path.exists(p + ".hdr")
        mat = read_cube(p)
        assert mat.size > 0
        assert np.all(np.isfinite(mat))
    # the clean time-chirp matrix carries no interference stripes
    clean = np.abs(read_cube(os.path.join(tmp_path, "time_chirp_clean.bin"))) ** 2
    assert vertical_stripes(clean).size == 0


def test_dump_maps_io_error():
    with pytest.raises(ConfigurationError):
        dump_maps("/proc/nonexistent/unwritable")


def test_penetration_grid_default():
    assert PENETRATION_GRID == (0.0, 0.1, 0.25, 0.5, 0.75, 1.0)
    assert RunConfig().penetration_rates == PENETRATION_GRID


def test_radar_a_profile_numbers():
    assert RADAR_A.pri == pytest.approx(27.4e-6)
    assert RADAR_A.slope == pytest.approx(26e12)
    assert RADAR_A.chirp_duration == pytest.approx(18.88e-6)
    assert RADAR_A.carrier == pytest.approx(76.889e9)
    assert RADAR_A.n_chirps == 512
    assert RADAR_A.fps == 15.0
