"""CLI entry-point tests driven through main(argv)."""
import json
import os

import pytest

from mirs.cli import main
from mirs.scenario import load_scenario


def test_generate_scenario(tmp_path, capsys):
    out = tmp_path / "scene.json"
    rc = main(["generate-scenario", "--density", "low", "--topology", "front",
               "--host-type", "LRR", "--seed", "3", "--out", str(out)])
    assert rc == 0
    s = load_scenario(out)
    assert s.vehicles["id"].size == 49
    assert "wrote" in capsys.readouterr().out


def test_sweep_writes_csv(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    rc = main(["sweep", "--density", "low", "--topology", "front",
               "--host-type", "LRR", "--n-seeds", "1", "--n-dwells", "2",
               "--rates", "0.0,1.0", "--out", str(out)])
    assert rc == 0
    text = out.read_text()
    assert text.count("\n") > 3
    assert "penetration_rate" in text


def test_sweep_config_file_with_cli_override(tmp_path):
    cfg = tmp_path / "c.yaml"
    cfg.write_text("density: low\ntopology: front\nhost_type: LRR\n"
                   "n_seeds: 1\nn_dwells: 2\npenetration_rates: [0.0]\n"
                   "label: from_file\n")
    out = tmp_path / "o.csv"
    rc = main(["sweep", "--config", str(cfg), "--label", "cli_wins",
               "--out", str(out)])
    assert rc == 0
    assert "# label=cli_wins" in out.read_text()


def test_output_dir_env_override(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("MIRS_OUTPUT_DIR", str(tmp_path / "envout"))
    rc = main(["sweep", "--density", "low", "--topology", "front",
               "--host-type", "LRR", "--n-seeds", "1", "--n-dwells", "1",
               "--rates", "0.0", "--label", "envtest"])
    assert rc == 0
    assert os.path.exists(tmp_path / "envout" / "envtest.csv")


def test_anechoic_json(tmp_path, capsys):
    out = tmp_path / "curve.json"
    rc = main(["anechoic", "--n-interferers", "2", "--counts", "0,2",
               "--n-seeds", "1", "--n-dwells", "1", "--out", str(out)])
    assert rc == 0
    curve = json.load(open(out))
    assert curve["0"] == 0.0
    assert curve["2"] >= 0.0
    assert "interferers" in capsys.readouterr().out


def test_dump_maps_and_report(tmp_path, capsys):
    rc = main(["dump-maps", "--n-interferers", "1",
               "--output-dir", str(tmp_path / "maps")])
    assert rc == 0
    assert len(os.listdir(tmp_path / "maps")) == 12  # 6 bins + 6 headers

    csvp = tmp_path / "s.csv"
    main(["sweep", "--density", "low", "--topology", "front", "--host-type",
          "LRR", "--n-seeds", "1", "--n-dwells", "1", "--rates", "0.0",
          "--out", str(csvp)])
    rep = tmp_path / "rep.csv"
    rc = main(["report", str(csvp), "--out", str(rep)])
    assert rc == 0
    assert "mean_pd" in rep.read_text()


def test_error_exit_code(tmp_path, capsys):
    rc = main(["report", str(tmp_path / "missing.csv")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_preset_flag(tmp_path):
    out = tmp_path / "p.csv"
    rc = main(["sweep", "--preset", "0", "--n-seeds", "1", "--n-dwells", "1",
               "--rates", "0.0", "--out", str(out)])
    assert rc == 0
    assert "# host_type=SBZA" in out.read_text()


def test_technique_flag_wins_over_nested_plan(tmp_path):
    cfg = tmp_path / "c.yaml"
    cfg.write_text("density: low\ntopology: front\nhost_type: LRR\n"
                   "n_seeds: 1\nn_dwells: 1\npenetration_rates: [0.0]\n"
                   "plan: {technique: time_dithering}\n")
    out = tmp_path / "o.csv"
    rc = main(["sweep", "--config", str(cfg), "--technique", "none",
               "--out", str(out)])
    assert rc == 0
    assert "# technique=none" in out.read_text()


def test_exponent_without_dot_is_a_number(tmp_path):
    # YAML 1.1 reads an exponent without a dot or a sign as a string
    cfg = tmp_path / "c.yaml"
    cfg.write_text("density: low\ntopology: front\nhost_type: LRR\n"
                   "n_seeds: 1\nn_dwells: 1\npenetration_rates: [0, 1e-1]\n"
                   "cfar_pfa: 1e-4\nnoise_figure_db: 1e1\n"
                   "target_rcs_dbsm: 1.5e1\n")
    out = tmp_path / "o.csv"
    rc = main(["sweep", "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    text = out.read_text()
    assert "# cfar_pfa=0.0001\n" in text
    assert "# noise_figure_db=10.0\n" in text
    assert "# target_rcs_dbsm=15.0\n" in text
    assert "# penetration_rates=0,0.1\n" in text


@pytest.mark.parametrize("text, why", [
    ("host_type: LRR\ntarget_range: 450\n", "above the IF band"),
    ("window: kaiser\n", "unknown window: kaiser"),
    ("host_type: USRR\n", "USRR cannot be a host radar"),
    ("topology: ring\n", "'ring' is not a valid Topology"),
    ("host_type: XYZ\n", "'XYZ' is not a valid RadarType"),
    ("plan: {technique: foo}\n", "'foo' is not a valid Technique"),
    ("n_dwells: -1\n", "n_dwells must be >= 0"),
    ("workers: 0\n", "workers must be >= 1"),
    ("cfar_guard: -3\n", "cfar_guard must be >= 0"),
    ("cfar_train: 2\n", "cfar_train must be >= 4"),
    ("cfar_pfa: 0.0\n", "cfar_pfa must be in (0, 1)"),
    ("cfar_pfa: 1.0\n", "cfar_pfa must be in (0, 1)"),
    ("cfar_pfa: abc\n",
     "bad config value: cfar_pfa: 'abc' is not a valid float"),
    ("n_seeds: 1e1\n", "bad config value: n_seeds: 10.0 is not a valid int"),
    ("noise_figure_db: nan\n",
     "bad config value: noise_figure_db: 'nan' is not a valid float"),
    ("duration: .inf\n", "bad config value: duration: inf is not a valid float"),
    ("penetration_rates: [0, abc]\n",
     "bad config value: penetration_rates: 'abc' is not a valid float"),
    ("penetration_rates: []\n", "penetration_rates must not be empty"),
    ("plan: {sync_jitter: 2e-x}\n", "bad config value: sync_jitter"),
    ("plan: 3\n", "bad config key"),
    ("plan: {technique: time_frequency_coding, n_slots: 8}\n",
     "time_frequency_coding slot 8.333 ms is shorter than the longest dwell "
     "10.26 ms"),
    ("plan: {technique: time_frequency_coding, n_slots: 6, "
     "tf_frame_rate: 16.26}\n", "slot 10.25 ms is shorter"),
    ("plan: {technique: time_frequency_coding, n_slots: 6, "
     "sync_jitter: 5e-4}\n", "slot 11.11 ms is shorter"),
    ("host_type: SBZA\n"
     "plan: {technique: time_frequency_coding, n_slots: 7}\n",
     "slot 9.524 ms is shorter"),
    ("plan: {technique: time_frequency_coding, n_slots: 0}\n",
     "n_slots must be >= 1"),
    ("plan: {technique: time_frequency_coding, tf_frame_rate: 0.0}\n",
     "tf_frame_rate must be > 0"),
    ("plan: {technique: time_frequency_coding, sync_jitter: -1e-3}\n",
     "sync_jitter must be >= 0"),
    ("plan: {technique: time_dithering, jitter_bound: 2.5e-6}\n",
     "jitter_bound 2.5 us is longer than the 2 us a chirp can leave"),
    ("host_type: SBZA\nplan: {technique: time_dithering, jitter_bound: 1e-3}\n",
     "jitter_bound 1000 us is longer than the 2 us"),
    ("plan: {technique: time_dithering, jitter_bound: -1e-6}\n",
     "jitter_bound must be >= 0"),
    ("seed: -1\n", "seed must be >= 0"),
    ("density: jam\n", "unknown density: jam"),
    ("duration: 0.0\n", "duration must be > 0"),
    ("target_range: -50\n", "target_range must be 0 (the host type's default) or >= 1 m"),
    ("target_range: 1e-20\n", "target_range must be 0"),
    ("- a\n- b\n", "bad.yaml: not a mapping of keys to values"),
    ("density: [unclosed\n", "bad.yaml: while parsing a flow sequence"),
    ("density: low\n  topology: [\n", "bad config file"),
    ("lpf_gating: 'off'\n",
     "bad config value: lpf_gating: 'off' is not a valid bool"),
    ("label: 26\n", "bad config value: label: 26 is not a valid str"),
    ("scenario_file: 0\n",
     "bad config value: scenario_file: 0 is not a valid str"),
    ("preset: 1.7\n", "bad config value: preset: 1.7 is not a valid int"),
    ("preset: true\n", "bad config value: preset: True is not a valid int"),
], ids=["target_beyond_if_band", "unknown_window", "interferer_only_host",
        "unknown_topology", "unknown_host_type", "unknown_technique",
        "negative_n_dwells", "zero_workers", "negative_cfar_guard",
        "short_cfar_train", "zero_cfar_pfa", "unit_cfar_pfa",
        "non_numeric_cfar_pfa", "exponent_n_seeds", "nan_noise_figure",
        "infinite_duration", "non_numeric_rate", "empty_rates",
        "non_numeric_plan_field",
        "plan_not_a_mapping", "tf_slot_too_short", "tf_slot_without_offset",
        "tf_slot_without_sync_jitter", "tf_slot_of_topology_lrr",
        "tf_no_slots", "tf_zero_frame_rate", "tf_negative_sync_jitter",
        "dither_bound_too_large", "dither_bound_of_topology_lrr",
        "dither_negative_bound", "negative_seed", "unknown_density",
        "zero_duration", "negative_target_range", "target_at_the_radar",
        "config_is_a_list", "unclosed_flow_sequence", "bad_indentation",
        "quoted_lpf_gating", "numeric_label", "numeric_scenario_file",
        "fractional_preset", "boolean_preset"])
def test_bad_config_fails_before_any_scene(tmp_path, capsys, monkeypatch, text, why):
    def no_scene(*args, **kwargs):
        raise AssertionError("a scene was built")
    monkeypatch.setattr("mirs.harness.build_scene", no_scene)
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(text)
    rc = main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o.csv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and why in err
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("argv, why", [
    (["generate-scenario", "--seed", "-1", "--out", "scene.json"],
     "seed must be >= 0"),
    (["sweep", "--seed", "-1"], "seed must be >= 0"),
    (["anechoic", "--seed", "-1"], "seed must be >= 0"),
    (["dump-maps", "--seed", "-1"], "seed must be >= 0"),
    (["anechoic", "--counts", "0,-5"], "counts must lie in [0, 30]"),
    (["anechoic", "--counts", "5"], "--counts must include 0, the baseline"),
    (["anechoic", "--counts", "0,five"], "bad --counts: '0,five'"),
    (["anechoic", "--n-seeds", "0"], "n_seeds must be >= 1"),
    (["anechoic", "--n-dwells", "0"], "n_dwells must be >= 1"),
    (["anechoic", "--n-interferers", "-1"], "n_interferers must be >= 0"),
    (["dump-maps", "--n-interferers", "-3"], "n_interferers must be >= 0"),
    (["dump-maps", "--dwell-index", "-2"], "dwell_index must be >= 0"),
    (["sweep", "--rates", "a,b"], "bad --rates: 'a,b'"),
    (["generate-scenario", "--rates", "0,,1", "--out", "scene.json"],
     "bad --rates: '0,,1'"),
], ids=["generate_scenario_negative_seed", "sweep_negative_seed",
        "anechoic_negative_seed", "dump_maps_negative_seed",
        "anechoic_negative_count", "anechoic_no_baseline",
        "anechoic_non_numeric_count", "anechoic_no_seeds", "anechoic_no_dwells",
        "anechoic_negative_interferers", "dump_maps_negative_interferers",
        "dump_maps_negative_dwell", "sweep_non_numeric_rates",
        "generate_scenario_empty_rate"])
def test_bad_argument_fails_before_any_dwell(tmp_path, capsys, monkeypatch,
                                             argv, why):
    def no_dwell(*args, **kwargs):
        raise AssertionError("a scene or a chamber dwell was built")
    monkeypatch.setattr("mirs.harness.build_scene", no_dwell)
    monkeypatch.setattr("mirs.harness.chamber_cubes", no_dwell)
    monkeypatch.setenv("MIRS_OUTPUT_DIR", str(tmp_path / "out"))
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and why in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert os.listdir(tmp_path) == []


def test_tf_coding_64x6_at_15hz_runs(tmp_path):
    # slot 11.1 ms against a longest LRR dwell of about 10.3 ms
    cfg = tmp_path / "tf.yaml"
    cfg.write_text("density: medium\ntopology: full\nhost_type: LRR\n"
                   "n_seeds: 1\nn_dwells: 1\npenetration_rates: [0.0, 1.0]\n"
                   "plan: {technique: time_frequency_coding, n_bands: 64, "
                   "n_slots: 6, tf_frame_rate: 15.0}\n")
    out = tmp_path / "o.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    assert "# n_slots=6\n" in out.read_text()


@pytest.mark.parametrize("host", ["SBZA", "SRR", "LRR"])
def test_default_dither_bound_runs(tmp_path, host):
    # the default 2 us equals the LRR and SRR gap between chirp end and PRI
    cfg = tmp_path / "dither.yaml"
    cfg.write_text(f"topology: full\nhost_type: {host}\nn_seeds: 1\n"
                   "n_dwells: 1\npenetration_rates: [1.0]\n"
                   "plan: {technique: time_dithering}\n")
    out = tmp_path / "o.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    assert "# jitter_bound=2e-06\n" in out.read_text()


def test_tf_slot_of_a_scenario_file_is_checked_per_radar(tmp_path, capsys):
    scene = tmp_path / "scene.json"
    assert main(["generate-scenario", "--density", "low", "--topology",
                 "front", "--host-type", "LRR", "--out", str(scene)]) == 0
    cfg = tmp_path / "tf.yaml"
    cfg.write_text(f"scenario_file: {scene}\nn_dwells: 1\n"
                   "plan: {technique: time_frequency_coding, n_slots: 20}\n")
    capsys.readouterr()
    rc = main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o.csv")])
    assert rc == 1
    assert capsys.readouterr().err == "error: dwell does not fit the time slot\n"


def test_report_of_a_csv_that_is_not_a_sweep_fails(tmp_path, capsys):
    other = tmp_path / "other.csv"
    other.write_text("a,b\n1,2\n")
    assert main(["report", str(other)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {other} is not a sweep CSV: it has no " \
                  "'technique' column\n"


# (waveform or drift field, value, message) per WaveformConfig check and the
# clock-drift bound; the edited radar is vehicle 1's front LRR, whose pri is
# 18-20 us, slope 9-11 MHz/us and fps 25-30
SCENE_EDITS = [
    ("tx_power", 0.0, "waveform fields must be strictly positive"),
    ("fps", -25.0, "waveform fields must be strictly positive"),
    ("chirp_duration", 25e-6, "chirp_duration must fit inside the PRI"),
    ("slope", 300e12, "sweep exceeds the 4 GHz band"),
    ("n_chirps", 5000, "dwell does not fit inside a frame"),
    ("drift_ppm", 150.0, "clock drift limited to +/-100 ppm"),
    ("drift_ppm", -100.5, "clock drift limited to +/-100 ppm"),
]


@pytest.mark.parametrize("field, value, why", SCENE_EDITS,
                         ids=[f"{f}={v:g}" for f, v, _ in SCENE_EDITS])
def test_bad_radar_of_a_scenario_file_fails_before_any_dwell(
        tmp_path, capsys, monkeypatch, field, value, why):
    scene = tmp_path / "scene.json"
    assert main(["generate-scenario", "--density", "low", "--topology",
                 "front", "--host-type", "LRR", "--out", str(scene)]) == 0
    d = json.loads(scene.read_text())
    radar = d["vehicles"][1]["radars"][0]
    if field == "drift_ppm":
        radar[field] = value
    else:
        radar["waveform"][field] = value
    scene.write_text(json.dumps(d))

    def no_dwell(*args, **kwargs):
        raise AssertionError("a dwell was simulated")
    monkeypatch.setattr("mirs.harness.simulate_dwell", no_dwell)
    cfg = tmp_path / "c.yaml"
    cfg.write_text(f"scenario_file: {scene}\nn_dwells: 1\n")
    capsys.readouterr()
    rc = main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o.csv")])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {why}\n"


def _drop_dither_bound(d):
    del d["vehicles"][1]["radars"][0]["dither_bound"]
    return json.dumps(d)


def _unknown_geometry_key(d):
    d["geometry"]["lanes"] = 4
    return json.dumps(d)


def _truncated(d):
    text = json.dumps(d)
    return text[:len(text) // 2]


def _edit(**top):
    return lambda d: json.dumps({**d, **top})


@pytest.mark.parametrize("edit, why", [
    (_drop_dither_bound, ": missing key 'dither_bound'"),
    (_unknown_geometry_key, ": unknown geometry key 'lanes'"),
    (_truncated, " is not valid JSON: "),
    (_edit(host_vehicle_id=-7), ": host_vehicle_id names no vehicle"),
    (_edit(host_radar_index=1), ": host_radar_index is not one of the host's "
                                "1 radars"),
    (_edit(duration="10 s"), ": duration must be a positive number"),
], ids=["missing_dither_bound", "unknown_geometry_key", "truncated_json",
        "unknown_host_vehicle", "host_radar_index_out_of_range",
        "duration_not_a_number"])
def test_malformed_scenario_file_fails_before_any_dwell(
        tmp_path, capsys, monkeypatch, edit, why):
    scene = tmp_path / "scene.json"
    assert main(["generate-scenario", "--density", "low", "--topology",
                 "front", "--host-type", "LRR", "--out", str(scene)]) == 0
    scene.write_text(edit(json.loads(scene.read_text())))

    def no_dwell(*args, **kwargs):
        raise AssertionError("a dwell was simulated")
    monkeypatch.setattr("mirs.harness.simulate_dwell", no_dwell)
    cfg = tmp_path / "c.yaml"
    cfg.write_text(f"scenario_file: {scene}\nn_dwells: 1\n")
    capsys.readouterr()
    rc = main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o.csv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {scene}{why}")
    assert err.count("\n") == 1 and "Traceback" not in err
