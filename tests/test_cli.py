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
    assert len(s.vehicles) == 49
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
], ids=["target_beyond_if_band", "unknown_window", "interferer_only_host",
        "unknown_topology", "unknown_host_type", "unknown_technique",
        "negative_n_dwells", "zero_workers", "negative_cfar_guard",
        "short_cfar_train", "zero_cfar_pfa", "unit_cfar_pfa",
        "non_numeric_cfar_pfa", "exponent_n_seeds", "nan_noise_figure",
        "infinite_duration", "non_numeric_rate", "non_numeric_plan_field",
        "plan_not_a_mapping", "tf_slot_too_short", "tf_slot_without_offset",
        "tf_slot_without_sync_jitter", "tf_slot_of_topology_lrr",
        "tf_no_slots", "tf_zero_frame_rate", "tf_negative_sync_jitter"])
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
