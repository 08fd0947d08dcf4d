"""Batch experiment driver: penetration sweeps over the 27-cell scene matrix,
chamber/field noise-rise analogs, and diagnostic map dumps.

Everything is keyed off one integer run seed; per-seed, per-rate and per-dwell
randomness comes from SeedSequence substreams so results are independent of
execution order and worker count.
"""
from __future__ import annotations

import concurrent.futures
import csv
import enum
import io
import math
import numbers
import os
import re
import typing
from dataclasses import astuple, dataclass, fields, is_dataclass, replace

import numpy as np
import scipy
from scipy.constants import c as C0

from . import __version__
from .errors import ConfigurationError
from .metrics import SweepResult, probability_of_detection, stable_mean
from .mitigation import (MitigationPlan, Technique, apply_technique,
                         cross_pol_factor, dither_breaks_pri, tf_slot_need)
from .processing import (WINDOWS, ca_cfar, noise_floor, range_chirp,
                         range_doppler, target_detected, target_exclusion_cells,
                         target_snr_db, zero_doppler_bin)
from .propagation import (PATH_KINDS, PathKind, echo_power, one_way_gain,
                          paths, vehicle_rects)
from .scenario import (CAR_SIZE, CLOCK_DRIFT_PPM, Scenario, Topology, advance,
                       assign_penetration, generate_highway, install_radars,
                       load_scenario, radar_layout)
from .synthesis import (Emitter, TargetEcho, ThermalModel, add_emitters,
                        can_beat_in_band, chirp_times_in_window,
                        host_chirp_times, synthesize_dwell, write_cube)
from .waveform import (DEFAULT_ADC_RATE_HZ, WAVEFORM_RANGES, RadarType,
                       WaveformConfig, apply_clock_drift, sample_waveform)

# rng substream tags (arbitrary distinct constants)
SCEN_TAG = 0x5C3E
PEN_TAG = 0x9E4A
TECH_TAG = 0x7EC4
NOISE_TAG = 0x401E
CHAMBER_TAG = 0xA4EC

PENETRATION_GRID = (0.0, 0.1, 0.25, 0.5, 0.75, 1.0)

DENSITY_ORDER = ("low", "medium", "high")
TOPOLOGY_ORDER = (Topology.FRONT, Topology.PARTIAL, Topology.FULL)
HOST_ORDER = (RadarType.SBZA, RadarType.SRR, RadarType.LRR)

# Chamber host profile ("Radar A"): 27.4 us PRI, 26 MHz/us slope, 18.88 us
# chirps at 76.889 GHz, 512 chirps per frame at 15 fps.
RADAR_A = WaveformConfig(
    pri=27.4e-6, slope=26e12, chirp_duration=18.88e-6, carrier=76.889e9,
    n_chirps=512, fps=15.0, n_elements=12, tx_power=10 ** (10 / 10.0) * 1e-3,
    element_gain=10 ** (14 / 10.0), adc_rate=25e6)

# Effective receiver noise level of the chamber host.  The experiment reports
# only relative floor rises, so the absolute scale (receiver noise figure,
# front-end losses, interferer duty alignment) is folded into one calibrated
# constant: 15 field-layout interferers raise the floor by about 6 dB and the
# chamber counts 5/15/30 track the 2.5/5/8 dB progression.
RADAR_A_NOISE_FIGURE_DB = 50.6
RADAR_A_NOISE = ThermalModel(noise_figure_db=RADAR_A_NOISE_FIGURE_DB)

DEFAULT_NOISE_FIGURE_DB = 12.0

# Reference-target range per host radar class: near the class's maximum
# operating range while keeping the beat tone inside the IF passband for
# every slope draw of that class.
HOST_TARGET_RANGE = {RadarType.LRR: 300.0, RadarType.SRR: 110.0,
                     RadarType.SBZA: 92.0}


def _check_at_least(checks):
    """Reject the first (name, value, least) of `checks` with value < least."""
    for name, value, least in checks:
        if value < least:
            raise ConfigurationError(f"{name} must be >= {least}")


def table2_cells():
    """The 27 (density, topology, host type) scene-matrix cells in row order."""
    return [(d, t, h) for d in DENSITY_ORDER for t in TOPOLOGY_ORDER
            for h in HOST_ORDER]


@dataclass(frozen=True)
class RunConfig:
    label: str = "run"
    density: str = "low"
    topology: Topology = Topology.FRONT
    host_type: RadarType = RadarType.LRR
    plan: MitigationPlan = MitigationPlan()
    penetration_rates: tuple[float, ...] = PENETRATION_GRID
    n_seeds: int = 1
    seed: int = 0
    duration: float = 10.0
    n_dwells: int = 0                 # 0 = as many dwells as fit the duration
    target_range: float = 0.0         # 0 = per-host-type default
    target_rcs_dbsm: float = 10.0
    noise_figure_db: float = DEFAULT_NOISE_FIGURE_DB
    window: str = "hann"
    lpf_gating: bool = True
    cfar_guard: int = 2
    cfar_train: int = 8
    cfar_pfa: float = 1e-4
    workers: int = 1
    output_dir: str = "out"
    scenario_file: str = ""           # explicit scene instead of a density draw

    def __post_init__(self):
        rates = tuple(self.penetration_rates)
        object.__setattr__(self, "penetration_rates", rates)
        if not rates:
            raise ConfigurationError("penetration_rates must not be empty")
        if list(rates) != sorted(rates) or any(not 0 <= r <= 1 for r in rates):
            raise ConfigurationError("penetration rates must be sorted within [0, 1]")
        _check_at_least((name, getattr(self, name), least) for name, least in (
            ("n_seeds", 1), ("seed", 0), ("n_dwells", 0), ("workers", 1),
            ("cfar_guard", 0), ("cfar_train", 4)))
        if not self.duration > 0.0:
            raise ConfigurationError("duration must be > 0")
        if self.target_range != 0.0 and not self.target_range >= 1.0:
            raise ConfigurationError("target_range must be 0 (the host "
                                     "type's default) or >= 1 m")
        if not 0.0 < self.cfar_pfa < 1.0:
            raise ConfigurationError("cfar_pfa must be in (0, 1)")
        if self.window not in WINDOWS:
            raise ConfigurationError(f"unknown window: {self.window}")
        if not self.scenario_file:
            if self.density not in DENSITY_ORDER:
                raise ConfigurationError(f"unknown density: {self.density}")
            if self.host_type not in HOST_TARGET_RANGE:
                raise ConfigurationError(f"{self.host_type.value} cannot be a host radar")
            # reference-target beat at the host class's steepest drifted slope
            r = self.target_range or HOST_TARGET_RANGE[self.host_type]
            slope = WAVEFORM_RANGES[self.host_type]["slope"][1]
            if 2.0 * r * slope * (1 + CLOCK_DRIFT_PPM * 1e-6) / C0 > DEFAULT_ADC_RATE_HZ:
                raise ConfigurationError(f"target_range {r:g} m: beat above the IF band")
        if self.plan.technique is Technique.TIME_FREQUENCY_CODING:
            self._check_tf_plan()
        if self.plan.technique is Technique.TIME_DITHERING:
            self._check_dither_plan()

    def _radar_types(self):
        """The radar classes of a generated scene: the host's and the
        topology's."""
        return {self.host_type} | {t for t, _, _ in
                                   radar_layout(self.topology, *CAR_SIZE)}

    def _check_dither_plan(self):
        """Reject a negative jitter bound and, for a generated scene, one
        longer than the gap a radar of one of its classes can leave between
        a chirp's end and the next PRI (pri at its minimum, chirp_duration
        at its maximum), with WaveformConfig's tolerance."""
        bound = self.plan.jitter_bound
        if bound < 0.0:
            raise ConfigurationError("jitter_bound must be >= 0")
        if self.scenario_file:   # apply_time_dithering checks each radar
            return
        gaps = [(WAVEFORM_RANGES[t]["pri"][0],
                 WAVEFORM_RANGES[t]["chirp_duration"][1])
                for t in self._radar_types()]
        broken = [pri - cd for pri, cd in gaps
                  if dither_breaks_pri(bound, cd, pri)]
        if broken:
            raise ConfigurationError(
                f"time_dithering jitter_bound {bound * 1e6:.4g} us is longer "
                f"than the {min(broken) * 1e6:.4g} us a chirp can leave in its PRI")

    def _check_tf_plan(self):
        """Reject an empty TF-coding grid and, for a generated scene, a slot
        shorter than `tf_slot_need` of the longest dwell any of its radars
        can draw: n_chirps and pri at the range maxima, the worst clock
        drift and a start offset of one PRI."""
        p = self.plan
        for name, least in (("n_bands", 1), ("n_slots", 1)):
            if getattr(p, name) < least:
                raise ConfigurationError(f"{name} must be >= {least}")
        if not p.tf_frame_rate > 0.0:
            raise ConfigurationError("tf_frame_rate must be > 0")
        if p.sync_jitter < 0.0:
            raise ConfigurationError("sync_jitter must be >= 0")
        if self.scenario_file:   # apply_time_frequency_coding checks each radar
            return

        worst = max(tf_slot_need(w["n_chirps"][1], w["pri"][1], -CLOCK_DRIFT_PPM,
                                 w["pri"][1], p.sync_jitter)
                    for w in map(WAVEFORM_RANGES.get, self._radar_types()))
        slot = 1.0 / (p.tf_frame_rate * p.n_slots)
        if slot < worst:
            raise ConfigurationError(
                f"time_frequency_coding slot {slot * 1e3:.4g} ms is shorter "
                f"than the longest dwell {worst * 1e3:.4g} ms")

    def metadata(self) -> dict:
        """Every field but `plan`, `workers` and `output_dir`, and every plan
        field, as text: an enum as its value, a tuple as its elements'
        reprs joined by commas, anything else as `str` (a float's repr)."""
        values = [(f.name, getattr(self, f.name)) for f in fields(self)
                  if f.name not in ("plan", "workers", "output_dir")]
        values += [(f.name, getattr(self.plan, f.name)) for f in fields(self.plan)]
        return {name: v.value if isinstance(v, enum.Enum)
                else ",".join(map(repr, v)) if isinstance(v, tuple) else str(v)
                for name, v in values}


def preset_config(index: int, **overrides) -> RunConfig:
    """RunConfig for scene-matrix cell `index` (0..26)."""
    cells = table2_cells()
    if not 0 <= index < len(cells):
        raise ConfigurationError("preset index out of range")
    d, t, h = cells[index]
    base = dict(label=f"cell{index:02d}_{d}_{t.value}_{h.value}",
                density=d, topology=t, host_type=h)
    base.update(overrides)
    return RunConfig(**base)


def output_dir(default: str) -> str:
    """The MIRS_OUTPUT_DIR environment variable if set, else `default`."""
    return os.environ.get("MIRS_OUTPUT_DIR", default)


def _check_value(name: str, value, kind: type):
    """Reject a config value that is not a `kind`: a finite int or float
    (a bool is neither), a bool or a str."""
    if kind in (int, float):
        ok = (not isinstance(value, bool)
              and isinstance(value, numbers.Integral if kind is int
                             else numbers.Real)
              and math.isfinite(value))
    else:
        ok = isinstance(value, kind)
    if not ok:
        raise ConfigurationError(f"bad config value: {name}: "
                                 f"{value!r} is not a valid {kind.__name__}")


def _read_fields(cls, d) -> dict:
    """The mapping `d` with each of `cls`'s fields it names read by the
    field's type hint: an int, float, bool or str checked, an enum built
    from its value, a tuple built and each element checked, a dataclass
    built from its own mapping the same way; other keys are left for `cls`
    to reject."""
    d = dict(d or {})
    for name, kind in typing.get_type_hints(cls).items():
        if name not in d:
            continue
        if kind in (int, float, bool, str):
            _check_value(name, d[name], kind)
        elif isinstance(kind, enum.EnumMeta):
            d[name] = kind(d[name])
        elif typing.get_origin(kind) is tuple:
            d[name] = tuple(d[name])
            for v in d[name]:
                _check_value(name, v, typing.get_args(kind)[0])
        elif is_dataclass(kind):
            d[name] = kind(**_read_fields(kind, d[name]))
    return d


def config_from_dict(d: dict) -> RunConfig:
    """Build a RunConfig from plain config-file keys (flat key-value plus an
    optional nested `plan` section and a `preset` index)."""
    try:
        d = dict(d)
        preset = d.pop("preset", None)
        if "technique" in d:  # the flat key carries command-line overrides
            d["plan"] = {**dict(d.get("plan") or {}),
                         "technique": d.pop("technique")}
        d = _read_fields(RunConfig, d)
        if preset is not None:
            _check_value("preset", preset, int)
            return preset_config(preset, **d)
        return RunConfig(**d)
    except ConfigurationError:
        raise
    except TypeError as e:
        raise ConfigurationError(f"bad config key: {e}")
    except ValueError as e:   # an unknown enum value
        raise ConfigurationError(f"bad config value: {e}")


def load_config(path=None, **overrides) -> RunConfig:
    """RunConfig from a YAML config file (none: defaults only); keyword
    overrides win over the file's keys."""
    doc = {}
    if path:
        import yaml

        class Loader(yaml.SafeLoader):
            """YAML 1.1 reads an exponent without a dot or a sign (1e-4,
            1.5e3) as a string; read it as a float, as YAML 1.2 does."""
        Loader.add_implicit_resolver(
            "tag:yaml.org,2002:float",
            re.compile(r"^[-+]?(?:[0-9][0-9_]*(?:\.[0-9_]*)?|\.[0-9][0-9_]*)"
                       r"[eE][-+]?[0-9]+$"),
            list("-+0123456789."))
        with open(path) as f:
            try:
                doc = yaml.load(f, Loader) or {}
            except yaml.YAMLError as e:
                raise ConfigurationError(f"bad config file {path}: "
                                         + " ".join(str(e).split()))
        if not isinstance(doc, dict):
            raise ConfigurationError(f"bad config file {path}: not a mapping "
                                     "of keys to values")
    doc.update(overrides)
    return config_from_dict(doc)


# ---------------------------------------------------------------------------
# scene preparation

def build_scene(cfg: RunConfig, seed_index: int) -> Scenario:
    """Draw the scene and install radars; independent of rate and technique."""
    rng = np.random.default_rng(
        np.random.SeedSequence([cfg.seed, seed_index, SCEN_TAG]))
    if cfg.scenario_file:
        return load_scenario(cfg.scenario_file)
    t_range = cfg.target_range or HOST_TARGET_RANGE[cfg.host_type]
    scen = generate_highway(cfg.density, rng=rng, duration=cfg.duration,
                            target_rcs_dbsm=cfg.target_rcs_dbsm,
                            target_range=t_range)
    return install_radars(scen, cfg.topology, cfg.host_type, rng)


def prepare_scene(cfg: RunConfig, seed_index: int, rate: float,
                  scene: Scenario = None) -> Scenario:
    """The scene of one (seed, rate) cell: penetration and technique applied
    to `scene`, which is build_scene(cfg, seed_index) and is built here when
    not given."""
    scen = scene if scene is not None else build_scene(cfg, seed_index)
    rng_p = np.random.default_rng(np.random.SeedSequence(
        [cfg.seed, seed_index, PEN_TAG, int(round(rate * 1000))]))
    scen = assign_penetration(scen, rate, rng_p)
    tech_idx = list(Technique).index(cfg.plan.technique)
    rng_t = np.random.default_rng(
        np.random.SeedSequence([cfg.seed, seed_index, TECH_TAG, tech_idx]))
    return apply_technique(scen, cfg.plan, rng_t)


def dwell_schedule(cfg: RunConfig, scen: Scenario):
    """(n_dwells, frame_period) for the host radar of a prepared scene."""
    row = scen.host_row
    slot = scen.tf_slot(row)
    frame_p = slot[3] if slot else 1.0 / scen.radars["fps"][row].item()
    n_max = max(1, int(scen.duration / frame_p))
    n = min(cfg.n_dwells, n_max) if cfg.n_dwells > 0 else n_max
    return n, frame_p


# ---------------------------------------------------------------------------
# single dwell

@dataclass(frozen=True)
class DwellResult:
    detected: bool
    floor_db: float
    target_snr_db: float
    n_emitters: int = 0


# one row per interferer radar of a snapshot, built afresh for every dwell
RADAR_ROW = np.dtype([("vehicle", np.intp), ("radar", np.intp)] + [
    (f, float) for f in ("x", "y", "bore", "fov", "gain", "carrier", "slope",
                         "chirp_duration")])


def build_emitters(snap: Scenario, host_pos, host_bore, host_row: int,
                   host_wf: WaveformConfig, t0: float, t1: float,
                   seed_key) -> list:
    """One Emitter per interferer radar and unblocked, in-sector propagation
    path, in (vehicle, radar, path kind) order, at the host radar (row
    `host_row` of the radar table, drifted waveform `host_wf`)."""
    v, r = snap.vehicles, snap.radars
    rows = np.flatnonzero(r["vehicle"] != snap.host)
    if not rows.size:
        return []
    # the clock-drift products of apply_clock_drift
    f = 1.0 + r["drift_ppm"][rows] * 1e-6
    table = np.rec.fromarrays(
        (r["vehicle"][rows], rows, *snap.radar_poses(rows),
         r["fov_halfwidth"][rows],
         r["n_elements"][rows] * r["element_gain"][rows],
         r["carrier"][rows] * f, r["slope"][rows] * f,
         r["chirp_duration"][rows] / f), dtype=RADAR_ROW)
    tx = table[can_beat_in_band(host_wf, table)]
    p = paths(tx, host_pos, host_bore, r["fov_halfwidth"][host_row],
              snap.host, vehicle_rects(v), snap.geometry)
    gains = one_way_gain(p, tx, host_wf.rx_gain)
    live = p[~p.blocked]
    out = []
    last = -1
    for row, kind, length, g in zip(
            tx.radar[live.row].tolist(), live.kind.tolist(),
            live.length.tolist(), gains.tolist()):
        if g <= 0.0:
            continue
        kind = PATH_KINDS[kind]
        delay = length / C0
        if row != last:       # the radar's first path sets its chirp window
            last = row
            key = (int(v["id"][r["vehicle"][row]]), int(r["index"][row]))
            wf_i = snap.waveform(row)
            times = chirp_times_in_window(
                wf_i, t0 - delay, t1 - delay, tf_slot=snap.tf_slot(row),
                dither_bound=r["dither_bound"][row].item(),
                dither_seed=tuple(seed_key) + key)
        if times.size == 0:
            continue
        g *= cross_pol_factor(r["polarization"][row],
                              r["polarization"][host_row],
                              reflected=kind is not PathKind.DIRECT)
        out.append(Emitter(
            waveform=wf_i, amplitude=math.sqrt(wf_i.tx_power * g),
            chirp_times=times + delay, key=key + (kind.value,)))
    return out


def simulate_dwell(cfg: RunConfig, scen: Scenario, seed_index: int,
                   dwell_index: int, frame_p: float,
                   shared: dict = None) -> DwellResult:
    """One host dwell of a prepared scene.

    `shared`, if given, is shared by the scenes of one (cfg, seed_index) at
    this dwell index, so by the dwells of one noise stream.  It holds the
    scaled noise cube (synthesize_dwell's `noise_cache`) and the
    interference-free results, keyed on all else such a dwell is computed
    from: the host's drifted waveform (chirp count, slope, ADC rate), the
    target's echo power and its range.  A dwell whose emitter list is empty
    returns the result stored under its key, or computes and stores it.
    """
    snap = advance(scen, dwell_index * frame_p)
    r, row = snap.radars, snap.host_row
    x, y, host_bore = (a.item() for a in snap.radar_poses(row))
    host_pos = (x, y)
    host_wf = snap.waveform(row)

    host_times = host_chirp_times(
        host_wf, dwell_index, tf_slot=snap.tf_slot(row),
        dither_bound=r["dither_bound"][row].item(),
        dither_seed=(cfg.seed, seed_index, snap.host_vehicle_id,
                     snap.host_radar_index))

    # reference target rides along with the host (zero radial speed), placed
    # on the host radar's boresight so every host class can see it
    tgt = snap.reference_target
    tgt_range = math.hypot(*tgt.position)
    tgt_pos = (host_pos[0] + tgt_range * math.cos(host_bore),
               host_pos[1] + tgt_range * math.sin(host_bore))
    p_echo = echo_power(host_wf, r["fov_halfwidth"][row], host_pos, host_bore,
                        tgt_pos, tgt.rcs)
    targets = [TargetEcho(power=p_echo, range_m=tgt_range)] if p_echo > 0 else []

    t0, t1 = host_times[0], host_times[-1] + host_wf.chirp_duration
    emitters = build_emitters(snap, host_pos, host_bore, row, host_wf, t0, t1,
                              (cfg.seed, seed_index))
    key = None
    if shared is not None and not emitters:
        key = ("clean", host_wf, p_echo, tgt_range)
        if key in shared:
            return shared[key]

    noise = ThermalModel(noise_figure_db=cfg.noise_figure_db)
    noise_rng = np.random.default_rng(np.random.SeedSequence(
        [cfg.seed, seed_index, NOISE_TAG, dwell_index]))
    cube = synthesize_dwell(host_wf, host_times, targets, emitters, noise,
                            noise_rng, lpf_gating=cfg.lpf_gating,
                            noise_cache=shared)

    rd = range_doppler(cube, window=cfg.window)
    f_b = 2.0 * tgt_range * host_wf.slope / C0
    rb = int(round(f_b / (host_wf.adc_rate / cube.shape[0])))
    db = zero_doppler_bin(rd)
    excl = target_exclusion_cells(rd, rb, db)
    floor = noise_floor(rd, exclusion=excl)
    dets = ca_cfar(rd, rb, db, guard=cfg.cfar_guard, train=cfg.cfar_train,
                   pfa=cfg.cfar_pfa)
    hit = bool(targets) and target_detected(dets, rb, db, rd.shape[1])
    snr = target_snr_db(rd, rb, db, floor) if targets else float("nan")
    result = DwellResult(detected=hit, floor_db=floor, target_snr_db=snr,
                         n_emitters=len(emitters))
    if key is not None:
        shared[key] = result
    return result


# ---------------------------------------------------------------------------
# sweep

def run_cells(cfg: RunConfig, seed_index: int, rates,
              scene: Scenario = None) -> list:
    """The (seed, rate) cells of `rates`, on `scene` (built here when not
    given), dwell-major: every rate's scene is prepared first, then each
    dwell index runs at every rate with one simulate_dwell `shared` dict, so
    the dwell's noise is drawn once and each interference-free dwell
    computed once for all of them."""
    scene = scene if scene is not None else build_scene(cfg, seed_index)
    scens = [prepare_scene(cfg, seed_index, r, scene) for r in rates]
    plans = [dwell_schedule(cfg, s) for s in scens]
    dwells = [[] for _ in rates]
    for d in range(max(n for n, _ in plans)):
        shared = {} if len(rates) > 1 else None
        for scen, (n, frame_p), out in zip(scens, plans, dwells):
            if d < n:
                out.append(simulate_dwell(cfg, scen, seed_index, d, frame_p,
                                          shared))
    return [SweepResult(
        scenario_label=cfg.density, topology=cfg.topology.value,
        host_radar_type=cfg.host_type.value,
        technique=cfg.plan.technique.value, penetration_rate=rate,
        pd=probability_of_detection(r.detected for r in out),
        mean_noise_floor_db=stable_mean(r.floor_db for r in out),
        mean_target_snr_db=stable_mean(r.target_snr_db for r in out),
        n_dwells=len(out), seed=seed_index) for rate, out in zip(rates, dwells)]


def run_cell(cfg: RunConfig, seed_index: int, rate: float,
             scene: Scenario = None) -> SweepResult:
    """One (seed, rate) cell: run_cells of the one rate."""
    return run_cells(cfg, seed_index, (rate,), scene)[0]


def _rates_per_task(n_seeds: int, n_rates: int, workers: int) -> int:
    """How many of a seed's rates one pool task runs on one build of the
    seed's scene: the most that keeps the busiest worker's share, counted in
    cells with every task's cells dealt out evenly, as low as one cell per
    task would."""
    def busiest(k):
        return math.ceil(n_seeds * math.ceil(n_rates / k) / workers) * k
    return min(range(n_rates, 0, -1), key=busiest, default=1)


def _seed_task(args):
    """Some rates of one seed: run_cells of (cfg, seed_index, rates)."""
    return run_cells(*args)


def run_sweep(cfg: RunConfig, csv_path: str = None):
    """All (seed, rate) cells of one config; returns SweepResults seed-major,
    rate-minor and optionally writes them as one CSV.  Each pool task runs
    `_rates_per_task` of one seed's rates on one build of its scene."""
    rates = cfg.penetration_rates
    k = _rates_per_task(cfg.n_seeds, len(rates), cfg.workers)
    tasks = [(cfg, s, rates[i:i + k]) for s in range(cfg.n_seeds)
             for i in range(0, len(rates), k)]
    workers = min(cfg.workers, len(tasks))
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(workers) as pool:
            per_task = list(pool.map(_seed_task, tasks))
    else:
        per_task = map(_seed_task, tasks)
    results = [r for rows in per_task for r in rows]
    if csv_path is not None:
        text = results_csv(cfg, results)
        os.makedirs(os.path.dirname(csv_path) or ".", exist_ok=True)
        with open(csv_path, "w", newline="") as f:
            f.write(text)
    return results


def results_csv(cfg: RunConfig, results) -> str:
    """The sweep CSV: the config and the mirs, numpy and scipy versions as
    `# key=value` lines, then one row per result."""
    buf = io.StringIO()
    md = {**cfg.metadata(), "mirs_version": __version__,
          "numpy_version": np.__version__, "scipy_version": scipy.__version__}
    for k in sorted(md):
        buf.write(f"# {k}={md[k]}\n")
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(f.name for f in fields(SweepResult))
    w.writerows(map(astuple, results))
    return buf.getvalue()


def read_results_csv(path):
    with open(path) as f:
        return list(csv.DictReader(l for l in f if not l.startswith("#")))


def report(csv_paths, out_path=None) -> str:
    """Aggregate sweep CSVs into a per-(technique, rate) mean-PD table."""
    acc = {}
    for path in csv_paths:
        for row in read_results_csv(path):
            try:
                key = (row["technique"], float(row["penetration_rate"]))
                pd = float(row["pd"])
            except KeyError as e:
                raise ConfigurationError(
                    f"{path} is not a sweep CSV: it has no {e} column")
            acc.setdefault(key, []).append(pd)
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(("technique", "penetration_rate", "mean_pd", "n_cells"))
    for (tech, rate) in sorted(acc):
        vals = acc[(tech, rate)]
        w.writerow((tech, repr(rate), repr(stable_mean(vals)), len(vals)))
    text = buf.getvalue()
    if out_path is not None:
        with open(out_path, "w", newline="") as f:
            f.write(text)
    return text


# ---------------------------------------------------------------------------
# chamber / field noise-rise analogs (free space, direct paths only)

def chamber_layout(n: int = 30, distance: float = 7.0):
    """n interferers fanned out `distance` ahead of the host, all inside a
    long-range FOV, each aimed straight back at the host."""
    ys = np.linspace(-1.5, 1.5, n) if n > 1 else np.zeros(1)
    return [(distance, float(y)) for y in ys]


def field_layout(per_array: int = 5, distances=(5.0, 10.0, 15.0)):
    """Arrays of `per_array` interferers at the given down-range distances."""
    out = []
    for d in distances:
        ys = np.linspace(-0.6, 0.6, per_array)
        out.extend((d, float(y)) for y in ys)
    return out


def _chamber_interferer(rng: np.random.Generator) -> WaveformConfig:
    """A USRR interferer waveform with its carrier pinned within 50 MHz of
    the chamber host's, for worst-case overlap."""
    wf = sample_waveform(RadarType.USRR, rng, interferer_ok=True)
    return replace(wf, carrier=RADAR_A.carrier + rng.uniform(-50e6, 50e6))


def _free_space_rx(wf_i: WaveformConfig, pos) -> float:
    """Direct-path receive power from an aimed interferer at `pos`; the
    RADAR_A host sits at the origin looking along +x with a 15 degree FOV
    half-width."""
    L = math.hypot(*pos)
    ang = math.atan2(pos[1], pos[0])
    if abs(ang) > math.radians(15.0):
        return 0.0
    lam = C0 / wf_i.carrier
    return (wf_i.tx_power * wf_i.rx_gain * RADAR_A.rx_gain
            * (lam / (4 * math.pi * L)) ** 2)


def chamber_cubes(specs, counts, seed: int, seed_index: int,
                  dwell_index: int):
    """Free-space chamber dwell cubes of the RADAR_A host: for each count c
    of the ascending `counts`, (c, the cube with one interferer per
    (waveform, position) of specs[:c]).

    All counts share the dwell's noise draw and emitters: the one running
    cube gains each count's new interferers in place, so a yielded cube is
    valid only until the next one is asked for.
    """
    host_times = host_chirp_times(RADAR_A, dwell_index)
    t0, t1 = host_times[0], host_times[-1] + RADAR_A.chirp_duration
    emitters = []   # one per spec, None where it cannot beat in band
    for wf, pos in specs[:counts[-1]]:
        p_rx = _free_space_rx(wf, pos)
        if p_rx <= 0.0 or not can_beat_in_band(RADAR_A, wf):
            emitters.append(None)
            continue
        delay = math.hypot(*pos) / C0
        times = chirp_times_in_window(wf, t0 - delay, t1 - delay)
        emitters.append(Emitter(waveform=wf, amplitude=math.sqrt(p_rx),
                                chirp_times=times + delay))
    cube, done = None, 0
    for count in counts:
        new = [em for em in emitters[done:count] if em is not None]
        if cube is None:
            noise_rng = np.random.default_rng(np.random.SeedSequence(
                [seed, seed_index, NOISE_TAG, dwell_index]))
            cube = synthesize_dwell(RADAR_A, host_times, [], new,
                                    RADAR_A_NOISE, noise_rng)
        else:
            add_emitters(cube, RADAR_A, host_times, new)
        done = count
        yield count, cube


def run_anechoic_analog(n_interferers: int = 30, layout=None, counts=None,
                        n_seeds: int = 10, n_dwells: int = 50, seed: int = 0):
    """Mean noise floor of the RADAR_A host versus number of active co-band
    USRR interferers, free space.

    Interferers activate in layout order; returns {count: mean floor dB} in
    the order of `counts`.
    """
    _check_at_least((("n_interferers", n_interferers, 0),
                     ("n_seeds", n_seeds, 1), ("n_dwells", n_dwells, 1),
                     ("seed", seed, 0)))
    layout = layout if layout is not None else chamber_layout(n_interferers)
    if len(layout) < n_interferers:
        raise ConfigurationError("layout smaller than n_interferers")
    if counts is None:
        counts = sorted({0, n_interferers} | set(range(0, n_interferers + 1, 5)))
    if any(isinstance(c, bool) or not isinstance(c, (int, np.integer))
           for c in counts):
        raise ConfigurationError(f"counts must be integers: {tuple(counts)}")
    if not counts or min(counts) < 0 or max(counts) > n_interferers:
        raise ConfigurationError(f"counts must lie in [0, {n_interferers}]")

    per_dwell = {count: [] for count in counts}
    ascending = sorted(per_dwell)
    for s in range(n_seeds):
        rng = np.random.default_rng(
            np.random.SeedSequence([seed, s, CHAMBER_TAG]))
        specs = []
        for pos in layout[:ascending[-1]]:
            wf = _chamber_interferer(rng)
            drift = rng.uniform(-20.0, 20.0)
            specs.append((apply_clock_drift(wf, drift), pos))
        for d in range(n_dwells):
            for count, cube in chamber_cubes(specs, ascending, seed, s, d):
                rd = range_doppler(cube)
                per_dwell[count].append(10 ** (noise_floor(rd) / 10.0))
    return {count: 10.0 * math.log10(stable_mean(p))
            for count, p in per_dwell.items()}


# ---------------------------------------------------------------------------
# diagnostic map dumps

def dump_maps(outdir, n_interferers: int = 5, dwell_index: int = 0,
              seed: int = 0):
    """Write time-chirp, range-chirp and range-Doppler matrices with and
    without interference (six binary files plus headers) for one chamber
    dwell.  Returns the file paths."""
    _check_at_least((("n_interferers", n_interferers, 0),
                     ("dwell_index", dwell_index, 0), ("seed", seed, 0)))
    try:
        os.makedirs(outdir, exist_ok=True)
    except OSError as e:
        raise ConfigurationError(f"map dump failed for {outdir}: {e}")
    # The dumps draw their own interferers from seed index 0 without clock
    # drift, unlike the analog: drifted draws would change every dump file.
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0, CHAMBER_TAG]))
    specs = [(_chamber_interferer(rng), pos)
             for pos in chamber_layout(n_interferers)]
    written = []
    cubes = chamber_cubes(specs, (0, n_interferers), seed, 0, dwell_index)
    for tag, (count, cube) in zip(("clean", "interf"), cubes):
        mats = (("time_chirp", cube), ("range_chirp", range_chirp(cube)),
                ("range_doppler", range_doppler(cube)))
        for name, mat in mats:
            path = os.path.join(outdir, f"{name}_{tag}.bin")
            try:
                write_cube(path, mat, RADAR_A.adc_rate,
                           header_extra={"stage": name, "interferers": count,
                                         "dwell_index": dwell_index,
                                         "seed": seed})
            except OSError as e:
                raise ConfigurationError(f"map dump failed for {path}: {e}")
            written.append(path)
    return written
