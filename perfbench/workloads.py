"""The benchmark's three workloads, their correctness checks and fingerprints.

Every workload is a closed loop in one process: the next unit of work starts
when the previous one returns.  A unit is a *cell*:

* ``highway_dense``: one (seed, rate) scene, prepared with ``prepare_scene``
  and then simulated dwell by dwell with ``simulate_dwell``, as ``run_cell``
  does.
* ``chamber_30``: one ``run_anechoic_analog(counts=(30,), ...)`` call (the
  function behind ``mirs anechoic``) with its own chamber seed.
* ``sweep_rates``: one whole ``run_sweep`` at ``workers=1``; every cell of a
  run reruns the same sweep, so reruns can be compared byte for byte.  Its
  penetration-0 cells carry the interference-free checks.

The benchmark runs cells in steps of ``Workload.step`` until its time budget
is spent, and always runs the first step: the fingerprint is taken over it, so
it covers the same work however fast the program is.
"""
from __future__ import annotations

import concurrent.futures
import hashlib
import math
import multiprocessing
import os
import statistics
import sys
import traceback
from dataclasses import dataclass, field, replace
from time import perf_counter

from scipy.constants import k as K_B

from mirs import harness as H
from mirs.metrics import probability_of_detection, stable_mean
from mirs.mitigation import MitigationPlan, Technique
from mirs.scenario import Topology
from mirs.waveform import DEFAULT_ADC_RATE_HZ, RadarType

from tracing import Recorder

WORKERS = 2                 # pool size for the scaling measurement
SEED_STRIDE = 1000          # run seeds per benchmark seed
T0_KELVIN = 290.0           # reference temperature of the analytic floor


def thermal_median_db(noise_figure_db: float, adc_rate: float) -> float:
    """Analytic median RD-map noise level 10 log10(k T f_s NF ln 2).

    Per-cell power of complex Gaussian noise is exponential with mean
    k T f_s NF (the map is normalized to the per-sample noise power), and the
    median of an exponential is ln 2 times its mean.
    """
    p = K_B * T0_KELVIN * adc_rate * 10 ** (noise_figure_db / 10.0)
    return 10.0 * math.log10(p * math.log(2.0))


@dataclass
class Pass:
    """What one in-process pass over a list of cells produced."""
    cells: list = field(default_factory=list)
    dwell_s: list = field(default_factory=list)     # per dwell
    setup_s: list = field(default_factory=list)     # per scene preparation
    cell_s: list = field(default_factory=list)      # per completed cell
    outputs: list = field(default_factory=list)     # per cell: [(detected, floor_db)]
    emitters: list = field(default_factory=list)    # per dwell, where reported
    results: list = field(default_factory=list)     # per cell: entry-point output
    attempted: int = 0                              # dwells attempted
    failed: int = 0                                 # dwells lost to an error
    wall: float = 0.0

    def extend(self, other: "Pass"):
        for name in ("cells", "dwell_s", "setup_s", "cell_s", "outputs",
                     "emitters", "results"):
            getattr(self, name).extend(getattr(other, name))
        self.attempted += other.attempted
        self.failed += other.failed
        self.wall += other.wall

    def add_cell(self, outputs, dwell_s, emitters=()):
        self.outputs.append(list(outputs))
        self.dwell_s.extend(dwell_s)
        self.emitters.extend(emitters)


class Workload:
    name = ""
    dwells_per_cell = 1
    step = WORKERS      # cells run together: whole pairs split evenly on the pool
    pool_check = "workers_2_reproduce_workers_1"

    def probe(self) -> Recorder:
        """Recorder installed for the length of every pass."""
        return Recorder()

    def run_cell(self, seed: int, cell: int, p: Pass, rec: Recorder):
        raise NotImplementedError

    def run_pool(self, seed: int, cells) -> tuple:
        """(wall seconds, per-cell results) of the same cells at WORKERS."""
        raise NotImplementedError

    def pool_matches(self, p: Pass, results) -> bool:
        return results == p.results

    def checks(self, p: Pass) -> list:
        """[(name, ok, detail)] on the outputs of an untraced pass."""
        return []

    def run_pass(self, seed: int, cells) -> Pass:
        """Run `cells` in-process, at workers=1."""
        p = Pass()
        t0 = perf_counter()
        with self.probe() as rec:
            for cell in cells:
                p.attempted += self.dwells_per_cell
                n_before = len(p.dwell_s)
                try:
                    self.run_cell(seed, cell, p, rec)
                except Exception:
                    traceback.print_exc(file=sys.stderr)
                    p.failed += self.dwells_per_cell - (len(p.dwell_s) - n_before)
                p.cells.append(cell)
        p.wall = perf_counter() - t0
        return p


class SceneWorkload(Workload):
    """Dwells of prepared highway scenes, driven dwell by dwell.

    The cells of one step are seed indices 0..step-1 of their own run seed,
    so that run_sweep can rerun exactly that step.
    """

    def __init__(self, name, cfg, dwells):
        self.name = name
        self.cfg = replace(cfg, label=name, n_dwells=dwells)
        self.rate = cfg.penetration_rates[0]
        self.dwells_per_cell = dwells

    def run_seed(self, seed, cell):
        if not 0 <= cell < SEED_STRIDE * self.step:
            raise ValueError("too many cells for one benchmark seed")
        return SEED_STRIDE * seed + cell // self.step

    def run_cell(self, seed, cell, p, rec):
        cfg = replace(self.cfg, seed=self.run_seed(seed, cell))
        index = cell % self.step
        t0 = perf_counter()
        scen = H.prepare_scene(cfg, index, self.rate)
        t1 = perf_counter()
        n, frame_p = H.dwell_schedule(cfg, scen)
        outs, times, emitters = [], [], []
        for d in range(n):
            ta = perf_counter()
            r = H.simulate_dwell(cfg, scen, index, d, frame_p)
            times.append(perf_counter() - ta)
            outs.append((r.detected, r.floor_db))
            emitters.append(r.n_emitters)
        p.add_cell(outs, times, emitters)
        p.setup_s.append(t1 - t0)
        p.cell_s.append(perf_counter() - t0)

    def run_pool(self, seed, cells):
        first = cells[0] - cells[0] % self.step
        if list(cells) != list(range(first, first + self.step)):
            raise ValueError("run_sweep reruns one whole step")
        cfg = replace(self.cfg, seed=self.run_seed(seed, first),
                      n_seeds=self.step, workers=WORKERS)
        t0 = perf_counter()
        results = H.run_sweep(cfg)
        return perf_counter() - t0, results

    def pool_matches(self, p, results):
        want = [(probability_of_detection(d for d, _ in outs),
                 stable_mean(f for _, f in outs)) for outs in p.outputs]
        got = [(r.pd, r.mean_noise_floor_db) for r in results]
        return got == want


def chamber_cell(chamber_seed: int, n_dwells: int) -> float:
    """Mean floor (dB) of one 30-interferer RADAR_A chamber seed."""
    return H.run_anechoic_analog(counts=(30,), n_seeds=1, n_dwells=n_dwells,
                                 seed=chamber_seed)[30]


class ChamberWorkload(Workload):
    """RADAR_A chamber analog with 30 co-band interferers in free space."""

    name = "chamber_30"
    rise_band_db = (6.5, 9.5)      # acceptance criterion 6 at 30 interferers

    def __init__(self, dwells):
        self.dwells_per_cell = dwells

    def chamber_seed(self, seed, cell):
        if not 0 <= cell < SEED_STRIDE:
            raise ValueError("too many chamber cells for one benchmark seed")
        return SEED_STRIDE * seed + cell

    def probe(self):
        # run_anechoic_analog returns only the mean floor; the floor call that
        # ends each dwell marks the dwell's end and carries its output
        rec = Recorder()
        rec.record(H, "noise_floor")
        return rec

    def run_cell(self, seed, cell, p, rec):
        t0 = perf_counter()
        floor = chamber_cell(self.chamber_seed(seed, cell), self.dwells_per_cell)
        t1 = perf_counter()
        calls = rec.take("noise_floor")
        if len(calls) != self.dwells_per_cell:
            raise RuntimeError(f"expected {self.dwells_per_cell} noise_floor "
                               f"calls in a chamber cell, saw {len(calls)}")
        prev, times = t0, []
        for _, end, _ in calls:
            times.append(end - prev)
            prev = end
        p.add_cell([(None, f) for _, _, f in calls], times)
        p.cell_s.append(t1 - t0)
        p.results.append(floor)

    def run_pool(self, seed, cells):
        seeds = [self.chamber_seed(seed, c) for c in cells]
        # Fork, as run_sweep's own pool does, so scaling_eff_w2 measures the
        # same mechanism on every workload; this process runs no threads.
        ctx = multiprocessing.get_context("fork")
        t0 = perf_counter()
        with concurrent.futures.ProcessPoolExecutor(WORKERS, mp_context=ctx) as pool:
            results = list(pool.map(chamber_cell, seeds,
                                    [self.dwells_per_cell] * len(seeds)))
        return perf_counter() - t0, results

    def checks(self, p):
        floors = [f for outs in p.outputs for _, f in outs]
        mean_db = 10.0 * math.log10(stable_mean(10 ** (f / 10.0) for f in floors))
        rise = mean_db - thermal_median_db(H.RADAR_A_NOISE_FIGURE_DB,
                                           H.RADAR_A.adc_rate)
        lo, hi = self.rise_band_db
        return [("chamber_rise_in_criterion_6_band", lo <= rise <= hi,
                 f"rise {rise:.3f} dB over the analytic thermal median "
                 f"({len(floors)} dwells; band {lo}-{hi} dB)")]


class SweepWorkload(Workload):
    """A six-rate TF-coding sweep through run_sweep.

    Its pool is run_sweep's own, over the sweep's (seed, rate) cells.  Every
    benchmark cell reruns the same sweep, at workers=1 and again at
    workers=2: criterion 12 wants the CSV byte-identical across reruns and
    worker counts.
    """

    name = "sweep_rates"
    pool_check = "sweep_csv_identical_across_reruns_and_workers"
    min_pd = 0.95                  # acceptance criterion 10A, penetration 0
    floor_tolerance_db = 0.2

    def __init__(self, workdir, n_seeds, dwells):
        self.workdir = workdir
        self.cfg = H.RunConfig(
            label=self.name, density="medium", topology=Topology.FULL,
            host_type=RadarType.LRR,
            plan=MitigationPlan(technique=Technique.TIME_FREQUENCY_CODING,
                                n_bands=64, n_slots=6),
            penetration_rates=H.PENETRATION_GRID, n_seeds=n_seeds,
            n_dwells=dwells)
        self.dwells_per_cell = n_seeds * len(H.PENETRATION_GRID) * dwells

    def probe(self):
        rec = Recorder()
        rec.record(H, "prepare_scene")
        rec.record(H, "simulate_dwell")
        return rec

    def _sweep(self, seed, workers, tag):
        path = os.path.join(self.workdir, f"{self.name}_{tag}.csv")
        t0 = perf_counter()
        H.run_sweep(replace(self.cfg, seed=seed, workers=workers), path)
        wall = perf_counter() - t0
        with open(path, "rb") as f:
            return wall, f.read()

    def run_cell(self, seed, cell, p, rec):
        wall, csv_bytes = self._sweep(seed, 1, f"w1_{cell}")
        p.setup_s.extend(end - start for start, end, _ in rec.take("prepare_scene"))
        dwells = rec.take("simulate_dwell")
        p.add_cell([(r.detected, r.floor_db) for _, _, r in dwells],
                   [end - start for start, end, _ in dwells],
                   [r.n_emitters for _, _, r in dwells])
        p.cell_s.append(wall)
        p.results.append(csv_bytes)

    def run_pool(self, seed, cells):
        walls, results = [], []
        for c in cells:
            wall, csv_bytes = self._sweep(seed, WORKERS, f"w2_{c}")
            walls.append(wall)
            results.append(csv_bytes)
        return sum(walls), results

    def pool_matches(self, p, results):
        return len(set(results) | set(p.results)) == 1

    def checks(self, p):
        """Interference-free checks on the penetration-0 dwells of the first
        sweep; run_cell visits seeds, then rates, then dwells in order."""
        rates = self.cfg.penetration_rates
        k0 = rates.index(0.0)
        n_dwells = self.cfg.n_dwells
        clean = [o for i, o in enumerate(p.outputs[0])
                 if (i // n_dwells) % len(rates) == k0]
        pd = probability_of_detection(d for d, _ in clean)
        median = statistics.median(f for _, f in clean)
        ref = thermal_median_db(self.cfg.noise_figure_db, DEFAULT_ADC_RATE_HZ)
        return [
            ("pd_at_least_%g_at_penetration_0" % self.min_pd, pd >= self.min_pd,
             f"PD {pd:.4f} over {len(clean)} dwells"),
            ("floor_within_%g_db_of_thermal" % self.floor_tolerance_db,
             abs(median - ref) <= self.floor_tolerance_db,
             f"median floor {median:.3f} dB over {len(clean)} dwells, "
             f"analytic {ref:.3f} dB")]


def make(name: str, workdir: str) -> Workload:
    if name == "highway_dense":
        return SceneWorkload(
            name,
            H.RunConfig(density="high", topology=Topology.FULL,
                        host_type=RadarType.SRR, penetration_rates=(1.0,)),
            dwells=3)
    if name == "chamber_30":
        return ChamberWorkload(dwells=50)
    if name == "sweep_rates":
        return SweepWorkload(workdir, n_seeds=16, dwells=1)
    raise KeyError(name)


NAMES = ("highway_dense", "chamber_30", "sweep_rates")


def fingerprint(wl: Workload, p: Pass, counts=None) -> dict:
    """Rounded simulated statistics and an output digest of the first step.

    A change that only makes the program faster leaves every field equal for
    the same seed (the digest may move in the last bits of a float sum).
    """
    n_cells = min(wl.step, len(p.outputs))
    flat = [o for outs in p.outputs[:n_cells] for o in outs]
    hits = [d for d, _ in flat if d is not None]
    out = {
        "cells": n_cells, "dwells": len(flat),
        "mean_pd": round(sum(hits) / len(hits), 4) if hits else None,
        "mean_floor_db": round(math.fsum(f for _, f in flat) / len(flat), 3)
        if flat else None,
        "emitters_per_dwell": round(sum(p.emitters[:len(flat)]) / len(flat), 3)
        if p.emitters and flat else None,
        "digest": hashlib.sha256(repr(flat).encode()).hexdigest()[:16],
    }
    if counts is not None and flat:
        for key in ("synthesis.emitters", "synthesis.bursts"):
            if key in counts:
                out[key.split(".")[1] + "_per_dwell"] = round(
                    counts[key] / len(flat), 3)
    return out
