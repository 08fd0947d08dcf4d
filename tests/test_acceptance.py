"""End-to-end acceptance gate.

Each test covers one numbered criterion and prints a single PASS line when it
holds; a failed assert marks the criterion FAIL.  The heavier checks reuse
the reduced-scale sampling stated in their budgets (dwell and seed counts in
the test bodies).
"""
import cmath
import math
import os

import numpy as np
import pytest
from scipy.constants import c as C0

from mirs.harness import (RADAR_A, RunConfig, chamber_layout, dump_maps,
                          field_layout, results_csv, run_anechoic_analog,
                          run_cell, run_sweep, table2_cells)
from mirs.metrics import field_equivalent_range, max_range_factor, stable_mean
from mirs.mitigation import MitigationPlan, Technique
from mirs.processing import (detection_mask_ca_cfar, horizontal_bands,
                             vertical_stripes)
from mirs.propagation import CONCRETE_INDEX, fresnel_reflection
from mirs.scenario import Topology
from mirs.synthesis import (Emitter, ThermalModel, read_cube, synthesize_dwell)
from mirs.waveform import RadarType, WaveformConfig


def _verdict(num, desc, ok):
    print(f"\ncriterion {num:2d} {'PASS' if ok else 'FAIL'}: {desc}")
    assert ok, f"criterion {num} failed: {desc}"


# ---------------------------------------------------------------------------
# 1. beat model against an FFT-peak oracle

def test_criterion_01_beat_model_oracle():
    rng = np.random.default_rng(101)
    fs = 25e6
    t_v = 15e-6
    misses = 0
    quiet = ThermalModel(noise_figure_db=0.001)
    for _ in range(1000):
        a_v = rng.uniform(24e12, 28e12)
        delta = rng.uniform(-2e9, 2e9)      # alpha_m, under one bin of sweep
        a_i = a_v - delta
        tau = rng.uniform(0.0, 2e-6)
        f_m = rng.uniform(3e6, 18e6)
        f_v = 76.9e9
        f_i = f_v - (f_m - a_i * tau)

        host = WaveformConfig(pri=20e-6, slope=a_v, chirp_duration=t_v,
                              carrier=f_v, n_chirps=1, fps=15.0, n_elements=1,
                              tx_power=0.01, element_gain=1.0, adc_rate=fs)
        intf = WaveformConfig(pri=20e-6, slope=a_i, chirp_duration=18e-6,
                              carrier=f_i, n_chirps=1, fps=15.0, n_elements=1,
                              tx_power=0.01, element_gain=1.0, adc_rate=fs)
        em = Emitter(waveform=intf, amplitude=1.0,
                     chirp_times=np.array([tau]))
        cube = synthesize_dwell(host, np.array([0.0]), [], [em], quiet,
                                np.random.default_rng(0))
        col = cube[:, 0]
        n_fast = len(col)
        peak = int(np.argmax(np.abs(np.fft.fft(col))))
        lo, hi = tau, n_fast / fs
        t_mid = (lo + hi) / 2.0
        pred = (f_m + delta * t_mid) / (fs / n_fast)
        if abs(peak - pred) > 1.0:
            misses += 1
    _verdict(1, f"range-FFT peak within 1 bin of f_m + alpha_m*t_mid for "
                f"1000 random overlaps ({misses} misses)", misses == 0)


# ---------------------------------------------------------------------------
# 2. Fresnel reflection numerics

def test_criterion_02_fresnel():
    r0 = fresnel_reflection(0.0)
    ok_mag = abs(abs(r0) - 0.4323) < 1e-4
    # the grazing limit converges to -1 linearly in cos(theta); the residual
    # at 89.9 deg is analytically ~9.5e-3 for this index, so the 1e-3 bound
    # is checked at 89.99 deg and the 89.9 deg residual against closed form
    n2 = CONCRETE_INDEX * CONCRETE_INDEX
    th = math.radians(89.9)
    resid = abs(2 * n2 * math.cos(th)
                / (n2 * math.cos(th) + cmath.sqrt(n2 - math.sin(th) ** 2)))
    ok_resid = abs(abs(fresnel_reflection(th) - (-1.0)) - resid) < 1e-9
    ok_limit = abs(fresnel_reflection(math.radians(89.99)) - (-1.0)) < 1e-3
    _verdict(2, "|R(0)| = 0.4323 +/- 1e-4 and grazing limit -> -1",
             ok_mag and ok_resid and ok_limit)


# ---------------------------------------------------------------------------
# 3. fourth-root range scaling

def test_criterion_03_max_range_factor():
    got = max_range_factor(6.5)
    _verdict(3, f"max_range_factor(6.5 dB) = {got:.4f} (31% reduction)",
             abs(got - 0.688) < 1e-3)


# ---------------------------------------------------------------------------
# 4. field-equivalence emulation

def test_criterion_04_field_equivalence():
    ratio = (5.0 / 55.0) ** 2
    got = field_equivalent_range(55.0, ratio, 1.0)
    _verdict(4, "field_equivalent_range(55 m, (5/55)^2) = 5 m exactly",
             abs(got - 5.0) / 5.0 < 1e-12)


# ---------------------------------------------------------------------------
# 5 & 6. anechoic noise-rise analogs

@pytest.fixture(scope="module")
def chamber_floors():
    return run_anechoic_analog(n_interferers=30, layout=chamber_layout(30),
                               counts=(0, 5, 15, 30), n_seeds=10, n_dwells=50,
                               seed=0)


def test_criterion_05_field_rise():
    floors = run_anechoic_analog(n_interferers=15, layout=field_layout(),
                                 counts=(0, 15), n_seeds=10, n_dwells=50,
                                 seed=0)
    rise = floors[15] - floors[0]
    _verdict(5, f"field layout, 15 interferers: rise {rise:.2f} dB "
                f"(target 6.5 +/- 1.5)", 5.0 <= rise <= 8.0)


def test_criterion_06_chamber_progression(chamber_floors):
    f = chamber_floors
    r5, r15, r30 = (f[5] - f[0], f[15] - f[0], f[30] - f[0])
    ok = (1.0 <= r5 <= 4.0 and 3.5 <= r15 <= 6.5 and 6.5 <= r30 <= 9.5
          and r5 < r15 < r30)
    _verdict(6, f"chamber rises 5/15/30 = {r5:.2f}/{r15:.2f}/{r30:.2f} dB "
                f"(target 2.5/5/8 +/- 1.5)", ok)


# ---------------------------------------------------------------------------
# 7. CFAR false-alarm calibration

def test_criterion_07_cfar_pfa():
    rng = np.random.default_rng(2024)
    hits = n = 0
    for _ in range(40):
        power = rng.exponential(1.0, (1024, 256))
        mask = detection_mask_ca_cfar(power, guard=2, train=8, pfa=1e-4)
        hits += int(mask.sum())
        n += mask.size
    pfa = hits / n
    _verdict(7, f"empirical Pfa {pfa:.2e} over {n:.1e} cells "
                f"(x{pfa / 1e-4:.2f} of 1e-4)", 0.5e-4 <= pfa <= 2e-4)


# ---------------------------------------------------------------------------
# 8. fixed threshold vs CA-CFAR under a uniform floor rise

def test_criterion_08_detector_contrast():
    rng = np.random.default_rng(7)
    power = rng.exponential(1.0, (2048, 512))
    lifted = power * 10 ** 0.8
    level = 10 ** (9.64 / 10.0)  # fixed threshold calibrated on unit floor
    fa0 = max(1, int(np.count_nonzero(power > level)))
    fa1 = int(np.count_nonzero(lifted > level))
    cf0 = int(detection_mask_ca_cfar(power).sum())
    cf1 = int(detection_mask_ca_cfar(lifted).sum())
    ok = fa1 >= 100 * fa0 and 0.3 * cf0 <= cf1 <= 3.0 * cf0
    _verdict(8, f"+8 dB floor: fixed FA x{fa1 / fa0:.0f}, CFAR x{cf1 / max(cf0, 1):.2f}",
             ok)


# ---------------------------------------------------------------------------
# 9. mitigation ordering at penetration 1.0

@pytest.mark.slow
def test_criterion_09_mitigation_ordering():
    pd = {}
    for tech in Technique:
        plan = MitigationPlan(technique=tech, n_bands=64, n_slots=6)
        cfg = RunConfig(density="high", topology=Topology.FULL,
                        host_type=RadarType.SRR, plan=plan,
                        penetration_rates=(1.0,), n_seeds=20, n_dwells=25)
        res = run_sweep(cfg)
        pd[tech] = stable_mean(r.pd for r in res)
    tf = pd[Technique.TIME_FREQUENCY_CODING]
    fr = pd[Technique.PREDEFINED_FREQUENCY]
    po = pd[Technique.PREDEFINED_POLARIZATION]
    di = pd[Technique.TIME_DITHERING]
    no = pd[Technique.NONE]
    ok = (tf >= fr >= po >= min(di, no) and abs(di - no) <= 0.05
          and tf >= 0.9)
    _verdict(9, "mean PD ordering tf(%.3f) >= freq(%.3f) >= pol(%.3f) >= "
                "dither(%.3f) ~ none(%.3f)" % (tf, fr, po, di, no), ok)


# ---------------------------------------------------------------------------
# 10. baseline PD bounds and full-topology degradation

@pytest.mark.slow
def test_criterion_10_pd_bounds():
    # part A: interference-free ceiling across the whole scene matrix
    worst = 1.0
    for i, (d, t, h) in enumerate(table2_cells()):
        cfg = RunConfig(density=d, topology=t, host_type=h,
                        penetration_rates=(0.0,), n_seeds=1, n_dwells=20)
        r = run_cell(cfg, 0, 0.0)
        worst = min(worst, r.pd)
    ok_a = worst >= 0.95

    # part B: full-topology degradation at medium/high density, averaged
    # over the six matching cells
    deltas = []
    for d in ("medium", "high"):
        for h in (RadarType.SBZA, RadarType.SRR, RadarType.LRR):
            cfg = RunConfig(density=d, topology=Topology.FULL, host_type=h,
                            penetration_rates=(0.0, 1.0), n_seeds=6,
                            n_dwells=15)
            res = run_sweep(cfg)
            pd0 = stable_mean(r.pd for r in res if r.penetration_rate == 0.0)
            pd1 = stable_mean(r.pd for r in res if r.penetration_rate == 1.0)
            deltas.append(pd0 - pd1)
    mean_delta = stable_mean(deltas)
    _verdict(10, f"pen-0 PD >= 0.95 in all 27 cells (worst {worst:.3f}); "
                 f"full-topology mean degradation {mean_delta:.3f} >= 0.3",
             ok_a and mean_delta >= 0.3)


# ---------------------------------------------------------------------------
# 11. interference map signatures

def test_criterion_11_map_signatures(tmp_path):
    dump_maps(str(tmp_path), n_interferers=5)

    def p(name):
        return np.abs(read_cube(os.path.join(tmp_path, name))) ** 2

    tc_i, tc_c = p("time_chirp_interf.bin"), p("time_chirp_clean.bin")
    rc_i, rc_c = p("range_chirp_interf.bin"), p("range_chirp_clean.bin")
    rd_i, rd_c = p("range_doppler_interf.bin"), p("range_doppler_clean.bin")
    # the interference also raises the overall floor, compressing row
    # contrast in range-Doppler, so the band detector runs at 3 dB there
    ok = (vertical_stripes(tc_i).size >= 1 and vertical_stripes(tc_c).size == 0
          and vertical_stripes(rc_i).size >= 1
          and vertical_stripes(rc_c).size == 0
          and horizontal_bands(rd_i, thresh_db=3.0).size >= 1
          and horizontal_bands(rd_c, thresh_db=3.0).size == 0)
    _verdict(11, "stripes in time-chirp and range-chirp, bands in "
                 "range-Doppler, none in clean dumps", ok)


# ---------------------------------------------------------------------------
# 12. byte-level determinism

def test_criterion_12_determinism():
    base = dict(density="low", topology=Topology.FULL,
                host_type=RadarType.SRR, penetration_rates=(0.0, 0.5, 1.0),
                n_seeds=2, n_dwells=3)
    cfg = RunConfig(**base)
    a = results_csv(cfg, run_sweep(cfg))
    b = results_csv(cfg, run_sweep(cfg))
    cfg_w = RunConfig(**base, workers=2)
    c = results_csv(cfg_w, run_sweep(cfg_w))
    _verdict(12, "sweep CSV byte-identical across reruns and worker counts",
             a == b == c)
