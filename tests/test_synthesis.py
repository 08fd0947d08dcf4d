"""IF cube synthesis: beat model, timing, noise, LPF gating, cube I/O."""
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.constants import c as C0
from scipy.constants import k as K_B

from mirs.errors import ConfigurationError
from mirs.synthesis import (Emitter, TargetEcho, ThermalModel,
                            add_beats, add_emitters, can_beat_in_band,
                            chirp_times_in_window, host_chirp_times,
                            interferer_arrivals, read_cube, synthesize_dwell,
                            write_cube)
from mirs.waveform import WaveformConfig


HOST = WaveformConfig(pri=27.4e-6, slope=26e12, chirp_duration=18.88e-6,
                      carrier=76.889e9, n_chirps=64, fps=15.0, n_elements=12,
                      tx_power=0.01, element_gain=25.0, adc_rate=25e6)


def quiet_noise():
    return ThermalModel(noise_figure_db=0.001)


def beats(host, intf, taus, lpf_gating=True):
    """Fast-time samples add_beats writes into one empty host chirp column."""
    cube = np.zeros((host.n_fast, 1), dtype=complex)
    taus = np.asarray(taus, dtype=float)
    em = Emitter(waveform=intf, amplitude=1.0, chirp_times=np.empty(0))
    add_beats(cube, host, [em], [(np.zeros(taus.size, dtype=int), taus)],
              lpf_gating)
    return cube[:, 0]


def test_add_beats_formula():
    # hand-checkable case: carriers 1 MHz apart, interferer slope puts the
    # beat at f_v - f_i + a_i tau = 13 MHz, sweeping at a_v - a_i = 2 MHz/us
    host = replace(HOST, carrier=77.000e9, slope=10e12, chirp_duration=15e-6)
    intf = replace(HOST, carrier=76.999e9, slope=8e12, chirp_duration=15e-6)
    tau = 1.5e-6
    x = beats(host, intf, [tau], lpf_gating=False)
    t = np.arange(host.n_fast) / host.adc_rate
    f_m, alpha_m = 1e6 + 8e12 * tau, 2e12
    want = np.exp(2j * np.pi * (f_m * t + alpha_m * t ** 2 / 2
                                + 76.999e9 * tau - 8e12 * tau ** 2 / 2))
    on = (t >= tau) & (t <= 15e-6)  # the overlap [tau, T_v]
    assert np.count_nonzero(on) > 300
    assert np.allclose(x[on], want[on], rtol=0, atol=1e-6)
    assert not np.any(x[~on])


def test_add_beats_overlap_bounds():
    wf = replace(HOST, carrier=77e9, slope=10e12, chirp_duration=15e-6)
    # an arrival 20 us early or late misses the 15 us host chirp
    assert not np.any(beats(wf, wf, [20e-6, -20e-6], lpf_gating=False))
    # negative tau with partial overlap fills exactly [0, 10 us]
    x = beats(wf, wf, [-5e-6], lpf_gating=False)
    t = np.arange(wf.n_fast) / wf.adc_rate
    assert np.array_equal(x != 0, t <= 10e-6 * (1 + 1e-12))


def test_can_beat_in_band():
    intf_near = WaveformConfig(pri=27.4e-6, slope=30e12, chirp_duration=16e-6,
                               carrier=76.9e9, n_chirps=64, fps=15.0,
                               n_elements=8, tx_power=0.01, element_gain=10.0,
                               adc_rate=25e6)
    assert can_beat_in_band(HOST, intf_near)
    # a carrier a full GHz away can never reach the 25 MHz passband
    far = WaveformConfig(pri=27.4e-6, slope=30e12, chirp_duration=16e-6,
                         carrier=79.5e9, n_chirps=64, fps=15.0, n_elements=8,
                         tx_power=0.01, element_gain=10.0, adc_rate=25e6)
    assert not can_beat_in_band(HOST, far)
    # one test per element of array-valued fields
    table = np.rec.fromrecords(
        [(w.slope, w.chirp_duration, w.carrier) for w in (intf_near, far)],
        names=("slope", "chirp_duration", "carrier"))
    assert can_beat_in_band(HOST, table).tolist() == [True, False]


def test_synthesized_beat_peak_matches_prediction():
    # single interferer chirp, FFT peak at f_m + alpha_m * t_mid
    # slope mismatch small enough that the beat stays inside one FFT bin
    intf = WaveformConfig(pri=27.4e-6, slope=26e12 - 2e9,
                          chirp_duration=18.88e-6,
                          carrier=HOST.carrier - 4e6, n_chirps=64, fps=15.0,
                          n_elements=8, tx_power=0.01, element_gain=10.0,
                          adc_rate=25e6)
    host_times = host_chirp_times(HOST, 0)
    em = Emitter(waveform=intf, amplitude=1.0,
                 chirp_times=np.array([host_times[0]]))
    cube = synthesize_dwell(HOST, host_times, [], [em], quiet_noise(),
                            np.random.default_rng(0))
    spec = np.abs(np.fft.fft(cube[:, 0])) ** 2
    peak = int(np.argmax(spec))
    tau = 0.0
    f_m = HOST.carrier - intf.carrier + intf.slope * tau
    alpha_m = HOST.slope - intf.slope
    t_mid = HOST.n_fast / HOST.adc_rate / 2.0
    want_bin = (f_m + alpha_m * t_mid) / (HOST.adc_rate / HOST.n_fast)
    assert abs(peak - want_bin) <= 1.0


def test_target_tone_bin_and_power():
    # pick a range whose beat frequency is bin-centered (no scalloping)
    k = 400
    f_b = k * HOST.adc_rate / HOST.n_fast
    r = f_b * C0 / (2.0 * HOST.slope)
    p = 1e-10
    host_times = host_chirp_times(HOST, 0)
    cube = synthesize_dwell(HOST, host_times,
                            [TargetEcho(power=p, range_m=r)], [],
                            quiet_noise(), np.random.default_rng(1))
    col = cube[:, 0]
    spec = np.abs(np.fft.fft(col)) ** 2 / len(col)
    peak = int(np.argmax(spec))
    assert peak == k
    # per-sample tone power equals the echo power
    assert spec[peak] / len(col) == pytest.approx(p, rel=0.05)


def test_noise_power_level():
    noise = ThermalModel(noise_figure_db=12.0)
    want = K_B * 290.0 * 25e6 * 10 ** 1.2
    assert noise.power(25e6) == pytest.approx(want, rel=1e-12)
    host_times = host_chirp_times(HOST, 0)
    cube = synthesize_dwell(HOST, host_times, [], [], noise,
                            np.random.default_rng(2))
    measured = np.mean(np.abs(cube) ** 2)
    assert measured == pytest.approx(want, rel=0.03)
    # real parts are drawn first, then imaginary parts, from the same stream
    rng = np.random.default_rng(2)
    a = rng.standard_normal(cube.shape)
    b = rng.standard_normal(cube.shape)
    scale = math.sqrt(noise.power(25e6) / 2.0)
    assert np.array_equal(cube, scale * (a + 1j * b))


def test_noise_cache_draws_once_per_shape_and_scale():
    host_times = host_chirp_times(HOST, 0)
    tgt = TargetEcho(power=1e-11, range_m=120.0)
    em = Emitter(waveform=replace(HOST, carrier=HOST.carrier - 2e6),
                 amplitude=1e-6, chirp_times=host_times[:8])
    noise = ThermalModel(noise_figure_db=12.0)
    cache = {}
    for targets, emitters in (([tgt], [em]), ([], []), ([tgt], [])):
        want = synthesize_dwell(HOST, host_times, targets, emitters, noise,
                                np.random.default_rng(3))
        # the first call draws from its stream; later calls ignore theirs
        got = synthesize_dwell(HOST, host_times, targets, emitters, noise,
                               np.random.default_rng(7 if cache else 3),
                               noise_cache=cache)
        assert np.array_equal(got, want)
    assert len(cache) == 1
    clean = synthesize_dwell(HOST, host_times, [], [], noise,
                             np.random.default_rng(3))
    assert np.array_equal(next(iter(cache.values())), clean)
    # a cube of another shape or noise level gets its own draw
    for times, nf in ((host_times[:32], 12.0), (host_times, 15.0)):
        got = synthesize_dwell(HOST, times, [], [], ThermalModel(nf),
                               np.random.default_rng(3), noise_cache=cache)
        assert np.array_equal(got, synthesize_dwell(
            HOST, times, [], [], ThermalModel(nf), np.random.default_rng(3)))
    assert len(cache) == 3


def test_superposition_exact_under_shared_noise_seed():
    host_times = host_chirp_times(HOST, 0)
    tgt = TargetEcho(power=1e-11, range_m=120.0)
    intf = WaveformConfig(pri=25e-6, slope=27e12, chirp_duration=16e-6,
                          carrier=HOST.carrier - 2e6, n_chirps=64, fps=15.0,
                          n_elements=8, tx_power=0.01, element_gain=10.0,
                          adc_rate=25e6)
    em = Emitter(waveform=intf, amplitude=1e-6, chirp_times=host_times[:8])
    noise = ThermalModel(noise_figure_db=12.0)

    both = synthesize_dwell(HOST, host_times, [tgt], [em], noise,
                            np.random.default_rng(3))
    only_noise = synthesize_dwell(HOST, host_times, [], [], noise,
                                  np.random.default_rng(3))
    only_tgt = synthesize_dwell(HOST, host_times, [tgt], [], quiet_noise(),
                                np.random.default_rng(4))
    only_intf = synthesize_dwell(HOST, host_times, [], [em], quiet_noise(),
                                 np.random.default_rng(4))
    quiet = only_noise * 0
    # subtract the tiny quiet-noise floor contributions exactly
    q = synthesize_dwell(HOST, host_times, [], [], quiet_noise(),
                         np.random.default_rng(4))
    recon = (only_noise + (only_tgt - q) + (only_intf - q))
    assert np.allclose(both, recon, rtol=0, atol=1e-18)
    del quiet


def test_lpf_gating_only_removes_power():
    # an interferer sweeping through the band: gating keeps a subset
    host_times = host_chirp_times(HOST, 0)
    intf = WaveformConfig(pri=27.4e-6, slope=30e12, chirp_duration=18e-6,
                          carrier=HOST.carrier - 10e6, n_chirps=64, fps=15.0,
                          n_elements=8, tx_power=0.01, element_gain=10.0,
                          adc_rate=25e6)
    em = Emitter(waveform=intf, amplitude=1e-6, chirp_times=host_times[:16])
    gated = synthesize_dwell(HOST, host_times, [], [em], quiet_noise(),
                             np.random.default_rng(5), lpf_gating=True)
    ungated = synthesize_dwell(HOST, host_times, [], [em], quiet_noise(),
                               np.random.default_rng(5), lpf_gating=False)
    pg = np.sum(np.abs(gated) ** 2)
    pu = np.sum(np.abs(ungated) ** 2)
    assert pg <= pu * (1 + 1e-12)
    assert pg < pu  # this geometry clips some samples


def test_inband_sample_selection_brute_force():
    # add_beats' gating window equals a per-sample instantaneous frequency
    # test
    fs = HOST.adc_rate
    n_fast = HOST.n_fast
    for f_m, alpha_m in ((-5e6, 3e12), (30e6, -4e12), (5e6, 0.0), (-40e6, 0.0)):
        # tau = 0 against an equally long chirp: the whole record overlaps
        intf = replace(HOST, carrier=HOST.carrier - f_m,
                       slope=HOST.slope - alpha_m)
        got = np.abs(beats(HOST, intf, [0.0])) > 0.5
        t = np.arange(n_fast) / fs
        f_inst = f_m + alpha_m * t
        want = (f_inst >= -1e-3) & (f_inst <= fs + 1e-3)
        # boundary samples may differ by the ceil/floor epsilon; allow 2 cells
        assert np.count_nonzero(got != want) <= 2


def test_amplitude_quadruples_power():
    host_times = host_chirp_times(HOST, 0)
    intf = WaveformConfig(pri=25e-6, slope=27e12, chirp_duration=16e-6,
                          carrier=HOST.carrier - 2e6, n_chirps=64, fps=15.0,
                          n_elements=8, tx_power=0.01, element_gain=10.0,
                          adc_rate=25e6)
    p = []
    for a in (1e-6, 2e-6):
        em = Emitter(waveform=intf, amplitude=a, chirp_times=host_times[:8])
        c = synthesize_dwell(HOST, host_times, [], [em], quiet_noise(),
                             np.random.default_rng(6))
        q = synthesize_dwell(HOST, host_times, [], [], quiet_noise(),
                             np.random.default_rng(6))
        p.append(np.sum(np.abs(c - q) ** 2))
    assert p[1] / p[0] == pytest.approx(4.0, rel=1e-9)


def test_chirp_times_in_window_grid_and_dither():
    wf = WaveformConfig(pri=25e-6, slope=27e12, chirp_duration=16e-6,
                        carrier=78e9, n_chirps=16, fps=20.0, n_elements=8,
                        tx_power=0.01, element_gain=10.0, adc_rate=25e6,
                        start_offset=5e-6)
    t = chirp_times_in_window(wf, 0.0, 0.2)
    # 4 frames of 16 chirps fit in 0.2 s at 20 fps
    assert t.size == 64
    frames = np.floor((t - 5e-6) / (1.0 / 20.0) + 1e-9)
    assert set(frames) == {0.0, 1.0, 2.0, 3.0}
    # within a frame, spacing is the PRI
    first = t[:16]
    assert np.allclose(np.diff(first), wf.pri)

    # dither keeps every start within [0, bound] of the undithered grid
    td = chirp_times_in_window(wf, 0.0, 0.2, dither_bound=2e-6,
                               dither_seed=(1, 2))
    base = chirp_times_in_window(wf, -1e-3, 0.2 + 1e-3)
    assert td.size >= 60
    for x in td:
        off = (x - 5e-6) % wf.pri
        assert -1e-12 <= min(off, wf.pri - off) <= 2e-6 + 1e-12

    # same seed reproduces, different seed changes the jitter
    td2 = chirp_times_in_window(wf, 0.0, 0.2, dither_bound=2e-6,
                                dither_seed=(1, 2))
    td3 = chirp_times_in_window(wf, 0.0, 0.2, dither_bound=2e-6,
                                dither_seed=(1, 3))
    assert np.array_equal(td, td2)
    assert not np.array_equal(td, td3)


def test_tf_slot_grid_offsets():
    wf = WaveformConfig(pri=25e-6, slope=27e12, chirp_duration=16e-6,
                        carrier=78e9, n_chirps=16, fps=20.0, n_elements=8,
                        tx_power=0.01, element_gain=10.0, adc_rate=25e6,
                        start_offset=0.0)
    frame_p = 1.0 / 15.0
    slot = (0, 2, 4, frame_p, 0.0)
    t = chirp_times_in_window(wf, 0.0, frame_p, tf_slot=slot)
    # dwell starts at slot 2 of 4: offset frame_p / 2
    assert t[0] == pytest.approx(frame_p / 2.0)
    h = host_chirp_times(wf, 3, tf_slot=slot)
    assert h[0] == pytest.approx(3 * frame_p + frame_p / 2.0)


def test_interferer_arrivals_modular_walk():
    # commensurate PRIs: tau advances by the PRI difference each host chirp
    host_times = host_chirp_times(HOST, 0)
    dpri = 0.3e-6
    intf = WaveformConfig(pri=HOST.pri + dpri, slope=26e12,
                          chirp_duration=18.88e-6, carrier=HOST.carrier,
                          n_chirps=64, fps=15.0, n_elements=8, tx_power=0.01,
                          element_gain=10.0, adc_rate=25e6)
    em = Emitter(waveform=intf,
                 chirp_times=host_times[0] + np.arange(64) * intf.pri,
                 amplitude=1.0)
    ks, taus = interferer_arrivals(HOST, host_times, em)
    order = np.argsort(ks)
    ks, taus = ks[order], taus[order]
    by_k = {int(k): [] for k in ks}
    for k, tau in zip(ks, taus):
        by_k[int(k)].append(tau)
    # for each host chirp, one candidate tau must equal k * dpri (the walk)
    for k in range(0, 40):
        want = k * dpri
        assert any(abs(t - want) < 1e-12 for t in by_k.get(k, [])), k


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_interferer_arrivals_matches_brute_force(data):
    # random host grids against interferer trains, dense ones included (PRIs
    # far below T_v / 2 put many interferer chirps inside one host chirp)
    t_v = data.draw(st.floats(5e-6, 20e-6), label="host chirp")
    host = replace(HOST, chirp_duration=t_v,
                   pri=t_v * data.draw(st.floats(1.0, 2.0), label="host duty"))
    host_times = data.draw(st.floats(-50e-6, 50e-6), label="host start") \
        + np.arange(data.draw(st.integers(1, 12), label="host chirps")) * host.pri
    t_i = data.draw(st.floats(0.5e-6, 20e-6), label="intf chirp")
    intf = replace(HOST, chirp_duration=t_i,
                   pri=t_i * data.draw(st.floats(1.0, 3.0), label="intf duty"))
    n_i = data.draw(st.integers(0, 80), label="intf chirps")
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32), label="seed"))
    # start jitter in [0, pri - T_i] keeps the interferer's chirps disjoint
    jitter = rng.uniform(0.0, intf.pri - t_i, n_i) * data.draw(st.booleans())
    times = (data.draw(st.floats(-100e-6, 100e-6), label="intf start")
             + np.arange(n_i) * intf.pri + jitter)
    em = Emitter(waveform=intf, amplitude=1.0, chirp_times=rng.permutation(times))
    ks, taus = interferer_arrivals(host, host_times, em)
    want = sorted((k, a - h) for k, h in enumerate(host_times.tolist())
                  for a in times.tolist() if -t_i < a - h < t_v)
    assert sorted(zip(ks.tolist(), taus.tolist())) == want


def test_cube_round_trip(tmp_path):
    rng = np.random.default_rng(7)
    mat = (rng.standard_normal((32, 8)) + 1j * rng.standard_normal((32, 8)))
    mat = mat.astype(np.complex64).astype(np.complex128)  # float32-exact
    path = tmp_path / "cube.bin"
    write_cube(path, mat, 25e6, header_extra={"stage": "test"})
    back = read_cube(path)
    assert back.shape == mat.shape
    assert np.array_equal(back.astype(np.complex64), mat.astype(np.complex64))
    hdr = (str(path) + ".hdr")
    text = open(hdr).read()
    assert "stage=test" in text and "n_chirps=8" in text


def test_synthesize_dwell_rejects_nonfinite():
    host_times = host_chirp_times(HOST, 0)
    with pytest.raises(ConfigurationError, match="non-finite IF samples"), \
            np.errstate(invalid="ignore"):
        synthesize_dwell(HOST, host_times,
                         [TargetEcho(power=math.inf, range_m=120.0)], [],
                         quiet_noise(), np.random.default_rng(0))
    loud = Emitter(waveform=HOST, amplitude=math.inf,
                   chirp_times=host_times + 1e-7)
    with pytest.raises(ConfigurationError, match="non-finite IF samples"), \
            np.errstate(invalid="ignore"):
        synthesize_dwell(HOST, host_times, [], [loud], quiet_noise(),
                         np.random.default_rng(0))


def test_add_emitters_checks_the_cells_it_touched():
    # synthesize_dwell has checked every cell before; add_emitters checks
    # the cells its bursts add to, and only those
    host_times = host_chirp_times(HOST, 0)
    cube = synthesize_dwell(HOST, host_times, [], [], quiet_noise(),
                            np.random.default_rng(3))
    em = Emitter(waveform=HOST, amplitude=1.0,
                 chirp_times=host_times[:1] + 1e-7)
    hit = add_beats(cube.copy(), HOST, [em],
                    [interferer_arrivals(HOST, host_times, em)], True)
    assert hit.size and np.all(hit % cube.shape[1] == 0)   # host chirp 0
    cube[:, -1] = math.nan            # a cell no burst touches
    add_emitters(cube, HOST, host_times, [em])
    cube.reshape(-1)[hit[0]] = math.nan
    with pytest.raises(ConfigurationError, match="non-finite IF samples"):
        add_emitters(cube, HOST, host_times, [em])


# ---------------------------------------------------------------------------
# batched bursts against the per-emitter loop they replaced

def oracle_add_beats(cube, host_wf, emitter, ks, taus, lpf_gating):
    """One emitter's bursts, scattered with a tuple-indexed np.add.at."""
    fs = host_wf.adc_rate
    n_fast = cube.shape[0]
    wf = emitter.waveform
    f_m = host_wf.carrier - wf.carrier + wf.slope * taus
    alpha_m = host_wf.slope - wf.slope
    lo = np.maximum(taus, 0.0)
    hi = np.minimum(host_wf.chirp_duration, taus + wf.chirp_duration)
    ok = hi > lo
    hi = np.minimum(hi, n_fast / fs)
    if lpf_gating:
        if alpha_m > 0:
            lo = np.maximum(lo, (0.0 - f_m) / alpha_m)
            hi = np.minimum(hi, (fs - f_m) / alpha_m)
        elif alpha_m < 0:
            lo = np.maximum(lo, (fs - f_m) / alpha_m)
            hi = np.minimum(hi, (0.0 - f_m) / alpha_m)
        else:
            ok &= (0.0 <= f_m) & (f_m <= fs)
        ok &= hi > lo
    m0 = np.clip(np.ceil(lo * fs - 1e-9), 0, n_fast).astype(np.int64)
    m1 = np.clip(np.floor(hi * fs + 1e-9) + 1, 0, n_fast).astype(np.int64)
    burst = np.repeat(np.arange(taus.size), np.where(ok, np.maximum(m1 - m0, 0), 0))
    m = np.concatenate([np.arange(m0[b], m1[b]) for b in range(taus.size)
                        if ok[b] and m1[b] > m0[b]] or [np.empty(0, dtype=np.int64)])
    t = m / fs
    phase = wf.carrier * taus - 0.5 * wf.slope * taus * taus
    cycles = f_m[burst] * t + 0.5 * alpha_m * t * t + phase[burst]
    np.add.at(cube, (m, ks[burst]),
              emitter.amplitude * np.exp(2j * np.pi * (cycles % 1.0)))


def oracle_dwell(host_wf, host_times, emitters, noise_rng, lpf_gating):
    """synthesize_dwell's noise cube plus the per-emitter loop."""
    cube = synthesize_dwell(host_wf, host_times, [], [], quiet_noise(),
                            noise_rng)
    for em in emitters:
        if em.amplitude > 0.0:
            ks, taus = interferer_arrivals(host_wf, host_times, em)
            oracle_add_beats(cube, host_wf, em, ks, taus, lpf_gating)
    return cube


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


# interferer slopes at, below and above the host's: alpha_m 0, > 0 and < 0
SLOPE_FACTORS = st.sampled_from([1.0, 0.7, 1.3, 1.0 + 1e-9])


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_batched_add_beats_matches_per_emitter_loop(data):
    host = replace(HOST, n_chirps=data.draw(st.integers(1, 6), label="host chirps"))
    host_times = host_chirp_times(host, 0)
    emitters = []
    for i in range(data.draw(st.integers(0, 4), label="emitters")):
        t_i = data.draw(st.floats(1e-6, 20e-6), label="intf chirp")
        wf = replace(host, chirp_duration=t_i,
                     pri=t_i * data.draw(st.sampled_from([1.0, 1.5, 2.0]),
                                         label="intf duty"),
                     slope=host.slope * data.draw(SLOPE_FACTORS, label="slope"),
                     carrier=host.carrier + data.draw(st.floats(-40e6, 40e6),
                                                      label="carrier offset"))
        start = host_times[0] + data.draw(st.floats(-30e-6, 30e-6), label="start")
        times = start + np.arange(data.draw(st.integers(0, 30), label="n")) * wf.pri
        amp = data.draw(st.sampled_from([0.0, 1e-6, 1.0, 3.7]), label="amplitude")
        emitters.append(Emitter(waveform=wf, amplitude=amp, chirp_times=times))
    lpf = data.draw(st.booleans(), label="lpf gating")
    seed = data.draw(st.integers(0, 2 ** 16), label="noise seed")

    got = synthesize_dwell(host, host_times, [], emitters, quiet_noise(),
                           np.random.default_rng(seed), lpf_gating=lpf)
    want = oracle_dwell(host, host_times, emitters, np.random.default_rng(seed),
                        lpf)
    assert same_bits(got, want)

    # add_beats itself, zero-amplitude emitters included, into an empty cube
    arrivals = [interferer_arrivals(host, host_times, em) for em in emitters]
    got = np.zeros((host.n_fast, host.n_chirps), dtype=complex)
    add_beats(got, host, emitters, arrivals, lpf)
    want = np.zeros_like(got)
    for em, (ks, taus) in zip(emitters, arrivals):
        oracle_add_beats(want, host, em, ks, taus, lpf)
    assert same_bits(got, want)


def test_batched_add_beats_adds_a_shared_edge_sample_twice():
    # back-to-back interferer chirps 4 us long (100 samples at 25 MHz) on the
    # sample grid: the first burst ends on the sample where the next starts
    host = replace(HOST, n_chirps=2)
    host_times = host_chirp_times(host, 0)
    wf = replace(host, chirp_duration=4e-6, pri=4e-6, slope=host.slope * 1.3,
                 carrier=host.carrier + 10e6)
    taus = np.array([2e-6, 6e-6])
    one = [beats(host, wf, [tau], lpf_gating=False) for tau in taus]
    assert np.count_nonzero((one[0] != 0) & (one[1] != 0)) == 1
    emitters = [Emitter(waveform=wf, amplitude=1.0,
                        chirp_times=host_times[0] + taus),
                Emitter(waveform=replace(wf, carrier=host.carrier + 3e6),
                        amplitude=0.5, chirp_times=host_times[1] + taus)]
    for lpf in (False, True):
        got = synthesize_dwell(host, host_times, [], emitters, quiet_noise(),
                               np.random.default_rng(1), lpf_gating=lpf)
        want = oracle_dwell(host, host_times, emitters,
                            np.random.default_rng(1), lpf)
        assert same_bits(got, want)


def test_add_beats_without_emitters_leaves_the_cube():
    host_times = host_chirp_times(HOST, 0)
    cube = synthesize_dwell(HOST, host_times, [], [], quiet_noise(),
                            np.random.default_rng(2))
    before = cube.copy()
    add_beats(cube, HOST, [], [], True)
    assert same_bits(cube, before)
    silent = Emitter(waveform=HOST, amplitude=0.0, chirp_times=host_times)
    got = synthesize_dwell(HOST, host_times, [], [silent], quiet_noise(),
                           np.random.default_rng(2))
    assert same_bits(got, before)
