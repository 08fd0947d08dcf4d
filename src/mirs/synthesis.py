"""Post-mixer IF cube synthesis: target beats, interferer beat chirps, noise.

The host radar is modeled at IF after stretch processing.  An interferer chirp
overlapping a host chirp with offset tau produces the beat

    x(t) = exp(j 2 pi (f_m t + alpha_m t^2 / 2)),
    f_m = f_v - f_i + alpha_i tau,   alpha_m = alpha_v - alpha_i,

low-pass gated to instantaneous frequencies inside [0, f_s] (ideal brick-wall
at the ADC rate, applied per sample).  Geometry is frozen within a dwell.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.constants import c as C0
from scipy.constants import k as K_B

from .errors import ConfigurationError
from .waveform import WaveformConfig

T0_KELVIN = 290.0
DITHER_TAG = 0x5D17  # rng substream tag for chirp-timing jitter


@dataclass(frozen=True)
class ThermalModel:
    noise_figure_db: float = 12.0

    def power(self, adc_rate: float) -> float:
        """Per-sample complex noise power kT * f_s * NF [W] at T0_KELVIN."""
        return K_B * T0_KELVIN * adc_rate * 10 ** (self.noise_figure_db / 10.0)


@dataclass(frozen=True)
class TargetEcho:
    power: float            # receive power [W]
    range_m: float


@dataclass(frozen=True)
class Emitter:
    """One interferer radar seen over one unblocked path."""
    waveform: WaveformConfig     # clock-drifted
    amplitude: float             # field amplitude sqrt(P_rx) at the host
    chirp_times: np.ndarray      # arrival times of its chirp starts [s]
    key: tuple = ()


def can_beat_in_band(host: WaveformConfig, intf):
    """Conservative reachability test for the in-band beat condition; `intf`'s
    slope, chirp_duration and carrier may be arrays (one test per element)."""
    a_m = host.slope - intf.slope
    lo = np.minimum(-intf.slope * host.chirp_duration, intf.slope * intf.chirp_duration) \
        + np.minimum(0.0, a_m * host.chirp_duration)
    hi = np.maximum(-intf.slope * host.chirp_duration, intf.slope * intf.chirp_duration) \
        + np.maximum(0.0, a_m * host.chirp_duration)
    d = host.carrier - intf.carrier
    return (d + lo <= host.adc_rate) & (d + hi >= 0.0)


def chirp_times_in_window(wf: WaveformConfig, t0: float, t1: float,
                          tf_slot=None, dither_bound: float = 0.0,
                          dither_seed=None) -> np.ndarray:
    """Absolute chirp start times of a radar falling inside [t0, t1].

    Frames repeat at the radar's own rate (or on the synchronized slot grid
    when tf_slot is set); the radar is silent between dwells.
    """
    if tf_slot is not None:
        band, slot, n_slots, frame_p, sync = tf_slot
        base = slot * frame_p / n_slots + sync + wf.start_offset
    else:
        frame_p = 1.0 / wf.fps
        base = wf.start_offset
    dwell = wf.dwell_duration
    f_lo = max(0, int(math.floor((t0 - base - dwell) / frame_p)))
    f_hi = max(f_lo, int(math.floor((t1 - base) / frame_p)) + 1)
    chunks = []
    for f in range(f_lo, f_hi + 1):
        times = base + f * frame_p + np.arange(wf.n_chirps) * wf.pri
        if dither_bound > 0.0:
            rng = np.random.default_rng(
                np.random.SeedSequence(list(dither_seed or ()) + [DITHER_TAG, f]))
            times = times + rng.uniform(0.0, dither_bound, wf.n_chirps)
        sel = times[(times > t0 - wf.chirp_duration) & (times < t1)]
        if sel.size:
            chunks.append(sel)
    if not chunks:
        return np.empty(0)
    return np.concatenate(chunks)


def host_chirp_times(wf: WaveformConfig, dwell_index: int, tf_slot=None,
                     dither_bound: float = 0.0, dither_seed=None) -> np.ndarray:
    """Start times of the host's n_chirps chirps for one dwell."""
    if tf_slot is not None:
        band, slot, n_slots, frame_p, sync = tf_slot
        base = dwell_index * frame_p + slot * frame_p / n_slots + sync + wf.start_offset
    else:
        base = dwell_index / wf.fps + wf.start_offset
    times = base + np.arange(wf.n_chirps) * wf.pri
    if dither_bound > 0.0:
        rng = np.random.default_rng(
            np.random.SeedSequence(list(dither_seed or ()) + [DITHER_TAG, dwell_index]))
        times = times + rng.uniform(0.0, dither_bound, wf.n_chirps)
    return times


def _runs(start: np.ndarray, n: np.ndarray):
    """Concatenated runs start[r] + arange(n[r]): (run index, value) per element."""
    run = np.repeat(np.arange(n.size), n)
    return run, np.repeat(start - np.cumsum(n) + n, n) + np.arange(run.size)


def interferer_arrivals(host_wf: WaveformConfig, host_times: np.ndarray,
                        emitter: Emitter):
    """(host chirp index, tau) pairs for every overlapping interferer chirp,
    ordered by host chirp, then by arrival time."""
    arr = np.sort(emitter.chirp_times)
    t_i = emitter.waveform.chirp_duration
    t_v = host_wf.chirp_duration
    # candidates start in (t - T_i, t + T_v), widened by one chirp per side so
    # that rounding in the window edges cannot drop an overlap
    j0 = np.maximum(np.searchsorted(arr, host_times - t_i) - 1, 0)
    j1 = np.minimum(np.searchsorted(arr, host_times + t_v) + 1, arr.size)
    k, j = _runs(j0, np.maximum(j1 - j0, 0))
    tau = arr[j] - host_times[k]
    ok = (tau < t_v) & (tau > -t_i)
    return k[ok], tau[ok]


def add_beats(cube: np.ndarray, host_wf: WaveformConfig, emitters, arrivals,
              lpf_gating: bool):
    """Accumulate the beat bursts of live emitters into the cube: one burst
    per arrival (ks[b], taus[b]) of each emitter's (ks, taus) in `arrivals`,
    in emitter order and then arrival order.  Returns the flat indices of
    the cells added to."""
    if not emitters:
        return np.empty(0, dtype=np.int64)
    fs = host_wf.adc_rate
    n_fast, n_chirps = cube.shape
    n = [ks.size for ks, _ in arrivals]
    ks = np.concatenate([ks for ks, _ in arrivals])
    taus = np.concatenate([taus for _, taus in arrivals])

    def column(field):
        return np.repeat([getattr(em.waveform, field) for em in emitters], n)

    carrier, slope = column("carrier"), column("slope")
    f_m = host_wf.carrier - carrier + slope * taus
    alpha_m = host_wf.slope - slope
    # overlap of the two chirps, then of the ADC record
    lo = np.maximum(taus, 0.0)
    hi = np.minimum(host_wf.chirp_duration, taus + column("chirp_duration"))
    ok = hi > lo
    hi = np.minimum(hi, n_fast / fs)
    if lpf_gating:
        # keep instantaneous beat frequencies f_m + alpha_m t inside [0, fs]:
        # t from (0 - f_m) / alpha_m to (fs - f_m) / alpha_m, swapped for a
        # falling beat; a constant beat is kept or dropped whole
        rising = alpha_m > 0
        sweeps = alpha_m != 0
        with np.errstate(divide="ignore", invalid="ignore"):
            t_zero = (0.0 - f_m) / alpha_m
            t_fs = (fs - f_m) / alpha_m
        lo = np.where(sweeps, np.maximum(lo, np.where(rising, t_zero, t_fs)), lo)
        hi = np.where(sweeps, np.minimum(hi, np.where(rising, t_fs, t_zero)), hi)
        ok &= sweeps | ((0.0 <= f_m) & (f_m <= fs))
        ok &= hi > lo
    m0 = np.clip(np.ceil(lo * fs - 1e-9), 0, n_fast).astype(np.int64)
    m1 = np.clip(np.floor(hi * fs + 1e-9) + 1, 0, n_fast).astype(np.int64)
    burst, m = _runs(m0, np.where(ok, np.maximum(m1 - m0, 0), 0))
    t = m / fs
    phase = carrier * taus - 0.5 * slope * taus * taus
    cycles = f_m[burst] * t + 0.5 * alpha_m[burst] * t * t + phase[burst]
    amplitude = np.repeat([em.amplitude for em in emitters], n)[burst]
    # chirps of one emitter never overlap, so within an emitter a cell is hit
    # twice only where two bursts share an edge sample; add.at makes every
    # add, in order
    cells = m * n_chirps + ks[burst]
    np.add.at(cube.reshape(-1), cells,
              amplitude * np.exp(2j * np.pi * (cycles % 1.0)))
    return cells


def _check_finite(samples: np.ndarray):
    if not np.all(np.isfinite(samples)):
        raise ConfigurationError("non-finite IF samples")


def add_emitters(cube: np.ndarray, host_wf: WaveformConfig,
                 host_times: np.ndarray, emitters, lpf_gating: bool = True):
    """Accumulate the beat bursts of every emitter with a positive amplitude
    into the cube, then reject a non-finite sample in the cells they
    touched."""
    live = [em for em in emitters if em.amplitude > 0.0]
    cells = add_beats(
        cube, host_wf, live,
        [interferer_arrivals(host_wf, host_times, em) for em in live],
        lpf_gating)
    _check_finite(cube.reshape(-1)[cells])


def _noise_cube(shape, scale: float, rng: np.random.Generator) -> np.ndarray:
    """Complex white noise, real then imaginary parts drawn from `rng`, each
    scaled by `scale`."""
    cube = np.empty(shape, dtype=complex)
    cube.real = rng.standard_normal(shape)
    cube.imag = rng.standard_normal(shape)
    cube *= scale
    return cube


def synthesize_dwell(host_wf: WaveformConfig, host_times: np.ndarray,
                     targets, emitters, noise: ThermalModel,
                     noise_rng: np.random.Generator,
                     lpf_gating: bool = True,
                     noise_cache: dict = None) -> np.ndarray:
    """Build the host IF cube for one dwell: complex samples [n_fast,
    n_chirps].

    targets: iterable of TargetEcho, each at zero radial speed; emitters:
    iterable of Emitter (one per interferer radar and unblocked path).  Noise
    is drawn first from its own stream, so cubes with identical noise seeds
    superpose exactly.  `noise_cache`, if given, holds noise cubes drawn from
    one stream, keyed on (shape, scale): the first call of a key draws its
    cube, and every call builds on a copy of it.
    """
    fs = host_wf.adc_rate
    n_fast = host_wf.n_fast
    shape = (n_fast, len(host_times))
    scale = math.sqrt(noise.power(fs) / 2.0)
    if noise_cache is None:
        cube = _noise_cube(shape, scale, noise_rng)
    else:
        key = ("noise", shape, scale)
        if key not in noise_cache:
            noise_cache[key] = _noise_cube(shape, scale, noise_rng)
        cube = noise_cache[key].copy()

    t_fast = np.arange(n_fast) / fs
    for tgt in targets:
        f_b = 2.0 * tgt.range_m * host_wf.slope / C0
        if lpf_gating and not (0.0 <= f_b <= fs):
            continue
        tone = math.sqrt(tgt.power) * np.exp(2j * np.pi * f_b * t_fast)
        cube += tone[:, None]

    _check_finite(cube)
    add_emitters(cube, host_wf, host_times, emitters, lpf_gating)
    return cube


# ---------------------------------------------------------------------------
# cube dump format: little-endian float32 interleaved I/Q, row-major
# [chirp][fast-time], with a sidecar text header.

def write_cube(path, samples: np.ndarray, fs: float, header_extra=None):
    data = np.ascontiguousarray(samples.T)  # [chirp][fast]
    inter = np.empty(data.shape + (2,), dtype="<f4")
    inter[..., 0] = data.real
    inter[..., 1] = data.imag
    inter.tofile(str(path))
    lines = [f"n_chirps={data.shape[0]}", f"n_fast={data.shape[1]}",
             f"fs={fs!r}", "dtype=<f4", "layout=chirp-major interleaved I/Q"]
    for k, v in (header_extra or {}).items():
        lines.append(f"{k}={v}")
    with open(str(path) + ".hdr", "w") as f:
        f.write("\n".join(lines) + "\n")


def read_cube(path) -> np.ndarray:
    header = {}
    with open(str(path) + ".hdr") as f:
        for line in f:
            if "=" in line:
                k, v = line.strip().split("=", 1)
                header[k] = v
    n_chirps = int(header["n_chirps"])
    n_fast = int(header["n_fast"])
    raw = np.fromfile(str(path), dtype="<f4").reshape(n_chirps, n_fast, 2)
    return (raw[..., 0] + 1j * raw[..., 1]).T  # back to [fast, chirp]
