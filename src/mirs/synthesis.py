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
    temperature: float = T0_KELVIN

    def power(self, adc_rate: float) -> float:
        """Per-sample complex noise power kT * f_s * NF [W]."""
        return K_B * self.temperature * adc_rate * 10 ** (self.noise_figure_db / 10.0)


@dataclass(frozen=True)
class TargetEcho:
    power: float            # receive power [W]
    range_m: float
    radial_speed: float = 0.0


@dataclass(frozen=True)
class Emitter:
    """One interferer radar seen over one unblocked path."""
    waveform: WaveformConfig     # clock-drifted
    amplitude: float             # field amplitude sqrt(P_rx) at the host
    chirp_times: np.ndarray      # arrival times of its chirp starts [s]
    key: tuple = ()


@dataclass
class IFCube:
    samples: np.ndarray          # complex128 [n_fast, n_chirps]
    fast_time_step: float
    host: WaveformConfig         # effective (drifted) host waveform

    def __post_init__(self):
        if not np.all(np.isfinite(self.samples)):
            raise ConfigurationError("non-finite IF samples")

    @property
    def n_fast(self):
        return self.samples.shape[0]

    @property
    def n_chirps(self):
        return self.samples.shape[1]


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


def add_beats(cube: np.ndarray, host_wf: WaveformConfig, emitter: Emitter,
              ks: np.ndarray, taus: np.ndarray, lpf_gating: bool):
    """Accumulate one emitter's beat bursts, one per arrival (ks[b], taus[b]),
    into the cube columns ks."""
    fs = host_wf.adc_rate
    n_fast = cube.shape[0]
    wf = emitter.waveform
    f_m = host_wf.carrier - wf.carrier + wf.slope * taus
    alpha_m = host_wf.slope - wf.slope
    # overlap of the two chirps, then of the ADC record
    lo = np.maximum(taus, 0.0)
    hi = np.minimum(host_wf.chirp_duration, taus + wf.chirp_duration)
    ok = hi > lo
    hi = np.minimum(hi, n_fast / fs)
    if lpf_gating:
        # keep instantaneous beat frequencies f_m + alpha_m t inside [0, fs]
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
    burst, m = _runs(m0, np.where(ok, np.maximum(m1 - m0, 0), 0))
    t = m / fs
    phase = wf.carrier * taus - 0.5 * wf.slope * taus * taus
    cycles = f_m[burst] * t + 0.5 * alpha_m * t * t + phase[burst]
    # chirps of one emitter never overlap, so a cell is hit at most once
    # except where two bursts share an edge sample; add.at keeps both adds
    np.add.at(cube, (m, ks[burst]),
              emitter.amplitude * np.exp(2j * np.pi * (cycles % 1.0)))


def synthesize_dwell(host_wf: WaveformConfig, host_times: np.ndarray,
                     targets, emitters, noise: ThermalModel,
                     noise_rng: np.random.Generator,
                     lpf_gating: bool = True) -> IFCube:
    """Build the host IF cube for one dwell.

    targets: iterable of TargetEcho; emitters: iterable of Emitter (one per
    interferer radar and unblocked path).  Noise is drawn first from its own
    stream, so cubes with identical noise seeds superpose exactly.
    """
    fs = host_wf.adc_rate
    n_fast = host_wf.n_fast
    n_chirps = len(host_times)
    p_noise = noise.power(fs)
    scale = math.sqrt(p_noise / 2.0)
    cube = np.empty((n_fast, n_chirps), dtype=complex)
    cube.real = noise_rng.standard_normal((n_fast, n_chirps))
    cube.imag = noise_rng.standard_normal((n_fast, n_chirps))
    cube *= scale

    t_fast = np.arange(n_fast) / fs
    for tgt in targets:
        f_b = 2.0 * tgt.range_m * host_wf.slope / C0
        if lpf_gating and not (0.0 <= f_b <= fs):
            continue
        f_d = 2.0 * tgt.radial_speed * host_wf.carrier / C0
        amp = math.sqrt(tgt.power)
        tone = amp * np.exp(2j * np.pi * f_b * t_fast)
        phases = np.exp(2j * np.pi * f_d * (host_times - host_times[0]))
        cube += np.outer(tone, phases)

    for em in emitters:
        if em.amplitude > 0.0:
            ks, taus = interferer_arrivals(host_wf, host_times, em)
            add_beats(cube, host_wf, em, ks, taus, lpf_gating)
    return IFCube(samples=cube, fast_time_step=1.0 / fs, host=host_wf)


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
