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
from typing import Optional

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
class BeatParams:
    f_m: float
    alpha_m: float
    overlap: tuple          # (t_lo, t_hi) within the host chirp [s]
    amplitude: float
    phase_cycles: float = 0.0   # constant term f_i tau - alpha_i tau^2 / 2


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


def beat_params(host_chirp, intf_chirp, tau: float,
                amplitude: float = 1.0) -> Optional[BeatParams]:
    """Beat tone of one interferer chirp against one host chirp.

    host_chirp / intf_chirp: (carrier, slope, duration).  tau is the arrival
    time of the interferer chirp relative to the host chirp start (may be
    negative).  Returns None when the chirps do not overlap in time.
    """
    f_v, a_v, t_v = host_chirp
    f_i, a_i, t_i = intf_chirp
    lo = max(0.0, tau)
    hi = min(t_v, tau + t_i)
    if hi <= lo:
        return None
    return BeatParams(
        f_m=f_v - f_i + a_i * tau,
        alpha_m=a_v - a_i,
        overlap=(lo, hi),
        amplitude=amplitude,
        phase_cycles=f_i * tau - 0.5 * a_i * tau * tau,
    )


def can_beat_in_band(host: WaveformConfig, intf: WaveformConfig) -> bool:
    """Conservative reachability test for the in-band beat condition."""
    a_m = host.slope - intf.slope
    lo = min(-intf.slope * host.chirp_duration, intf.slope * intf.chirp_duration) \
        + min(0.0, a_m * host.chirp_duration)
    hi = max(-intf.slope * host.chirp_duration, intf.slope * intf.chirp_duration) \
        + max(0.0, a_m * host.chirp_duration)
    d = host.carrier - intf.carrier
    return (d + lo <= host.adc_rate) and (d + hi >= 0.0)


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


def interferer_arrivals(host_wf: WaveformConfig, host_times: np.ndarray,
                        emitter: Emitter):
    """(host chirp index, tau) pairs for every overlapping interferer chirp."""
    arr = np.sort(emitter.chirp_times)
    if arr.size == 0:
        return np.empty(0, dtype=int), np.empty(0)
    t_i = emitter.waveform.chirp_duration
    t_v = host_wf.chirp_duration
    ks, taus = [], []
    idx = np.searchsorted(arr, host_times)
    for off in (-2, -1, 0, 1):
        j = idx + off
        ok = (j >= 0) & (j < arr.size)
        if not np.any(ok):
            continue
        tau = np.where(ok, arr[np.clip(j, 0, arr.size - 1)] - host_times, np.inf)
        ok &= (tau < t_v) & (tau > -t_i)
        k = np.nonzero(ok)[0]
        ks.append(k)
        taus.append(tau[k])
    if not ks:
        return np.empty(0, dtype=int), np.empty(0)
    return np.concatenate(ks), np.concatenate(taus)


def _inband_window(f_m, alpha_m, lo, hi, fs):
    """Clip [lo, hi] to instantaneous frequencies inside [0, fs]."""
    if alpha_m > 0:
        lo = max(lo, (0.0 - f_m) / alpha_m)
        hi = min(hi, (fs - f_m) / alpha_m)
    elif alpha_m < 0:
        lo = max(lo, (fs - f_m) / alpha_m)
        hi = min(hi, (0.0 - f_m) / alpha_m)
    elif not (0.0 <= f_m <= fs):
        return None
    if hi <= lo:
        return None
    return lo, hi


def add_beat_burst(cube: np.ndarray, host_wf: WaveformConfig, chirp_idx: int,
                   bp: BeatParams, lpf_gating: bool = True):
    """Accumulate one beat chirp into the cube column chirp_idx."""
    fs = host_wf.adc_rate
    n_fast = cube.shape[0]
    lo, hi = bp.overlap
    lo = max(lo, 0.0)
    hi = min(hi, n_fast / fs)
    if lpf_gating:
        win = _inband_window(bp.f_m, bp.alpha_m, lo, hi, fs)
        if win is None:
            return
        lo, hi = win
    m0 = int(math.ceil(lo * fs - 1e-9))
    m1 = int(math.floor(hi * fs + 1e-9)) + 1
    m0 = max(m0, 0)
    m1 = min(m1, n_fast)
    if m1 <= m0:
        return
    t = np.arange(m0, m1) / fs
    cycles = bp.f_m * t + 0.5 * bp.alpha_m * t * t + bp.phase_cycles
    cube[m0:m1, chirp_idx] += bp.amplitude * np.exp(2j * np.pi * (cycles % 1.0))


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
    cube = scale * (noise_rng.standard_normal((n_fast, n_chirps))
                    + 1j * noise_rng.standard_normal((n_fast, n_chirps)))

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

    host_chirp = (host_wf.carrier, host_wf.slope, host_wf.chirp_duration)
    for em in emitters:
        if em.amplitude <= 0.0 or em.chirp_times.size == 0:
            continue
        intf_wf = em.waveform
        intf_chirp = (intf_wf.carrier, intf_wf.slope, intf_wf.chirp_duration)
        ks, taus = interferer_arrivals(host_wf, host_times, em)
        for k, tau in zip(ks, taus):
            bp = beat_params(host_chirp, intf_chirp, tau, amplitude=em.amplitude)
            if bp is not None:
                add_beat_burst(cube, host_wf, int(k), bp, lpf_gating=lpf_gating)
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
