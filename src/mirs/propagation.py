"""Direct and single-bounce propagation between radars, with vehicle blockage.

Walls run parallel to the road at y = +/-half_width; reflections use the image
method with a complex Fresnel coefficient for vertically polarized signals at
the air-concrete interface.  Vehicles block totally (no diffraction).
"""
from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass

import numpy as np
from scipy.constants import c as C0

from .errors import ConfigurationError
from .scenario import RadarInstance, Scenario, Vehicle

CONCRETE_INDEX = 2.52 - 0.076j


class PathKind(enum.Enum):
    DIRECT = "direct"
    WALL_UPPER = "wall_reflect_upper"
    WALL_LOWER = "wall_reflect_lower"


@dataclass(frozen=True)
class PropagationPath:
    kind: PathKind
    length: float
    departure_angle: float   # world angle of the first leg at the tx
    arrival_angle: float     # world angle pointing from the rx toward the last leg
    reflection_coeff: complex
    blocked: bool


@dataclass(frozen=True)
class MaterialModel:
    refractive_index: complex = CONCRETE_INDEX

    def __post_init__(self):
        if self.refractive_index.real <= 1.0:
            raise ConfigurationError("Re(n) must exceed 1")


def fresnel_reflection(theta: float, material: MaterialModel = MaterialModel()) -> complex:
    """Reflection coefficient for vertical polarization at incidence theta
    (measured from the wall normal)."""
    n = material.refractive_index
    n2 = n * n
    root = cmath.sqrt(n2 - math.sin(theta) ** 2)
    return (n2 * math.cos(theta) - root) / (n2 * math.cos(theta) + root)


def _rect_bounds(v: Vehicle):
    hx, hy = v.half_extents
    return (v.center[0] - hx, v.center[0] + hx, v.center[1] - hy, v.center[1] + hy)


class VehicleRects:
    """Per-snapshot cache of vehicle footprint rectangles for blockage tests."""

    def __init__(self, vehicles):
        self.ids = np.array([v.id for v in vehicles])
        self.rects = (np.array([_rect_bounds(v) for v in vehicles])
                      if len(list(vehicles)) else np.empty((0, 4)))

    def blocked(self, p, q, exclude_ids=()) -> bool:
        if self.rects.shape[0] == 0:
            return False
        rects = self.rects
        if exclude_ids:
            keep = ~np.isin(self.ids, list(exclude_ids))
            rects = rects[keep]
            if rects.shape[0] == 0:
                return False
        return bool(np.any(_segment_hits_rects(p, q, rects)))


def _segment_hits_rects(p, q, rects: np.ndarray) -> np.ndarray:
    """Vectorized slab test of one segment against axis-aligned rectangles.

    rects: array [n, 4] of (xmin, xmax, ymin, ymax).  Intersections at the very
    endpoints of the segment do not count as blockage.
    """
    px, py = p
    dx, dy = q[0] - px, q[1] - py
    eps = 1e-12
    t0 = np.zeros(len(rects))
    t1 = np.ones(len(rects))
    ok = np.ones(len(rects), dtype=bool)
    for d, o, lo, hi in ((dx, px, rects[:, 0], rects[:, 1]),
                         (dy, py, rects[:, 2], rects[:, 3])):
        if abs(d) < eps:
            ok &= (o > lo) & (o < hi)
        else:
            ta = (lo - o) / d
            tb = (hi - o) / d
            tmin = np.minimum(ta, tb)
            tmax = np.maximum(ta, tb)
            t0 = np.maximum(t0, tmin)
            t1 = np.minimum(t1, tmax)
    # open-segment test: require a genuine interior crossing
    return ok & (t0 < t1 - 1e-12) & (t1 > 1e-9) & (t0 < 1 - 1e-9)


def paths(tx, rx, scenario: Scenario, exclude_ids=(),
          rects: VehicleRects = None):
    """Direct plus one image-method bounce per wall between points tx and rx.

    Blocked paths are returned with blocked=True; bounce points falling outside
    the road span are omitted.  Pass a VehicleRects cache when calling many
    times against one frozen snapshot.
    """
    if tx == rx:
        raise ConfigurationError("tx and rx coincide")
    vehicles = scenario.vehicles
    if rects is None:
        rects = VehicleRects(vehicles)
    out = []

    d = math.hypot(rx[0] - tx[0], rx[1] - tx[1])
    ang = math.atan2(rx[1] - tx[1], rx[0] - tx[0])
    out.append(PropagationPath(
        kind=PathKind.DIRECT, length=d, departure_angle=ang,
        arrival_angle=math.atan2(tx[1] - rx[1], tx[0] - rx[0]),
        reflection_coeff=1 + 0j,
        blocked=rects.blocked(tx, rx, exclude_ids)))

    for kind, wall_y in ((PathKind.WALL_LOWER, scenario.geometry.wall_ys[0]),
                         (PathKind.WALL_UPPER, scenario.geometry.wall_ys[1])):
        img_y = 2 * wall_y - tx[1]
        dy_total = img_y - rx[1]
        if abs(dy_total) < 1e-12:
            continue  # both points on the wall line
        t = (wall_y - img_y) / (rx[1] - img_y)
        bx = tx[0] + t * (rx[0] - tx[0])
        if not (0.0 <= bx <= scenario.geometry.road_length):
            continue
        bounce = (bx, wall_y)
        length = math.hypot(rx[0] - tx[0], (abs(wall_y - tx[1]) + abs(wall_y - rx[1])))
        # incidence angle from the wall normal (normal is the y axis)
        theta = math.atan2(abs(rx[0] - tx[0]),
                           abs(wall_y - tx[1]) + abs(wall_y - rx[1]))
        coeff = fresnel_reflection(theta)
        blocked = (rects.blocked(tx, bounce, exclude_ids)
                   or rects.blocked(bounce, rx, exclude_ids))
        out.append(PropagationPath(
            kind=kind, length=length,
            departure_angle=math.atan2(bounce[1] - tx[1], bounce[0] - tx[0]),
            arrival_angle=math.atan2(bounce[1] - rx[1], bounce[0] - rx[0]),
            reflection_coeff=coeff, blocked=blocked))
    return out


def _wrap(a):
    return (a + math.pi) % (2 * math.pi) - math.pi


def sector_gain(radar: RadarInstance, world_boresight: float, angle: float) -> float:
    """Flat-sector antenna gain: n_el * g_el inside the FOV, zero outside."""
    if abs(_wrap(angle - world_boresight)) <= radar.fov_halfwidth:
        return radar.waveform.rx_gain
    return 0.0


def one_way_gain(path: PropagationPath, tx_radar: RadarInstance, tx_boresight: float,
                 rx_radar: RadarInstance, rx_boresight: float) -> float:
    """G_tx * G_rx * |R|^2 * (lambda / 4 pi L)^2 for an unblocked path."""
    if path.blocked:
        raise ConfigurationError("gain undefined for a blocked path")
    gt = sector_gain(tx_radar, tx_boresight, path.departure_angle)
    gr = sector_gain(rx_radar, rx_boresight, path.arrival_angle)
    lam = C0 / tx_radar.drifted().carrier
    spread = (lam / (4 * math.pi * path.length)) ** 2
    return gt * gr * abs(path.reflection_coeff) ** 2 * spread


def echo_power(radar: RadarInstance, radar_pos, radar_boresight,
               target_pos, rcs: float) -> float:
    """Two-way radar-equation receive power; zero outside the FOV.

    ERP = P_t * n_el * g_el (matches a 35 dBm ERP front LRR), receive gain
    n_el * g_el.
    """
    R = math.hypot(target_pos[0] - radar_pos[0], target_pos[1] - radar_pos[1])
    if R <= 0:
        raise ConfigurationError("target coincides with the radar")
    ang = math.atan2(target_pos[1] - radar_pos[1], target_pos[0] - radar_pos[0])
    if abs(_wrap(ang - radar_boresight)) > radar.fov_halfwidth:
        return 0.0
    wf = radar.drifted()
    lam = C0 / wf.carrier
    return (wf.erp * wf.rx_gain * lam ** 2 * rcs
            / ((4 * math.pi) ** 3 * R ** 4))
