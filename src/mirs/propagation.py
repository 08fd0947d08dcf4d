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
from .scenario import RoadGeometry
from .waveform import WaveformConfig

CONCRETE_INDEX = 2.52 - 0.076j
BOX_MARGIN = 1e-6         # bounding-box slack of the blockage prefilter [m]


class PathKind(enum.Enum):
    DIRECT = "direct"
    WALL_UPPER = "wall_reflect_upper"
    WALL_LOWER = "wall_reflect_lower"


# path kinds in the order paths() builds them: direct, then one bounce per
# wall of RoadGeometry.wall_ys (lower, upper)
PATH_KINDS = (PathKind.DIRECT, PathKind.WALL_LOWER, PathKind.WALL_UPPER)
PATH_DTYPE = np.dtype([("row", np.intp), ("kind", np.int8), ("length", float),
                       ("theta", float), ("blocked", bool)])


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


def vehicle_rects(vehicles: dict) -> np.ndarray:
    """Footprint rectangles (xmin, xmax, ymin, ymax), one row per row of the
    vehicle table; length runs along x whatever the heading (0 or pi)."""
    x, y = vehicles["x"], vehicles["y"]
    hx, hy = vehicles["length"] / 2.0, vehicles["width"] / 2.0
    return np.column_stack((x - hx, x + hx, y - hy, y + hy))


def segments_blocked(p, q, owner, host, rects) -> np.ndarray:
    """Which segments p[k] -> q[k] cross a vehicle rectangle other than
    rects[owner[k]] and rects[host]; touching at an endpoint does not count.
    A segment whose two direction components are both under 1e-12 is tested
    as its start point: blocked where p[k] lies strictly inside a rectangle.

    A bounding-box prefilter picks the (segment, rectangle) pairs that can
    meet, and only those go through the slab test.
    """
    lo = np.minimum(p, q) - BOX_MARGIN
    hi = np.maximum(p, q) + BOX_MARGIN
    r = rects.T
    near = r[0] < hi[:, :1]
    near &= r[1] > lo[:, :1]
    near &= r[2] < hi[:, 1:]
    near &= r[3] > lo[:, 1:]
    near[np.arange(len(p)), owner] = False
    near[:, host] = False
    seg, rect = np.nonzero(near)
    # Slab test.  A segment along an axis (|d| < 1e-12) divides by zero
    # there: +-inf leaves t0, t1 as they are when it runs strictly inside
    # the slab, and +inf, -inf or nan (on an edge) rule the pair out.
    d = q - p
    d[np.abs(d) < 1e-12] = 0.0
    t0, t1 = 0.0, 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        for axis in (0, 1):
            o, dd = p[seg, axis], d[seg, axis]
            ta = (rects[rect, 2 * axis] - o) / dd
            tb = (rects[rect, 2 * axis + 1] - o) / dd
            t0 = np.maximum(t0, np.minimum(ta, tb))
            t1 = np.minimum(t1, np.maximum(ta, tb))
    # open-segment test: require a genuine interior crossing
    hit = (t0 < t1 - 1e-12) & (t1 > 1e-9) & (t0 < 1 - 1e-9)
    out = np.zeros(len(p), dtype=bool)
    out[seg[hit]] = True
    return out


def _in_sector(angle, boresight, fov_halfwidth):
    """Flat-sector antenna: full gain within the FOV half-width, none outside."""
    wrapped = (angle - boresight + math.pi) % (2 * math.pi) - math.pi
    return abs(wrapped) <= fov_halfwidth


def paths(tx, rx, rx_bore, rx_fov, host, rects, geometry: RoadGeometry):
    """Direct plus one image-method bounce per wall from every radar row of
    `tx` (fields x, y, bore, fov, vehicle) to the receiver at `rx`.

    Only paths inside both antennas' sectors are kept, and only their legs
    are tested for blockage by the vehicles in `rects`, skipping the tx
    radar's own vehicle and the receiver's (`host`).  Bounce points outside
    the road span are omitted.  Returns a record array ordered by (row,
    PATH_KINDS index), with fields row, kind (the PATH_KINDS index), length,
    theta (incidence angle from the wall normal; 0 for the direct path) and
    blocked.
    """
    x, y = tx.x, tx.y
    rx_x, rx_y = rx
    if np.any((x == rx_x) & (y == rx_y)):
        raise ConfigurationError("tx and rx coincide")
    n = len(tx)
    parts = []
    for k, wall_y in enumerate((None,) + geometry.wall_ys):
        points = [(x, y), (np.full(n, rx_x), np.full(n, rx_y))]
        if wall_y is None:
            valid = np.ones(n, dtype=bool)
            dy = np.abs(rx_y - y)
        else:
            img_y = 2 * wall_y - y
            valid = np.abs(img_y - rx_y) >= 1e-12   # else both on the wall line
            t = (wall_y - img_y) / np.where(valid, rx_y - img_y, 1.0)
            bx = x + t * (rx_x - x)
            valid &= (0.0 <= bx) & (bx <= geometry.road_length)
            points.insert(1, (bx, np.full(n, wall_y)))
            dy = np.abs(wall_y - y) + np.abs(wall_y - rx_y)
        # leave toward the first point after tx, arrive from the last before rx
        (fx, fy), (lx, ly) = points[1], points[-2]
        keep = np.flatnonzero(
            valid & _in_sector(np.arctan2(fy - y, fx - x), tx.bore, tx.fov)
            & _in_sector(np.arctan2(ly - rx_y, lx - rx_x), rx_bore, rx_fov))
        # a leg is tested only on the paths no earlier leg has blocked
        blocked = np.zeros(len(keep), dtype=bool)
        for (px, py), (qx, qy) in zip(points, points[1:]):
            open_ = np.flatnonzero(~blocked)
            rows = keep[open_]
            blocked[open_] = segments_blocked(
                np.column_stack((px[rows], py[rows])),
                np.column_stack((qx[rows], qy[rows])),
                tx.vehicle[rows], host, rects)
        # math's hypot and atan2, not numpy's, which round differently in the
        # last bits: amplitudes and delays match the scalar reference bit for bit
        dxy = list(zip(np.abs(rx_x - x[keep]).tolist(), dy[keep].tolist()))
        length = [math.hypot(a, b) for a, b in dxy]
        theta = [math.atan2(a, b) if k else 0.0 for a, b in dxy]
        parts.append(np.rec.fromarrays(
            (keep, np.full(len(keep), k), length, theta, blocked),
            dtype=PATH_DTYPE))
    out = np.concatenate(parts).view(np.recarray)
    return out[np.lexsort((out.kind, out.row))]


def one_way_gain(p, tx, rx_gain: float) -> np.ndarray:
    """G_tx * G_rx * |R|^2 * (lambda / 4 pi L)^2 for each unblocked row of the
    in-sector paths `p`, whose rows index `tx` (fields gain and the drifted
    carrier)."""
    live = p[~p.blocked]
    out = []
    for gt, f, k, length, theta in zip(
            tx.gain[live.row].tolist(), tx.carrier[live.row].tolist(),
            live.kind.tolist(), live.length.tolist(), live.theta.tolist()):
        coeff = fresnel_reflection(theta) if k else 1 + 0j
        lam = C0 / f
        spread = (lam / (4 * math.pi * length)) ** 2
        out.append(gt * rx_gain * abs(coeff) ** 2 * spread)
    return np.array(out)


def echo_power(wf: WaveformConfig, fov_halfwidth: float, radar_pos,
               radar_boresight, target_pos, rcs: float) -> float:
    """Two-way radar-equation receive power of a radar with the drifted
    waveform `wf`; zero outside the FOV.

    ERP = P_t * n_el * g_el (matches a 35 dBm ERP front LRR), receive gain
    n_el * g_el.
    """
    R = math.hypot(target_pos[0] - radar_pos[0], target_pos[1] - radar_pos[1])
    if R <= 0:
        raise ConfigurationError("target coincides with the radar")
    ang = math.atan2(target_pos[1] - radar_pos[1], target_pos[0] - radar_pos[0])
    if not _in_sector(ang, radar_boresight, fov_halfwidth):
        return 0.0
    lam = C0 / wf.carrier
    return (wf.erp * wf.rx_gain * lam ** 2 * rcs
            / ((4 * math.pi) ** 3 * R ** 4))
