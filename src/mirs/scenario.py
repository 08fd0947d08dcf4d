"""Highway scene generation: geometry, walls, vehicles, radar installation.

Coordinates: x runs along the road, y across it.  Forward-direction lanes
(heading 0, +x) occupy y < 0, oncoming lanes (heading pi) y > 0.  Walls are
the lines y = +/-(3 * lane_width + wall_offset) spanning the full road length.
The road is toroidal: vehicles leaving one end re-enter at the other, which
keeps density stationary over the simulated horizon.
"""
from __future__ import annotations

import enum
import json
import math
from dataclasses import asdict, dataclass, fields, replace
from typing import NamedTuple, Optional, get_type_hints

import numpy as np

from .errors import ConfigurationError
from .waveform import (WAVEFORM_FIELDS, RadarType, WaveformConfig,
                       apply_clock_drift, check_waveform_rows, draw_waveforms)

CAR_SIZE = (2.0, 5.0)     # width, length [m]
TRUCK_SIZE = (2.6, 13.0)
MIN_GAP = 2.0             # bumper-to-bumper safety gap [m]
SPEED_RANGE = (25.0, 38.0)
CLOCK_DRIFT_PPM = 20.0
TARGET_CORRIDOR = 120.0   # kept clear ahead of the host in its own lane [m]

DENSITY_TARGETS = {"low": 49, "medium": 143, "high": 334}

FOV_HALFWIDTH = {
    RadarType.LRR: math.radians(15.0),
    RadarType.SRR: math.radians(60.0),
    RadarType.SBZA: math.radians(75.0),
    RadarType.USRR: math.radians(60.0),
}


class Polarization(enum.Enum):
    V = "V"
    H = "H"


class Topology(enum.Enum):
    FRONT = "front"
    PARTIAL = "partial"
    FULL = "full"


@dataclass(frozen=True)
class RoadGeometry:
    n_lanes_per_direction: int = 3
    lane_width: float = 3.5
    road_length: float = 1000.0
    wall_offset: float = 1.0

    @property
    def half_width(self) -> float:
        return self.n_lanes_per_direction * self.lane_width + self.wall_offset

    @property
    def n_lanes(self) -> int:
        return 2 * self.n_lanes_per_direction

    def lane_center(self, lane: int) -> float:
        """Lane 0..2 forward (y<0), lane 3..5 oncoming (y>0)."""
        n = self.n_lanes_per_direction
        if lane < n:
            return -(lane + 0.5) * self.lane_width
        return (lane - n + 0.5) * self.lane_width

    def lane_heading(self, lane: int) -> float:
        return 0.0 if lane < self.n_lanes_per_direction else math.pi

    @property
    def wall_ys(self):
        return (-self.half_width, self.half_width)


class Vehicle(NamedTuple):
    """One row of a scene's vehicle table."""
    id: int
    kind: str             # "car" | "truck"
    x: float              # center [m]
    y: float
    heading: float        # 0 or pi
    speed: float          # [m/s], along heading
    width: float
    length: float         # along x whatever the heading
    lane: int


# Column dtypes of the two scene tables, in row-tuple order.  A radar row
# holds its vehicle's row, its index among that vehicle's radars, its pose in
# the vehicle frame, its undrifted waveform and drift, and the technique
# columns (tf_n_slots 0: no TF slot).
VEHICLE_COLUMNS = get_type_hints(Vehicle)
RADAR_COLUMNS = dict(
    vehicle=int, index=int, mount_x=float, mount_y=float, boresight=float,
    fov_halfwidth=float, radar_type="U4",
    **{k: int if k in ("n_chirps", "n_elements") else float
       for k in WAVEFORM_FIELDS},
    drift_ppm=float, polarization="U1", band_lo=float, band_hi=float,
    tf_band=int, tf_slot=int, tf_n_slots=int, tf_frame=float, tf_sync=float,
    dither_bound=float)
# the technique columns of a radar no technique has touched (NaN band edges:
# no band assignment)
UNASSIGNED = (Polarization.V.value, math.nan, math.nan, 0, 0, 0, 0.0, 0.0, 0.0)


def _table(columns: dict, rows) -> dict:
    """One array per column of `rows`, tuples in `columns` order."""
    values = list(zip(*rows)) or [()] * len(columns)
    return {k: np.array(v, dtype=t)
            for (k, t), v in zip(columns.items(), values)}


@dataclass(frozen=True)
class ReferenceTarget:
    position: tuple       # host-frame offset from the host radar if host_relative
    rcs: float            # [m^2]
    host_relative: bool = True


@dataclass(frozen=True, eq=False)
class Scenario:
    """A highway scene as a vehicle table and a radar table: dicts of
    equal-length column arrays (VEHICLE_COLUMNS, RADAR_COLUMNS).  Radar rows
    run in (vehicle row, index) order.  A transform returns a new scene that
    shares every column it does not write; no column is written in place."""
    geometry: RoadGeometry
    vehicles: dict
    radars: dict
    host: int                 # the host vehicle's row
    host_radar_index: int
    reference_target: ReferenceTarget
    duration: float = 10.0
    density_label: str = "low"

    @property
    def host_vehicle_id(self) -> int:
        return int(self.vehicles["id"][self.host])

    @property
    def host_row(self) -> int:
        """The host radar's row of the radar table."""
        on_host = np.flatnonzero(self.radars["vehicle"] == self.host)
        return int(on_host[self.host_radar_index])

    def radar_poses(self, rows):
        """World x, y and boresight of the radars in `rows` of the radar
        table: the mount rotated by the vehicle heading (0 or pi, so a sign
        flip on both axes) and moved to the vehicle center."""
        r, v = self.radars, self.vehicles
        vi = r["vehicle"][rows]
        heading = v["heading"][vi]
        c = np.cos(heading)
        return (v["x"][vi] + c * r["mount_x"][rows],
                v["y"][vi] + c * r["mount_y"][rows],
                heading + r["boresight"][rows])

    def vehicle(self, i: int) -> Vehicle:
        return Vehicle(*(c[i].item() for c in self.vehicles.values()))

    def waveform(self, i: int) -> WaveformConfig:
        """The waveform of radar row `i`, its clock drift applied."""
        r = self.radars
        return apply_clock_drift(
            WaveformConfig(*(r[k][i].item() for k in WAVEFORM_FIELDS)),
            r["drift_ppm"][i].item())

    def tf_slot(self, i: int) -> Optional[tuple]:
        """(band, slot, n_slots, frame period, sync offset) of radar row `i`
        on the TF-coding grid, or None."""
        r = self.radars
        if not r["tf_n_slots"][i]:
            return None
        return tuple(r[k][i].item() for k in (
            "tf_band", "tf_slot", "tf_n_slots", "tf_frame", "tf_sync"))


def _vehicle_dims(kind: str):
    return CAR_SIZE if kind == "car" else TRUCK_SIZE


def _overlaps(x, half_len, placed):
    """1-D footprint overlap test within one lane (with safety gap)."""
    for px, ph in placed:
        if abs(x - px) < half_len + ph + MIN_GAP:
            return True
    return False


def generate_highway(density_label: str, geometry: RoadGeometry = RoadGeometry(),
                     truck_fraction: float = 0.1,
                     *, rng: np.random.Generator,
                     duration: float = 10.0,
                     target_rcs_dbsm: float = 10.0,
                     target_range: float = 100.0) -> Scenario:
    """Drop vehicles lane by lane with exponential inter-vehicle gaps.

    The host is a car placed mid-road in the forward center lane (row 0); a
    corridor ahead of it in its own lane is kept clear for the reference
    target.  No vehicle carries a radar yet.
    """
    if density_label not in DENSITY_TARGETS:
        raise ConfigurationError(f"unknown density label: {density_label}")
    target_count = DENSITY_TARGETS[density_label]

    mean_len = (1 - truck_fraction) * CAR_SIZE[1] + truck_fraction * TRUCK_SIZE[1]
    per_lane = target_count / geometry.n_lanes
    mean_gap = geometry.road_length / per_lane - mean_len
    if mean_gap < MIN_GAP:
        raise ConfigurationError("density target unreachable at this road length")

    lane_speeds = [rng.uniform(*SPEED_RANGE) for _ in range(geometry.n_lanes)]

    host_lane = 1
    host_x = geometry.road_length / 2.0
    host = Vehicle(id=0, kind="car", x=host_x, y=geometry.lane_center(host_lane),
                   heading=0.0, speed=lane_speeds[host_lane],
                   width=CAR_SIZE[0], length=CAR_SIZE[1], lane=host_lane)
    span = max(TARGET_CORRIDOR, target_range + 20.0)
    corridor = (host_x + host.length / 2.0, host_x + host.length / 2.0 + span)

    vehicles = [host]
    next_id = 1

    for lane in range(geometry.n_lanes):
        placed = [(host_x, host.length / 2.0)] if lane == host_lane else []
        blocked = ([(host_x - host.length / 2.0, corridor[1])]
                   if lane == host_lane else [])
        x = rng.exponential(mean_gap)
        while True:
            kind = "truck" if rng.random() < truck_fraction else "car"
            width, length = _vehicle_dims(kind)
            cx = x + length / 2.0
            if cx + length / 2.0 > geometry.road_length:
                break
            ok = not _overlaps(cx, length / 2.0, placed)
            for lo, hi in blocked:
                if cx + length / 2.0 + MIN_GAP > lo and cx - length / 2.0 - MIN_GAP < hi:
                    ok = False
            if ok:
                vehicles.append(Vehicle(
                    id=next_id, kind=kind, x=cx, y=geometry.lane_center(lane),
                    heading=geometry.lane_heading(lane), speed=lane_speeds[lane],
                    width=width, length=length, lane=lane))
                placed.append((cx, length / 2.0))
                next_id += 1
            x = cx + length / 2.0 + rng.exponential(mean_gap)

    vehicles = _trim_or_pad(vehicles, target_count, host, corridor, geometry,
                            lane_speeds, truck_fraction, rng)

    target = ReferenceTarget(position=(target_range, 0.0),
                             rcs=10 ** (target_rcs_dbsm / 10.0), host_relative=True)
    return Scenario(geometry=geometry, vehicles=_table(VEHICLE_COLUMNS, vehicles),
                    radars=_table(RADAR_COLUMNS, ()), host=0,
                    host_radar_index=0, reference_target=target,
                    duration=duration, density_label=density_label)


def _trim_or_pad(vehicles, target_count, host, corridor, geometry,
                 lane_speeds, truck_fraction, rng):
    host_x = host.x
    if len(vehicles) > target_count:
        others = [v for v in vehicles if v.id != host.id]
        others.sort(key=lambda v: abs(v.x - host_x))
        keep = others[:target_count - 1]
        return [host] + sorted(keep, key=lambda v: v.id)

    next_id = max(v.id for v in vehicles) + 1
    by_lane = {lane: [(v.x, v.length / 2.0) for v in vehicles if v.lane == lane]
               for lane in range(geometry.n_lanes)}
    tries = 0
    while len(vehicles) < target_count and tries < 20000:
        tries += 1
        lane = int(rng.integers(0, geometry.n_lanes))
        kind = "truck" if rng.random() < truck_fraction else "car"
        width, length = _vehicle_dims(kind)
        cx = rng.uniform(length / 2.0, geometry.road_length - length / 2.0)
        if lane == host.lane and cx + length / 2.0 + MIN_GAP > host_x - host.length / 2.0 \
                and cx - length / 2.0 - MIN_GAP < corridor[1]:
            continue
        if _overlaps(cx, length / 2.0, by_lane[lane]):
            continue
        vehicles.append(Vehicle(id=next_id, kind=kind, x=cx,
                                y=geometry.lane_center(lane),
                                heading=geometry.lane_heading(lane),
                                speed=lane_speeds[lane], width=width,
                                length=length, lane=lane))
        by_lane[lane].append((cx, length / 2.0))
        next_id += 1
    if len(vehicles) != target_count:
        raise ConfigurationError("could not pad scene to the exact vehicle count")
    return vehicles


def radar_layout(topology: Topology, width: float, length: float):
    """(type, mount, boresight) triples in the vehicle frame."""
    hl, hw = length / 2.0, width / 2.0
    q = math.pi / 4.0
    front_lrr = (RadarType.LRR, (hl, 0.0), 0.0)
    rear_sbza = [(RadarType.SBZA, (-hl, hw), math.pi - q),
                 (RadarType.SBZA, (-hl, -hw), math.pi + q)]
    if topology is Topology.FRONT:
        return [front_lrr]
    if topology is Topology.PARTIAL:
        return [front_lrr] + rear_sbza
    if topology is Topology.FULL:
        return ([front_lrr,
                 (RadarType.SRR, (hl, 0.0), 0.0),
                 (RadarType.SRR, (-hl, 0.0), math.pi)]
                + [(RadarType.SBZA, (hl, hw), q),
                   (RadarType.SBZA, (hl, -hw), -q)]
                + rear_sbza)
    raise ConfigurationError(f"unknown topology: {topology!r}")


# host radar mount, as multiples of (half length, half width), and boresight
HOST_MOUNTS = {RadarType.LRR: ((1, 0), 0.0), RadarType.SRR: ((1, 0), 0.0),
               RadarType.SBZA: ((-1, 1), math.pi - math.pi / 4.0)}


def install_radars(scenario: Scenario, topology: Topology,
                   host_type: RadarType, rng: np.random.Generator) -> Scenario:
    """Give the host vehicle its single radar-under-test and every other
    vehicle the topology's radar set.  In (vehicle row, index) order, each
    radar takes its waveform draws and then its clock-drift draw, all from
    one `draw_waveforms` block."""
    if host_type not in HOST_MOUNTS:
        raise ConfigurationError(f"{host_type} cannot be a host radar type")
    if scenario.radars["vehicle"].size:
        raise ConfigurationError("scene already carries radars")
    # the topology's layout and then the host's, mounts in units of the half
    # length and half width
    (sx, sy), bore = HOST_MOUNTS[host_type]
    layout = radar_layout(topology, 2.0, 2.0) + [(host_type, (sx, sy), bore)]
    types, mounts, bores = zip(*layout)
    v = scenario.vehicles
    host = np.arange(v["id"].size) == scenario.host
    n = np.where(host, 1, len(layout) - 1)
    vehicle = np.repeat(np.arange(n.size), n)
    index = np.arange(vehicle.size) - (np.cumsum(n) - n)[vehicle]
    entry = np.where(host[vehicle], len(layout) - 1, index)

    def per_row(values, dtype=float):
        return np.array(values, dtype)[entry]

    radar_type = per_row([t.value for t in types], RADAR_COLUMNS["radar_type"])
    waveforms, (u,) = draw_waveforms(radar_type, rng, extra=1)
    cols = dict(
        vehicle=vehicle, index=index,
        mount_x=per_row([m[0] for m in mounts]) * (v["length"] / 2.0)[vehicle],
        mount_y=per_row([m[1] for m in mounts]) * (v["width"] / 2.0)[vehicle],
        boresight=per_row(bores),
        fov_halfwidth=per_row([FOV_HALFWIDTH[t] for t in types]),
        radar_type=radar_type, **waveforms,
        drift_ppm=-CLOCK_DRIFT_PPM + 2 * CLOCK_DRIFT_PPM * u,
        **{c: np.full(vehicle.size, x, RADAR_COLUMNS[c])
           for c, x in zip(list(RADAR_COLUMNS)[-len(UNASSIGNED):], UNASSIGNED)})
    radars = {c: cols[c] for c in RADAR_COLUMNS}
    check_waveform_rows(radars)
    return replace(scenario, radars=radars)


def assign_penetration(scenario: Scenario, rate: float,
                       rng: np.random.Generator) -> Scenario:
    """Keep each non-host vehicle's radars with probability `rate`: one draw
    per non-host vehicle in row order, as a scalar draw per vehicle would
    take them."""
    if not 0.0 <= rate <= 1.0:
        raise ConfigurationError("penetration rate must be in [0, 1]")
    keep = np.arange(scenario.vehicles["id"].size) == scenario.host
    others = ~keep
    keep[others] = rng.random(np.count_nonzero(others)) < rate
    rows = keep[scenario.radars["vehicle"]]
    return replace(scenario,
                   radars={k: c[rows] for k, c in scenario.radars.items()})


def advance(scenario: Scenario, t: float) -> Scenario:
    """Translate every vehicle by speed*t along its heading, wrapping in x."""
    if not 0.0 <= t <= scenario.duration + 1e-9:
        raise ConfigurationError("time outside the simulated horizon")
    v = scenario.vehicles
    x = v["x"] + v["speed"] * t * np.cos(v["heading"])
    return replace(scenario, vehicles={
        **v, "x": x % scenario.geometry.road_length})


# ---------------------------------------------------------------------------
# serialization (bit-exact replay: every drawn quantity is stored)

def _radar_dict(s: Scenario, i: int):
    r = {k: c[i].item() for k, c in s.radars.items()}
    tf = s.tf_slot(i)
    return {
        "mount": [r["mount_x"], r["mount_y"]], "boresight": r["boresight"],
        "fov_halfwidth": r["fov_halfwidth"], "radar_type": r["radar_type"],
        "waveform": {k: r[k] for k in WAVEFORM_FIELDS},
        "drift_ppm": r["drift_ppm"], "polarization": r["polarization"],
        "band_assignment": (None if math.isnan(r["band_lo"])
                            else [r["band_lo"], r["band_hi"]]),
        "tf_slot": list(tf) if tf else None,
        "dither_bound": r["dither_bound"],
    }


def _radar_row(i: int, j: int, d) -> tuple:
    """The radar table row of radar `j` of vehicle row `i`, from its dict."""
    return (i, j, *d["mount"], d["boresight"], d["fov_halfwidth"],
            RadarType(d["radar_type"]).value,
            *(d["waveform"][k] for k in WAVEFORM_FIELDS), d["drift_ppm"],
            Polarization(d["polarization"]).value,
            *(d["band_assignment"] or UNASSIGNED[1:3]),
            *(d["tf_slot"] or UNASSIGNED[3:8]), d["dither_bound"])


def scenario_to_dict(s: Scenario) -> dict:
    radars = [[] for _ in range(s.vehicles["id"].size)]
    for j, i in enumerate(s.radars["vehicle"].tolist()):
        radars[i].append(_radar_dict(s, j))
    tgt = s.reference_target
    return {
        "geometry": asdict(s.geometry),
        "vehicles": [{
            "id": v.id, "kind": v.kind, "center": [v.x, v.y],
            "heading": v.heading, "speed": v.speed, "width": v.width,
            "length": v.length, "lane": v.lane, "radars": radars[i],
        } for i, v in enumerate(map(s.vehicle, range(len(radars))))],
        "host_vehicle_id": s.host_vehicle_id,
        "host_radar_index": s.host_radar_index,
        "reference_target": {**asdict(tgt), "position": list(tgt.position)},
        "duration": s.duration,
        "density_label": s.density_label,
    }


def _record(cls, d: dict, what: str):
    """cls(**d), naming an unknown key of d."""
    unknown = sorted(set(d) - {f.name for f in fields(cls)})
    if unknown:
        raise ConfigurationError(f"unknown {what} key {unknown[0]!r}")
    return cls(**d)


def scenario_from_dict(d: dict, source: str = "scenario") -> Scenario:
    """The scene of a scenario_to_dict mapping.  A missing or unknown key, or
    a value of the wrong kind, raises ConfigurationError naming `source`."""
    try:
        vs, tgt = d["vehicles"], d["reference_target"]
        radars = _table(RADAR_COLUMNS, [
            _radar_row(i, j, r) for i, v in enumerate(vs)
            for j, r in enumerate(v["radars"])])
        ids = [v["id"] for v in vs]
        if d["host_vehicle_id"] not in ids:
            raise ConfigurationError("host_vehicle_id names no vehicle")
        host = ids.index(d["host_vehicle_id"])
        # a scene before install_radars has no radars and host_radar_index 0
        n = int(np.count_nonzero(radars["vehicle"] == host))
        if (type(d["host_radar_index"]) is not int
                or not 0 <= d["host_radar_index"] < max(n, 1)):
            raise ConfigurationError(f"host_radar_index is not one of the "
                                     f"host's {n} radars")
        if type(d["duration"]) not in (int, float) or not d["duration"] > 0:
            raise ConfigurationError("duration must be a positive number")
        scen = Scenario(
            geometry=_record(RoadGeometry, d["geometry"], "geometry"),
            vehicles=_table(VEHICLE_COLUMNS, [
                (v["id"], v["kind"], *v["center"], v["heading"], v["speed"],
                 v["width"], v["length"], v["lane"]) for v in vs]),
            radars=radars, host=host, host_radar_index=d["host_radar_index"],
            reference_target=_record(
                ReferenceTarget, {**tgt, "position": tuple(tgt["position"])},
                "reference_target"),
            duration=d["duration"],
            density_label=d["density_label"],
        )
    except KeyError as e:
        raise ConfigurationError(f"{source}: missing key {e}") from None
    except (TypeError, ValueError, IndexError) as e:
        raise ConfigurationError(f"{source}: {e}") from None
    check_waveform_rows(radars)
    return scen


def save_scenario(s: Scenario, path):
    with open(path, "w") as f:
        json.dump(scenario_to_dict(s), f, indent=1)


def load_scenario(path) -> Scenario:
    with open(path) as f:
        try:
            d = json.load(f)
        except ValueError as e:
            raise ConfigurationError(f"{path} is not valid JSON: {e}") from None
    return scenario_from_dict(d, str(path))
