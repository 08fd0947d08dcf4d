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
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import ConfigurationError
from .waveform import (ClockModel, RadarType, WaveformConfig, apply_clock_drift,
                       draw_uniform, sample_waveform)

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


@dataclass(frozen=True)
class RadarInstance:
    mount: tuple          # (x, y) in the vehicle frame, on the footprint perimeter
    boresight: float      # relative to vehicle heading [rad]
    fov_halfwidth: float
    radar_type: RadarType
    waveform: WaveformConfig
    clock: ClockModel
    polarization: Polarization = Polarization.V
    band_assignment: Optional[tuple] = None   # (f_lo, f_hi) [Hz]
    tf_slot: Optional[tuple] = None           # (band_idx, slot_idx, n_slots, frame_period, sync_offset)
    dither_bound: float = 0.0                 # per-chirp start jitter bound [s]

    def drifted(self) -> WaveformConfig:
        return apply_clock_drift(self.waveform, self.clock)


@dataclass(frozen=True)
class Vehicle:
    id: int
    kind: str             # "car" | "truck"
    center: tuple         # (x, y) [m]
    heading: float        # 0 or pi
    speed: float          # [m/s], along heading
    width: float
    length: float
    lane: int
    radars: tuple = ()

    @property
    def half_extents(self):
        # Axis-aligned: length along x regardless of heading (0 or pi).
        return (self.length / 2.0, self.width / 2.0)

    def with_radars(self, radars) -> "Vehicle":
        # the constructor, not dataclasses.replace: this runs per vehicle
        # and per scene transform, and replace costs about twice as much
        return Vehicle(id=self.id, kind=self.kind, center=self.center,
                       heading=self.heading, speed=self.speed, width=self.width,
                       length=self.length, lane=self.lane, radars=tuple(radars))

    def radar_world_position(self, radar: RadarInstance) -> tuple:
        c = math.cos(self.heading)
        mx, my = radar.mount
        # heading is 0 or pi, so rotation is a sign flip on both axes
        return (self.center[0] + c * mx, self.center[1] + c * my)

    def radar_world_boresight(self, radar: RadarInstance) -> float:
        return self.heading + radar.boresight


@dataclass(frozen=True)
class ReferenceTarget:
    position: tuple       # host-frame offset from the host radar if host_relative
    rcs: float            # [m^2]
    host_relative: bool = True


@dataclass(frozen=True)
class Scenario:
    geometry: RoadGeometry
    vehicles: tuple
    host_vehicle_id: int
    host_radar_index: int
    reference_target: ReferenceTarget
    duration: float = 10.0
    density_label: str = "low"

    @property
    def host(self) -> Vehicle:
        return next(v for v in self.vehicles if v.id == self.host_vehicle_id)

    @property
    def host_radar(self) -> RadarInstance:
        return self.host.radars[self.host_radar_index]

    def with_vehicles(self, vehicles) -> "Scenario":
        return replace(self, vehicles=tuple(vehicles))


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

    The host is a car placed mid-road in the forward center lane; a corridor
    ahead of it in its own lane is kept clear for the reference target.
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
    host = Vehicle(id=0, kind="car", center=(host_x, geometry.lane_center(host_lane)),
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
                    id=next_id, kind=kind, center=(cx, geometry.lane_center(lane)),
                    heading=geometry.lane_heading(lane), speed=lane_speeds[lane],
                    width=width, length=length, lane=lane))
                placed.append((cx, length / 2.0))
                next_id += 1
            x = cx + length / 2.0 + rng.exponential(mean_gap)

    vehicles = _trim_or_pad(vehicles, target_count, host, corridor, geometry,
                            lane_speeds, truck_fraction, rng)

    target = ReferenceTarget(position=(target_range, 0.0),
                             rcs=10 ** (target_rcs_dbsm / 10.0), host_relative=True)
    return Scenario(geometry=geometry, vehicles=tuple(vehicles),
                    host_vehicle_id=0, host_radar_index=0,
                    reference_target=target, duration=duration,
                    density_label=density_label)


def _trim_or_pad(vehicles, target_count, host, corridor, geometry,
                 lane_speeds, truck_fraction, rng):
    host_x = host.center[0]
    if len(vehicles) > target_count:
        others = [v for v in vehicles if v.id != host.id]
        others.sort(key=lambda v: abs(v.center[0] - host_x))
        keep = others[:target_count - 1]
        return [host] + sorted(keep, key=lambda v: v.id)

    next_id = max(v.id for v in vehicles) + 1
    by_lane = {lane: [(v.center[0], v.length / 2.0)
                      for v in vehicles if v.lane == lane]
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
        vehicles.append(Vehicle(id=next_id, kind=kind,
                                center=(cx, geometry.lane_center(lane)),
                                heading=geometry.lane_heading(lane),
                                speed=lane_speeds[lane], width=width,
                                length=length, lane=lane))
        by_lane[lane].append((cx, length / 2.0))
        next_id += 1
    if len(vehicles) != target_count:
        raise ConfigurationError("could not pad scene to the exact vehicle count")
    return vehicles


def _make_radar(radar_type, mount, boresight, rng) -> RadarInstance:
    wf = sample_waveform(radar_type, rng)
    clock = ClockModel(
        drift_ppm=draw_uniform(rng, -CLOCK_DRIFT_PPM, CLOCK_DRIFT_PPM))
    return RadarInstance(mount=mount, boresight=boresight,
                         fov_halfwidth=FOV_HALFWIDTH[radar_type],
                         radar_type=radar_type, waveform=wf, clock=clock)


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


def install_radars(vehicle: Vehicle, topology: Topology,
                   rng: np.random.Generator) -> Vehicle:
    """Install the topology's radar set with independent waveform/clock draws."""
    if vehicle.radars:
        raise ConfigurationError("vehicle already carries radars")
    return vehicle.with_radars(
        _make_radar(t, m, b, rng)
        for t, m, b in radar_layout(topology, vehicle.width, vehicle.length))


HOST_MOUNTS = {
    RadarType.LRR: ("front_center", 0.0),
    RadarType.SRR: ("front_center", 0.0),
    RadarType.SBZA: ("rear_left", math.pi - math.pi / 4.0),
}


def install_host_radar(vehicle: Vehicle, radar_type: RadarType,
                       rng: np.random.Generator) -> Vehicle:
    """Give the host vehicle its single radar-under-test."""
    if radar_type not in HOST_MOUNTS:
        raise ConfigurationError(f"{radar_type} cannot be a host radar type")
    hl, hw = vehicle.length / 2.0, vehicle.width / 2.0
    place, boresight = HOST_MOUNTS[radar_type]
    mount = (hl, 0.0) if place == "front_center" else (-hl, hw)
    radar = _make_radar(radar_type, mount, boresight, rng)
    return vehicle.with_radars(vehicle.radars + (radar,))


def assign_penetration(scenario: Scenario, rate: float,
                       rng: np.random.Generator) -> Scenario:
    """Keep each non-host vehicle's radars with probability `rate`."""
    if not 0.0 <= rate <= 1.0:
        raise ConfigurationError("penetration rate must be in [0, 1]")
    host = scenario.host_vehicle_id
    # one draw per non-host vehicle in list order, as a scalar draw per
    # vehicle would take them
    u = iter(rng.random(sum(v.id != host for v in scenario.vehicles)).tolist())
    return scenario.with_vehicles(
        v if v.id == host or next(u) < rate else v.with_radars(())
        for v in scenario.vehicles)


def advance(scenario: Scenario, t: float) -> Scenario:
    """Translate every vehicle by speed*t along its heading, wrapping in x."""
    if not 0.0 <= t <= scenario.duration + 1e-9:
        raise ConfigurationError("time outside the simulated horizon")
    L = scenario.geometry.road_length
    out = []
    for v in scenario.vehicles:
        dx = v.speed * t * math.cos(v.heading)
        out.append(Vehicle(id=v.id, kind=v.kind,
                           center=((v.center[0] + dx) % L, v.center[1]),
                           heading=v.heading, speed=v.speed, width=v.width,
                           length=v.length, lane=v.lane, radars=v.radars))
    return scenario.with_vehicles(out)


# ---------------------------------------------------------------------------
# serialization (bit-exact replay: every drawn quantity is stored)

def _wf_dict(wf: WaveformConfig):
    return {k: getattr(wf, k) for k in (
        "pri", "slope", "chirp_duration", "carrier", "n_chirps", "fps",
        "n_elements", "tx_power", "element_gain", "adc_rate", "start_offset")}


def _radar_dict(r: RadarInstance):
    return {
        "mount": list(r.mount), "boresight": r.boresight,
        "fov_halfwidth": r.fov_halfwidth, "radar_type": r.radar_type.value,
        "waveform": _wf_dict(r.waveform), "drift_ppm": r.clock.drift_ppm,
        "polarization": r.polarization.value,
        "band_assignment": list(r.band_assignment) if r.band_assignment else None,
        "tf_slot": list(r.tf_slot) if r.tf_slot else None,
        "dither_bound": r.dither_bound,
    }


def _radar_from_dict(d) -> RadarInstance:
    return RadarInstance(
        mount=tuple(d["mount"]), boresight=d["boresight"],
        fov_halfwidth=d["fov_halfwidth"], radar_type=RadarType(d["radar_type"]),
        waveform=WaveformConfig(**d["waveform"]),
        clock=ClockModel(drift_ppm=d["drift_ppm"]),
        polarization=Polarization(d["polarization"]),
        band_assignment=tuple(d["band_assignment"]) if d["band_assignment"] else None,
        tf_slot=tuple(d["tf_slot"]) if d["tf_slot"] else None,
        dither_bound=d["dither_bound"],
    )


def scenario_to_dict(s: Scenario) -> dict:
    return {
        "geometry": {"n_lanes_per_direction": s.geometry.n_lanes_per_direction,
                     "lane_width": s.geometry.lane_width,
                     "road_length": s.geometry.road_length,
                     "wall_offset": s.geometry.wall_offset},
        "vehicles": [{
            "id": v.id, "kind": v.kind, "center": list(v.center),
            "heading": v.heading, "speed": v.speed, "width": v.width,
            "length": v.length, "lane": v.lane,
            "radars": [_radar_dict(r) for r in v.radars],
        } for v in s.vehicles],
        "host_vehicle_id": s.host_vehicle_id,
        "host_radar_index": s.host_radar_index,
        "reference_target": {"position": list(s.reference_target.position),
                             "rcs": s.reference_target.rcs,
                             "host_relative": s.reference_target.host_relative},
        "duration": s.duration,
        "density_label": s.density_label,
    }


def scenario_from_dict(d: dict) -> Scenario:
    return Scenario(
        geometry=RoadGeometry(**d["geometry"]),
        vehicles=tuple(Vehicle(
            id=v["id"], kind=v["kind"], center=tuple(v["center"]),
            heading=v["heading"], speed=v["speed"], width=v["width"],
            length=v["length"], lane=v["lane"],
            radars=tuple(_radar_from_dict(r) for r in v["radars"]),
        ) for v in d["vehicles"]),
        host_vehicle_id=d["host_vehicle_id"],
        host_radar_index=d["host_radar_index"],
        reference_target=ReferenceTarget(
            position=tuple(d["reference_target"]["position"]),
            rcs=d["reference_target"]["rcs"],
            host_relative=d["reference_target"]["host_relative"]),
        duration=d["duration"],
        density_label=d["density_label"],
    )


def save_scenario(s: Scenario, path):
    with open(path, "w") as f:
        json.dump(scenario_to_dict(s), f, indent=1)


def load_scenario(path) -> Scenario:
    with open(path) as f:
        return scenario_from_dict(json.load(f))
