"""Scenes as objects, for the scalar oracles.

The scene and emitter oracles (tests/test_scene_draws.py,
tests/test_propagation.py) build and transform a scene one vehicle and one
radar record at a time.  `ObjVehicle` holds a vehicle with its `ObjRadar`s;
`objects_from_scene` and `scene_dict` convert between that form and the
library's tables through the scenario dict format, which `scenario_to_dict`
writes and `scenario_from_dict` reads.
"""
import math
from dataclasses import dataclass
from typing import Optional

from mirs.scenario import Polarization, scenario_to_dict
from mirs.waveform import RadarType, WaveformConfig, apply_clock_drift

WAVEFORM_KEYS = ("pri", "slope", "chirp_duration", "carrier", "n_chirps",
                 "fps", "n_elements", "tx_power", "element_gain", "adc_rate",
                 "start_offset")


@dataclass(frozen=True)
class ObjRadar:
    """One radar as a record: the fields of one radar table row."""
    mount: tuple          # (x, y) in the vehicle frame
    boresight: float      # relative to vehicle heading [rad]
    fov_halfwidth: float
    radar_type: RadarType
    waveform: WaveformConfig
    drift_ppm: float = 0.0
    polarization: Polarization = Polarization.V
    band_assignment: Optional[tuple] = None   # (f_lo, f_hi) [Hz]
    tf_slot: Optional[tuple] = None           # (band, slot, n_slots, frame, sync)
    dither_bound: float = 0.0

    def drifted(self) -> WaveformConfig:
        return apply_clock_drift(self.waveform, self.drift_ppm)


@dataclass(frozen=True)
class ObjVehicle:
    id: int
    kind: str
    center: tuple
    heading: float
    speed: float
    width: float
    length: float
    lane: int
    radars: tuple = ()

    def radar_world_position(self, radar: ObjRadar) -> tuple:
        c = math.cos(self.heading)
        mx, my = radar.mount
        return (self.center[0] + c * mx, self.center[1] + c * my)

    def radar_world_boresight(self, radar: ObjRadar) -> float:
        return self.heading + radar.boresight


def radar_from_dict(d) -> ObjRadar:
    return ObjRadar(
        mount=tuple(d["mount"]), boresight=d["boresight"],
        fov_halfwidth=d["fov_halfwidth"], radar_type=RadarType(d["radar_type"]),
        waveform=WaveformConfig(**d["waveform"]), drift_ppm=d["drift_ppm"],
        polarization=Polarization(d["polarization"]),
        band_assignment=tuple(d["band_assignment"]) if d["band_assignment"] else None,
        tf_slot=tuple(d["tf_slot"]) if d["tf_slot"] else None,
        dither_bound=d["dither_bound"])


def radar_dict(r: ObjRadar) -> dict:
    return {
        "mount": list(r.mount), "boresight": r.boresight,
        "fov_halfwidth": r.fov_halfwidth, "radar_type": r.radar_type.value,
        "waveform": {k: getattr(r.waveform, k) for k in WAVEFORM_KEYS},
        "drift_ppm": r.drift_ppm, "polarization": r.polarization.value,
        "band_assignment": list(r.band_assignment) if r.band_assignment else None,
        "tf_slot": list(r.tf_slot) if r.tf_slot else None,
        "dither_bound": r.dither_bound}


def objects_from_scene(scene) -> list:
    """The vehicles of a library scene, in row order, with their radars."""
    return [ObjVehicle(
        id=v["id"], kind=v["kind"], center=tuple(v["center"]),
        heading=v["heading"], speed=v["speed"], width=v["width"],
        length=v["length"], lane=v["lane"],
        radars=tuple(radar_from_dict(r) for r in v["radars"]))
        for v in scenario_to_dict(scene)["vehicles"]]


def scene_dict(vehicles, base: dict) -> dict:
    """The scenario dict of `base` (a scenario dict) with `vehicles`."""
    return {**base, "vehicles": [{
        "id": v.id, "kind": v.kind, "center": list(v.center),
        "heading": v.heading, "speed": v.speed, "width": v.width,
        "length": v.length, "lane": v.lane,
        "radars": [radar_dict(r) for r in v.radars]} for v in vehicles]}
