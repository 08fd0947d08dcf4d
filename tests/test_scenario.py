"""Highway scene generation, radar installation and serialization tests."""
import math

import numpy as np
import pytest

from mirs.errors import ConfigurationError
from mirs.scenario import (DENSITY_TARGETS, RoadGeometry, Topology,
                           advance, assign_penetration, generate_highway,
                           install_host_radar, install_radars,
                           load_scenario, radar_layout, save_scenario,
                           scenario_from_dict, scenario_to_dict)
from mirs.waveform import RadarType


def make_scene(density="low", seed=0, **kw):
    return generate_highway(density, rng=np.random.default_rng(seed), **kw)


def overlapping(a, b):
    ax, ay = a.center
    bx, by = b.center
    ahx, ahy = a.half_extents
    bhx, bhy = b.half_extents
    return abs(ax - bx) < ahx + bhx - 1e-9 and abs(ay - by) < ahy + bhy - 1e-9


def test_exact_vehicle_counts():
    for label, n in DENSITY_TARGETS.items():
        s = make_scene(label, seed=11)
        assert len(s.vehicles) == n


def test_density_targets_are_table_values():
    assert DENSITY_TARGETS == {"low": 49, "medium": 143, "high": 334}


def test_no_overlap_now_and_later():
    s = make_scene("high", seed=3)
    for t in np.linspace(0.0, 10.0, 21):
        snap = advance(s, float(t))
        by_lane = {}
        for v in snap.vehicles:
            by_lane.setdefault(v.lane, []).append(v)
        for lane, vs in by_lane.items():
            vs.sort(key=lambda v: v.center[0])
            for a, b in zip(vs, vs[1:]):
                # wrapping can bring vehicles of different speeds together,
                # but lanes share one speed so spacing is rigid
                assert not overlapping(a, b)


def test_vehicles_inside_their_lanes():
    g = RoadGeometry()
    s = make_scene("medium", seed=5)
    for v in s.vehicles:
        assert v.center[1] == pytest.approx(g.lane_center(v.lane))
        assert abs(v.center[1]) + v.width / 2.0 < g.half_width
        expected_heading = 0.0 if v.center[1] < 0 else math.pi
        assert v.heading == expected_heading


def test_lane_speed_shared_and_in_range():
    s = make_scene("medium", seed=9)
    by_lane = {}
    for v in s.vehicles:
        by_lane.setdefault(v.lane, set()).add(v.speed)
        assert 25.0 <= v.speed <= 38.0
    for speeds in by_lane.values():
        assert len(speeds) == 1


def test_los_fraction_decreases_with_density():
    # fraction of vehicles with an unblocked straight line to the host
    from mirs.propagation import segments_blocked, vehicle_rects

    def los_fraction(label, seed):
        s = make_scene(label, seed=seed)
        host = next(i for i, v in enumerate(s.vehicles)
                    if v.id == s.host_vehicle_id)
        others = [i for i in range(len(s.vehicles)) if i != host]
        p = np.array([s.vehicles[host].center] * len(others))
        q = np.array([s.vehicles[i].center for i in others])
        blocked = segments_blocked(p, q, np.array(others), host,
                                   vehicle_rects(s.vehicles))
        return 1.0 - blocked.mean()

    seeds = range(30)
    low = np.mean([los_fraction("low", s) for s in seeds])
    med = np.mean([los_fraction("medium", s) for s in seeds])
    high = np.mean([los_fraction("high", s) for s in seeds])
    assert low > med > high


def test_corridor_clear_ahead_of_host():
    s = make_scene("high", seed=2, target_range=100.0)
    host = s.host
    x0 = host.center[0] + host.length / 2.0
    for v in s.vehicles:
        if v.id == host.id or v.lane != host.lane:
            continue
        assert not (x0 < v.center[0] < x0 + 120.0)


def test_topology_radar_multisets():
    counts = {Topology.FRONT: 1, Topology.PARTIAL: 3, Topology.FULL: 7}
    for topo, n in counts.items():
        layout = radar_layout(topo, 2.0, 5.0)
        assert len(layout) == n
    types = [t for t, _, _ in radar_layout(Topology.FULL, 2.0, 5.0)]
    assert types.count(RadarType.LRR) == 1
    assert types.count(RadarType.SRR) == 2
    assert types.count(RadarType.SBZA) == 4


def test_radar_mounts_on_perimeter():
    for topo in Topology:
        for _, (mx, my), _ in radar_layout(topo, 2.0, 5.0):
            assert abs(mx) == pytest.approx(2.5) or abs(my) == pytest.approx(1.0)


def test_install_radars_and_host():
    rng = np.random.default_rng(0)
    s = make_scene("low", seed=0)
    host = install_host_radar(s.host, RadarType.LRR, rng)
    assert len(host.radars) == 1
    assert host.radars[0].radar_type is RadarType.LRR
    other = next(v for v in s.vehicles if v.id != s.host_vehicle_id)
    v = install_radars(other, Topology.FULL, rng)
    assert len(v.radars) == 7
    with pytest.raises(ConfigurationError):
        install_radars(v, Topology.FULL, rng)
    with pytest.raises(ConfigurationError):
        install_host_radar(host, RadarType.USRR, rng)


def test_radar_world_position_respects_heading():
    rng = np.random.default_rng(1)
    s = make_scene("low", seed=1)
    v = next(x for x in s.vehicles if x.heading == math.pi)
    v = install_radars(v, Topology.FRONT, rng)
    r = v.radars[0]
    # front mount of an oncoming vehicle points along -x in world frame
    pos = v.radar_world_position(r)
    assert pos[0] == pytest.approx(v.center[0] - v.length / 2.0)
    assert math.cos(v.radar_world_boresight(r)) == pytest.approx(-1.0)


def test_penetration_binomial():
    rng0 = np.random.default_rng(0)
    base = make_scene("high", seed=4)
    base = base.with_vehicles([
        install_host_radar(v, RadarType.LRR, rng0)
        if v.id == base.host_vehicle_id else install_radars(v, Topology.FRONT, rng0)
        for v in base.vehicles])
    n_other = len(base.vehicles) - 1

    kept = []
    for s in range(40):
        rng = np.random.default_rng(s)
        pen = assign_penetration(base, 0.5, rng)
        kept.append(sum(1 for v in pen.vehicles
                        if v.id != pen.host_vehicle_id and v.radars))
    mean = np.mean(kept)
    sd = math.sqrt(n_other * 0.25)
    assert abs(mean - 0.5 * n_other) < 4 * sd / math.sqrt(40)

    # rate extremes are exact
    pen0 = assign_penetration(base, 0.0, np.random.default_rng(1))
    assert all(not v.radars for v in pen0.vehicles
               if v.id != pen0.host_vehicle_id)
    assert pen0.host.radars  # host keeps its radar regardless
    pen1 = assign_penetration(base, 1.0, np.random.default_rng(1))
    assert all(v.radars for v in pen1.vehicles)
    with pytest.raises(ConfigurationError):
        assign_penetration(base, 1.5, np.random.default_rng(1))


def test_advance_wraps_and_preserves_y():
    s = make_scene("low", seed=6)
    snap = advance(s, 10.0)
    L = s.geometry.road_length
    for v0, v1 in zip(s.vehicles, snap.vehicles):
        assert v1.center[1] == v0.center[1]
        dx = v0.speed * 10.0 * math.cos(v0.heading)
        assert v1.center[0] == pytest.approx((v0.center[0] + dx) % L)
    with pytest.raises(ConfigurationError):
        advance(s, 11.0)


def test_serialization_round_trip(tmp_path):
    rng = np.random.default_rng(8)
    s = make_scene("low", seed=8)
    s = s.with_vehicles([
        install_host_radar(v, RadarType.SRR, rng)
        if v.id == s.host_vehicle_id else install_radars(v, Topology.PARTIAL, rng)
        for v in s.vehicles])
    path = tmp_path / "scene.json"
    save_scenario(s, path)
    loaded = load_scenario(path)
    assert loaded == s
    # dict round-trip is exact too
    assert scenario_from_dict(scenario_to_dict(s)) == s


def test_generation_deterministic():
    a = make_scene("medium", seed=12)
    b = make_scene("medium", seed=12)
    assert a == b
    c = make_scene("medium", seed=13)
    assert c != a


def test_unknown_density_rejected():
    with pytest.raises(ConfigurationError):
        generate_highway("ultra", rng=np.random.default_rng(0))
