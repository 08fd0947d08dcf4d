"""Highway scene generation, radar installation and serialization tests."""
import math

import numpy as np
import pytest

from mirs.errors import ConfigurationError
from mirs.scenario import (DENSITY_TARGETS, RoadGeometry, Topology,
                           advance, assign_penetration, generate_highway,
                           install_radars, load_scenario, radar_layout,
                           save_scenario, scenario_from_dict, scenario_to_dict)
from mirs.waveform import RadarType


def make_scene(density="low", seed=0, **kw):
    return generate_highway(density, rng=np.random.default_rng(seed), **kw)


def vehicles(s):
    """The rows of the vehicle table as Vehicle records."""
    return [s.vehicle(i) for i in range(s.vehicles["id"].size)]


def radar_counts(s):
    """Radars per vehicle row."""
    return np.bincount(s.radars["vehicle"], minlength=s.vehicles["id"].size)


def overlapping(a, b):
    return (abs(a.x - b.x) < (a.length + b.length) / 2.0 - 1e-9
            and abs(a.y - b.y) < (a.width + b.width) / 2.0 - 1e-9)


def test_exact_vehicle_counts():
    for label, n in DENSITY_TARGETS.items():
        s = make_scene(label, seed=11)
        assert s.vehicles["id"].size == n
        assert all(c.size == n for c in s.vehicles.values())


def test_density_targets_are_table_values():
    assert DENSITY_TARGETS == {"low": 49, "medium": 143, "high": 334}


def test_no_overlap_now_and_later():
    s = make_scene("high", seed=3)
    for t in np.linspace(0.0, 10.0, 21):
        snap = advance(s, float(t))
        by_lane = {}
        for v in vehicles(snap):
            by_lane.setdefault(v.lane, []).append(v)
        for lane, vs in by_lane.items():
            vs.sort(key=lambda v: v.x)
            for a, b in zip(vs, vs[1:]):
                # wrapping can bring vehicles of different speeds together,
                # but lanes share one speed so spacing is rigid
                assert not overlapping(a, b)


def test_vehicles_inside_their_lanes():
    g = RoadGeometry()
    s = make_scene("medium", seed=5)
    for v in vehicles(s):
        assert v.y == pytest.approx(g.lane_center(v.lane))
        assert abs(v.y) + v.width / 2.0 < g.half_width
        expected_heading = 0.0 if v.y < 0 else math.pi
        assert v.heading == expected_heading


def test_lane_speed_shared_and_in_range():
    s = make_scene("medium", seed=9)
    by_lane = {}
    for v in vehicles(s):
        by_lane.setdefault(v.lane, set()).add(v.speed)
        assert 25.0 <= v.speed <= 38.0
    for speeds in by_lane.values():
        assert len(speeds) == 1


def test_los_fraction_decreases_with_density():
    # fraction of vehicles with an unblocked straight line to the host
    from mirs.propagation import segments_blocked, vehicle_rects

    def los_fraction(label, seed):
        s = make_scene(label, seed=seed)
        host = s.host
        centers = np.column_stack((s.vehicles["x"], s.vehicles["y"]))
        others = [i for i in range(len(centers)) if i != host]
        p = np.array([centers[host]] * len(others))
        q = centers[others]
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
    host = s.vehicle(s.host)
    assert s.host == 0 and host.id == s.host_vehicle_id == 0
    x0 = host.x + host.length / 2.0
    for v in vehicles(s):
        if v.id == host.id or v.lane != host.lane:
            continue
        assert not (x0 < v.x < x0 + 120.0)


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
    s = install_radars(make_scene("low", seed=0), Topology.FULL,
                       RadarType.LRR, rng)
    assert radar_counts(s)[s.host] == 1
    assert s.radars["radar_type"][s.host_row] == RadarType.LRR.value
    assert all(n == 7 for i, n in enumerate(radar_counts(s)) if i != s.host)
    # every radar's index counts up from 0 on its own vehicle
    for i in range(s.vehicles["id"].size):
        on = s.radars["vehicle"] == i
        assert s.radars["index"][on].tolist() == list(range(on.sum()))
    with pytest.raises(ConfigurationError):
        install_radars(s, Topology.FULL, RadarType.LRR, rng)
    with pytest.raises(ConfigurationError):
        install_radars(make_scene("low", seed=0), Topology.FULL,
                       RadarType.USRR, rng)


def test_radar_world_position_respects_heading():
    rng = np.random.default_rng(1)
    s = install_radars(make_scene("low", seed=1), Topology.FRONT,
                       RadarType.LRR, rng)
    i = int(np.flatnonzero(s.vehicles["heading"] == math.pi)[0])
    v = s.vehicle(i)
    row = int(np.flatnonzero(s.radars["vehicle"] == i)[0])
    # front mount of an oncoming vehicle points along -x in world frame
    x, y, bore = (a.item() for a in s.radar_poses(row))
    assert x == pytest.approx(v.x - v.length / 2.0)
    assert y == v.y
    assert math.cos(bore) == pytest.approx(-1.0)
    # the vectorized poses agree with the one-row ones
    xs, ys, bores = s.radar_poses(np.arange(s.radars["vehicle"].size))
    assert (xs[row], ys[row], bores[row]) == (x, y, bore)


def test_penetration_binomial():
    rng0 = np.random.default_rng(0)
    base = install_radars(make_scene("high", seed=4), Topology.FRONT,
                          RadarType.LRR, rng0)
    n_other = base.vehicles["id"].size - 1

    def equipped(pen):
        counts = radar_counts(pen)
        return [n > 0 for i, n in enumerate(counts) if i != pen.host]

    kept = []
    for s in range(40):
        rng = np.random.default_rng(s)
        kept.append(sum(equipped(assign_penetration(base, 0.5, rng))))
    mean = np.mean(kept)
    sd = math.sqrt(n_other * 0.25)
    assert abs(mean - 0.5 * n_other) < 4 * sd / math.sqrt(40)

    # rate extremes are exact
    pen0 = assign_penetration(base, 0.0, np.random.default_rng(1))
    assert not any(equipped(pen0))
    assert radar_counts(pen0)[pen0.host] == 1  # host keeps its radar regardless
    assert scenario_to_dict(pen0)["vehicles"][pen0.host]["radars"] == \
        scenario_to_dict(base)["vehicles"][base.host]["radars"]
    pen1 = assign_penetration(base, 1.0, np.random.default_rng(1))
    assert all(equipped(pen1))
    assert scenario_to_dict(pen1) == scenario_to_dict(base)
    with pytest.raises(ConfigurationError):
        assign_penetration(base, 1.5, np.random.default_rng(1))


def test_advance_wraps_and_preserves_y():
    s = make_scene("low", seed=6)
    snap = advance(s, 10.0)
    L = s.geometry.road_length
    for v0, v1 in zip(vehicles(s), vehicles(snap)):
        assert v1.y == v0.y
        dx = v0.speed * 10.0 * math.cos(v0.heading)
        assert v1.x == pytest.approx((v0.x + dx) % L)
    with pytest.raises(ConfigurationError):
        advance(s, 11.0)


def test_serialization_round_trip(tmp_path):
    rng = np.random.default_rng(8)
    s = install_radars(make_scene("low", seed=8), Topology.PARTIAL,
                       RadarType.SRR, rng)
    path = tmp_path / "scene.json"
    save_scenario(s, path)
    loaded = load_scenario(path)
    assert scenario_to_dict(loaded) == scenario_to_dict(s)
    # dict round-trip is exact too, column by column
    again = scenario_from_dict(scenario_to_dict(s))
    for got, want in ((loaded.vehicles, s.vehicles), (loaded.radars, s.radars),
                      (again.radars, s.radars)):
        assert list(got) == list(want)
        for k in want:
            assert got[k].dtype == want[k].dtype
            assert np.array_equal(got[k], want[k],
                                  equal_nan=want[k].dtype.kind == "f")
    assert loaded.host == s.host


def test_generation_deterministic():
    a = make_scene("medium", seed=12)
    b = make_scene("medium", seed=12)
    assert scenario_to_dict(a) == scenario_to_dict(b)
    c = make_scene("medium", seed=13)
    assert scenario_to_dict(c) != scenario_to_dict(a)


def test_unknown_density_rejected():
    with pytest.raises(ConfigurationError):
        generate_highway("ultra", rng=np.random.default_rng(0))
