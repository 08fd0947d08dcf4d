"""Fresnel reflection, blockage geometry, path construction and link budget."""
import cmath
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.constants import c as C0

from mirs.errors import ConfigurationError
from mirs.harness import RADAR_ROW, ROW_WAVEFORM, build_emitters
from mirs.mitigation import cross_pol_factor
from mirs.propagation import (CONCRETE_INDEX, PATH_DTYPE, PATH_KINDS,
                              MaterialModel, PathKind, echo_power,
                              fresnel_reflection, one_way_gain, paths,
                              segments_blocked, vehicle_rects)
from mirs.scenario import (Polarization, RoadGeometry,
                           Topology, generate_highway, install_radars,
                           scenario_from_dict, scenario_to_dict)
from mirs.synthesis import (can_beat_in_band, chirp_times_in_window,
                            host_chirp_times)
from mirs.waveform import RadarType, WaveformConfig
from scene_objects import ObjRadar, ObjVehicle, objects_from_scene, scene_dict


def oracle_fresnel(theta, n):
    # independent complex-arithmetic evaluation of the vertical-polarization
    # reflection coefficient
    n2 = n * n
    s = cmath.sqrt(n2 - math.sin(theta) ** 2)
    return (n2 * math.cos(theta) - s) / (n2 * math.cos(theta) + s)


def test_fresnel_normal_incidence_magnitude():
    r = fresnel_reflection(0.0)
    # closed form at normal incidence: (n - 1) / (n + 1)
    n = CONCRETE_INDEX
    assert abs(r - (n * n - cmath.sqrt(n * n)) / (n * n + cmath.sqrt(n * n))) < 1e-12
    assert abs(abs(r) - 0.4323) < 1e-4


def test_fresnel_grazing_limit():
    # convergence to -1 is linear in cos(theta): the residual at 89.9 deg is
    # analytically 2 n^2 cos(theta) / (n^2 cos(theta) + sqrt(n^2 - sin^2)),
    # about 9.5e-3; at 89.99 deg it drops below 1e-3
    n2 = CONCRETE_INDEX * CONCRETE_INDEX
    th = math.radians(89.9)
    want = abs(2 * n2 * math.cos(th)
               / (n2 * math.cos(th) + cmath.sqrt(n2 - math.sin(th) ** 2)))
    assert abs(fresnel_reflection(th) - (-1.0)) == pytest.approx(want, rel=1e-9)
    assert abs(fresnel_reflection(math.radians(89.99)) - (-1.0)) < 1e-3


def test_fresnel_matches_independent_oracle():
    for deg in (0.0, 30.0, 60.0, 85.0):
        th = math.radians(deg)
        assert abs(fresnel_reflection(th) - oracle_fresnel(th, CONCRETE_INDEX)) < 1e-12


def test_fresnel_lossless_unity_index_limit():
    # as n -> 1 from above the interface vanishes
    m = MaterialModel(refractive_index=1.0 + 1e-9 - 0j)
    assert abs(fresnel_reflection(0.3, m)) < 1e-6


def test_material_validation():
    with pytest.raises(ConfigurationError):
        MaterialModel(refractive_index=0.9 + 0j)


# ---------------------------------------------------------------------------
# blockage

class Rect:
    def __init__(self, id, cx, cy, w, l):
        self.id = id
        self.center = (cx, cy)
        self.width = w
        self.length = l


def rect_table(rects):
    """The vehicle-table columns vehicle_rects reads, one row per Rect."""
    return {"x": np.array([r.center[0] for r in rects]),
            "y": np.array([r.center[1] for r in rects]),
            "width": np.array([r.width for r in rects]),
            "length": np.array([r.length for r in rects])}


# a rectangle far from every test segment, to stand in as owner and host
FAR = Rect(99, 1e4, 1e4, 2.0, 5.0)


def blocked(rects, p, q, owner=None, host=None):
    """segments_blocked for one segment; owner and host default to the last
    rectangle."""
    last = len(rects) - 1
    return bool(segments_blocked(
        np.array([p], dtype=float), np.array([q], dtype=float),
        np.array([last if owner is None else owner]),
        last if host is None else host, vehicle_rects(rect_table(rects)))[0])


def sampled_blocked(p, q, rect, n=1000, margin=0.0):
    # brute-force oracle: sample interior points of the open segment against
    # the rectangle grown by `margin` on every side
    xs = np.linspace(p[0], q[0], n + 2)[1:-1]
    ys = np.linspace(p[1], q[1], n + 2)[1:-1]
    xmin = rect.center[0] - rect.length / 2.0 - margin
    xmax = rect.center[0] + rect.length / 2.0 + margin
    ymin = rect.center[1] - rect.width / 2.0 - margin
    ymax = rect.center[1] + rect.width / 2.0 + margin
    return bool(np.any((xs > xmin) & (xs < xmax) & (ys > ymin) & (ys < ymax)))


def test_segment_blocked_matches_sampling_oracle():
    rng = np.random.default_rng(42)
    rect = Rect(1, 0.0, 0.0, 2.0, 5.0)
    rects = [rect, FAR]
    agree = 0
    for _ in range(400):
        p = tuple(rng.uniform(-8, 8, 2))
        q = tuple(rng.uniform(-8, 8, 2))
        if p == q:
            continue
        got = blocked(rects, p, q)
        want = sampled_blocked(p, q, rect, n=4000)
        # dense sampling can miss razor-thin clips; tolerate only that side
        if got != want:
            assert got and not want
            continue
        agree += 1
    assert agree > 380


def test_segment_blocked_basic_cases():
    rects = [Rect(1, 0.0, 0.0, 2.0, 5.0), FAR]
    assert blocked(rects, (-10, 0), (10, 0))
    assert not blocked(rects, (-10, 5), (10, 5))
    # the segment's own vehicle and the host never block it
    assert not blocked(rects, (-10, 0), (10, 0), owner=0)
    assert not blocked(rects, (-10, 0), (10, 0), host=0)
    # endpoint touching the boundary does not count
    assert not blocked(rects, (2.5, 0), (10, 0))
    # no segments: nothing to test
    none = np.empty((0, 2))
    assert segments_blocked(none, none, np.empty(0, dtype=int), 0,
                            vehicle_rects(rect_table(rects))).shape == (0,)
    assert vehicle_rects(rect_table([])).shape == (0, 4)


coord = st.floats(-25.0, 25.0, allow_nan=False)


@settings(max_examples=150, deadline=None)
@given(centers=st.lists(st.tuples(coord, coord), min_size=1, max_size=6),
       segments=st.lists(st.tuples(st.tuples(coord, coord),
                                   st.tuples(coord, coord),
                                   st.integers(0, 5)),
                         min_size=1, max_size=4),
       host=st.integers(0, 5))
@example(centers=[(0.0, 0.0), (0.0, -1.0)],
         segments=[((0.0, 0.0), (0.0, -4.403423023554326e-91), 0)], host=0)
def test_segments_blocked_matches_sampling_oracle_property(centers, segments,
                                                           host):
    rects = [Rect(i, x, y, 2.0, 5.0) for i, (x, y) in enumerate(centers)]
    host %= len(rects)
    p = np.array([s[0] for s in segments], dtype=float)
    q = np.array([s[1] for s in segments], dtype=float)
    owner = np.array([s[2] % len(rects) for s in segments])
    got = segments_blocked(p, q, owner, host, vehicle_rects(rect_table(rects)))
    for k, (a, b, _) in enumerate(segments):
        live = [r for i, r in enumerate(rects) if i not in (owner[k], host)]

        def oracle(margin):
            return any(sampled_blocked(a, b, r, n=4000, margin=margin)
                       for r in live)

        if abs(b[0] - a[0]) < 1e-12 and abs(b[1] - a[1]) < 1e-12:
            # a point-like segment is its start point: blocked strictly
            # inside a rectangle, not on its edge
            assert got[k] == any(sampled_blocked(a, a, r, n=1) for r in live)
            continue
        # dense sampling can miss razor-thin clips; tolerate only that side,
        # and only where a sample falls within one sample spacing of a
        # rectangle
        spacing = math.hypot(b[0] - a[0], b[1] - a[1]) / 4000
        assert got[k] == oracle(0.0) or (got[k] and oracle(spacing))


# ---------------------------------------------------------------------------
# paths

def clean_scene(seed=0):
    s = generate_highway("low", rng=np.random.default_rng(seed))
    # strip all vehicles so no blockage interferes with geometry checks
    d = scenario_to_dict(s)
    return scenario_from_dict({**d, "vehicles": [d["vehicles"][s.host]]})


def radar_rows(*rows, gain=1.0, carrier=77e9):
    """A paths() transmitter table of RADAR_ROW rows from (x, y, bore, fov,
    vehicle) tuples, each with antenna gain `gain` and carrier `carrier`;
    paths and one_way_gain read no other field."""
    table = np.zeros(len(rows), RADAR_ROW).view(np.recarray)
    for name, col in zip(("x", "y", "bore", "fov", "vehicle"), zip(*rows)):
        table[name] = col
    table.gain, table.carrier = gain, carrier
    return table


def scene_paths(s, tx, rx, rx_bore=0.0, rx_fov=math.pi, host=0):
    return paths(tx, rx, rx_bore, rx_fov, host, vehicle_rects(s.vehicles),
                 s.geometry)


def kinds(got):
    return [PATH_KINDS[k] for k in got.kind]


# sectors this narrow keep a path only where both antennas point along it
NARROW = 1e-6


def test_direct_path_length_and_angles():
    s = clean_scene()

    def got(tx_bore, rx_bore):
        return scene_paths(s, radar_rows((100.0, -5.0, tx_bore, NARROW, 0)),
                           (160.0, -5.0), rx_bore, NARROW)

    direct = got(0.0, math.pi)
    assert kinds(direct) == [PathKind.DIRECT]
    assert direct.length[0] == pytest.approx(60.0)
    assert direct.row[0] == 0 and direct.theta[0] == 0.0
    assert not direct.blocked[0]
    # departure angle 0, arrival angle pi (the same direction as -pi)
    assert len(got(0.5 * NARROW, -math.pi + 0.5 * NARROW)) == 1
    assert len(got(3 * NARROW, math.pi)) == 0
    assert len(got(0.0, math.pi - 3 * NARROW)) == 0


def test_wall_bounce_image_length_and_angle():
    s = clean_scene()
    half = s.geometry.half_width  # 11.5 m
    tx, rx = (100.0, -5.0), (160.0, 3.0)
    got = scene_paths(s, radar_rows((*tx, 0.0, math.pi, 0)), rx)
    assert kinds(got) == list(PATH_KINDS)
    for kind, wall_y in ((PathKind.WALL_LOWER, -half),
                         (PathKind.WALL_UPPER, half)):
        p = got[kinds(got).index(kind)]
        # image method: length = sqrt(dx^2 + (|y_w - y_t| + |y_w - y_r|)^2)
        d1, d2 = abs(wall_y - tx[1]), abs(wall_y - rx[1])
        assert p.length == pytest.approx(math.hypot(60.0, d1 + d2))
        # incidence angle from the wall normal
        assert p.theta == pytest.approx(math.atan2(60.0, d1 + d2), abs=1e-12)
        # angle in equals angle out: the bounce point splits dx as d1 : d2,
        # and the path leaves tx toward it and reaches rx from it
        bx = tx[0] + 60.0 * d1 / (d1 + d2)
        dep = math.atan2(wall_y - tx[1], bx - tx[0])
        arr = math.atan2(wall_y - rx[1], bx - rx[0])
        assert abs(dep) == pytest.approx(abs(math.pi - abs(arr)), abs=1e-12)

        def narrow(tx_bore, rx_bore):
            return kinds(scene_paths(
                s, radar_rows((*tx, tx_bore, NARROW, 0)), rx, rx_bore, NARROW))

        assert narrow(dep, arr) == [kind]
        assert narrow(dep + 3 * NARROW, arr) == []
        assert narrow(dep, arr - 3 * NARROW) == []


def test_bounce_outside_road_span_is_dropped():
    s = clean_scene()
    end = s.geometry.road_length
    # both points past the road's end put both bounce points off the road
    got = scene_paths(s, radar_rows((end + 10.0, 5.0, math.pi, math.pi, 0)),
                      (end + 4.0, -5.0))
    assert kinds(got) == [PathKind.DIRECT]
    # the same pair moved onto the road has both bounces
    got = scene_paths(s, radar_rows((end - 10.0, 5.0, math.pi, math.pi, 0)),
                      (end - 16.0, -5.0))
    assert kinds(got) == list(PATH_KINDS)


def test_paths_blockage_flag():
    s = generate_highway("low", rng=np.random.default_rng(0))
    host = s.host
    i, blocker = next((i, s.vehicle(i)) for i in range(s.vehicles["id"].size)
                      if i != host and s.vehicles["lane"][i]
                      == s.vehicles["lane"][host])
    # a segment straight through the blocker center is marked blocked;
    # MIN_GAP keeps every other vehicle off it
    reach = blocker.length / 2.0 + 1.0
    p = (blocker.x - reach, blocker.y)
    q = (blocker.x + reach, blocker.y)
    got = scene_paths(s, radar_rows((*p, 0.0, NARROW, host)), q,
                      rx_bore=math.pi, rx_fov=NARROW)
    assert kinds(got) == [PathKind.DIRECT] and got.blocked[0]
    # ... unless the blocker carries the transmitting radar
    got = scene_paths(s, radar_rows((*p, 0.0, NARROW, i)), q,
                      rx_bore=math.pi, rx_fov=NARROW)
    assert not got.blocked[0]
    with pytest.raises(ConfigurationError):
        scene_paths(s, radar_rows((*p, 0.0, NARROW, host)), p)


# ---------------------------------------------------------------------------
# gains and link budget

def host_radar_instance(radar_type=RadarType.LRR, seed=0):
    rng = np.random.default_rng(seed)
    s = install_radars(generate_highway("low", rng=rng), Topology.FRONT,
                       radar_type, rng)
    return objects_from_scene(s)[s.host].radars[s.host_radar_index]


def link(r, tx_bore, rx_bore, tx=(100.0, -5.0), rx=(200.0, -5.0)):
    """(in-sector paths, their gains) from a radar like `r` at tx, aimed at
    tx_bore, to `r` itself at rx aimed at rx_bore."""
    table = radar_rows((*tx, tx_bore, r.fov_halfwidth, 0),
                       gain=r.waveform.rx_gain, carrier=r.drifted().carrier)
    got = scene_paths(clean_scene(), table, rx, rx_bore, r.fov_halfwidth)
    return got, one_way_gain(got, table, r.waveform.rx_gain)


def test_sector_gain_flat_inside_fov():
    r = host_radar_instance()
    fov = r.fov_halfwidth
    lam = C0 / r.drifted().carrier
    want = r.waveform.rx_gain ** 2 * (lam / (4 * math.pi * 100.0)) ** 2

    def direct_gain(tx_bore, rx_bore=math.pi, **where):
        got, g = link(r, tx_bore, rx_bore, **where)
        direct = [k is PathKind.DIRECT for k in kinds(got)]
        return g[direct].tolist()

    # the same flat gain anywhere inside either sector, none outside
    assert direct_gain(0.0) == pytest.approx([want], rel=1e-12)
    assert direct_gain(0.99 * fov) == direct_gain(0.0)
    assert direct_gain(-0.99 * fov) == direct_gain(0.0)
    assert direct_gain(0.0, math.pi - 0.99 * fov) == direct_gain(0.0)
    assert direct_gain(1.01 * fov) == []
    assert direct_gain(0.0, math.pi + 1.01 * fov) == []
    # wrap-around at +/- pi: a path leaving at -pi + 0.01 is inside a
    # sector aimed at +pi
    a = -math.pi + 0.01
    rx = (100.0 + 100.0 * math.cos(a), -5.0 + 100.0 * math.sin(a))
    assert direct_gain(math.pi, 0.01, rx=rx) == pytest.approx([want], rel=1e-9)


def test_one_way_gain_friis_hand_calc():
    r = host_radar_instance()
    got, g = link(r, 0.0, math.pi)
    assert not got.blocked.any() and len(g) == len(got)
    lam = C0 / r.drifted().carrier
    want = r.waveform.rx_gain ** 2 * (lam / (4 * math.pi * 100.0)) ** 2
    assert g[kinds(got).index(PathKind.DIRECT)] == pytest.approx(want, rel=1e-12)
    # out of FOV on one side -> no path, so no gain
    got, g = link(r, math.pi / 2, math.pi)
    assert len(got) == 0 and len(g) == 0


def rows(*recs):
    return np.rec.fromrecords(list(recs), dtype=PATH_DTYPE)


def test_one_way_gain_reflection_loss_at_normal_incidence():
    # a wall path at normal incidence against a direct path of the same
    # length: the power ratio is |(n - 1) / (n + 1)|^2, about -7.28 dB
    r = host_radar_instance()
    table = radar_rows((0.0, 0.0, 0.0, 1.0, 0), gain=r.waveform.rx_gain,
                       carrier=r.drifted().carrier)
    g0, g1 = one_way_gain(rows((0, 0, 100.0, 0.0, False),
                               (0, 1, 100.0, 0.0, False)),
                          table, r.waveform.rx_gain)
    n = CONCRETE_INDEX
    want = -20 * math.log10(abs((n - 1) / (n + 1)))
    assert 10 * math.log10(g0 / g1) == pytest.approx(want, rel=1e-9)
    assert 10 * math.log10(g0 / g1) == pytest.approx(7.28, abs=0.01)


def test_one_way_gain_rejects_blocked_path():
    # blocked rows get no gain; the others keep theirs, in order
    r = host_radar_instance()
    table = radar_rows((0.0, 0.0, 0.0, 1.0, 0), (5.0, 0.0, 0.0, 1.0, 0),
                       gain=r.waveform.rx_gain, carrier=r.drifted().carrier)
    a = (0, 0, 100.0, 0.0, False)
    b = (1, 2, 150.0, 0.3, False)
    g = one_way_gain(rows(a, (0, 1, 120.0, 0.2, True), b), table, 1.0)
    assert g.tolist() == one_way_gain(rows(a, b), table, 1.0).tolist()
    assert len(g) == 2
    assert one_way_gain(rows((0, 0, 100.0, 0.0, True)), table, 1.0).size == 0


def test_echo_power_fourth_power_law():
    r = host_radar_instance()
    wf = r.drifted()
    p1 = echo_power(wf, r.fov_halfwidth, (0.0, 0.0), 0.0, (100.0, 0.0), 10.0)
    p2 = echo_power(wf, r.fov_halfwidth, (0.0, 0.0), 0.0, (200.0, 0.0), 10.0)
    assert p1 / p2 == pytest.approx(16.0, rel=1e-12)
    # radar equation hand calculation
    lam = C0 / wf.carrier
    want = wf.erp * wf.rx_gain * lam ** 2 * 10.0 / ((4 * math.pi) ** 3 * 100.0 ** 4)
    assert p1 == pytest.approx(want, rel=1e-12)


def test_echo_power_fov_and_blockage():
    r = host_radar_instance()
    wf = r.drifted()
    assert echo_power(wf, r.fov_halfwidth, (0.0, 0.0), 0.0, (-100.0, 0.0),
                      10.0) == 0.0
    with pytest.raises(ConfigurationError):
        echo_power(wf, r.fov_halfwidth, (0.0, 0.0), 0.0, (0.0, 0.0), 10.0)


# ---------------------------------------------------------------------------
# batched build_emitters against a scalar reference

def ref_segment_blocked(p, q, rect):
    """Scalar slab test of one segment against one rectangle (xmin, xmax,
    ymin, ymax); touching at an endpoint does not count."""
    t0, t1 = 0.0, 1.0
    for o, d, lo, hi in ((p[0], q[0] - p[0], rect[0], rect[1]),
                         (p[1], q[1] - p[1], rect[2], rect[3])):
        if abs(d) < 1e-12:
            if not lo < o < hi:
                return False
        else:
            ta, tb = (lo - o) / d, (hi - o) / d
            t0, t1 = max(t0, min(ta, tb)), min(t1, max(ta, tb))
    return t0 < t1 - 1e-12 and t1 > 1e-9 and t0 < 1 - 1e-9


def ref_paths(tx, rx, geometry):
    """Every direct and wall-image path, in emission order, as (kind, length,
    departure angle, arrival angle, reflection coefficient, legs)."""
    out = [(PathKind.DIRECT, math.hypot(rx[0] - tx[0], rx[1] - tx[1]),
            math.atan2(rx[1] - tx[1], rx[0] - tx[0]),
            math.atan2(tx[1] - rx[1], tx[0] - rx[0]), 1 + 0j, [(tx, rx)])]
    for kind, wall_y in zip(PATH_KINDS[1:], geometry.wall_ys):
        img_y = 2 * wall_y - tx[1]
        if abs(img_y - rx[1]) < 1e-12:
            continue
        bx = tx[0] + (wall_y - img_y) / (rx[1] - img_y) * (rx[0] - tx[0])
        if not 0.0 <= bx <= geometry.road_length:
            continue
        dx = abs(rx[0] - tx[0])
        dy = abs(wall_y - tx[1]) + abs(wall_y - rx[1])
        b = (bx, wall_y)
        out.append((kind, math.hypot(dx, dy),
                    math.atan2(wall_y - tx[1], bx - tx[0]),
                    math.atan2(wall_y - rx[1], bx - rx[0]),
                    fresnel_reflection(math.atan2(dx, dy)), [(tx, b), (b, rx)]))
    return out


def ref_emitters(vehicles, host, geometry, host_pos, host_bore, hr, host_wf,
                 t0, t1, seed_key):
    """build_emitters over the object form of a scene (`vehicles`, with the
    host vehicle at index `host`), one radar and one path at a time: every
    path's reflection and blockage first, the sector gates last."""
    def in_sector(angle, bore, fov):
        return abs((angle - bore + math.pi) % (2 * math.pi) - math.pi) <= fov

    rects = [(v.center[0] - v.length / 2.0, v.center[0] + v.length / 2.0,
              v.center[1] - v.width / 2.0, v.center[1] + v.width / 2.0)
             for v in vehicles]
    out = []
    for i, v in enumerate(vehicles):
        if i == host:
            continue
        for ri, r in enumerate(v.radars):
            wf = r.drifted()
            if not can_beat_in_band(host_wf, wf):
                continue
            pos, bore = v.radar_world_position(r), v.radar_world_boresight(r)
            times = None
            for kind, length, dep, arr, coeff, legs in ref_paths(
                    pos, host_pos, geometry):
                if any(ref_segment_blocked(a, b, rects[j])
                       for a, b in legs for j in range(len(rects))
                       if j not in (i, host)):
                    continue
                if not (in_sector(dep, bore, r.fov_halfwidth)
                        and in_sector(arr, host_bore, hr.fov_halfwidth)):
                    continue
                lam = C0 / wf.carrier
                g = (r.waveform.rx_gain * hr.waveform.rx_gain * abs(coeff) ** 2
                     * (lam / (4 * math.pi * length)) ** 2)
                g *= cross_pol_factor(r.polarization.value,
                                      hr.polarization.value,
                                      reflected=kind is not PathKind.DIRECT)
                delay = length / C0
                if times is None:
                    times = chirp_times_in_window(
                        wf, t0 - delay, t1 - delay, tf_slot=r.tf_slot,
                        dither_bound=r.dither_bound,
                        dither_seed=tuple(seed_key) + (v.id, ri))
                if times.size:
                    out.append((v.id, ri, kind.value, wf,
                                math.sqrt(wf.tx_power * g), times + delay))
    return out


SMALL_SCENE = {"geometry": {"n_lanes_per_direction": 3, "lane_width": 3.5,
                            "road_length": 1000.0, "wall_offset": 1.0},
               "host_vehicle_id": 0, "host_radar_index": 0,
               "reference_target": {"position": [100.0, 0.0], "rcs": 10.0,
                                    "host_relative": True},
               "duration": 10.0, "density_label": "low"}


@st.composite
def small_scenes(draw):
    """A host and a few cars and trucks with full radar sets, as objects and
    as the library scene of the same radars; some radars are turned,
    re-polarized, moved near the host's carrier, put on a TF slot or
    dithered."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    g = RoadGeometry()
    host = ObjVehicle(id=0, kind="car", center=(500.0, g.lane_center(1)),
                      heading=0.0, speed=30.0, width=2.0, length=5.0, lane=1)
    vehicles = [host]
    for vid in range(1, draw(st.integers(1, 6)) + 1):
        kind = draw(st.sampled_from(["car", "truck"]))
        lane = draw(st.integers(0, g.n_lanes - 1))
        x = draw(st.floats(420.0, 580.0))
        if lane == host.lane and abs(x - 500.0) < 12.0:
            x += 24.0          # keep clear of the host's footprint
        w, l = (2.6, 13.0) if kind == "truck" else (2.0, 5.0)
        vehicles.append(ObjVehicle(
            id=vid, kind=kind, center=(x, g.lane_center(lane)),
            heading=g.lane_heading(lane), speed=30.0, width=w, length=l,
            lane=lane))
    installed = install_radars(
        scenario_from_dict(scene_dict(vehicles, SMALL_SCENE)), Topology.FULL,
        draw(st.sampled_from([RadarType.LRR, RadarType.SRR, RadarType.SBZA])),
        rng)
    vehicles = objects_from_scene(installed)
    host_wf = vehicles[0].radars[0].waveform
    out = []
    for v in vehicles:
        radars = []
        for r in v.radars:
            wf = r.waveform
            if rng.random() < 0.7 and v.id != host.id:
                wf = replace(wf, carrier=host_wf.carrier
                             + rng.uniform(-3e8, 3e8))
            r = replace(r, waveform=wf, polarization=rng.choice(
                [Polarization.V, Polarization.H]))
            if rng.random() < 0.3:
                r = replace(r, boresight=rng.uniform(-math.pi, math.pi))
            if rng.random() < 0.3:
                r = replace(r, tf_slot=(0, int(rng.integers(6)), 6,
                                        1.0 / wf.fps, rng.uniform(0, 1e-3)))
            if rng.random() < 0.3:
                r = replace(r, dither_bound=rng.uniform(0.0, 2e-6))
            radars.append(r)
        out.append(replace(v, radars=tuple(radars)))
    return out, scenario_from_dict(scene_dict(out, SMALL_SCENE))


@settings(max_examples=60, deadline=None)
@given(scenes=small_scenes(), dwell=st.integers(0, 3))
def test_build_emitters_matches_scalar_reference(scenes, dwell):
    vehicles, snap = scenes
    host_v = vehicles[0]
    hr = host_v.radars[0]
    assert snap.host == 0 and snap.host_row == 0
    assert objects_from_scene(snap) == vehicles
    host_pos = host_v.radar_world_position(hr)
    host_bore = host_v.radar_world_boresight(hr)
    assert [a.item() for a in snap.radar_poses(snap.host_row)] == \
        [*host_pos, host_bore]
    host_wf = hr.drifted()
    assert snap.waveform(0) == host_wf and snap.tf_slot(0) == hr.tf_slot
    times = host_chirp_times(host_wf, dwell, tf_slot=hr.tf_slot)
    t0, t1 = times[0], times[-1] + host_wf.chirp_duration
    args = (host_pos, host_bore, host_wf, t0, t1, (7, dwell))
    got = build_emitters(snap, *args[:2], snap.host_row, *args[2:])
    want = ref_emitters(vehicles, 0, snap.geometry, *args[:2], hr, *args[2:])
    assert [e.key for e in got] == [w[:3] for w in want]
    for e, (_, _, _, wf, amp, chirps) in zip(got, want):
        # every waveform field chirp timing, amplitude and beat synthesis
        # read, as Python values
        assert ({k: getattr(e.waveform, k) for k in ROW_WAVEFORM}
                == {k: getattr(wf, k) for k in ROW_WAVEFORM})
        assert {type(v) for v in e.waveform} <= {int, float}
        assert e.amplitude == amp
        assert np.array_equal(e.chirp_times, chirps)


def test_build_emitters_prefilters_on_the_drifted_waveform():
    # Two rear radars of the car ahead face the host's front radar.  Each
    # carrier sits 100 Hz inside (radar 0) or outside (radar 1) the edge of
    # the in-band prefilter of its drifted waveform, d + s Ti + (hs - s) Th
    # >= 0 for s <= hs.  Prefiltering on an undrifted slope or chirp
    # duration, or both, moves that sum by at least |f - 1| s (Th - Ti)
    # (1.6 kHz here, f the drift factor), and flips both verdicts.
    host_wf = WaveformConfig(
        pri=27.4e-6, slope=26e12, chirp_duration=18.88e-6, carrier=76.889e9,
        n_chirps=64, fps=15.0, n_elements=12, tx_power=0.01,
        element_gain=25.0, adc_rate=25e6)
    hs, th = host_wf.slope, host_wf.chirp_duration
    s, ti = 20e12, 15e-6
    radars = []
    for drift, margin in ((-20.0, 100.0), (20.0, -100.0)):
        f = 1.0 + drift * 1e-6
        # the carrier whose drifted sum is `margin`
        carrier = (hs * th + s * ti - s * f * th + host_wf.carrier - margin) / f
        r = ObjRadar(
            mount=(-2.5, 0.0), boresight=math.pi,
            fov_halfwidth=math.radians(60.0), radar_type=RadarType.SRR,
            waveform=replace(host_wf, slope=s, chirp_duration=ti,
                             carrier=carrier),
            drift_ppm=drift)
        undrifted = replace(r.drifted(), slope=s, chirp_duration=ti)
        assert can_beat_in_band(host_wf, r.drifted()) == (margin > 0)
        assert can_beat_in_band(host_wf, undrifted) == (margin < 0)
        radars.append(r)
    g = RoadGeometry()
    hr = ObjRadar(mount=(2.5, 0.0), boresight=0.0,
                  fov_halfwidth=math.radians(15.0), radar_type=RadarType.LRR,
                  waveform=host_wf)
    host = ObjVehicle(id=0, kind="car", center=(500.0, g.lane_center(1)),
                      heading=0.0, speed=30.0, width=2.0, length=5.0, lane=1,
                      radars=(hr,))
    ahead = replace(host, id=1, center=(560.0, g.lane_center(1)),
                    radars=tuple(radars))
    snap = scenario_from_dict(scene_dict([host, ahead], SMALL_SCENE))
    times = host_chirp_times(host_wf, 0)
    got = build_emitters(snap, host.radar_world_position(hr), 0.0,
                         snap.host_row, host_wf, times[0], times[-1] + th,
                         (7, 0))
    assert {e.key[:2] for e in got} == {(1, 0)}
