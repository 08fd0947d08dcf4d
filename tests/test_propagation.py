"""Fresnel reflection, blockage geometry, path construction and link budget."""
import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.constants import c as C0

from mirs.errors import ConfigurationError
from mirs.propagation import (CONCRETE_INDEX, MaterialModel, PathKind,
                              VehicleRects, echo_power, fresnel_reflection,
                              one_way_gain, paths, sector_gain)
from mirs.scenario import Topology, generate_highway, install_host_radar
from mirs.waveform import RadarType


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

    @property
    def half_extents(self):
        return (self.length / 2.0, self.width / 2.0)


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
    cache = VehicleRects([rect])
    agree = 0
    for _ in range(400):
        p = tuple(rng.uniform(-8, 8, 2))
        q = tuple(rng.uniform(-8, 8, 2))
        if p == q:
            continue
        got = cache.blocked(p, q)
        want = sampled_blocked(p, q, rect, n=4000)
        # dense sampling can miss razor-thin clips; tolerate only that side
        if got != want:
            assert got and not want
            continue
        agree += 1
    assert agree > 380


def test_segment_blocked_basic_cases():
    cache = VehicleRects([Rect(1, 0.0, 0.0, 2.0, 5.0)])
    assert cache.blocked((-10, 0), (10, 0))
    assert not cache.blocked((-10, 5), (10, 5))
    assert not cache.blocked((-10, 0), (10, 0), exclude_ids=(1,))
    # endpoint touching the boundary does not count
    assert not cache.blocked((2.5, 0), (10, 0))
    assert not VehicleRects([]).blocked((0, 0), (1, 1))


coord = st.floats(-25.0, 25.0, allow_nan=False)


@settings(max_examples=150, deadline=None)
@given(centers=st.lists(st.tuples(coord, coord), min_size=1, max_size=6),
       p=st.tuples(coord, coord), q=st.tuples(coord, coord),
       excluded=st.sets(st.integers(0, 5), max_size=3))
def test_vehicle_rects_matches_sampling_oracle_property(centers, p, q,
                                                        excluded):
    rects = [Rect(i, x, y, 2.0, 5.0) for i, (x, y) in enumerate(centers)]
    got = VehicleRects(rects).blocked(p, q, tuple(excluded))
    live = [r for r in rects if r.id not in excluded]

    def oracle(margin):
        return any(sampled_blocked(p, q, r, n=4000, margin=margin)
                   for r in live)

    # dense sampling can miss razor-thin clips; tolerate only that side, and
    # only where a sample falls within one sample spacing of a rectangle
    spacing = math.hypot(q[0] - p[0], q[1] - p[1]) / 4000
    assert got == oracle(0.0) or (got and oracle(spacing))


# ---------------------------------------------------------------------------
# paths

def clean_scene(seed=0):
    s = generate_highway("low", rng=np.random.default_rng(seed))
    # strip all vehicles so no blockage interferes with geometry checks
    return s.with_vehicles([v for v in s.vehicles if v.id == s.host_vehicle_id])


def test_direct_path_length_and_angles():
    s = clean_scene()
    got = paths((100.0, -5.0), (160.0, -5.0), s, exclude_ids=(0,))
    direct = [p for p in got if p.kind is PathKind.DIRECT][0]
    assert direct.length == pytest.approx(60.0)
    assert direct.departure_angle == pytest.approx(0.0)
    assert abs(direct.arrival_angle) == pytest.approx(math.pi)
    assert direct.reflection_coeff == 1 + 0j


def test_wall_bounce_image_length_and_angle():
    s = clean_scene()
    half = s.geometry.half_width  # 11.5 m
    tx = (100.0, 0.0)
    rx = (160.0, 0.0)
    got = paths(tx, rx, s, exclude_ids=(0,))
    bounces = [p for p in got if p.kind is not PathKind.DIRECT]
    assert len(bounces) == 2
    for p in bounces:
        # image method: length = sqrt(dx^2 + (|y_w - y_t| + |y_w - y_r|)^2)
        want = math.hypot(60.0, 2 * half)
        assert p.length == pytest.approx(want)
        # angle in equals angle out: arrival_angle points back toward the
        # bounce, so reversing it recovers the departure elevation
        rev = (p.arrival_angle + math.pi + math.pi) % (2 * math.pi) - math.pi
        assert abs(abs(p.departure_angle) - abs(rev)) < 1e-12
        # Fresnel coefficient evaluated at the incidence angle from the normal
        theta = math.atan2(60.0, 2 * half)
        assert p.reflection_coeff == fresnel_reflection(theta)


def test_bounce_outside_road_span_is_dropped():
    s = clean_scene()
    # tx close to x=0 and rx behind it forces the upper bounce point off-road
    got = paths((1.0, 5.0), (2.0, 5.0), s, exclude_ids=(0,))
    assert all(0.0 <= p.length for p in got)
    assert any(p.kind is PathKind.DIRECT for p in got)


def test_paths_blockage_flag():
    s = generate_highway("low", rng=np.random.default_rng(0))
    host = s.host
    blocker = next(v for v in s.vehicles
                   if v.id != host.id and v.lane == host.lane)
    # a segment straight through the blocker center is marked blocked
    p = (blocker.center[0] - 20.0, blocker.center[1])
    q = (blocker.center[0] + 20.0, blocker.center[1])
    got = paths(p, q, s, exclude_ids=(host.id,))
    direct = [x for x in got if x.kind is PathKind.DIRECT][0]
    assert direct.blocked
    with pytest.raises(ConfigurationError):
        paths(p, p, s)


# ---------------------------------------------------------------------------
# gains and link budget

def host_radar_instance(radar_type=RadarType.LRR, seed=0):
    rng = np.random.default_rng(seed)
    s = generate_highway("low", rng=rng)
    host = install_host_radar(s.host, radar_type, rng)
    return host.radars[0]


def test_sector_gain_flat_inside_fov():
    r = host_radar_instance()
    g = r.waveform.rx_gain
    assert sector_gain(r, 0.0, 0.0) == g
    assert sector_gain(r, 0.0, r.fov_halfwidth * 0.99) == g
    assert sector_gain(r, 0.0, r.fov_halfwidth * 1.01) == 0.0
    # wrap-around at +/- pi
    assert sector_gain(r, math.pi, -math.pi + 0.01) == g


def test_one_way_gain_friis_hand_calc():
    r = host_radar_instance()
    s = clean_scene()
    got = paths((100.0, -5.0), (200.0, -5.0), s, exclude_ids=(0,))
    direct = [p for p in got if p.kind is PathKind.DIRECT][0]
    g = one_way_gain(direct, r, 0.0, r, math.pi)
    lam = C0 / r.drifted().carrier
    want = r.waveform.rx_gain ** 2 * (lam / (4 * math.pi * 100.0)) ** 2
    assert g == pytest.approx(want, rel=1e-12)
    # out of FOV on one side -> zero
    assert one_way_gain(direct, r, math.pi / 2, r, math.pi) == 0.0


def test_one_way_gain_reflection_loss_at_normal_incidence():
    # -6.02 dB power loss from half-amplitude reflection: build a synthetic
    # path with |R| = 0.5 and compare against the unit-coefficient path
    from dataclasses import replace
    r = host_radar_instance()
    s = clean_scene()
    direct = [p for p in paths((100.0, -5.0), (200.0, -5.0), s, exclude_ids=(0,))
              if p.kind is PathKind.DIRECT][0]
    halved = replace(direct, reflection_coeff=0.5 + 0j)
    g0 = one_way_gain(direct, r, 0.0, r, math.pi)
    g1 = one_way_gain(halved, r, 0.0, r, math.pi)
    assert 10 * math.log10(g0 / g1) == pytest.approx(6.02, abs=0.01)


def test_one_way_gain_rejects_blocked_path():
    from dataclasses import replace
    r = host_radar_instance()
    s = clean_scene()
    direct = [p for p in paths((100.0, -5.0), (200.0, -5.0), s, exclude_ids=(0,))
              if p.kind is PathKind.DIRECT][0]
    with pytest.raises(ConfigurationError):
        one_way_gain(replace(direct, blocked=True), r, 0.0, r, math.pi)


def test_echo_power_fourth_power_law():
    r = host_radar_instance()
    p1 = echo_power(r, (0.0, 0.0), 0.0, (100.0, 0.0), 10.0)
    p2 = echo_power(r, (0.0, 0.0), 0.0, (200.0, 0.0), 10.0)
    assert p1 / p2 == pytest.approx(16.0, rel=1e-12)
    # radar equation hand calculation
    wf = r.drifted()
    lam = C0 / wf.carrier
    want = wf.erp * wf.rx_gain * lam ** 2 * 10.0 / ((4 * math.pi) ** 3 * 100.0 ** 4)
    assert p1 == pytest.approx(want, rel=1e-12)


def test_echo_power_fov_and_blockage():
    r = host_radar_instance()
    assert echo_power(r, (0.0, 0.0), 0.0, (-100.0, 0.0), 10.0) == 0.0
    with pytest.raises(ConfigurationError):
        echo_power(r, (0.0, 0.0), 0.0, (0.0, 0.0), 10.0)
