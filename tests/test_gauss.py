import math

import numpy as np
import pytest

import hololink as hl
from hololink import scenes
from hololink.gauss import DEFAULT_DIRECTION


# ---------------------------------------------------------------------------
# kernel form

def test_integrand_pinned_value():
    # det3(x-y, dx, dy) / (4 pi |x-y|^3) at a hand-checked configuration
    x, dx = np.array([0.0, 0.0, 0.0]), np.array([1.0, 0.0, 0.0])
    y, dy = np.array([0.0, 1.0, 0.0]), np.array([0.0, 0.0, 1.0])
    # x - y = (0,-1,0); det[[0,-1,0],[1,0,0],[0,0,1]] = 1; |x-y| = 1
    assert hl.gauss_integrand(x, dx, y, dy) == pytest.approx(
        1.0 / (4 * math.pi), rel=1e-14)


def test_integrand_rejects_coincident_points():
    p = np.array([1.0, 2.0, 3.0])
    with pytest.raises(hl.CoincidentPoints):
        hl.gauss_integrand(p, p, p + 1e-16, p)


# ---------------------------------------------------------------------------
# double integral route

def test_hopf_pair_links_once(fast_cfg):
    sc = scenes.hopf()
    res = hl.gauss_linking(sc.curves["c1"], sc.curves["c2"], fast_cfg)
    assert res.converged
    assert abs(res.value - 1.0) < 1e-3


def test_split_pair_links_zero(fast_cfg):
    sc = scenes.split()
    res = hl.gauss_linking(sc.curves["c1"], sc.curves["c2"], fast_cfg)
    assert abs(res.value) < 1e-3


def test_skew_lines_half_with_tail(cfg):
    sc = scenes.skew_lines()
    res = hl.gauss_linking(sc.curves["c1"], sc.curves["c2"], cfg)
    assert abs(res.value - 0.5) < 2e-2
    assert res.tail_estimate < 2e-2
    # the bare window at R=40 underestimates; the tail step must be active
    assert res.tail_estimate > 1e-4


def test_skew_lines_orientation_flip(cfg):
    c1 = hl.ParamCurve.line((0, 0, 0), (1, 0, 0))
    c2 = hl.ParamCurve.line((0, 0, -1), (0, 1, 0))  # offset reversed
    res = hl.gauss_linking(c1, c2, cfg)
    assert abs(res.value + 0.5) < 2e-2


def test_gauss_linking_requires_matching_kinds(cfg):
    circ = hl.ParamCurve.real_closed((0, 0, 0), [[1, 0, 0]], [[0, 1, 0]])
    line = hl.ParamCurve.line((0, 0, 1), (0, 1, 0))
    with pytest.raises(hl.MethodInapplicable):
        hl.gauss_linking(circ, line, cfg)


def test_curves_too_close_guard(cfg):
    sc = scenes.close_pair()
    with pytest.raises(hl.CurvesTooClose):
        hl.gauss_linking(sc.curves["c1"], sc.curves["c2"], cfg)


# ---------------------------------------------------------------------------
# closed form for real lines

def test_line_closed_form_sign():
    assert hl.line_gauss_closed((1, 0, 0), (0, 1, 0), (0, 0, 1)) == 0.5
    assert hl.line_gauss_closed((1, 0, 0), (0, 1, 0), (0, 0, -1)) == -0.5


def test_line_closed_form_degenerate():
    with pytest.raises(hl.DegenerateConfiguration):
        hl.line_gauss_closed((1, 0, 0), (2, 0, 0), (0, 0, 1))


# ---------------------------------------------------------------------------
# signed crossings

def _hopf_polylines(n=512):
    sc = scenes.hopf()
    return (hl.Polyline3.from_curve(sc.curves["c1"], n),
            hl.Polyline3.from_curve(sc.curves["c2"], n))


def test_crossing_count_hopf():
    pl1, pl2 = _hopf_polylines()
    assert hl.crossing_linking(pl1, pl2) == 1


# the coplanar split pair has parallel projected segment pairs, which must
# not produce inf - inf in the depth arithmetic
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_crossing_count_split():
    sc = scenes.split()
    pl1 = hl.Polyline3.from_curve(sc.curves["c1"])
    pl2 = hl.Polyline3.from_curve(sc.curves["c2"])
    assert hl.crossing_linking(pl1, pl2) == 0


def test_crossing_count_seed_independent():
    pl1, pl2 = _hopf_polylines()
    values = {hl.crossing_linking(pl1, pl2, seed=s) for s in range(5)}
    assert values == {1}


def test_crossing_matches_integral_on_torus_pair(fast_cfg):
    # (1,2)-torus curve pair: both routes must agree on linking 2
    c1 = hl.ParamCurve.real_closed(
        (0, 0, 0), [[2.25, 0, 0], [0, 0, 0], [0.25, 0, 0]],
        [[0, 1.75, 0], [0, 0, 0.5], [0, 0.25, 0]])
    c2 = hl.ParamCurve.real_closed(
        (0, 0, 0), [[1.75, 0, 0], [0, 0, 0], [-0.25, 0, 0]],
        [[0, 2.25, 0], [0, 0, -0.5], [0, -0.25, 0]])
    cross = hl.crossing_linking(hl.Polyline3.from_curve(c1),
                                hl.Polyline3.from_curve(c2))
    res = hl.gauss_linking(c1, c2, fast_cfg)
    assert cross == 2
    assert abs(res.value - cross) < 1e-3


def test_crossing_explicit_direction():
    pl1, pl2 = _hopf_polylines()
    assert hl.crossing_linking(pl1, pl2, direction=DEFAULT_DIRECTION) == 1
    assert hl.crossing_linking(pl1, pl2, direction=(0.05, -0.3, 0.9)) == 1


def test_degenerate_projection_reported():
    sc = scenes.close_pair()
    pl1 = hl.Polyline3.from_curve(sc.curves["c1"])
    pl2 = hl.Polyline3.from_curve(sc.curves["c2"])
    with pytest.raises(hl.DegenerateProjection):
        hl.crossing_linking(pl1, pl2)


def test_polyline_validation():
    with pytest.raises(ValueError):
        hl.Polyline3(np.array([[0.0, 0, 0], [1.0, 0, 0]]))
    with pytest.raises(ValueError):
        hl.Polyline3(np.array([[0.0, 0, 0], [0.0, 0, 0], [1.0, 0, 0],
                               [0.0, 1, 0]]))


def test_polyline_strips_duplicate_closing_vertex():
    ring = np.array([[1.0, 0, 0], [0, 1.0, 0], [-1.0, 0, 0], [0, -1.0, 0],
                     [1.0, 0, 0]])
    pl = hl.Polyline3(ring)
    assert pl.vertices.shape == (4, 3)


# ---------------------------------------------------------------------------
# near pairs: the integral must resolve close approaches on its own

def _torus_curve(wraps, phase, major=2.0, minor=0.5):
    """(major + minor cos A)(cos 2 pi t, sin 2 pi t, 0) + (0, 0, minor sin A),
    A = 2 pi (wraps t + phase), as a trigonometric polynomial (wraps >= 2)."""
    psi = 2 * math.pi * phase
    c, s = math.cos(psi), math.sin(psi)
    cos_rows = np.zeros((wraps + 1, 3))
    sin_rows = np.zeros((wraps + 1, 3))
    cos_rows[0, 0] = sin_rows[0, 1] = major
    for k, sign in ((wraps + 1, 1.0), (wraps - 1, -1.0)):
        cos_rows[k - 1] += 0.5 * minor * np.array([c, sign * s, 0.0])
        sin_rows[k - 1] += 0.5 * minor * np.array([-s, sign * c, 0.0])
    cos_rows[wraps - 1, 2] += minor * s
    sin_rows[wraps - 1, 2] += minor * c
    return hl.ParamCurve.real_closed((0, 0, 0), cos_rows, sin_rows)


def _small_ring(gap, angle=0.0, linked=True):
    """Circle of radius gap in the plane of the z axis and the unit circle's
    radius at the given angle. Centred on the unit circle it threads it;
    moved outward by 2 gap it does not. Either way the gap to it is gap."""
    c, s = math.cos(angle), math.sin(angle)
    r = 1.0 if linked else 1.0 + 2 * gap
    return hl.ParamCurve.real_closed((r * c, r * s, 0), [[gap * c, gap * s, 0]],
                                     [[0, 0, gap]])


_UNIT_CIRCLE = hl.ParamCurve.real_closed((0, 0, 0), [[1, 0, 0]], [[0, 1, 0]])

@pytest.mark.parametrize("c1, c2, linking", [
    (_UNIT_CIRCLE, _small_ring(1e-3), 1),
    (_UNIT_CIRCLE, _small_ring(1e-3, linked=False), 0),
    (_torus_curve(3, 0.3), _torus_curve(3, 0.3415), 3),
], ids=["ring_linked", "ring_unlinked", "torus_1_3"])
def test_near_pair_integral_matches_crossing_count(c1, c2, linking):
    cross = hl.crossing_linking(hl.Polyline3.from_curve(c1),
                                hl.Polyline3.from_curve(c2))
    res = hl.gauss_linking(c1, c2, hl.QuadConfig(tol=1e-6))
    assert cross == linking
    assert res.converged
    assert abs(res.value - cross) < 1e-6


# gaps far below the node spacing of the first panels, where the error
# estimate alone sees a value near 0 and an error below tol; at angle 0 the
# closest approach sits at a panel end, at angle 3.1 between two nodes
@pytest.mark.parametrize("gap", [1e-4, 1e-5, 2e-6])
@pytest.mark.parametrize("angle", [0.0, 3.1])
@pytest.mark.parametrize("linked", [True, False])
@pytest.mark.parametrize("tol", [1e-4, 1e-6])
def test_near_ring_integral_gives_linking_number(gap, angle, linked, tol):
    res = hl.gauss_linking(_UNIT_CIRCLE, _small_ring(gap, angle, linked),
                           hl.QuadConfig(tol=tol))
    assert res.converged
    assert abs(res.value - int(linked)) < tol
