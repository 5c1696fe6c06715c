from dataclasses import replace
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hololink as hl
from hololink.errors import SceneInvalid
from hololink.geometry import poly_deg, poly_trim

finite = st.floats(min_value=-10.0, max_value=10.0,
                   allow_nan=False, allow_infinity=False)
vec3 = st.tuples(finite, finite, finite)


# ---------------------------------------------------------------------------
# det3

def test_det3_identity():
    assert hl.det3((1, 0, 0), (0, 1, 0), (0, 0, 1)) == 1.0


def test_det3_matches_numpy_det(rng):
    for _ in range(50):
        m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        assert abs(hl.det3(m[0], m[1], m[2]) - np.linalg.det(m)) < 1e-12


@settings(max_examples=60, deadline=None)
@given(vec3, vec3, vec3)
def test_det3_alternating(a, b, c):
    assert hl.det3(a, b, c) == pytest.approx(-hl.det3(b, a, c), abs=1e-9)
    assert hl.det3(a, b, c) == pytest.approx(-hl.det3(a, c, b), abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(vec3, vec3, vec3, finite)
def test_det3_linear_first_slot(a, b, c, s):
    lhs = hl.det3(np.multiply(a, s), b, c)
    rhs = s * hl.det3(a, b, c)
    assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-6)


# ---------------------------------------------------------------------------
# polynomials

def test_poly3_evaluates_terms():
    p = hl.Poly3.from_terms([((0, 0, 0), 2.0), ((1, 2, 0), -1.0),
                             ((0, 0, 3), 0.5j)])
    z = np.array([1.0 + 1j, 2.0, -1.0])
    expected = 2.0 - (1 + 1j) * 4.0 + 0.5j * (-1.0) ** 3
    assert p(z) == pytest.approx(expected, rel=1e-14)


def test_poly3_gradient_matches_finite_differences(rng):
    p = hl.Poly3.from_terms([((2, 1, 0), 1.5), ((0, 0, 2), -0.5 + 1j),
                             ((1, 1, 1), 0.25)])
    grads = p.grad()
    z = rng.normal(size=3) + 1j * rng.normal(size=3)
    h = 1e-7
    for axis in range(3):
        dz = np.zeros(3, dtype=complex)
        dz[axis] = h
        fd = (p(z + dz) - p(z - dz)) / (2 * h)
        assert complex(grads[axis](z)) == pytest.approx(fd, rel=1e-6)


def test_poly3_compose_curve_matches_pointwise():
    p = hl.Poly3.from_terms([((1, 0, 0), 1.0), ((0, 2, 0), -2.0),
                             ((0, 0, 0), 3.0)])
    comps = (np.array([0.0, 1.0]), np.array([1.0, 0.0, 0.5]),
             np.array([2.0]))
    coeffs = p.compose_curve(comps)
    for t in (0.0, 0.3, -1.2, 2.0 + 0.5j):
        z = np.array([np.polyval(c[::-1], t) for c in comps])
        direct = p(z)
        composed = np.polyval(coeffs[::-1], t)
        assert composed == pytest.approx(direct, rel=1e-12)


def test_poly_trim_and_degree():
    assert poly_deg(poly_trim(np.array([1.0, 2.0, 0.0, 0.0]))) == 1
    assert poly_deg(poly_trim(np.array([5.0]))) == 0


# ---------------------------------------------------------------------------
# curves

def test_real_closed_circle_points():
    c = hl.ParamCurve.real_closed((0, 0, 0), [[1, 0, 0]], [[0, 1, 0]])
    pts, vel = c.eval_batch(np.array([0.0, 0.25, 0.5]))
    assert np.allclose(pts, [[1, 0, 0], [0, 1, 0], [-1, 0, 0]], atol=1e-14)
    assert np.allclose(vel[0], [0, 2 * math.pi, 0], atol=1e-12)


def test_velocity_matches_finite_differences():
    c1 = hl.ParamCurve.real_closed((0, 1, 0), [[1, 0, 0], [0, 0.5, 0]],
                                   [[0, 1, 0.25], [0.3, 0, 0]])
    c2 = hl.ParamCurve.complex_affine(
        (np.array([0.0, 1.0, 0.5j]), np.array([1.0, -2.0]),
         np.array([0.25, 0.0, 0.0, 1.0])))
    h = 1e-6
    for curve in (c1, c2):
        params = np.linspace(0.05, 0.95, 100)
        if curve.kind == "complex_affine":
            params = params + 0.1j
        pts_p, _ = curve.eval_batch(params + h)
        pts_m, _ = curve.eval_batch(params - h)
        fd = (pts_p - pts_m) / (2 * h)
        _, vel = curve.eval_batch(params)
        assert np.max(np.abs(fd - vel)) < 1e-5


def test_line_frame_and_real_line_flag():
    line = hl.ParamCurve.line((0, 0, 1), (0, 1, 0))
    p0, e = line.line_frame()
    assert np.allclose(p0, [0, 0, 1])
    assert np.allclose(e, [0, 1, 0])
    assert line.is_line and line.is_real_line
    cline = hl.ParamCurve.line((0, 0, 1j), (1, 0, 0))
    assert cline.is_line and not cline.is_real_line
    quad = hl.ParamCurve.complex_affine(
        (np.array([0.0, 1.0, 1.0]), np.array([0.0, 1.0]), np.array([1.0])))
    assert not quad.is_line


def test_real_line_needs_a_disk_window():
    # over a rectangle a line is a compact piece, not the whole real line
    line = hl.ParamCurve.line((0, 0, 1), (0, 1, 0), radius=7.0)
    assert line.window == 7.0 and line.is_real_line
    piece = hl.ParamCurve.complex_affine(line.components,
                                         domain=("rect", -1.0, 1.0, -0.5, 0.5))
    assert piece.is_line and piece.window is None and not piece.is_real_line
    circ = hl.ParamCurve.real_closed((0, 0, 0), [[1, 0, 0]], [[0, 1, 0]])
    assert circ.window is None


def test_in_domain():
    circ = hl.ParamCurve.real_closed((0, 0, 0), [[1, 0, 0]], [[0, 1, 0]])
    assert circ.in_domain(0.7) and circ.in_domain(2.3)
    disk = hl.ParamCurve.line((0, 0, 0), (1, 0, 0), radius=2.0)
    assert disk.in_domain(1.0 + 1.0j) and not disk.in_domain(3.0)
    rect = hl.ParamCurve.complex_affine(
        (np.array([0.0, 1.0]), np.array([0.0]), np.array([0.0])),
        domain=("rect", -1.0, 1.0, -0.5, 0.5))
    assert rect.in_domain(0.5 + 0.25j) and not rect.in_domain(0.5 + 0.75j)


def test_evaluate_rejects_out_of_domain():
    disk = hl.ParamCurve.line((0, 0, 0), (1, 0, 0), radius=2.0)
    with pytest.raises(hl.ParamOutOfDomain):
        hl.evaluate(disk, 5.0)


def test_evaluate_rejects_marked_point():
    line = hl.ParamCurve.line((0, 0, 0), (1, 0, 0), marked_points=(0.5,))
    with pytest.raises(hl.ParamAtPuncture):
        hl.evaluate(line, 0.5)


# ---------------------------------------------------------------------------
# scene validation diagnostics

def _valid_scene():
    from hololink import scenes
    return scenes.l0()


def test_validate_accepts_builtin():
    scene = _valid_scene()
    assert hl.validate_scene(scene) is scene


def test_validate_rejects_stationary_curve():
    c = hl.ParamCurve.complex_affine(
        (np.array([1.0]), np.array([2.0]), np.array([0.0])))
    scene = hl.Scene(curves={"c1": c, "c2": hl.ParamCurve.line((0, 0, 1), (0, 1, 0))})
    with pytest.raises(SceneInvalid) as exc:
        hl.validate_scene(scene)
    assert "c1" in str(exc.value)


def test_validate_rejects_zero_disk_radius():
    scene = _valid_scene()
    scene.curves["c1"] = replace(scene.curves["c1"], domain=("disk", 0.0))
    with pytest.raises(SceneInvalid) as exc:
        hl.validate_scene(scene)
    assert exc.value.path == "curves.c1.domain.radius"


def test_validate_rejects_unknown_form_curve():
    scene = _valid_scene()
    scene.forms["theta1"] = hl.OneForm("ghost", np.array([1.0]))
    with pytest.raises(SceneInvalid) as exc:
        hl.validate_scene(scene)
    assert "forms.theta1" in str(exc.value)


def test_validate_rejects_cut_not_containing_curve():
    scene = _valid_scene()
    bad = hl.Poly3.from_terms([((0, 0, 1), 1.0), ((0, 0, 0), -1.0)])
    scene.cuts["cut1"] = hl.SurfaceCut(bad, scene.cuts["cut1"].f2, "c1")
    with pytest.raises(SceneInvalid) as exc:
        hl.validate_scene(scene)
    assert "cuts.cut1" in str(exc.value)


def test_validate_rejects_dependent_cut_gradients():
    scene = _valid_scene()
    f1 = scene.cuts["cut1"].f1
    doubled = hl.Poly3(f1.exponents, 2.0 * f1.coeffs)
    scene.cuts["cut1"] = hl.SurfaceCut(f1, doubled, "c1")
    with pytest.raises(SceneInvalid) as exc:
        hl.validate_scene(scene)
    assert "cuts.cut1" in str(exc.value)


def test_validate_rejects_bad_projective_block():
    scene = _valid_scene()
    scene.atiyah = {"l": np.eye(4), "p": np.eye(3)}
    with pytest.raises(SceneInvalid) as exc:
        hl.validate_scene(scene)
    assert "atiyah.p" in str(exc.value)


# ---------------------------------------------------------------------------
# constants

def test_constants_round_trip():
    c = hl.NormalizationConstants(kappa_line=-612.0 + 1.5j, tol=1e-6,
                                  truncation_radius=40.0, version="0.1.0")
    back = hl.NormalizationConstants.from_dict(c.to_dict())
    assert back == c
    assert back.kappa_xmethod == back.kappa_line


def test_constants_default_c3_is_pi_cubed():
    # An unpinned kappa_line falls back to the closed form, which carries C3.
    assert hl.NormalizationConstants().kappa_line is None
    assert hl.C3 == pytest.approx(math.pi ** 3)
    assert hl.BMContext().line_kappa == pytest.approx(
        -2.0 * math.pi ** 2 * hl.C3)
