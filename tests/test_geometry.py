from dataclasses import replace
import math

import numpy as np
from numpy.polynomial import polynomial as P
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hololink as hl
from hololink.errors import SceneInvalid
from hololink.geometry import (poly_add, poly_deg, poly_mul, poly_powers,
                               poly_trim)
from hololink.residue import PolyMultiplier

finite = st.floats(min_value=-10.0, max_value=10.0,
                   allow_nan=False, allow_infinity=False)
vec3 = st.tuples(finite, finite, finite)
# complex coefficients, zero in a part or as a whole about a third of the time
part = st.one_of(st.just(0.0), finite, finite)
coeff = st.builds(complex, part, part)
series = st.lists(coeff, min_size=1, max_size=5).map(
    lambda c: np.array(c, dtype=complex))
curve_components = st.tuples(series, series, series)
params = st.lists(coeff, min_size=1, max_size=8).map(
    lambda c: np.array(c, dtype=complex))


@st.composite
def poly3_with_repeats(draw):
    rows = draw(st.lists(st.tuples(*[st.integers(0, 3)] * 3),
                         min_size=1, max_size=5))
    rows = rows + [rows[draw(st.integers(0, len(rows) - 1))]]
    coeffs = draw(st.lists(coeff, min_size=len(rows), max_size=len(rows)))
    return hl.Poly3(np.array(rows, dtype=np.int64),
                    np.array(coeffs, dtype=complex))


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


def test_linear_cut_partials_have_one_row():
    # a partial keeps only the terms that contain its variable, so the lift
    # composes one term per partial of a linear cut, not four
    cut = hl.scenes.linear_poly((0.3 - 1j, 2.0, 0.5j), (1.0, -0.5j, 2.0))
    assert cut.exponents.shape == (4, 3)
    for axis, partial in enumerate(cut.grad()):
        assert partial.exponents.shape == (1, 3)
        assert partial.exponents.tolist() == [[0, 0, 0]]
        assert partial.coeffs.tolist() == [cut.coeffs[axis]]
    # a variable the polynomial lacks gives the zero polynomial
    z1 = hl.scenes.coordinate_poly(0)
    assert [g.coeffs.tolist() for g in z1.grad()] == [[1.0], [0.0], [0.0]]
    assert all(g.exponents.shape == (1, 3) for g in z1.grad())


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


# The numpy.polynomial formulas that the curve evaluation and composition
# replaced, kept as references: the replacements give == values.

def _reference_eval_batch(components, t):
    pts = np.stack([P.polyval(t, c) for c in components], axis=-1)
    vel = np.stack([P.polyval(t, P.polyder(c)) for c in components], axis=-1)
    return pts, vel


def _reference_poly3_compose(poly, components):
    total = np.zeros(1, dtype=complex)
    for exp_row, c in zip(poly.exponents, poly.coeffs):
        term = np.array([c], dtype=complex)
        for comp, k in zip(components, exp_row):
            if k:
                term = P.polymul(term, P.polypow(np.asarray(comp, dtype=complex),
                                                 int(k)))
        total = P.polyadd(total, term)
    return poly_trim(total, tol=1e-15)


def _reference_multiplier_compose(mult, components):
    s_of_t = np.array([mult.b], dtype=complex)
    for ai, comp in zip(mult.a, components):
        s_of_t = P.polyadd(s_of_t, ai * np.asarray(comp, dtype=complex))
    total = np.zeros(1, dtype=complex)
    for k, ck in enumerate(mult.coeffs):
        if ck != 0.0:
            total = P.polyadd(total, ck * P.polypow(s_of_t, k))
    return poly_trim(total, tol=0.0)


def _same(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and np.array_equal(a, b)


@settings(max_examples=100, deadline=None)
@given(curve_components, params)
def test_eval_batch_equals_per_component_polyval(components, t):
    curve = hl.ParamCurve.complex_affine(components)
    pts, vel = curve.eval_batch(t)
    ref_pts, ref_vel = _reference_eval_batch(curve.components, t)
    assert _same(pts, ref_pts) and _same(vel, ref_vel)
    real_pts, real_vel = curve.eval_batch(t.real)
    ref_pts, ref_vel = _reference_eval_batch(curve.components, t.real)
    assert _same(real_pts, ref_pts) and _same(real_vel, ref_vel)


@settings(max_examples=100, deadline=None)
@given(series, series, st.integers(0, 4))
def test_series_operations_equal_numpy_polynomial(a, b, n):
    assert _same(poly_mul(a, b), P.polymul(a, b))
    assert _same(poly_add(a, b), P.polyadd(a, b))
    for k, power in enumerate(poly_powers(a, n)):
        assert _same(power, P.polypow(a, k))


@settings(max_examples=100, deadline=None)
@given(poly3_with_repeats(), curve_components)
def test_poly3_compose_equals_numpy_polynomial_chain(poly, components):
    assert _same(poly.compose_curve(components),
                 _reference_poly3_compose(poly, components))


@settings(max_examples=100, deadline=None)
@given(series, st.tuples(coeff, coeff, coeff), coeff, curve_components)
def test_multiplier_compose_equals_numpy_polynomial_chain(coeffs, a, b,
                                                          components):
    mult = PolyMultiplier(coeffs, np.array(a), b)
    assert _same(mult.compose_curve(components),
                 _reference_multiplier_compose(mult, components))


def test_cached_derived_data_stays_out_of_repr_and_json():
    scene = _valid_scene()
    curve, poly = scene.curves["c1"], scene.cuts["cut1"].f1
    texts = repr(curve), repr(poly), hl.dumps_scene(scene)
    curve.eval_batch(np.array([0.5j]))
    assert curve.degree == 1 and curve.is_line
    assert poly.grad() is poly.grad()
    assert (repr(curve), repr(poly), hl.dumps_scene(scene)) == texts


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


@pytest.mark.parametrize("radius", [math.inf, math.nan])
def test_validate_rejects_non_finite_disk_radius(radius):
    scene = _valid_scene()
    scene.curves["c1"] = replace(scene.curves["c1"], domain=("disk", radius))
    with pytest.raises(SceneInvalid) as exc:
        hl.validate_scene(scene)
    assert exc.value.path == "curves.c1.domain.radius"


_LINE = hl.ParamCurve.line((0, 0, 1), (0, 1, 0))
_LOOP = hl.ParamCurve.real_closed((0, 0, 0), [[1, 0, 0]], [[0, 1, 0]])


@pytest.mark.parametrize("make", [
    lambda: replace(_LINE, components=(np.zeros(1, complex),
                                       np.array([0, math.nan], complex),
                                       np.ones(1, complex))),
    lambda: replace(_LOOP, const=np.array([0, 0, math.inf])),
    lambda: replace(_LOOP, sin_rows=np.array([[0, math.nan, 0]])),
], ids=["nan-direction", "infinite-real-loop", "nan-real-loop"])
def test_validate_rejects_non_finite_samples(make):
    # at a NaN velocity the vanishing-velocity comparison is False; the
    # constructors refuse these coefficients, so the curves are built past
    # them with dataclasses.replace
    scene = _valid_scene()
    scene.curves["c2"] = make()
    with pytest.raises(SceneInvalid, match="non-finite") as exc:
        hl.validate_scene(scene)
    assert exc.value.path == "curves.c2.map"


@pytest.mark.parametrize("make", [
    lambda: hl.ParamCurve.line((0, 0, math.inf), (0, 1, 0)),
    lambda: hl.ParamCurve.line((0, 0, 1), (0, -math.inf, 0)),
    lambda: hl.ParamCurve.complex_affine(
        (np.array([0.0, 1.0]), np.array([complex(1.0, math.nan)]), np.array([0.0]))),
    lambda: hl.ParamCurve.real_closed((0, 0, math.inf), [[1, 0, 0]], [[0, 1, 0]]),
    lambda: hl.ParamCurve.real_closed((0, 0, 0), [[1, 0, 0]], [[0, math.nan, 0]]),
], ids=["inf-point", "minus-inf-direction", "nan-component", "inf-real-const",
        "nan-real-row"])
def test_curve_constructors_reject_non_finite_coefficients(make):
    with pytest.raises(ValueError, match="must be finite"):
        make()


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
