from dataclasses import replace
import math
import warnings

import numpy as np
from numpy.polynomial import polynomial as P
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.polynomial.polyutils import trimseq

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


# The helpers that replaced numpy.polynomial calls and the cached
# evaluation and composition paths, against the formulas they replaced.
# _bits compares dtype, shape and bytes, so a zero of the other sign fails.

def _bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return (a.dtype == b.dtype and a.shape == b.shape
            and a.tobytes() == b.tobytes())


# coefficient series with -0.0 parts and trailing zeros (zero padding)
signed_part = st.one_of(st.just(0.0), st.just(-0.0), finite)
signed_coeff = st.builds(complex, signed_part, signed_part)
padded_series = st.tuples(
    st.lists(signed_coeff, min_size=1, max_size=5),
    st.integers(0, 2)).map(lambda t: np.array(t[0] + [0j] * t[1]))


@settings(max_examples=150, deadline=None)
@given(padded_series, signed_coeff, params)
def test_poly_eval_equals_polyval(c, x, xs):
    assert _bits(hl.geometry.poly_eval(x, c), P.polyval(x, c))
    assert _bits(hl.geometry.poly_eval(xs, c), P.polyval(xs, c))
    assert _bits(hl.geometry.poly_eval(xs.real, c), P.polyval(xs.real, c))
    # a (deg + 1, 3) matrix against a trailing parameter axis, as eval_batch
    # and holo_line call it
    matrix = np.stack([c, c[::-1], -c], axis=-1)
    assert _bits(hl.geometry.poly_eval(xs[:, None], matrix),
                 P.polyval(xs[:, None], matrix, tensor=False))


@settings(max_examples=100, deadline=None)
@given(padded_series, padded_series)
def test_poly_der_and_div_equal_numpy_polynomial(a, b):
    assert _bits(hl.geometry.poly_der(a), P.polyder(a))
    matrix = np.stack([a, -a, a[::-1]], axis=-1)
    assert _bits(hl.geometry.poly_der(matrix), P.polyder(matrix))
    if trimseq(b)[-1] == 0:
        with pytest.raises(ZeroDivisionError):
            hl.geometry.poly_div(a, b)
        return
    # a subnormal leading coefficient overflows both divisions alike
    with np.errstate(all="ignore"):
        for got, ref in zip(hl.geometry.poly_div(a, b), P.polydiv(a, b)):
            assert _bits(got, ref)


def _reference_poly3_call(poly, points):
    pts = np.asarray(points)
    powers = pts[..., None, :] ** poly.exponents
    return np.sum(poly.coeffs * np.prod(powers, axis=-1), axis=-1)


@st.composite
def poly3_up_to_quartic(draw):
    m = draw(st.integers(1, 12))
    rows = draw(st.lists(st.tuples(*[st.integers(0, 4)] * 3),
                         min_size=m, max_size=m))
    if draw(st.booleans()):  # a constant, possibly of several terms
        rows = [(0, 0, 0)] * m
    coeffs = draw(st.lists(signed_coeff, min_size=m, max_size=m))
    return hl.Poly3(np.array(rows, dtype=np.int64),
                    np.array(coeffs, dtype=complex))


@settings(max_examples=150, deadline=None)
@given(poly3_up_to_quartic(), st.lists(st.tuples(signed_coeff, signed_coeff,
                                                  signed_coeff),
                                        min_size=1, max_size=40))
# a constant's value is c * (1 + 0j), whose imaginary part is NaN at an
# infinite real part of c
@example(hl.Poly3.constant(complex(math.inf, 1.0)), [(1.0, 2.0, 3.0)])
def test_poly3_call_equals_power_formula(poly, points):
    pts = np.array(points, dtype=complex)
    with np.errstate(invalid="ignore"):
        for sample in (pts, pts[0], pts.real, pts.reshape(1, -1, 3)):
            assert _bits(poly(sample), _reference_poly3_call(poly, sample))


@settings(max_examples=100, deadline=None)
@given(poly3_with_repeats(), poly3_with_repeats(), curve_components)
def test_compose_from_cached_powers_equals_power_chain(low, high,
                                                       components):
    curve = hl.ParamCurve.complex_affine(components)
    # the first composition builds the cached chains, the second may
    # rebuild them to a higher power
    for poly in (low, high, low):
        assert _bits(poly.compose_curve(curve),
                     poly.compose_curve(curve.components))


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


_CIRCLE = hl.ParamCurve.real_closed((0, 0, 0), [[1, 0, 0]], [[0, 1, 0]])
_PLANE = hl.ParamCurve.line((0, 0, 0), (1, 0, 0))
_RECT = hl.ParamCurve.complex_affine(
    (np.array([0.0, 1.0]), np.array([0.0]), np.array([0.0])),
    domain=("rect", -1.0, 1.0, -0.5, 0.5))


def test_real_line_needs_a_disk_window():
    # over a rectangle a line is a compact piece, not the whole real line
    line = hl.ParamCurve.line((0, 0, 1), (0, 1, 0))
    assert line.domain == ("plane",) and line.whole and line.is_real_line
    piece = hl.ParamCurve.complex_affine(line.components,
                                         domain=("rect", -1.0, 1.0, -0.5, 0.5))
    assert piece.is_line and not piece.whole and not piece.is_real_line
    assert not _CIRCLE.whole


def test_in_domain():
    assert _CIRCLE.in_domain(0.7) and _CIRCLE.in_domain(2.3)
    assert not _CIRCLE.in_domain(0.7 + 0.1j)
    # a plane holds every finite parameter
    assert _PLANE.in_domain(1.0 + 1.0j) and _PLANE.in_domain(-3e8 + 1e9j)
    assert _RECT.in_domain(0.5 + 0.25j) and not _RECT.in_domain(0.5 + 0.75j)


def test_evaluate_rejects_out_of_domain():
    with pytest.raises(hl.ParamOutOfDomain):
        hl.evaluate(_RECT, 5.0)


@pytest.mark.parametrize("curve", [_CIRCLE, _PLANE, _RECT],
                         ids=["circle", "plane", "rect"])
@pytest.mark.parametrize("param", [math.nan, math.inf, complex(0.0, -math.inf)],
                         ids=["nan", "inf", "minus-inf-imag"])
def test_non_finite_parameters_are_outside_every_domain(curve, param):
    # a circle evaluated at nan or inf gives NaN positions and an "invalid
    # value" warning, which would name no fault
    assert not curve.in_domain(param)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(hl.ParamOutOfDomain):
            hl.evaluate(curve, param)


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


_A = 2.0 + 1.0j
_B = -3.0


# complex curves whose velocity vanishes at one parameter, none of them on
# the rings that sample_params lays over a plane (|u| ~ 0.03, 0.44, 5.4 and
# 361). The "centre" case is (u^2, u^2, 5 + u^3) moved to u - b: its zero
# at u = 0 would lie 0.03 from the innermost ring.
@pytest.mark.parametrize("components, where", [
    ((P.polyfromroots([_B, _B]), P.polyfromroots([_B, _B]),
      P.polyadd([5], P.polyfromroots([_B, _B, _B]))), _B),
    ((P.polyfromroots([_A, _A]), P.polyfromroots([_A, _A, _A]),
      [5, -3 * _A * _A, 0, 1]), _A),
], ids=["centre", "off-centre"])
def test_validate_rejects_velocity_zero_between_samples(components, where):
    c = hl.ParamCurve.complex_affine(components)
    assert np.min(np.abs(c.sample_params(hl.geometry.MAP_SAMPLES)
                         - where)) > 1.0
    scene = hl.Scene(curves={"c1": c, "c2": hl.ParamCurve.line((0, 0, 1), (0, 1, 0))})
    with pytest.raises(SceneInvalid, match="velocity vanishes") as exc:
        hl.validate_scene(scene)
    assert exc.value.path == "curves.c1.map"


def test_validate_accepts_velocity_zero_outside_the_domain():
    c = hl.ParamCurve.complex_affine(([0, 0, 1], [0, 0, 1], [5, 0, 0, 1]),
                                     domain=("rect", 1.0, 2.0, 1.0, 2.0))
    scene = hl.Scene(curves={"c1": c, "c2": hl.ParamCurve.line((0, 0, 1), (0, 1, 0))})
    assert hl.validate_scene(scene) is scene


@pytest.mark.parametrize("k", range(4, 9))
def test_validate_accepts_a_plane_curve_of_high_degree(k):
    # each speed is read against its own point: against the largest point
    # of the outer ring, |u|^k with |u| = 361, the unit speed of the first
    # component near the centre would read as vanishing
    c = hl.ParamCurve.complex_affine(([0, 1], [0] * k + [1], [1]))
    scene = hl.Scene(curves={"c1": c, "c2": hl.ParamCurve.line((0, 0, 2), (0, 1, 0))})
    assert hl.validate_scene(scene) is scene


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


@pytest.mark.parametrize("domain", [
    ("rect", 1.0, -1.0, -1.0, 1.0),
    ("rect", -1.0, 1.0, 1.0, -1.0),
    ("rect", -math.inf, 1.0, -1.0, 1.0),
    ("rect", -1.0, 1.0, -1.0, math.nan),
], ids=["reversed-re", "reversed-im", "infinite", "nan"])
def test_validate_rejects_bad_rect_bounds(domain):
    # scene_io refuses these on load; built in Python, a reversed rect
    # integrates with negative weights and an infinite one overflows
    scene = hl.scenes.random_polynomial_scene(0)
    scene.curves["c1"] = replace(scene.curves["c1"], domain=domain)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SceneInvalid, match="lo < hi") as exc:
            hl.validate_scene(scene)
    assert exc.value.path == "curves.c1.domain"


# c1 = (u, 0, 0) on a plane or on a rect. A rect's 5 x 5 and 8 x 8 sample
# grids (the cut gradients' and the ambient form's points) are not subsets
# of its 16 x 16 grid (the map's), so a defect placed at a point of one
# grid alone fails only a check that reads that grid. The plane's case
# keeps the id "disk", the name older scene files give the plane.
DOMAINS = [("plane",), ("rect", -1.0, 1.0, -1.0, 1.0)]
DOMAIN_IDS = ["disk", "rect"]


def _axis_line_scene(domain, marked_points=()):
    c1 = hl.ParamCurve.complex_affine(([0.0, 1.0], [0.0], [0.0]),
                                      domain=domain,
                                      marked_points=marked_points)
    return hl.Scene(
        curves={"c1": c1, "c2": hl.ParamCurve.line((0, 0, 1), (0, 1, 0))},
        forms={"theta1": hl.OneForm("c1", np.array([1.0])),
               "theta2": hl.OneForm("c2", np.array([1.0]))},
        ambient=hl.AmbientForm.standard(),
        cuts={"cut1": hl.SurfaceCut(hl.scenes.coordinate_poly(1),
                                    hl.scenes.coordinate_poly(2), "c1")})


def _own_point(curve, n):
    """z1 at a point of sample_params(n) that no other grid of
    validate_scene holds; on a plane, whose grids nest, the first point."""
    others = {p for m in (hl.geometry.MAP_SAMPLES, hl.geometry.CUT_SAMPLES,
                          hl.geometry.AMBIENT_SAMPLES) if m != n
              for p in curve.sample_params(m).tolist()}
    own = [p for p in curve.sample_params(n).tolist() if p not in others]
    if curve.domain[0] == "rect":
        assert own
    u = own[0] if own else curve.sample_params(n)[0]
    return curve.eval_batch(np.array([u]))[0][0, 0]


@pytest.mark.parametrize("domain", DOMAINS, ids=DOMAIN_IDS)
@pytest.mark.parametrize("part", ["denominator", "numerator"])
def test_validate_rejects_ambient_vanishing_on_a_curve(domain, part):
    scene = _axis_line_scene(domain)
    hl.validate_scene(scene)
    a = _own_point(scene.curves["c1"], hl.geometry.AMBIENT_SAMPLES)
    vanishing = hl.scenes.coordinate_poly(0, shift=a)
    one = hl.Poly3.constant(1.0)
    scene.ambient = (hl.AmbientForm(one, vanishing) if part == "denominator"
                     else hl.AmbientForm(vanishing, one))
    with pytest.raises(SceneInvalid, match="'c1'") as exc:
        hl.validate_scene(scene)
    assert exc.value.path == f"ambient.{part}"


@pytest.mark.parametrize("domain", DOMAINS, ids=DOMAIN_IDS)
def test_validate_rejects_cut_gradients_dependent_at_one_point(domain):
    # grad(z2) = (0, 1, 0) and grad(z3 (z1 - a) + z2) = (0, 1, u - a) on c1
    scene = _axis_line_scene(domain)
    a = _own_point(scene.curves["c1"], hl.geometry.CUT_SAMPLES)
    f2 = hl.Poly3.from_terms([((1, 0, 1), 1.0), ((0, 0, 1), -a),
                              ((0, 1, 0), 1.0)])
    scene.cuts["cut1"] = hl.SurfaceCut(scene.cuts["cut1"].f1, f2, "c1")
    with pytest.raises(SceneInvalid, match="dependent") as exc:
        hl.validate_scene(scene)
    assert exc.value.path == "cuts.cut1"


@pytest.mark.parametrize("domain", DOMAINS, ids=DOMAIN_IDS)
@pytest.mark.parametrize("marked, pole, message", [
    ((0.5,), 0.5, "not a root of the denominator"),
    ((), 0.3, "not among marked_points"),
], ids=["pole-not-a-root", "pole-not-marked"])
def test_validate_rejects_bad_declared_pole(domain, marked, pole, message):
    scene = _axis_line_scene(domain, marked_points=marked)
    scene.forms["theta1"] = hl.OneForm("c1", np.array([1.0]),
                                       np.array([-0.3, 1.0]), (pole,))
    with pytest.raises(SceneInvalid, match=message) as exc:
        hl.validate_scene(scene)
    assert exc.value.path == "forms.theta1.poles"


@pytest.mark.parametrize("domain", DOMAINS, ids=DOMAIN_IDS)
def test_validate_rejects_marked_point_outside_domain(domain):
    # a plane holds every finite point
    point = 100.0 + 1j if domain[0] == "rect" else complex(math.inf, 1.0)
    scene = _axis_line_scene(domain, marked_points=(point,))
    with pytest.raises(SceneInvalid, match="outside domain") as exc:
        hl.validate_scene(scene)
    assert exc.value.path == "curves.c1.marked_points"


def test_validate_evaluates_each_curve_once(monkeypatch):
    scene = hl.scenes.random_line_scene(0)
    calls = []
    raw = hl.ParamCurve.eval_batch

    def counted(curve, params):
        calls.append(len(params))
        return raw(curve, params)

    monkeypatch.setattr(hl.ParamCurve, "eval_batch", counted)
    hl.validate_scene(scene)
    # c1 on the map's, its cut's and the ambient form's grids; c2 on two
    assert calls == [256 + 32 + 64, 256 + 64]


@pytest.mark.parametrize("curve", [
    hl.ParamCurve.complex_affine(([0.3, 1.0, 0.2j], [1j, -0.5], [2.0]),
                                 domain=DOMAINS[1]),
    hl.ParamCurve.line((0.1, 0, 1j), (1, 2j, 0)),
    hl.ParamCurve.real_closed((0, 0, 0.5), [[1, 0, 0], [0, 0.3, 0]],
                              [[0, 1, 0.2], [0.1, 0, 0]]),
], ids=["rect", "disk", "real-loop"])
def test_one_evaluation_gives_each_grid_its_own_bits(curve):
    sizes = (hl.geometry.MAP_SAMPLES, hl.geometry.CUT_SAMPLES,
             hl.geometry.AMBIENT_SAMPLES)
    samples = hl.geometry._curve_samples(curve, sizes)
    for n in sizes:
        pts, vel = curve.eval_batch(curve.sample_params(n))
        assert _bits(samples[n][0], pts) and _bits(samples[n][1], vel)


@pytest.mark.parametrize("curve", [
    hl.ParamCurve.real_closed((0, 0, 0.5), [[1, 0, 0], [0, 0.3, 0]],
                              [[0, 1, 0.2], [0.1, 0, 0]]),
    hl.ParamCurve.complex_affine(([0.3, 1.0, 0.2j], [1j, -0.5], [2.0])),
    hl.ParamCurve.complex_affine(([0.3, 1.0, 0.2j], [1j, -0.5], [2.0]),
                                 domain=DOMAINS[1]),
], ids=["real-loop", "plane", "rect"])
@pytest.mark.parametrize("shape", [(), (5,), (3, 4)],
                         ids=["scalar", "1-d", "2-d"])
def test_positions_have_the_bits_of_eval_batch(curve, shape):
    rng = np.random.default_rng(len(shape))
    params = rng.uniform(size=shape)
    if curve.kind == "complex_affine":
        params = params + 1j * rng.uniform(-0.5, 0.5, size=shape)
    assert _bits(curve.positions(params), curve.eval_batch(params)[0])


def _deltoid(shift, d=1.0):
    """(2 cos a + d cos 2a, 2 sin a - d sin 2a, 0), a = 2 pi t + shift, as a
    trigonometric polynomial: at d = 1 the deltoid, whose velocity vanishes
    at its three cusps, a = 0, 2 pi / 3 and 4 pi / 3; below 1 a curve whose
    speed dips to 2 pi (2 - 2 d) there."""
    c, s = math.cos(shift), math.sin(shift)
    c2, s2 = math.cos(2 * shift), math.sin(2 * shift)
    return hl.ParamCurve.real_closed(
        (0, 0, 0), [[2 * c, 2 * s, 0], [d * c2, -d * s2, 0]],
        [[-2 * s, 2 * c, 0], [-d * s2, -d * c2, 0]])


_RING_ABOVE = hl.ParamCurve.real_closed((0, 0, 5), [[1, 0, 0]], [[0, 1, 0]])


def _counting_eval_batch(monkeypatch):
    calls = []
    raw = hl.ParamCurve.eval_batch

    def counted(curve, params):
        calls.append(np.size(params))
        return raw(curve, params)

    monkeypatch.setattr(hl.ParamCurve, "eval_batch", counted)
    return calls


@pytest.mark.parametrize("shift, cusp", [
    # the cusp at t = 511/512, half-way between the last sample and t = 1
    (math.pi / 256, 0.998046875),
    (math.sqrt(2.0), 1.0 - math.sqrt(2.0) / (2 * math.pi)),
], ids=["half-way", "irrational"])
def test_validate_rejects_a_closed_curve_stopping_between_samples(shift,
                                                                  cusp):
    curve = _deltoid(shift)
    grid = curve.sample_params(hl.geometry.MAP_SAMPLES)
    pts, vel = curve.eval_batch(grid)
    assert not hl.geometry._speed_vanishes(pts, vel).any()
    scene = hl.Scene(curves={"c1": curve, "c2": _RING_ABOVE})
    with pytest.raises(SceneInvalid, match="velocity vanishes near") as exc:
        hl.validate_scene(scene)
    assert exc.value.path == "curves.c1.map"
    where = float(str(exc.value).rsplit(" ", 1)[1])
    # a cusp, which the refinement reached to within the vanishing floor
    assert abs(where - cusp) < 1e-9


def test_validate_certifies_a_near_cusp_by_refining_it(monkeypatch):
    # the speed dips to 2 pi / 500 at the three near-cusps, below what the
    # bound certifies between samples, so the intervals there are halved
    # until it does
    calls = _counting_eval_batch(monkeypatch)
    scene = hl.Scene(curves={"c1": _deltoid(0.3, 0.999), "c2": _RING_ABOVE})
    assert hl.validate_scene(scene) is scene
    assert calls[0] == calls[-1] == hl.geometry.MAP_SAMPLES
    assert len(calls) > 2 and sum(calls[1:-1]) < 64


def _torus_curve(wraps, phase, major=2.0, minor=0.5):
    """The (1, wraps) torus curve (major + minor cos A)(cos 2 pi t,
    sin 2 pi t), minor sin A, A = 2 pi (wraps t + phase), with its
    harmonics read off 16 samples by the FFT."""
    t = np.arange(16) / 16
    a = 2 * math.pi * (wraps * t + phase)
    pts = np.stack([(major + minor * np.cos(a)) * np.cos(2 * math.pi * t),
                    (major + minor * np.cos(a)) * np.sin(2 * math.pi * t),
                    minor * np.sin(a)], axis=-1)
    c = np.fft.rfft(pts, axis=0)[:wraps + 2] / 16
    return hl.ParamCurve.real_closed(c[0].real, 2 * c[1:].real,
                                     -2 * c[1:].imag)


def test_validate_certifies_torus_curves_without_refining(monkeypatch):
    # the (1, w) torus curves of the Gauss benchmark: the bound certifies
    # every interval between the samples, so each curve is evaluated once
    calls = _counting_eval_batch(monkeypatch)
    for wraps in range(4):
        c1, c2 = _torus_curve(wraps, 0.1), _torus_curve(wraps, 0.106)
        t = np.linspace(0.0, 1.0, 7)
        a = 2 * math.pi * (wraps * t + 0.1)
        assert np.allclose(c1.eval_batch(t)[0][:, 2], 0.5 * np.sin(a),
                           atol=1e-14)
        calls.clear()
        hl.validate_scene(hl.Scene(curves={"c1": c1, "c2": c2}))
        assert calls == [hl.geometry.MAP_SAMPLES] * 2


def test_plane_samples_lie_on_rings_of_the_plane_chart():
    # validation covers what is integrated: the chart's rings at fixed rho
    rho = np.array([0.15, 0.4, 0.7, 0.95])
    grid = _PLANE.sample_params(hl.geometry.MAP_SAMPLES).reshape(rho.size, -1)
    phi = np.linspace(0.0, 2 * math.pi, grid.shape[1], endpoint=False)
    chart, _ = hl.quadrature.Plane().chart((2 * math.pi * rho[:, None],
                                            phi[None, :]))
    assert np.allclose(grid, chart, rtol=1e-13, atol=0.0)
    assert 0.03 < np.min(np.abs(grid)) and np.max(np.abs(grid)) < 362


def test_sample_grids_are_shared_and_read_only():
    first = hl.ParamCurve.line((0, 0, 0), (1, 0, 0))
    second = hl.ParamCurve.line((1, 2, 3), (0, 1j, 0))
    grid = first.sample_params(64)
    assert grid is second.sample_params(64)
    with pytest.raises(ValueError):
        grid[0] = 0.0


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


def test_random_polynomial_scene_retries_rejections_only(monkeypatch):
    # a rejected draw is redrawn; a defect surfaces at once instead of as
    # "no valid random polynomial scene" after 64 draws
    raw = hl.scenes.validate_scene
    calls = []

    def reject_first(scene):
        calls.append(scene.scene_id)
        if len(calls) == 1:
            raise SceneInvalid("curves.c1", "rejected")
        return raw(scene)

    monkeypatch.setattr(hl.scenes, "validate_scene", reject_first)
    hl.scenes.random_polynomial_scene(0)
    assert len(calls) == 2

    def broken(scene):
        calls.append(scene.scene_id)
        raise TypeError("defect")

    calls.clear()
    monkeypatch.setattr(hl.scenes, "validate_scene", broken)
    with pytest.raises(TypeError, match="defect"):
        hl.scenes.random_polynomial_scene(0)
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# the Fourier derivative bound and the harmonic recurrence

@pytest.mark.parametrize("seed", range(5))
def test_derivative_bounds_hold_on_dense_samples(seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 6))
    curve = hl.ParamCurve.real_closed(rng.normal(size=3),
                                      rng.normal(size=(k, 3)),
                                      rng.normal(size=(k, 3)))
    t = np.linspace(0.0, 1.0, 4096, endpoint=False)
    speed = np.linalg.norm(curve.eval_batch(t)[1], axis=1)
    assert speed.max() <= curve.derivative_bound(1)
    # x'' by the central difference of x', which is exact up to O(h^2)
    h = 1e-5
    bend = np.linalg.norm(curve.eval_batch(t + h)[1]
                          - curve.eval_batch(t - h)[1], axis=1) / (2 * h)
    assert bend.max() <= curve.derivative_bound(2) * (1 + 1e-6)
    # the unit circle: |x'| = 2 pi, and the bound is sqrt(2) times that
    assert _CIRCLE.derivative_bound(1) == pytest.approx(
        2 * math.pi * math.sqrt(2), rel=1e-15)


def test_derivative_bounds_are_for_closed_curves_of_order_one_or_two():
    with pytest.raises(ValueError):
        _CIRCLE.derivative_bound(3)
    with pytest.raises(ValueError):
        hl.ParamCurve.line((0, 0, 0), (1, 0, 0)).derivative_bound(1)


def test_harmonic_recurrence_is_within_a_few_ulp_per_harmonic():
    # angle addition from harmonic 1 against np.cos / np.sin of each
    # harmonic's own angle, over a closed curve's parameters [0, 1]
    rng = np.random.default_rng(0)
    t = np.concatenate([np.linspace(0.0, 1.0, 2001), rng.uniform(size=5000)])
    angle = hl.geometry.TWO_PI * t
    cos, sin = hl.geometry._harmonics(angle, 32)
    k = np.arange(1, 33)
    ulp = k * np.finfo(float).eps
    assert np.all(np.abs(cos - np.cos(angle[:, None] * k)) <= 4 * ulp)
    assert np.all(np.abs(sin - np.sin(angle[:, None] * k)) <= 4 * ulp)
    # harmonic 1 is np.cos / np.sin itself, and a scalar angle works
    assert np.array_equal(cos[:, 0], np.cos(angle))
    one = hl.geometry._harmonics(angle[7], 3)
    assert np.array_equal(one[0], cos[7, :3])
