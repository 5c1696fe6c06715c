import numpy as np
import pytest

import hololink as hl
from hololink import scenes
from hololink.residue import LiftedThreeForm, PolyMultiplier, compose_restriction

Z1 = ((1, 0, 0), (0, 0, 0))
Z2 = ((0, 1, 0), (0, 0, 0))
Z3 = ((0, 0, 1), (0, 0, 0))


def _poly(*terms):
    return hl.Poly3.from_terms(terms)


def _l0_pieces():
    sc = scenes.l0()
    return sc


# ---------------------------------------------------------------------------
# curve / surface intersections

def test_intersections_simple_root():
    f = _poly(((0, 1, 0), 1.0))  # z2
    curve = hl.ParamCurve.line((0, 0, 1), (0, 1, 0))  # (0, t, 1)
    inter = hl.curve_surface_intersections(f, curve)
    assert np.allclose(inter.params, [0.0], atol=1e-12)
    assert list(inter.multiplicities) == [1]


def test_intersections_two_roots():
    # z1 z2 - 2 on the curve (t, t, 0) -> t^2 = 2
    f = _poly(((1, 1, 0), 1.0), ((0, 0, 0), -2.0))
    curve = hl.ParamCurve.complex_affine(
        (np.array([0.0, 1.0]), np.array([0.0, 1.0]), np.array([0.0])))
    inter = hl.curve_surface_intersections(f, curve)
    params = np.sort(np.asarray(inter.params).real)
    assert params == pytest.approx([-np.sqrt(2), np.sqrt(2)], abs=1e-10)


def test_intersections_tangency_rejected():
    f = _poly(((0, 2, 0), 1.0))  # z2^2
    curve = hl.ParamCurve.line((0, 0, 1), (0, 1, 0))
    with pytest.raises(hl.NonSimpleRoot):
        hl.curve_surface_intersections(f, curve)


def test_intersections_inexact_tangency_rejected(rng):
    # (z2 - a)^2 (z1 - b) on the line (t, t, 1): a double root at t = a
    # whose value is not representable, so rounding splits it
    curve = hl.ParamCurve.line((0, 0, 1), (1, 1, 0))
    for _ in range(100):
        a, b = rng.normal(size=2) + 1j * rng.normal(size=2)
        f = _poly(((1, 2, 0), 1.0), ((1, 1, 0), -2 * a), ((1, 0, 0), a * a),
                  ((0, 2, 0), -b), ((0, 1, 0), 2 * a * b),
                  ((0, 0, 0), -a * a * b))
        with pytest.raises(hl.NonSimpleRoot):
            hl.curve_surface_intersections(f, curve)


def test_intersections_identically_zero():
    f = _poly(((1, 0, 0), 1.0))  # z1 on a curve with z1 = 0
    curve = hl.ParamCurve.line((0, 0, 1), (0, 1, 0))
    with pytest.raises(hl.IdenticallyZero):
        hl.curve_surface_intersections(f, curve)


def test_intersections_rect_domain_filters():
    # roots at 0.5 (inside) and 3 (outside the rectangle)
    f = _poly(((2, 0, 0), 1.0), ((1, 0, 0), -3.5), ((0, 0, 0), 1.5))
    curve = hl.ParamCurve.complex_affine(
        (np.array([0.0, 1.0]), np.array([1.0]), np.array([0.0])),
        domain=("rect", -1.0, 1.0, -1.0, 1.0))
    inter = hl.curve_surface_intersections(f, curve)
    assert np.allclose(inter.params, [0.5], atol=1e-10)


def test_intersections_disk_window_keeps_all():
    # truncation windows are not hard boundaries: every root participates
    f = _poly(((2, 0, 0), 1.0), ((1, 0, 0), -3.5), ((0, 0, 0), 1.5))
    curve = hl.ParamCurve.complex_affine(
        (np.array([0.0, 1.0]), np.array([1.0]), np.array([0.0])),
        domain=("disk", 2.0))
    inter = hl.curve_surface_intersections(f, curve)
    assert len(inter.params) == 2


# ---------------------------------------------------------------------------
# iterated residue and lifting

def test_double_residue_constant_on_reference_line():
    sc = _l0_pieces()
    cut = sc.cuts["cut1"]
    lift = LiftedThreeForm(sc.ambient, cut.f1, cut.f2,
                           PolyMultiplier.constant(1.0))
    params, coeffs = hl.double_leray_residue(lift, sc.curves["c1"])
    assert np.max(np.abs(coeffs - 1.0)) < 1e-12


def test_lift_constant_form():
    sc = _l0_pieces()
    lift = hl.lift_theta(sc.cuts["cut1"], sc.ambient, sc.forms["theta1"],
                         sc.curves["c1"])
    assert lift.multiplier.degree == 0
    assert complex(lift.multiplier(np.zeros((1, 3), dtype=complex))[0]) == \
        pytest.approx(1.0)


def test_lift_linear_form_pins_multiplier_to_coordinates():
    # theta = s ds on the line (s, 0, 0) lifts to the multiplier z1
    sc = _l0_pieces()
    theta = hl.OneForm("c1", np.array([0.0, 1.0]))
    lift = hl.lift_theta(sc.cuts["cut1"], sc.ambient, theta, sc.curves["c1"])
    pts = np.array([[2.0, 0.0, 0.0], [-0.5j, 0.0, 0.0]], dtype=complex)
    vals = lift.multiplier(pts)
    assert vals == pytest.approx([2.0, -0.5j], rel=1e-10)


def test_dependent_cut_gradients_rejected():
    # the cut (f1, 2 f1) is one surface twice: its gradients are parallel
    # everywhere on c1, so no iterated residue exists
    sc = _l0_pieces()
    f1 = sc.cuts["cut1"].f1
    twice = hl.Poly3(f1.exponents, 2.0 * f1.coeffs)
    lift = LiftedThreeForm(sc.ambient, f1, twice, PolyMultiplier.constant(1.0))
    with pytest.raises(hl.DependentGradients):
        hl.double_leray_residue(lift, sc.curves["c1"])
    with pytest.raises(hl.DependentGradients):
        hl.lift_theta(hl.SurfaceCut(f1, twice, "c1"), sc.ambient,
                      sc.forms["theta1"], sc.curves["c1"])


def test_lift_rejects_rational_ratio():
    sc = _l0_pieces()
    theta = hl.OneForm("c1", np.array([1.0]), np.array([-5.0, 1.0]), (5.0,))
    with pytest.raises(hl.MultiplierNotPolynomial):
        hl.lift_theta(sc.cuts["cut1"], sc.ambient, theta, sc.curves["c1"])


# ---------------------------------------------------------------------------
# residue-route linking

def test_reference_residue_is_one_for_all_admissible_cuts():
    sc = _l0_pieces()
    z2 = _poly(((0, 1, 0), 1.0))
    z3 = _poly(((0, 0, 1), 1.0))
    z2pz3 = _poly(((0, 1, 0), 1.0), ((0, 0, 1), 1.0))
    z2mz3 = _poly(((0, 1, 0), 1.0), ((0, 0, 1), -1.0))
    two_z2pz3 = _poly(((0, 1, 0), 2.0), ((0, 0, 1), 1.0))
    z3mz2 = _poly(((0, 0, 1), 1.0), ((0, 1, 0), -1.0))
    cuts = [(z2, z3), (z2pz3, z3), (z2mz3, z3), (two_z2pz3, z3), (z2, z3mz2)]
    for f1, f2 in cuts:
        cut = hl.SurfaceCut(f1, f2, "c1")
        lift = hl.lift_theta(cut, sc.ambient, sc.forms["theta1"],
                             sc.curves["c1"])
        value = hl.residue_linking(lift, (sc.curves["c2"],
                                          sc.forms["theta2"]), sc.ambient)
        assert abs(value - 1.0) < 1e-10


def test_role_swapped_cut_gives_same_value():
    sc = _l0_pieces()
    # cut containing the second line (0, t, 1): {z1 = 0} cap {z3 - 1 = 0}
    f1 = _poly(((1, 0, 0), 1.0))
    f2 = _poly(((0, 0, 1), 1.0), ((0, 0, 0), -1.0))
    cut = hl.SurfaceCut(f1, f2, "c2")
    lift = hl.lift_theta(cut, sc.ambient, sc.forms["theta2"], sc.curves["c2"])
    value = hl.residue_linking(lift, (sc.curves["c1"], sc.forms["theta1"]),
                               sc.ambient)
    assert abs(value - 1.0) < 1e-10


def test_pole_collision_detected():
    sc = _l0_pieces()
    # second cut surface vanishing at the intersection point (0, 0, 1)
    f1 = _poly(((0, 1, 0), 1.0))                     # z2
    f2 = _poly(((0, 0, 1), 1.0), ((0, 0, 0), -1.0))  # z3 - 1
    lift = LiftedThreeForm(sc.ambient, f1, f2, PolyMultiplier.constant(1.0))
    with pytest.raises(hl.PoleCollision):
        hl.residue_linking(lift, (sc.curves["c2"], sc.forms["theta2"]),
                           sc.ambient)


def test_theta_pole_at_intersection_detected():
    sc = _l0_pieces()
    cut = sc.cuts["cut1"]
    lift = LiftedThreeForm(sc.ambient, cut.f1, cut.f2,
                           PolyMultiplier.constant(1.0))
    # theta2 with a pole at the intersection parameter t* = 0
    theta2 = hl.OneForm("c2", np.array([1.0]), np.array([0.0, 1.0]), (0.0,))
    with pytest.raises(hl.PoleCollision):
        hl.residue_linking(lift, (sc.curves["c2"], theta2), sc.ambient)


# ---------------------------------------------------------------------------
# rational closure

def test_restriction_residues_close_to_zero():
    sc = _l0_pieces()
    cut = sc.cuts["cut1"]
    lift = hl.lift_theta(cut, sc.ambient, sc.forms["theta1"], sc.curves["c1"])
    num, den = compose_restriction(lift, sc.curves["c2"], sc.forms["theta2"],
                                   sc.ambient)
    poles, residues, res_inf = hl.rational_all_residues(num, den)
    assert abs(sum(residues) + res_inf) < 1e-10


def test_rational_residues_match_symbolic():
    import sympy

    t = sympy.symbols("t")
    num = np.array([1.0, 0.0, 3.0])     # 3t^2 + 1
    exact_roots = [sympy.Integer(1), sympy.Integer(-2), sympy.I]
    den = np.array([1.0])
    for r in exact_roots:
        den = np.convolve(den, np.array([-complex(r), 1.0]))
    poles, residues, res_inf = hl.rational_all_residues(num, den)
    expr = (3 * t ** 2 + 1) / ((t - 1) * (t + 2) * (t - sympy.I))
    for p, r in zip(poles, residues):
        nearest = min(exact_roots, key=lambda e: abs(complex(e) - p))
        sym = complex(sympy.residue(expr, t, nearest))
        assert r == pytest.approx(sym, rel=1e-9)
    assert abs(sum(residues) + res_inf) < 1e-12


def test_sum_rule_on_random_rationals(rng):
    for _ in range(20):
        den_deg = int(rng.integers(3, 7))
        num_deg = int(rng.integers(0, den_deg - 1))
        num = rng.normal(size=num_deg + 1) + 1j * rng.normal(size=num_deg + 1)
        roots = rng.normal(size=den_deg) + 1j * rng.normal(size=den_deg)
        den = np.array([1.0 + 0j])
        for r in roots:
            den = np.convolve(den, np.array([-r, 1.0]))
        poles, residues, res_inf = hl.rational_all_residues(num, den)
        assert abs(sum(residues) + res_inf) < 1e-9


def test_repeated_pole_rejected():
    den = np.convolve(np.array([-1.0, 1.0]), np.array([-1.0, 1.0]))
    with pytest.raises(hl.NonSimpleRoot):
        hl.rational_all_residues(np.array([1.0]), den)


def _poly_from_roots(roots):
    den = np.array([1.0 + 0j])
    for r in roots:
        den = np.convolve(den, np.array([-r, 1.0]))
    return den


def test_double_roots_rejected_separated_roots_kept(rng):
    num = np.array([1.0])
    for _ in range(200):
        a = rng.normal() + 1j * rng.normal()
        k = int(rng.integers(0, 5))
        q = rng.normal(size=k) + 1j * rng.normal(size=k)
        with pytest.raises(hl.NonSimpleRoot):
            hl.rational_all_residues(num, _poly_from_roots([a, a, *q]))
    for _ in range(200):
        n = int(rng.integers(1, 7))
        roots = rng.normal(size=n) + 1j * rng.normal(size=n)
        poles, residues, _ = hl.rational_all_residues(
            num, _poly_from_roots(roots))
        assert len(poles) == n


def test_residue_at_infinity_simple():
    # 1/t has residue -1 at infinity
    assert hl.residue_at_infinity(np.array([1.0]), np.array([0.0, 1.0])) == \
        pytest.approx(-1.0)


# ---------------------------------------------------------------------------
# projective line pairing

def test_projective_pairing_reference_value():
    value = hl.atiyah_p3(scenes.ATIYAH_L, scenes.ATIYAH_P)
    assert value == pytest.approx(-1.0, rel=1e-12)


def test_projective_pairing_rotated_frame():
    l_forms = ((1, 0, 0, 0), (0, 1, 0, 0), (1, 0, -1, 0), (0, 1, 0, -1))
    assert hl.atiyah_p3(l_forms, scenes.ATIYAH_P) == pytest.approx(
        -1.0, rel=1e-10)


def test_projective_pairing_mixing_invariance():
    # replacing (l3, l4) by (l3 + l4, l3 - l4) cuts the same second line
    l = [np.array(r, dtype=complex) for r in scenes.ATIYAH_L]
    mixed = (l[0], l[1], l[2] + l[3], l[2] - l[3])
    assert hl.atiyah_p3(mixed, scenes.ATIYAH_P) == pytest.approx(
        -1.0, rel=1e-10)


def test_projective_pairing_intersecting_lines():
    bad = ((1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1), (1, 0, 0, 1))
    with pytest.raises(hl.LinesIntersect):
        hl.atiyah_p3(bad, scenes.ATIYAH_P)


def test_projective_pairing_degenerate_hyperplane():
    # p1 = z2 vanishes identically on the second line {z2 = z3 = 0}
    p = ((0, 0, 1, 0), (0, 1, 0, 3), (1, 0, 0, -1), (0, 1, -1, 0))
    with pytest.raises(hl.NonGenericHyperplanes):
        hl.atiyah_p3(scenes.ATIYAH_L, p)
