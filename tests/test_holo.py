import math

import numpy as np
from numpy.polynomial import polynomial as P
import pytest

import hololink as hl
from hololink import _kernels, report, scenes
from hololink.holo import AREA_FACTOR, SPHERE_NORMALIZER
from hololink.residue import pole_order


# ---------------------------------------------------------------------------
# context

def test_prefactor_is_the_dimension_constant():
    ctx = hl.BMContext()
    assert ctx.prefactor == math.pi ** 3
    assert ctx.line_kappa == complex(-2.0 * math.pi ** 5)


def test_prefactor_toggles_dimension_constant():
    z, dz, w, dw = _random_pair(np.random.default_rng(3))
    bare = complex(_kernels.bm_grid(*(a.reshape(1, 3)
                                      for a in (z, dz, w, dw)))[0, 0])
    ctx = hl.BMContext()
    assert hl.bm_pullback_integrand(z, dz, w, dw, ctx) / bare == pytest.approx(
        math.pi ** 3, rel=1e-15)


# ---------------------------------------------------------------------------
# kernel: determinant form vs epsilon expansion

def _random_pair(rng):
    z = rng.normal(size=3) + 1j * rng.normal(size=3)
    w = rng.normal(size=3) + 1j * rng.normal(size=3) + 4.0
    dz = rng.normal(size=3) + 1j * rng.normal(size=3)
    dw = rng.normal(size=3) + 1j * rng.normal(size=3)
    return z, dz, w, dw


def test_pullback_epsilon_sum_identity(rng):
    ctx = hl.BMContext()
    worst = 0.0
    for _ in range(1000):
        z, dz, w, dw = _random_pair(rng)
        a = hl.bm_pullback_integrand(z, dz, w, dw, ctx)
        b = hl.bm_pullback_epsilon_sum(z, dz, w, dw, ctx)
        worst = max(worst, abs(a - b) / max(abs(a), 1e-300))
    assert worst < 1e-14


def test_pullback_symmetric_under_curve_swap(rng):
    ctx = hl.BMContext()
    for _ in range(20):
        z, dz, w, dw = _random_pair(rng)
        a = hl.bm_pullback_integrand(z, dz, w, dw, ctx)
        b = hl.bm_pullback_integrand(w, dw, z, dz, ctx)
        assert a == pytest.approx(b, rel=1e-12)


def test_pullback_rejects_coincident_points():
    z = np.array([1.0, 2.0, 3.0], dtype=complex)
    d = np.array([1.0, 0.0, 0.0], dtype=complex)
    with pytest.raises(hl.CoincidentPoints):
        hl.bm_pullback_integrand(z, d, z, d, hl.BMContext())


# ---------------------------------------------------------------------------
# sphere reproduction

def test_sphere_normalizer_reproduces_constants(cfg):
    w0 = np.zeros(3, dtype=complex)
    out = hl.bm_reproduce(hl.Poly3.constant(1.0), w0, 0.1, cfg)
    assert abs(out - 1.0) < 1e-10
    # the normalizer itself is i / (4 pi^3)
    assert SPHERE_NORMALIZER == pytest.approx(1j / (4 * math.pi ** 3))


def test_sphere_reproduces_polynomial_value(cfg):
    f = hl.Poly3.from_terms([((0, 0, 0), 1.0), ((1, 0, 0), 2.0),
                             ((0, 1, 1), -1.5 + 0.5j)])
    w0 = np.array([0.2 + 0.1j, -0.3 + 0.05j, 0.15 - 0.2j])
    out = hl.bm_reproduce(f, w0, 0.05, cfg)
    assert abs(out - complex(f(w0))) < 1e-9


def test_sphere_error_decreases_with_radius(cfg):
    f = hl.Poly3.from_terms([((0, 0, 0), 1.0), ((1, 0, 0), 2.0),
                             ((0, 1, 1), -1.5 + 0.5j)])
    w0 = np.array([0.2 + 0.1j, -0.3 + 0.05j, 0.15 - 0.2j])
    target = complex(f(w0))
    errs = [abs(hl.bm_reproduce(f, w0, eps, cfg) - target)
            for eps in (0.2, 0.1, 0.05, 0.025)]
    assert all(b < a for a, b in zip(errs, errs[1:]))
    assert errs[-1] <= 5e-3


# ---------------------------------------------------------------------------
# closed form for complex lines

LINE_CONSTANTS = hl.NormalizationConstants(kappa_line=-2 * math.pi ** 5 + 0j)


def test_line_closed_form_reference_frame():
    v = hl.line_holo_closed((1, 0, 0), (0, 1, 0), (0, 0, 1), 1.0, 1.0,
                            LINE_CONSTANTS)
    assert v == pytest.approx(-2 * math.pi ** 5, rel=1e-15)


def test_line_closed_form_scaling_laws():
    base = hl.line_holo_closed((1, 0, 0), (0, 1, 0), (0, 0, 1), 1.0, 1.0,
                               LINE_CONSTANTS)
    doubled_dir = hl.line_holo_closed((2, 0, 0), (0, 1, 0), (0, 0, 1),
                                      1.0, 1.0, LINE_CONSTANTS)
    assert doubled_dir == pytest.approx(base / 2, rel=1e-14)
    doubled_off = hl.line_holo_closed((1, 0, 0), (0, 1, 0), (0, 0, 2),
                                      1.0, 1.0, LINE_CONSTANTS)
    assert doubled_off == pytest.approx(base / 2, rel=1e-14)
    weighted = hl.line_holo_closed((1, 0, 0), (0, 1, 0), (0, 0, 1),
                                   2.0j, 3.0, LINE_CONSTANTS)
    assert weighted == pytest.approx(6j * base, rel=1e-14)


def test_line_closed_form_degenerate():
    with pytest.raises(hl.DegenerateConfiguration):
        hl.line_holo_closed((1, 0, 0), (0, 1, 0), (1, 1, 0), 1.0, 1.0,
                            LINE_CONSTANTS)


# ---------------------------------------------------------------------------
# integral route

def test_integral_requires_complex_curves(cfg):
    circ = hl.ParamCurve.real_closed((0, 0, 0), [[1, 0, 0]], [[0, 1, 0]])
    form = hl.OneForm("c1", np.array([1.0]))
    with pytest.raises(hl.MethodInapplicable):
        hl.holo_linking_integral((circ, form), (circ, form), hl.BMContext(),
                                 cfg)


def test_reference_lines_integral_matches_analytic(fast_cfg):
    sc = scenes.l0()
    res = hl.holo_linking_integral((sc.curves["c1"], sc.forms["theta1"]),
                                   (sc.curves["c2"], sc.forms["theta2"]),
                                   hl.BMContext(), fast_cfg)
    assert res.converged
    assert abs(res.value + 2 * math.pi ** 5) / (2 * math.pi ** 5) < 1e-2


def _count_kernel_calls(monkeypatch):
    """Install a counting wrapper on _kernels.bm_grid; returns the list
    that gains one entry per call."""
    calls = []
    raw = _kernels.bm_grid

    def counted(*args, **kwargs):
        calls.append(1)
        return raw(*args, **kwargs)

    monkeypatch.setattr(_kernels, "bm_grid", counted)
    return calls


def test_holo_integral_calls_the_module_kernel_per_rule(monkeypatch):
    # a wrapper installed on _kernels.bm_grid must see every kernel call:
    # one per rule per round, one per round that refines by error (the
    # split probe), plus the batch check of integrate_pv
    calls = _count_kernel_calls(monkeypatch)
    sc = scenes.l0()
    res = hl.holo_linking_integral((sc.curves["c1"], sc.forms["theta1"]),
                                   (sc.curves["c2"], sc.forms["theta2"]),
                                   hl.BMContext(), hl.QuadConfig(tol=1e-6))
    assert res.panels_evaluated == 52
    rounds = len(res.trace.panels_per_round)
    assert rounds == 7
    assert len(calls) == 2 * rounds + (rounds - 1) + 1


def test_tolerance_drives_refinement():
    sc = scenes.l0()
    pair = ((sc.curves["c1"], sc.forms["theta1"]),
            (sc.curves["c2"], sc.forms["theta2"]))
    loose, tight = (hl.holo_linking_integral(*pair, hl.BMContext(),
                                             hl.QuadConfig(tol=tol))
                    for tol in (1e-2, 1e-7))
    assert loose.panels_evaluated < tight.panels_evaluated
    for res in (loose, tight):
        assert res.converged
        assert abs(res.value + 2 * math.pi ** 5) <= res.err_estimate


def test_theta_free_energy_positive_and_matches_analytic(fast_cfg):
    sc = scenes.l0()
    res = hl.complex_linking_number(sc.curves["c1"], sc.curves["c2"],
                                    hl.BMContext(), fast_cfg)
    assert res.converged
    assert abs(res.value.imag) < 1e-6
    assert res.value.real > 0
    assert abs(res.value - 2 * math.pi ** 5) / (2 * math.pi ** 5) < 1e-2


def test_area_factor_is_four():
    assert AREA_FACTOR == 4.0


# ---------------------------------------------------------------------------
# a curve against a line: the whole-plane route

KAPPA = -2 * math.pi ** 5
GENERIC_LINE = hl.ParamCurve.line((0.2 + 0.1j, -0.3 + 0.2j, 1.1 - 0.2j),
                                  (0.3 - 0.2j, 1 + 0.1j, 0.4 + 0.3j))
VERTICAL_LINE = hl.ParamCurve.line((0, 0, 1), (0, 1, 0))


def _parabola_scene(line):
    """c1 = (t, 0.3 t^2, 0), cut by z2 - 0.3 z1^2 and z3, against a line,
    with unit forms."""
    parabola = hl.ParamCurve.complex_affine(
        (np.array([0.0, 1.0]), np.array([0.0, 0.0, 0.3]), np.array([0.0])))
    return hl.validate_scene(hl.Scene(
        scene_id="parabola_line",
        curves={"c1": parabola, "c2": line},
        forms={"theta1": hl.OneForm("c1", np.array([1.0])),
               "theta2": hl.OneForm("c2", np.array([1.0]))},
        ambient=hl.AmbientForm.standard(),
        cuts={"cut1": hl.SurfaceCut(
            hl.Poly3.from_terms([((0, 1, 0), 1.0), ((2, 0, 0), -0.3)]),
            scenes.coordinate_poly(2), "c1")}))


LINE_GATES = ["L0", *(f"random_line_{seed}" for seed in range(10)),
              "parabola_generic_line", "tangent_cut_0"]


@pytest.mark.parametrize("name", LINE_GATES)
def test_holo_line_matches_the_scaled_residue(name, tangent_cut_scene):
    if name == "L0":
        scene = scenes.l0()
    elif name.startswith("random_line_"):
        scene = scenes.random_line_scene(int(name.rsplit("_", 1)[1]))
    elif name == "parabola_generic_line":
        scene = _parabola_scene(GENERIC_LINE)
    else:
        scene = tangent_cut_scene(0.0)
    assert "holo_line" in report.applicable_methods(scene)
    cfg = hl.QuadConfig(tol=1e-6)
    rep = report.compute(scene, "holo_line", cfg)
    expected = KAPPA * report.compute(scene, "residue", cfg).value
    assert rep.converged and rep.tail_estimate == 0.0
    assert abs(rep.value - expected) <= rep.err_estimate


def test_holo_line_gives_the_line_constant_on_the_vertical_parabola_pair():
    # the inner peak at s* = 0.3 t^2 that leaves any s window is integrated
    # in closed form, so no tail is left
    rep = report.compute(_parabola_scene(VERTICAL_LINE), "holo_line",
                         hl.QuadConfig(tol=1e-8))
    assert rep.converged
    assert abs(rep.value - KAPPA) <= rep.err_estimate


def test_holo_line_takes_the_line_in_either_place(fast_cfg):
    scene = _parabola_scene(GENERIC_LINE)
    pair = ((scene.curves["c1"], scene.forms["theta1"]),
            (scene.curves["c2"], scene.forms["theta2"]))
    ctx = hl.BMContext()
    assert (hl.holo_line(*pair, ctx, fast_cfg).value
            == hl.holo_line(*pair[::-1], ctx, fast_cfg).value)


@pytest.mark.parametrize("line", [((0.5, 0, 0), (0, 1, 0)),
                                  ((0, 0.3, 0), (1, 0, 0))],
                         ids=["L0_line", "parabola"])
def test_a_curve_meeting_the_line_is_too_close(line, monkeypatch):
    # L0 with c2 moved through c1 at u = 0.5, and the parabola, which the
    # line (s, 0.3, 0) meets at t = 1 and t = -1
    scene = scenes.l0() if line[0][0] else _parabola_scene(GENERIC_LINE)
    scene.curves["c2"] = hl.ParamCurve.line(*line)
    hl.validate_scene(scene)
    assert "holo_line" in report.applicable_methods(scene)
    monkeypatch.setattr(hl.quadrature, "integrate_curve", None)
    with pytest.raises(hl.CurvesTooClose):
        report.compute(scene, "holo_line", hl.QuadConfig())


def _with_form(scene, name, num):
    scene.forms[name] = hl.OneForm(scene.forms[name].curve,
                                   np.array(num, dtype=complex))
    return hl.validate_scene(scene)


@pytest.mark.parametrize("scene, reason", [
    (lambda: _with_form(scenes.l0(), "theta2", [1, 0, 0, 0, 1]), "degree"),
    (lambda: _with_form(scenes.l0(), "theta1", [1, 0, 1]), "decays"),
    (scenes.pv_lines, "poles"),
], ids=["line_form_degree_4", "decays_like_u^-2", "declared_pole"])
def test_holo_line_refuses_what_it_cannot_integrate(scene, reason, cfg):
    scene = scene()
    assert "holo_line" not in report.applicable_methods(scene)
    with pytest.raises(hl.MethodInapplicable):
        report.compute(scene, "holo_line", cfg)
    pair = [(scene.curves[n], scene.form_for(n)) for n in scene.query_pair()]
    with pytest.raises(hl.MethodInapplicable, match=reason):
        hl.holo_line(*pair, hl.BMContext(), cfg)


# ---------------------------------------------------------------------------
# simple poles: the puncture-centered chart

# pv_lines at tol 1e-6; panel orders 8 and 12 agree to 3e-11
PV_LINES_REFERENCE = 90.0932435585 + 81.9029486896j


@pytest.mark.parametrize("tol, panels", [(1e-4, 34), (1e-6, 166)])
def test_simple_pole_lines_converge(tol, panels):
    rep = report.compute(scenes.pv_lines(), "holo_pv", hl.QuadConfig(tol=tol))
    assert rep.converged
    assert not rep.extra["trace"]["max_depth_hit"]
    assert rep.panels_evaluated == panels
    assert abs(rep.value - PV_LINES_REFERENCE) <= rep.err_estimate


# ---------------------------------------------------------------------------
# pole orders: decided from the form's polynomials before any kernel runs

POLE = scenes.PV_POLE_1
LIN = np.array([-POLE, 1.0])
ONE = np.array([1.0 + 0j])


@pytest.mark.parametrize("num, den, declared, order", [
    (ONE, LIN, POLE, 1),
    (ONE, P.polypow(LIN, 2), POLE, 2),
    (ONE, P.polypow(LIN, 3), POLE, 3),
    # a cofactor that splits the triple root wider than CLUSTER_TOL
    (ONE, P.polymul(P.polypow(LIN, 3), [3, -2, 1]), POLE, 3),
    (LIN, P.polypow(LIN, 2), POLE, 1),
    (LIN, LIN, POLE, 0),
    (ONE, P.polypow(LIN, 2), POLE + 1e-6, 2),
    (ONE, P.polypow(LIN, 2), POLE + 5e-5, 2),
    (ONE, P.polymul(LIN, [-(POLE + 0.2), 1.0]), POLE, 1),
], ids=["simple", "double", "triple", "triple_split", "reduced", "cancelled",
        "double_off_1e-6", "double_off_5e-5", "neighbour_0.2"])
def test_pole_order_from_polynomials(num, den, declared, order):
    assert pole_order(num, den, declared) == order


def _pv_pair(num1, den1):
    """pv_lines with the first form replaced by num1 / den1, pole declared
    at PV_POLE_1."""
    sc = scenes.pv_lines()
    form1 = hl.OneForm("c1", num1, den1, (POLE,))
    return ((sc.curves["c1"], form1), (sc.curves["c2"], sc.forms["theta2"]))


def test_double_pole_fails_before_any_kernel_call(monkeypatch):
    calls = _count_kernel_calls(monkeypatch)
    with pytest.raises(hl.PVNotConverging, match="pole of order 2 > 1"):
        report.compute(scenes.pv_lines(pole_order=2), "holo_pv",
                       hl.QuadConfig(tol=1e-3))
    assert calls == []


def test_triple_pole_fails_before_any_kernel_call(monkeypatch):
    calls = _count_kernel_calls(monkeypatch)
    with pytest.raises(hl.PVNotConverging, match="pole of order 3 > 1"):
        hl.holo_linking_integral(*_pv_pair(ONE, P.polypow(LIN, 3)),
                                 hl.BMContext(), hl.QuadConfig(tol=1e-3))
    assert calls == []


def test_cancelled_pole_runs():
    # (u - p) / (u - p) declares a pole that is not there: the route
    # integrates it in the puncture chart instead of refusing it
    res = hl.holo_linking_integral(*_pv_pair(LIN, LIN), hl.BMContext(),
                                   hl.QuadConfig(tol=1e-2, max_depth=3))
    assert np.isfinite(res.value)
    assert res.panels_evaluated > 0
