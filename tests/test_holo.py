import math

import numpy as np
import pytest

import hololink as hl
from hololink import report, scenes
from hololink.holo import AREA_FACTOR, SPHERE_NORMALIZER


# ---------------------------------------------------------------------------
# context

def test_context_validates_dimension_and_constant():
    ctx = hl.BMContext()
    assert ctx.n == 3 and ctx.c3 == pytest.approx(math.pi ** 3)
    with pytest.raises(ValueError):
        hl.BMContext(n=2)
    with pytest.raises(ValueError):
        hl.BMContext(c3=1.0)


def test_prefactor_toggles_dimension_constant():
    with_cn = hl.BMContext(include_cn=True)
    without = hl.BMContext(include_cn=False)
    assert with_cn.prefactor / without.prefactor == pytest.approx(
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


def test_tolerance_drives_refinement():
    # the proximity rule alone brings L0 to a relative error of about 3e-7,
    # so tol has to go below that before the error rule refines further
    sc = scenes.l0()
    pair = ((sc.curves["c1"], sc.forms["theta1"]),
            (sc.curves["c2"], sc.forms["theta2"]))
    loose, tight = (hl.holo_linking_integral(*pair, hl.BMContext(),
                                             hl.QuadConfig(tol=tol))
                    for tol in (1e-2, 1e-7))
    assert loose.panels_evaluated < tight.panels_evaluated
    for res in (loose, tight):
        assert res.converged
        assert abs(res.value + 2 * math.pi ** 5) <= (res.err_estimate
                                                     + res.tail_estimate)


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
# simple poles: the puncture-centered chart

# pv_lines at tol 1e-6; panel orders 8 and 12 agree to 3e-11
PV_LINES_REFERENCE = 90.0932435585 + 81.9029486896j


@pytest.mark.parametrize("tol, panels", [(1e-4, 672), (1e-6, 752)])
def test_simple_pole_lines_converge(tol, panels):
    rep = report.compute(scenes.pv_lines(), "holo_pv", hl.QuadConfig(tol=tol))
    assert rep.converged
    assert not rep.extra["trace"]["max_depth_hit"]
    assert rep.panels_evaluated == panels
    assert abs(rep.value - PV_LINES_REFERENCE) <= (rep.err_estimate
                                                    + rep.tail_estimate)
