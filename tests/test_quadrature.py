import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hololink as hl
from hololink import report, scenes
from hololink.quadrature import (Disk, Interval, Rect, domain_for_curve,
                                 integrate_curve, integrate_product,
                                 integrate_pv, pairwise_tree_sum)

# Independently derived reference values (closed forms verified against
# high-order composite quadrature when first frozen):
#   integral over [0,1] of dt/(t - (0.5 + 0.01i)) = i*(pi - 2*arctan(1/50))
COMPLEX_POLE_ORACLE = 3.101597985643492j


def test_complex_pole_oracle():
    cfg = hl.QuadConfig(tol=1e-10)
    res = integrate_curve(lambda t: 1.0 / (t - (0.5 + 0.01j)),
                          Interval(0.0, 1.0), cfg)
    assert res.converged
    assert abs(res.value - COMPLEX_POLE_ORACLE) < 1e-10


def test_simple_pole_cauchy_pompeiu_oracle():
    # Cauchy-Pompeiu: the area integral of 1/(z - p) over |z| <= 2 is
    # -pi conj(p); the puncture-centered chart integrates it directly
    p = 0.3 + 0.1j
    res = integrate_pv(lambda z: 1.0 / (z - p), Disk(2.0), None, ([p], []),
                       hl.QuadConfig(tol=1e-12))
    assert res.converged
    assert abs(res.value - (-math.pi * np.conj(p))) < 1e-12


def test_double_pole_has_no_principal_value():
    cfg = hl.QuadConfig(tol=1e-8)
    p = 0.3 + 0.1j
    with pytest.raises(hl.PVNotConverging):
        integrate_pv(lambda z: 1.0 / (z - p) ** 2, Disk(2.0), None,
                     ([p], []), cfg)


def test_puncture_on_interval_is_rejected():
    with pytest.raises(hl.PVNotConverging):
        integrate_pv(lambda t: 1.0 / (t - 0.3), Interval(0.0, 1.0), None,
                     ([0.3], []), hl.QuadConfig(tol=1e-8))


def test_product_integral_matches_midpoint_oracle():
    # smooth pair kernel on [-20, 20]^2 against a 4000^2 midpoint rule
    R = 20.0

    def f(u, v):
        return 1.0 / (2.0 + u[:, None] ** 2 + v[None, :] ** 2) ** 3

    n = 4000
    h = 2 * R / n
    mids = -R + h * (np.arange(n) + 0.5)
    oracle = float(np.sum(f(mids, mids)) * h * h)

    cfg = hl.QuadConfig(tol=1e-8)
    res = integrate_product(f, Interval(-R, R), Interval(-R, R), cfg)
    assert res.converged
    assert abs(res.value - oracle) / abs(oracle) < 1e-5


def test_separable_product_exact():
    cfg = hl.QuadConfig(tol=1e-10)
    res = integrate_product(lambda u, v: u[:, None] * v[None, :],
                            Interval(0.0, 1.0), Interval(0.0, 1.0), cfg)
    assert abs(res.value - 0.25) < 1e-12


def test_error_estimate_covers_true_error():
    # sharp bump: oracle from the 1-D error function
    from math import erf
    s = math.sqrt(1e-3)

    def g(u):
        return np.exp(-((u - 0.3) ** 2) / 1e-3)

    one_d = s * math.sqrt(math.pi) / 2 * (erf(0.7 / s) + erf(0.3 / s))
    oracle = one_d ** 2
    cfg = hl.QuadConfig(tol=1e-7)
    res = integrate_product(lambda u, v: g(u)[:, None] * g(v)[None, :],
                            Interval(0.0, 1.0), Interval(0.0, 1.0), cfg)
    true_err = abs(res.value - oracle)
    assert res.converged
    assert true_err <= max(3.0 * res.err_estimate, 1e-12)


def test_refinement_is_monotone_in_tolerance():
    def g(u):
        return np.exp(-((u - 0.3) ** 2) / 1e-3)

    errs, panels = [], []
    for tol in (1e-2, 1e-4, 1e-6, 1e-8):
        res = integrate_product(lambda u, v: g(u)[:, None] * g(v)[None, :],
                                Interval(0.0, 1.0), Interval(0.0, 1.0),
                                hl.QuadConfig(tol=tol))
        errs.append(res.err_estimate)
        panels.append(res.panels_evaluated)
    assert all(e2 <= e1 for e1, e2 in zip(errs, errs[1:]))
    assert all(p2 >= p1 for p1, p2 in zip(panels, panels[1:]))


def test_max_depth_reports_unconverged_state():
    def g(u):
        return np.exp(-((u - 0.3) ** 2) / 1e-3)

    cfg = hl.QuadConfig(tol=1e-12, max_depth=1)
    res = integrate_product(lambda u, v: g(u)[:, None] * g(v)[None, :],
                            Interval(0.0, 1.0), Interval(0.0, 1.0), cfg)
    assert not res.converged
    assert np.isfinite(complex(res.value))


def test_disk_area_and_pv_exclusion():
    cfg = hl.QuadConfig(tol=1e-8)
    res = integrate_curve(lambda z: np.ones_like(z, dtype=float),
                          Disk(2.0), cfg)
    assert abs(res.value - 4 * math.pi) < 1e-6
    # the polar chart centered on a puncture covers the same disk
    res_pv = integrate_pv(lambda z: np.ones_like(z, dtype=float), Disk(2.0),
                          None, ([0.3 + 0.1j], []), cfg)
    assert abs(res_pv.value - 4 * math.pi) < 1e-6


def test_truncated_tail_extrapolation():
    # integral over R^2 of (1+u^2)^-1 (1+v^2)^-1 = pi^2; R-window plus the
    # 1/R tail step must land much closer than the bare window
    def f(u, v):
        return 1.0 / ((1.0 + u[:, None] ** 2) * (1.0 + v[None, :] ** 2))

    cfg = hl.QuadConfig(tol=1e-9, truncation_radius=40.0)
    dom = Interval(-40.0, 40.0, truncated=True)
    res = integrate_product(f, dom, dom, cfg, decay_order=1)
    exact = math.pi ** 2
    bare = (2 * math.atan(40.0)) ** 2
    assert abs(res.value - exact) < 0.2 * abs(bare - exact)
    assert res.tail_estimate > 0.0


def test_worker_count_does_not_change_bits(monkeypatch):
    def f(u, v):
        return np.cos(u)[:, None] * np.sin(v)[None, :] + \
            1.0 / (4.0 + (u[:, None] - v[None, :]) ** 2)

    cfg = hl.QuadConfig(tol=1e-9)
    monkeypatch.setenv("HOLOLINK_WORKERS", "1")
    res1 = integrate_product(f, Interval(0.0, 2.0), Interval(-1.0, 1.0), cfg)
    monkeypatch.setenv("HOLOLINK_WORKERS", "4")
    res4 = integrate_product(f, Interval(0.0, 2.0), Interval(-1.0, 1.0), cfg)
    assert complex(res1.value) == complex(res4.value)
    assert res1.err_estimate == res4.err_estimate
    assert res1.panels_evaluated == res4.panels_evaluated


def test_domain_for_curve_shapes():
    cfg = hl.QuadConfig(truncation_radius=7.0)
    circ = hl.ParamCurve.real_closed((0, 0, 0), [[1, 0, 0]], [[0, 1, 0]])
    dom = domain_for_curve(circ, cfg)
    assert isinstance(dom, Interval) and not getattr(dom, "truncated", False)

    line = hl.ParamCurve.line((0, 0, 0), (1, 0, 0), radius=40.0)
    dom = domain_for_curve(line, cfg)
    assert isinstance(dom, Disk) and dom.truncated
    assert dom.radius == 7.0  # config radius wins over the declared window

    rect_curve = hl.ParamCurve.complex_affine(
        (np.array([0.0, 1.0]), np.array([0.0]), np.array([0.0])),
        domain=("rect", -1.0, 1.0, -0.5, 0.5))
    dom = domain_for_curve(rect_curve, cfg)
    assert isinstance(dom, Rect) and not dom.truncated


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(min_value=-1e6, max_value=1e6,
                          allow_nan=False, allow_infinity=False),
                min_size=1, max_size=200))
def test_pairwise_tree_sum_matches_fsum(xs):
    assert pairwise_tree_sum(xs) == pytest.approx(math.fsum(xs),
                                                  rel=1e-12, abs=1e-9)


@pytest.mark.parametrize("kwargs", [
    {"tol": 0.0}, {"tol": -1e-6}, {"max_depth": 0}, {"max_depth": 99},
    {"panel_order": 1}, {"truncation_radius": 0.0},
])
def test_config_invariants_rejected(kwargs):
    with pytest.raises(ValueError):
        hl.QuadConfig(**kwargs)


@pytest.mark.filterwarnings("ignore:invalid value encountered")
@pytest.mark.filterwarnings("ignore:divide by zero encountered")
def test_nonfinite_integrand_is_reported():
    cfg = hl.QuadConfig(tol=1e-6)
    with pytest.raises(hl.NonFiniteIntegrand):
        integrate_curve(lambda t: 1.0 / (t - t), Interval(0.0, 1.0), cfg)


# ---------------------------------------------------------------------------
# batched rounds, trace and pinned panel counts

def _torus_curve(phase, major=2.0, minor=0.5):
    """The (1, 1) torus curve (major + minor cos A)(cos 2 pi t, sin 2 pi t),
    minor sin A with A = 2 pi (t + phase), as a trigonometric polynomial."""
    phi = 2.0 * math.pi * phase
    h, c, s = 0.5 * minor, math.cos(phi), math.sin(phi)
    return hl.ParamCurve.real_closed(
        (h * c, -(h * s), 0.0),
        [[major, 0.0, minor * s], [h * c, h * s, 0.0]],
        [[0.0, major, minor * c], [-(h * s), h * c, 0.0]])


def _torus_pair(gap, base=0.1):
    return _torus_curve(base), _torus_curve(base + gap)


def test_curve_evaluations_are_per_round_not_per_panel(monkeypatch):
    calls = []
    raw = hl.ParamCurve.eval_batch

    def counted(self, params):
        calls.append(np.size(params))
        return raw(self, params)

    monkeypatch.setattr(hl.ParamCurve, "eval_batch", counted)
    res = hl.gauss_linking(*_torus_pair(0.04), hl.QuadConfig(tol=1e-6))
    assert res.converged and abs(res.value - 1.0) < 1e-6
    rounds = len(res.trace.panels_per_round)
    # per round and side: two rules, split-axis and proximity samples;
    # plus the batch probe and the global distance check, once per side
    assert len(calls) <= 8 * rounds + 4
    # one call per panel and rule would be four per panel
    assert len(calls) < res.panels_evaluated


def test_l0_panel_count_is_pinned():
    rep = report.compute(scenes.l0(), "holo_integral", hl.QuadConfig(tol=1e-6))
    assert rep.panels_evaluated == 122


def test_near_torus_pair_panel_count_is_pinned():
    res = hl.gauss_linking(*_torus_pair(0.006), hl.QuadConfig(tol=1e-6))
    assert res.converged and abs(res.value - 1.0) < 1e-9
    assert res.panels_evaluated == 4877


def test_trace_counts_rounds_and_max_depth():
    def g(u):
        return np.exp(-((u - 0.3) ** 2) / 1e-3)

    res = integrate_product(lambda u, v: g(u)[:, None] * g(v)[None, :],
                            Interval(0.0, 1.0), Interval(0.0, 1.0),
                            hl.QuadConfig(tol=1e-12, max_depth=1))
    trace = res.trace
    assert sum(trace.panels_per_round) == res.panels_evaluated
    assert trace.panels_per_round[0] == 1
    assert trace.deepest_split == 1 and trace.max_depth_hit
    assert trace.err_source == "quadrature"
    res = integrate_product(lambda u, v: g(u)[:, None] * g(v)[None, :],
                            Interval(0.0, 1.0), Interval(0.0, 1.0),
                            hl.QuadConfig(tol=1e-6))
    assert res.converged and not res.trace.max_depth_hit


def test_trace_names_the_tail():
    def f(u, v):
        return 1.0 / ((1.0 + u[:, None] ** 2) * (1.0 + v[None, :] ** 2))

    dom = Interval(-40.0, 40.0, truncated=True)
    res = integrate_product(f, dom, dom, hl.QuadConfig(tol=1e-9))
    assert res.trace.err_source == "tail"
