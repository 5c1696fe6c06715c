import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hololink as hl
from hololink import _kernels, report, scenes
from hololink.quadrature import (Disk, Interval, Rect, domain_for_curve,
                                 integrate_curve, integrate_product,
                                 integrate_pv, pairwise_tree_sum)

# Independently derived reference values (closed forms verified against
# high-order composite quadrature when first frozen):
#   integral over [0,1] of dt/(t - (0.5 + 0.01i)) = i*(pi - 2*arctan(1/50))
COMPLEX_POLE_ORACLE = 3.101597985643492j


# An integrand takes each panel side's jacobian-folded weights before its
# arrays and returns the weighted sum over the panel's nodes.

def _separable(g):
    """The product integrand g(u) g(v), summed one side at a time."""
    return lambda wu, u, wv, v: (wu @ g(u)) * (g(v) @ wv)


def _contracted(f):
    """The product integrand of the pair grid f(u, v)."""
    return lambda wu, u, wv, v: wu @ f(u, v) @ wv


def test_complex_pole_oracle():
    cfg = hl.QuadConfig(tol=1e-10)
    res = integrate_curve(lambda w, t: w @ (1.0 / (t - (0.5 + 0.01j))),
                          Interval(0.0, 1.0), cfg)
    assert res.converged
    assert abs(res.value - COMPLEX_POLE_ORACLE) < 1e-10


def test_simple_pole_cauchy_pompeiu_oracle():
    # Cauchy-Pompeiu: the area integral of 1/(z - p) over |z| <= 2 is
    # -pi conj(p); the puncture-centered chart integrates it directly
    p = 0.3 + 0.1j
    res = integrate_curve(lambda w, z: w @ (1.0 / (z - p)), Disk(2.0, p),
                          hl.QuadConfig(tol=1e-12))
    assert res.converged
    assert abs(res.value - (-math.pi * np.conj(p))) < 1e-12


def test_double_pole_integrates_to_its_circular_principal_value():
    # the chart only integrates: the pole order is the caller's to
    # decide. 1/(z - p)^2 has zero mean on every circle around p, so the
    # puncture-centred chart gives 0, its circular principal value
    p = 0.3 + 0.1j
    res = integrate_curve(lambda w, z: w @ (1.0 / (z - p) ** 2), Disk(2.0, p),
                          hl.QuadConfig(tol=1e-8))
    assert abs(res.value) <= 1e-12


def test_puncture_on_interval_is_rejected():
    dom = Interval(0.0, 1.0)
    with pytest.raises(hl.PVNotConverging):
        integrate_pv(_separable(lambda t: 1.0 / (t - 0.3)), dom, dom,
                     ([0.3], []), hl.QuadConfig(tol=1e-8))


@pytest.mark.parametrize("dom, punct", [
    (Rect(-1.0, 1.0, -1.0, 1.0), [0.3]),
    (Disk(2.0), [0.3, -0.3j]),
])
def test_pv_needs_one_puncture_on_a_disk(dom, punct):
    with pytest.raises(hl.PVNotConverging):
        integrate_pv(_separable(lambda z: 1.0 / (z - punct[0])), dom, dom,
                     (punct, []), hl.QuadConfig(tol=1e-8))


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
    res = integrate_product(_contracted(f),
                            Interval(-R, R), Interval(-R, R), cfg)
    assert res.converged
    assert abs(res.value - oracle) / abs(oracle) < 1e-5


def test_separable_product_exact():
    cfg = hl.QuadConfig(tol=1e-10)
    res = integrate_product(lambda wu, u, wv, v: (wu @ u) * (v @ wv),
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
    res = integrate_product(_separable(g),
                            Interval(0.0, 1.0), Interval(0.0, 1.0), cfg)
    true_err = abs(res.value - oracle)
    assert res.converged
    assert true_err <= max(3.0 * res.err_estimate, 1e-12)


def test_refinement_is_monotone_in_tolerance():
    def g(u):
        return np.exp(-((u - 0.3) ** 2) / 1e-3)

    errs, panels = [], []
    for tol in (1e-2, 1e-4, 1e-6, 1e-8):
        res = integrate_product(_separable(g),
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
    res = integrate_product(_separable(g),
                            Interval(0.0, 1.0), Interval(0.0, 1.0), cfg)
    assert not res.converged
    assert np.isfinite(complex(res.value))


def test_disk_area_and_pv_exclusion():
    cfg = hl.QuadConfig(tol=1e-8)
    res = integrate_curve(lambda w, z: w @ np.ones_like(z, dtype=float),
                          Disk(2.0), cfg)
    assert abs(res.value - 4 * math.pi) < 1e-6
    # the polar chart centered on a puncture covers the same disk
    res_pv = integrate_curve(lambda w, z: w @ np.ones_like(z, dtype=float),
                             Disk(2.0, 0.3 + 0.1j), cfg)
    assert abs(res_pv.value - 4 * math.pi) < 1e-6


def test_truncated_tail_extrapolation():
    # integral over R^2 of (1+u^2)^-1 (1+v^2)^-1 = pi^2; R-window plus the
    # 1/R tail step must land much closer than the bare window
    def f(u, v):
        return 1.0 / ((1.0 + u[:, None] ** 2) * (1.0 + v[None, :] ** 2))

    cfg = hl.QuadConfig(tol=1e-9)
    dom = Interval(-40.0, 40.0, truncated=True)
    res = integrate_product(_contracted(f), dom, dom, cfg, decay_order=1)
    exact = math.pi ** 2
    bare = (2 * math.atan(40.0)) ** 2
    assert abs(res.value - exact) < 0.2 * abs(bare - exact)
    assert res.tail_estimate > 0.0


def test_repeat_runs_are_bit_identical():
    def f(u, v):
        return np.cos(u)[:, None] * np.sin(v)[None, :] + \
            1.0 / (4.0 + (u[:, None] - v[None, :]) ** 2)

    cfg = hl.QuadConfig(tol=1e-9)
    res1, res2 = (integrate_product(_contracted(f), Interval(0.0, 2.0),
                                    Interval(-1.0, 1.0), cfg)
                  for _ in range(2))
    assert complex(res1.value) == complex(res2.value)
    assert res1.err_estimate == res2.err_estimate
    assert res1.panels_evaluated == res2.panels_evaluated


def test_domain_for_curve_shapes():
    circ = hl.ParamCurve.real_closed((0, 0, 0), [[1, 0, 0]], [[0, 1, 0]])
    dom = domain_for_curve(circ)
    assert isinstance(dom, Interval) and not dom.truncated

    line = hl.ParamCurve.line((0, 0, 0), (1, 0, 0), radius=7.0)
    dom = domain_for_curve(line)
    assert isinstance(dom, Disk) and dom.puncture is None
    assert dom.radius == 7.0  # the curve's declared window

    rect_curve = hl.ParamCurve.complex_affine(
        (np.array([0.0, 1.0]), np.array([0.0]), np.array([0.0])),
        domain=("rect", -1.0, 1.0, -0.5, 0.5))
    dom = domain_for_curve(rect_curve)
    assert isinstance(dom, Rect)
    assert (dom.x0, dom.x1, dom.y0, dom.y1) == (-1.0, 1.0, -0.5, 0.5)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(min_value=-1e6, max_value=1e6,
                          allow_nan=False, allow_infinity=False),
                min_size=1, max_size=200))
def test_pairwise_tree_sum_matches_fsum(xs):
    assert pairwise_tree_sum(xs) == pytest.approx(math.fsum(xs),
                                                  rel=1e-12, abs=1e-9)


@pytest.mark.parametrize("kwargs", [
    {"tol": 0.0}, {"tol": -1e-6}, {"max_depth": 0}, {"max_depth": 99},
    {"panel_order": 1},
])
def test_config_invariants_rejected(kwargs):
    with pytest.raises(ValueError):
        hl.QuadConfig(**kwargs)


@pytest.mark.filterwarnings("ignore:invalid value encountered")
@pytest.mark.filterwarnings("ignore:divide by zero encountered")
def test_nonfinite_integrand_is_reported():
    cfg = hl.QuadConfig(tol=1e-6)
    with pytest.raises(hl.NonFiniteIntegrand):
        integrate_curve(lambda w, t: w @ (1.0 / (t - t)), Interval(0.0, 1.0),
                        cfg)


def test_nonfinite_node_is_named_in_row_major_order():
    # NaN wherever u > 0.6 and v > 0.3 on the single initial panel: the
    # first such node pair of the 8-node rule, u varying slowest
    g, _ = np.polynomial.legendre.leggauss(8)
    nodes = 0.5 * (g + 1.0)
    want = (nodes[nodes > 0.6][0], nodes[nodes > 0.3][0])

    def f(wu, u, wv, v):
        grid = np.where((u[:, None] > 0.6) & (v[None, :] > 0.3), np.nan, 1.0)
        return wu @ grid @ wv

    with pytest.raises(hl.NonFiniteIntegrand) as exc:
        integrate_product(f, Interval(0.0, 1.0), Interval(0.0, 1.0),
                          hl.QuadConfig(tol=1e-6))
    assert exc.value.param == pytest.approx(want, rel=1e-15)


def test_overflowing_panel_sum_is_reported():
    # every integrand value is finite; the weighted panel sums are not
    cfg = hl.QuadConfig(tol=1e-6)
    with pytest.raises(hl.NonFiniteIntegrand) as exc:
        integrate_curve(lambda w, t: w @ np.full_like(t, 1e308),
                        Interval(0.0, 100.0), cfg)
    assert exc.value.param is None
    with pytest.raises(hl.NonFiniteIntegrand) as exc:
        integrate_product(lambda wu, u, wv, v:
                          wu @ np.full((u.size, v.size), 1e308) @ wv,
                          Interval(0.0, 100.0), Interval(0.0, 100.0), cfg)
    assert exc.value.param is None


def test_wrong_shape_integrand_is_rejected():
    cfg = hl.QuadConfig(tol=1e-6)
    # the unsummed values and the pair grid of the earlier contract
    with pytest.raises(TypeError, match=r"weighted sum.*shape \(2,\)"):
        integrate_curve(lambda w, t: w * t, Interval(0.0, 1.0), cfg)
    with pytest.raises(TypeError, match=r"weighted sum.*shape \(2, 3\)"):
        integrate_product(lambda wu, u, wv, v: u[:, None] * v[None, :],
                          Interval(0.0, 1.0), Interval(0.0, 1.0), cfg)


# ---------------------------------------------------------------------------
# CurvesTooClose comes from the proximity samples, which cover every initial
# cell and then follow the curves' closest approach

@pytest.mark.parametrize("gap", [1e-7, 5e-7])
@pytest.mark.parametrize("route", ["holo", "clink", "gauss"])
def test_lines_closer_than_the_guard_raise(gap, route):
    # the lines (s, 0, 0) and (0, t, gap) come closest at the centre of
    # both windows, where no fixed sample grid of the disk need fall
    c1 = hl.ParamCurve.line((0, 0, 0), (1, 0, 0))
    c2 = hl.ParamCurve.line((0, 0, gap), (0, 1, 0))
    cfg, ctx = hl.QuadConfig(tol=1e-6), hl.BMContext()
    with pytest.raises(hl.CurvesTooClose):
        if route == "holo":
            hl.holo_linking_integral(
                (c1, hl.OneForm("c1", np.array([1.0 + 0j]))),
                (c2, hl.OneForm("c2", np.array([1.0 + 0j]))), ctx, cfg)
        elif route == "clink":
            hl.complex_linking_number(c1, c2, ctx, cfg)
        else:
            hl.gauss_linking(c1, c2, cfg)


# ---------------------------------------------------------------------------
# truncation windows: one run over the doubled window, the outer panels
# summing to the tail I(2R) - I(R)

def test_disk_windows_match_the_radial_oracle():
    # the area integral of (1+|u|^2)^-2 over |u| <= R is pi R^2 / (1+R^2)
    def f(R):
        return (math.pi * R * R / (1.0 + R * R)) ** 2

    def g(u):
        return 1.0 / (1.0 + np.abs(u) ** 2) ** 2

    res = integrate_product(_separable(g),
                            Disk(5.0), Disk(5.0), hl.QuadConfig(tol=1e-8),
                            decay_order=2)
    tail = f(10.0) - f(5.0)
    assert res.converged
    assert abs(res.tail_estimate - tail) <= 1e-12 * tail
    assert abs(res.value - (f(10.0) + tail / 3.0)) <= res.err_estimate


def test_interval_windows_match_the_arctan_oracle():
    def F(R):
        return (2.0 * math.atan(R)) ** 2

    def h(t):
        return 1.0 / (1.0 + t * t)

    dom = Interval(-5.0, 5.0, truncated=True)
    res = integrate_product(_separable(h),
                            dom, dom, hl.QuadConfig(tol=1e-8), decay_order=1)
    tail = F(10.0) - F(5.0)
    assert res.converged
    assert abs(res.tail_estimate - tail) <= 1e-12 * tail
    assert abs(res.value - (F(10.0) + tail)) <= res.err_estimate


def test_punctured_disk_window_areas():
    # window area pi R^2 and outer ring area 3 pi R^2, each times the
    # compact factor's length pi: checks the piecewise chart's jacobian
    R = 5.0
    area = math.pi ** 2 * R * R
    res = integrate_product(lambda wu, u, wv, v:
                            wu @ np.ones((u.size, v.size)) @ wv,
                            Disk(R, 0.7 + 0.4j), Interval(0.0, math.pi),
                            hl.QuadConfig(tol=1e-8), decay_order=1)
    inner = res.value - 2.0 * res.tail_estimate  # value = I(R) + 2 tail
    assert res.converged
    assert abs(res.tail_estimate - 3.0 * area) <= 1e-12 * area
    assert abs(inner - area) <= 1e-12 * area


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
    # plus the batch probe and the moment origin's generic points, once
    # per side
    assert len(calls) <= 8 * rounds + 4
    # one call per panel and rule would be four per panel
    assert len(calls) < res.panels_evaluated


def test_proximity_distances_are_per_round_not_per_panel(monkeypatch):
    calls = []
    raw = _kernels.min_dist

    def counted(a, b):
        calls.append(len(a))
        return raw(a, b)

    monkeypatch.setattr(_kernels, "min_dist", counted)
    res = hl.gauss_linking(*_torus_pair(0.04), hl.QuadConfig(tol=1e-6))
    assert res.converged and abs(res.value - 1.0) < 1e-6
    # one stacked call per round that still has unresolved panels
    assert 1 <= len(calls) <= len(res.trace.panels_per_round)
    assert sum(calls) < res.panels_evaluated


# Value and err_estimate of three runs, recorded with numpy 2.4.6 and its
# bundled OpenBLAS on x86-64 and compared with ==, so that a reordered sum
# anywhere in the engine or the kernels fails here, although it passes
# every tolerance check. Another BLAS may round the kernels' matrix
# products differently; the values are then re-recorded, not loosened.
@pytest.mark.parametrize("run, value, err, panels", [
    ("near_torus", 0.9999999999760902 + 0j, 7.81117584649766e-07, 4877),
    ("l0", -612.0392650614846 + 0j, 7.819034489028875e-05, 64),
    ("pv_lines", 90.09324355768979 + 81.90294869011304j,
     0.0030019436582759793, 316),
], ids=["near_torus", "l0", "pv_lines"])
def test_recorded_values_are_bit_identical(run, value, err, panels):
    if run == "near_torus":
        res = hl.gauss_linking(*_torus_pair(0.006), hl.QuadConfig(tol=1e-6))
    elif run == "l0":
        res = report.compute(scenes.l0(), "holo_integral",
                             hl.QuadConfig(tol=1e-6))
    else:
        res = report.compute(scenes.pv_lines(), "holo_pv",
                             hl.QuadConfig(tol=1e-4))
    assert res.panels_evaluated == panels
    assert complex(res.value) == value
    assert res.err_estimate == err


# Values of the routes that run no quadrature, recorded and compared like
# the ones above (numpy 2.4.6, bundled OpenBLAS, x86-64), so that a
# reordered product or sum in curve evaluation, composition or the residue
# trace fails here. On another BLAS the values are re-recorded, not
# loosened.
FAST_ROUTE_VALUES = [
    ("L0", "residue", 1.0 + 0j),
    ("L0", "holo_closed", -612.0393695705628 + 0j),
    ("random_line_0", "residue", 0.33490630262754373 + 0.9686239744050449j),
    ("random_line_0", "holo_closed", -204.9758423253698 - 592.8360066457966j),
    ("random_line_1", "residue", 0.7777235033528141 - 1.3557522955926955j),
    ("random_line_1", "holo_closed", -475.9974026922655 + 829.7737802883969j),
    ("random_line_2", "residue", 2.416782693162259 + 10.18570798724242j),
    ("random_line_2", "holo_closed", -1479.1661559120807 - 6234.054295141697j),
    ("random_line_3", "residue", 0.9421092180040549 - 1.3314461947976546j),
    ("random_line_3", "holo_closed", -576.6079318538173 + 814.8974896810811j),
    ("random_line_4", "residue", 1.8728812942035613 + 0.9262149198773844j),
    ("random_line_4", "holo_closed", -1146.277086584847 - 566.879995648604j),
    ("skew_lines", "gauss_closed", 0.5 + 0j),
]


@pytest.mark.parametrize("name, method, value", FAST_ROUTE_VALUES,
                         ids=[f"{n}-{m}" for n, m, _ in FAST_ROUTE_VALUES])
def test_fast_route_values_are_bit_identical(name, method, value):
    if name.startswith("random_line_"):
        scene = scenes.random_line_scene(int(name.rsplit("_", 1)[1]))
    else:
        scene = scenes.builtin(name)
    rep = report.compute(scene, method, hl.QuadConfig())
    assert complex(rep.value) == value


def test_l0_panel_count_is_pinned():
    rep = report.compute(scenes.l0(), "holo_integral", hl.QuadConfig(tol=1e-6))
    assert rep.panels_evaluated == 64


@pytest.mark.parametrize("tol, panels", [(1e-4, 63), (1e-6, 79)])
def test_skew_lines_panel_count_is_pinned(tol, panels):
    rep = report.compute(scenes.skew_lines(), "gauss_integral",
                         hl.QuadConfig(tol=tol))
    assert rep.converged
    assert rep.panels_evaluated == panels


def test_near_torus_pair_panel_count_is_pinned():
    res = hl.gauss_linking(*_torus_pair(0.006), hl.QuadConfig(tol=1e-6))
    assert res.converged and abs(res.value - 1.0) < 1e-9
    assert res.panels_evaluated == 4877


def test_trace_counts_rounds_and_max_depth():
    def g(u):
        return np.exp(-((u - 0.3) ** 2) / 1e-3)

    res = integrate_product(_separable(g),
                            Interval(0.0, 1.0), Interval(0.0, 1.0),
                            hl.QuadConfig(tol=1e-12, max_depth=1))
    trace = res.trace
    assert sum(trace.panels_per_round) == res.panels_evaluated
    assert trace.panels_per_round[0] == 1
    assert trace.deepest_split == 1 and trace.max_depth_hit
    assert trace.err_source == "quadrature"
    res = integrate_product(_separable(g),
                            Interval(0.0, 1.0), Interval(0.0, 1.0),
                            hl.QuadConfig(tol=1e-6))
    assert res.converged and not res.trace.max_depth_hit


def test_trace_names_the_tail():
    def f(u, v):
        return 1.0 / ((1.0 + u[:, None] ** 2) * (1.0 + v[None, :] ** 2))

    dom = Interval(-40.0, 40.0, truncated=True)
    res = integrate_product(_contracted(f), dom, dom, hl.QuadConfig(tol=1e-9))
    assert res.trace.err_source == "tail"
