import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hololink as hl
from hololink import _kernels, report, scenes
from hololink.quadrature import (Interval, Plane, RealLine, Rect,
                                 domain_for_curve, integrate_curve,
                                 integrate_product, integrate_pv,
                                 pairwise_tree_sum, per_panel)

# Independently derived reference values (closed forms verified against
# high-order composite quadrature when first frozen):
#   integral over [0,1] of dt/(t - (0.5 + 0.01i)) = i*(pi - 2*arctan(1/50))
COMPLEX_POLE_ORACLE = 3.101597985643492j


# The integrands below are written for one panel, wrapped by per_panel: each
# takes a panel side's jacobian-folded weights before its arrays and returns
# the weighted sum over the panel's nodes.

def _separable(g):
    """The product integrand g(u) g(v), summed one side at a time."""
    return per_panel(lambda wu, u, wv, v: (wu @ g(u)) * (g(v) @ wv))


def _contracted(f):
    """The product integrand of the pair grid f(u, v)."""
    return per_panel(lambda wu, u, wv, v: wu @ f(u, v) @ wv)


def test_complex_pole_oracle():
    cfg = hl.QuadConfig(tol=1e-10)
    res = integrate_curve(
        per_panel(lambda w, t: w @ (1.0 / (t - (0.5 + 0.01j)))),
        Interval(0.0, 1.0), cfg)
    assert res.converged
    assert abs(res.value - COMPLEX_POLE_ORACLE) < 1e-10


def _decay(u):
    """(1 + |u|^2)^-2, whose integral over the whole plane is pi."""
    return 1.0 / (1.0 + np.abs(u) ** 2) ** 2


def test_simple_pole_cauchy_pompeiu_oracle():
    # Cauchy-Pompeiu: the area integral over the whole plane of
    # 1 / ((z - p) (1 + |z|^2)^2) is -pi conj(p) / (1 + |p|^2); the
    # puncture-centred chart integrates it directly
    p = 0.4 - 0.3j
    res = integrate_curve(per_panel(lambda w, z: w @ (_decay(z) / (z - p))),
                          Plane(p), hl.QuadConfig(tol=1e-12))
    assert res.converged
    exact = -math.pi * np.conj(p) / (1.0 + abs(p) ** 2)
    assert abs(res.value - exact) < 1e-12


def test_puncture_on_interval_is_rejected():
    dom = Interval(0.0, 1.0)
    with pytest.raises(hl.PVNotConverging):
        integrate_pv(_separable(lambda t: 1.0 / (t - 0.3)), dom, dom,
                     ([0.3], []), hl.QuadConfig(tol=1e-8))


@pytest.mark.parametrize("dom, punct", [
    (Rect(-1.0, 1.0, -1.0, 1.0), [0.3]),
    (Plane(), [0.3, -0.3j]),
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
    res = integrate_product(per_panel(lambda wu, u, wv, v:
                                      (wu @ u) * (v @ wv)),
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
    area = per_panel(lambda w, z: w @ _decay(z))
    res = integrate_curve(area, Plane(), cfg)
    assert abs(res.value - math.pi) < 1e-6
    # the chart centred on a puncture covers the same plane
    res_pv = integrate_curve(area, Plane(0.3 + 0.1j), cfg)
    assert abs(res_pv.value - math.pi) < 1e-6


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
    assert isinstance(dom, Interval) and (dom.lo, dom.hi) == (0.0, 1.0)

    # a whole complex curve is integrated on the whole plane's chart
    line = hl.ParamCurve.line((0, 0, 0), (1, 0, 0))
    dom = domain_for_curve(line)
    assert isinstance(dom, Plane) and dom.centre == 0

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
        integrate_curve(per_panel(lambda w, t: w @ (1.0 / (t - t))),
                        Interval(0.0, 1.0), cfg)


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
        integrate_product(per_panel(f), Interval(0.0, 1.0), Interval(0.0, 1.0),
                          hl.QuadConfig(tol=1e-6))
    assert exc.value.param == pytest.approx(want, rel=1e-15)


def test_overflowing_panel_sum_is_reported():
    # every integrand value is finite; the weighted panel sums are not
    cfg = hl.QuadConfig(tol=1e-6)
    with pytest.raises(hl.NonFiniteIntegrand) as exc:
        integrate_curve(per_panel(lambda w, t: w @ np.full_like(t, 1e308)),
                        Interval(0.0, 100.0), cfg)
    assert exc.value.param is None
    with pytest.raises(hl.NonFiniteIntegrand) as exc:
        integrate_product(per_panel(
                              lambda wu, u, wv, v:
                              wu @ np.full((u.size, v.size), 1e308) @ wv),
                          Interval(0.0, 100.0), Interval(0.0, 100.0), cfg)
    assert exc.value.param is None


def test_wrong_shape_integrand_is_rejected():
    cfg = hl.QuadConfig(tol=1e-6)
    # the probe is a one-panel round: per panel, the unsummed values and
    # the pair grid of an earlier contract, and for the round, one sum
    with pytest.raises(TypeError, match=r"weighted sum.*got shape \(1, 2\)"):
        integrate_curve(per_panel(lambda w, t: w * t), Interval(0.0, 1.0),
                        cfg)
    with pytest.raises(TypeError,
                       match=r"weighted sum.*got shape \(1, 2, 3\)"):
        integrate_product(per_panel(lambda wu, u, wv, v:
                                    u[:, None] * v[None, :]),
                          Interval(0.0, 1.0), Interval(0.0, 1.0), cfg)
    with pytest.raises(TypeError, match=r"weighted sum.*got shape \(\)"):
        integrate_curve(lambda w, t: np.sum(w * t), Interval(0.0, 1.0), cfg)
    # every round is checked, not only the probe: the first panel's sum
    # alone passes the one-panel probe and first round, not the second
    with pytest.raises(TypeError, match=r"shape \(2,\); got shape \(1,\)"):
        integrate_curve(lambda w, t: np.sum(w * np.sqrt(t), axis=1)[:1],
                        Interval(0.0, 1.0), cfg)


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


# the lines (s, 0, 0) and (0.3, t, 1e-7) come closest at s = 0.3, t = 0,
# where no proximity sample falls within 1e-6 before max_depth: the
# unresolved panels are halved down to it, integrated there, and the run
# stops with converged=False (value and err recorded like those below)
@pytest.mark.parametrize("route, kernel, value, err, panels", [
    ("holo", "bm_grid", -3434.762626812175 + 0j, 3414.5934545002424, 1402),
    ("gauss", "gauss_grid", 0.001680990893831782 + 0j, 0.2741991248817799,
     138),
])
def test_an_approach_off_the_sample_grids_stops_at_max_depth(
        monkeypatch, route, kernel, value, err, panels):
    calls = []
    raw = getattr(_kernels, kernel)

    def counted(*args, **kwargs):
        calls.append(1)
        return raw(*args, **kwargs)

    monkeypatch.setattr(_kernels, kernel, counted)
    c1 = hl.ParamCurve.line((0, 0, 0), (1, 0, 0))
    c2 = hl.ParamCurve.line((0.3, 0, 1e-7), (0, 1, 0))
    cfg = hl.QuadConfig(tol=1e-6)
    if route == "holo":
        res = hl.holo_linking_integral(
            (c1, hl.OneForm("c1", np.array([1.0 + 0j]))),
            (c2, hl.OneForm("c2", np.array([1.0 + 0j]))), hl.BMContext(), cfg)
    else:
        res = hl.gauss_linking(c1, c2, cfg)
    assert not res.converged and res.trace.max_depth_hit
    assert res.trace.deepest_split == cfg.max_depth
    assert complex(res.value) == value and res.err_estimate == err
    assert res.panels_evaluated == panels
    assert len(calls) == 2 * res.panels_evaluated + 1


# ---------------------------------------------------------------------------
# whole domains: the compact charts of the plane and the line, with their
# jacobians in the weights and no window or tail

def test_disk_windows_match_the_radial_oracle():
    # the area integral of (1+|u|^2)^-2 over the whole plane is pi
    res = integrate_product(_separable(_decay), Plane(), Plane(),
                            hl.QuadConfig(tol=1e-10))
    assert res.converged and res.tail_estimate == 0.0
    assert abs(res.value - math.pi ** 2) <= res.err_estimate


def test_interval_windows_match_the_arctan_oracle():
    # the integral of 1 / (1 + t^2) over the whole line is pi
    res = integrate_product(_separable(lambda t: 1.0 / (1.0 + t * t)),
                            RealLine(), RealLine(), hl.QuadConfig(tol=1e-10))
    assert res.converged and res.tail_estimate == 0.0
    assert abs(res.value - math.pi ** 2) <= res.err_estimate


def test_punctured_disk_window_areas():
    # the plane's integral of (1+|u|^2)^-2 is pi about any chart centre,
    # times the compact factor's length pi: checks the chart's jacobian in
    # a run that mixes a whole domain with a compact one
    res = integrate_product(per_panel(lambda wu, u, wv, v:
                                      (wu @ _decay(u)) * np.sum(wv)),
                            Plane(0.7 + 0.4j), Interval(0.0, math.pi),
                            hl.QuadConfig(tol=1e-10))
    assert res.converged
    assert abs(res.value - math.pi ** 2) <= res.err_estimate


def test_whole_domain_runs_split_along_the_longest_chart_axis(monkeypatch):
    # no curve is sampled to choose a split axis, so the samples at phi = 0
    # and phi = 2 pi, which are one point, measure nothing
    sc = scenes.l0()
    calls = []
    raw = hl.ParamCurve.eval_batch

    def counted(self, params):
        calls.append(np.size(params))
        return raw(self, params)

    monkeypatch.setattr(hl.ParamCurve, "eval_batch", counted)
    res = hl.complex_linking_number(sc.curves["c1"], sc.curves["c2"],
                                    hl.BMContext(), hl.QuadConfig(tol=1e-4))
    assert res.converged
    # per side: the origin (first side only), the probe, two rules per
    # round and the proximity samples of each check pass
    rounds = len(res.trace.panels_per_round)
    passes = sum(res.trace.checks_per_round)
    assert len(calls) == 1 + 2 + 4 * rounds + 2 * passes


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
    passes = sum(res.trace.checks_per_round)
    # per round and side: two rules and the split-axis samples of its
    # refinement; per check pass and side: the proximity samples and the
    # split-axis samples of its halving; plus the batch probe and the
    # moment origin's generic points, once per side
    assert len(calls) <= 6 * rounds + 4 * passes + 4
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
    # one stacked call per check pass; every pass runs in the first round
    assert len(calls) == sum(res.trace.checks_per_round) >= 1
    assert res.trace.checks_per_round[0] == len(calls)
    assert sum(calls) < res.panels_evaluated


# Value and err_estimate of three runs, recorded with numpy 2.4.6 and its
# bundled OpenBLAS on x86-64 and compared with ==, so that a reordered sum
# anywhere in the engine or the kernels fails here, although it passes
# every tolerance check. Another BLAS may round the kernels' matrix
# products differently; the values are then re-recorded, not loosened.
@pytest.mark.parametrize("run, value, err, panels", [
    ("near_torus", 0.9999999999760902 + 0j, 7.81117584649766e-07, 4119),
    ("l0", -612.03936999808 + 0j, 0.0005161109151305184, 322),
    ("pv_lines", 90.09324358199099 + 81.90294871351642j,
     0.008164559280163932, 66),
    ("l0_whole_plane", -612.0393695705627 + 0j, 3.2427486074126932e-06, 15),
], ids=["near_torus", "l0", "pv_lines", "l0_whole_plane"])
def test_recorded_values_are_bit_identical(run, value, err, panels):
    if run == "near_torus":
        res = hl.gauss_linking(*_torus_pair(0.006), hl.QuadConfig(tol=1e-6))
    elif run == "l0":
        res = report.compute(scenes.l0(), "holo_integral",
                             hl.QuadConfig(tol=1e-6))
    elif run == "l0_whole_plane":
        res = report.compute(scenes.l0(), "holo_line",
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
    assert rep.panels_evaluated == 322


@pytest.mark.parametrize("tol, panels", [(1e-4, 39), (1e-6, 151)])
def test_skew_lines_panel_count_is_pinned(tol, panels):
    rep = report.compute(scenes.skew_lines(), "gauss_integral",
                         hl.QuadConfig(tol=tol))
    assert rep.converged
    assert rep.panels_evaluated == panels


def test_near_torus_pair_panel_count_is_pinned():
    res = hl.gauss_linking(*_torus_pair(0.006), hl.QuadConfig(tol=1e-6))
    assert res.converged and abs(res.value - 1.0) < 1e-9
    assert res.panels_evaluated == 4119


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
    res = integrate_product(_separable(g),
                            Interval(0.0, 1.0), Interval(0.0, 1.0),
                            hl.QuadConfig(tol=1e-6))
    assert res.converged and not res.trace.max_depth_hit


def test_trace_counts_panels_halved_without_their_values():
    # the first round halves the unresolved panels, pass by pass, until all
    # are resolved, and only then integrates: each halving adds one panel,
    # so the single initial cell becomes 1 + 161 integrated panels
    calls = []

    def f(wa, a, wb, b):
        calls.append(1)
        return (wa @ _decay(np.linalg.norm(a, axis=1))) * (
            _decay(np.linalg.norm(b, axis=1)) @ wb)

    c1 = hl.ParamCurve.line((0, 0, 0), (1, 0, 0))
    c2 = hl.ParamCurve.line((0.5, 0.5, 0.01), (0, 1, 0))
    side = lambda curve: lambda t: curve.eval_batch(t)[:1]
    res = integrate_product(per_panel(f), Plane(), Plane(),
                            hl.QuadConfig(tol=1e-3), side(c1), side(c2))
    trace = res.trace
    assert res.converged
    assert trace.panels_per_round == (162,)
    assert trace.skipped_per_round == (161,)
    assert trace.checks_per_round == (25,)
    assert sum(trace.panels_per_round) == res.panels_evaluated
    assert len(calls) == 2 * res.panels_evaluated + 1
    assert trace.to_dict()["skipped_per_round"] == [161]
    assert trace.to_dict()["checks_per_round"] == [25]
    # with no curves there is no proximity check, and nothing is skipped
    res = integrate_product(_separable(_decay), Plane(), Plane(),
                            hl.QuadConfig())
    assert set(res.trace.skipped_per_round) == {0}
    assert set(res.trace.checks_per_round) == {0}


def test_per_panel_and_round_integrands_give_the_same_bits():
    # the same pair grid, contracted one panel at a time through per_panel
    # and for the whole round by stacked products: the engine's batching
    # of a round does not reach the values
    def f(u, v):
        return 1.0 / (1e-2 + (u[..., :, None] - 0.3) ** 2
                      + v[..., None, :] ** 2)

    def whole_round(wu, u, wv, v):
        return np.matmul(np.matmul(wu[:, None, :], f(u, v)),
                         wv[:, :, None])[:, 0, 0]

    cfg = hl.QuadConfig(tol=1e-9)
    one, whole = (integrate_product(g, Interval(0.0, 2.0),
                                    Interval(-1.0, 1.0), cfg)
                  for g in (_contracted(f), whole_round))
    assert len(one.trace.panels_per_round) > 1
    assert complex(one.value) == complex(whole.value)
    assert one.err_estimate == whole.err_estimate
    assert one.trace == whole.trace


def test_curves_meeting_below_the_first_check_pass_raise_before_any_value(
        monkeypatch):
    # the segments (s, 0, 0) and (9/32, t - 1/2, 0) meet at s = 9/32,
    # t = 1/2, which the samples reach only on a quarter of the s range:
    # the first pass finds the cell unresolved, a later one resolves the
    # cells away from the meeting point, and a later one again raises,
    # all before the round's first integrand call
    calls, passes = [], []
    raw = _kernels.min_dist

    def counted(a, b):
        passes.append(len(a))
        return raw(a, b)

    def f(wa, a, wb, b):
        calls.append(len(wa))
        return wa.sum(axis=1) * wb.sum(axis=1)

    monkeypatch.setattr(_kernels, "min_dist", counted)
    with pytest.raises(hl.CurvesTooClose, match="distance 0.000e"):
        integrate_product(
            f, Interval(0.0, 1.0), Interval(0.0, 1.0), hl.QuadConfig(),
            lambda s: (np.stack([s, 0 * s, 0 * s], axis=-1),),
            lambda t: (np.stack([np.full_like(t, 9 / 32), t - 0.5, 0 * t],
                                axis=-1),))
    assert len(passes) >= 3
    assert calls == [1]  # the probe's one-panel round only


def test_an_integrand_that_vanishes_everywhere_refines_nothing_by_error():
    # the coplanar lines (s, 0, 0) and (0.3, t, 0) meet at s = 0.3, t = 0,
    # off every sample grid, and det3 = 0 makes the complex_link integrand
    # vanish there and everywhere else: every panel's err is 0, so only the
    # unresolved panels are refined, down to max_depth
    c1 = hl.ParamCurve.line((0, 0, 0), (1, 0, 0))
    c2 = hl.ParamCurve.line((0.3, 0, 0), (0, 1, 0))
    res = hl.complex_linking_number(c1, c2, hl.BMContext(),
                                    hl.QuadConfig(tol=1e-4, max_depth=6))
    assert not res.converged and res.trace.max_depth_hit
    assert res.value == 0 and res.err_estimate == 0
    assert res.panels_evaluated == 34


# ---------------------------------------------------------------------------
# accuracy gates: each unbounded route lands within its err_estimate of the
# exact value

PV_LINES_EXACT = 90.09324355853028 + 81.90294868957297j  # closed form

ACCURACY_GATES = [
    ("L0", "holo_integral", 1e-4), ("L0", "holo_integral", 1e-6),
    *((f"random_line_{seed}", "holo_integral", 1e-4) for seed in range(10)),
    ("skew_lines", "gauss_integral", 1e-4),
    ("skew_lines", "gauss_integral", 1e-6),
    ("pv_lines", "holo_pv", 1e-4), ("pv_lines", "holo_pv", 1e-6),
    ("L0", "holo_line", 1e-6),
]


@pytest.mark.parametrize("name, method, tol", ACCURACY_GATES,
                         ids=[f"{n}-{m}-{t:.0e}" for n, m, t in ACCURACY_GATES])
def test_unbounded_routes_meet_their_error_budget(name, method, tol):
    if name.startswith("random_line_"):
        scene = scenes.random_line_scene(int(name.rsplit("_", 1)[1]))
        exact = report.compute(scene, "holo_closed", hl.QuadConfig()).value
    else:
        scene = scenes.builtin(name)
        exact = {"L0": -2.0 * math.pi ** 5, "skew_lines": 0.5,
                 "pv_lines": PV_LINES_EXACT}[name]
    rep = report.compute(scene, method, hl.QuadConfig(tol=tol))
    assert rep.converged and rep.tail_estimate == 0.0
    assert abs(rep.value - exact) <= rep.err_estimate
