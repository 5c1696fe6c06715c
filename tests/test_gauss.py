import math
from pathlib import Path
import sys
import time

import numpy as np
import pytest

import hololink as hl
from hololink import _kernels, gauss, quadrature, report, scenes
from hololink.gauss import (DEFAULT_DIRECTION, _gauss_integrand,
                            _projection_frame)
# the (1, 1) torus-curve pair of the engine's batching tests
from test_quadrature import _torus_pair

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402


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
    # each whole line is integrated, so the tail is 0 and the value is the
    # half within its err
    sc = scenes.skew_lines()
    res = hl.gauss_linking(sc.curves["c1"], sc.curves["c2"], cfg)
    assert res.converged and res.tail_estimate == 0.0
    assert abs(res.value - 0.5) <= res.err_estimate


def test_skew_lines_orientation_flip(cfg):
    c1 = hl.ParamCurve.line((0, 0, 0), (1, 0, 0))
    c2 = hl.ParamCurve.line((0, 0, -1), (0, 1, 0))  # offset reversed
    res = hl.gauss_linking(c1, c2, cfg)
    assert abs(res.value + 0.5) < 2e-2


def test_gauss_linking_calls_the_module_kernel_per_rule(monkeypatch,
                                                       fast_cfg):
    # a wrapper installed on _kernels.gauss_grid must see every kernel call:
    # two rules per panel, plus the batch probe of integrate_product
    calls = []
    raw = _kernels.gauss_grid

    def counted(*args, **kwargs):
        calls.append(1)
        return raw(*args, **kwargs)

    monkeypatch.setattr(_kernels, "gauss_grid", counted)
    sc = scenes.hopf()
    res = hl.gauss_linking(sc.curves["c1"], sc.curves["c2"], fast_cfg)
    assert len(calls) == 2 * res.panels_evaluated + 1


@pytest.mark.parametrize("n", [8, 16])
@pytest.mark.parametrize("count", [1, 3])
def test_round_contraction_has_the_bits_of_each_panel(n, count):
    # the round's weights contracted by stacked products, against each
    # panel's own wa @ G @ wb
    rng = np.random.default_rng(n + count)
    x, y = rng.normal(size=(2, count, n, 3))
    y += 3.0
    rows_x, rows_y = rng.normal(size=(2, count, n, 6))
    wa, wb = rng.uniform(size=(2, count, n))
    each = [wa[p] @ _kernels.gauss_grid(x[p], rows_x[p], y[p], rows_y[p])
            @ wb[p] for p in range(count)]
    whole = _gauss_integrand(wa, x, rows_x, wb, y, rows_y)
    assert whole.shape == (count,)
    assert whole.tobytes() == np.array(each).tobytes()


@pytest.mark.parametrize("n", [8, 16])
def test_per_row_clouds_give_each_row_its_own_grid(n):
    # a pair chart's second cloud is per row: row i of the grid is the
    # plain grid of x_i against y[i], and a round of such panels is
    # contracted with the bits of each panel's own wa @ G @ wb
    rng = np.random.default_rng(n)
    count = 3
    x = rng.normal(size=(count, n, 3))
    y = rng.normal(size=(count, n, n, 3)) + 3.0
    rows_x = rng.normal(size=(count, n, 6))
    rows_y = rng.normal(size=(count, n, n, 6))
    wa, wb = rng.uniform(size=(2, count, n))
    grids = [_kernels.gauss_grid(x[p], rows_x[p], y[p], rows_y[p])
             for p in range(count)]
    for p, grid in enumerate(grids):
        rows = [_kernels.gauss_grid(x[p, i:i + 1], rows_x[p, i:i + 1],
                                    y[p, i], rows_y[p, i])[0]
                for i in range(n)]
        assert np.allclose(grid, rows, rtol=1e-13, atol=0.0)
    each = [wa[p] @ grids[p] @ wb[p] for p in range(count)]
    whole = _gauss_integrand(wa, x, rows_x, wb, y, rows_y)
    assert whole.tobytes() == np.array(each).tobytes()


def test_near_torus_pair_calls_the_kernel_once_per_panel_and_rule(
        monkeypatch):
    # the closed pair is a pair run: the second cloud is per row, (n, n, 3),
    # its leading axis the first cloud's nodes, so x.shape[0] and
    # y.shape[0] stay the node counts whose product shape-reading counters
    # such as a tracer's pair count take; each call also gets
    # coordinate-major clouds, read as contiguous coordinate planes (no
    # slow strided path)
    calls = []
    raw = _kernels.gauss_grid

    def counted(x, rows_x, y, rows_y, **kwargs):
        calls.append((x.T.flags.c_contiguous
                      and y.transpose(2, 0, 1).flags.c_contiguous,
                      x.shape, y.shape, rows_x.shape, rows_y.shape))
        return raw(x, rows_x, y, rows_y, **kwargs)

    monkeypatch.setattr(_kernels, "gauss_grid", counted)
    cfg = hl.QuadConfig(tol=1e-6)
    res = hl.gauss_linking(*_torus_pair(0.04), cfg)
    assert res.converged and abs(res.value - 1.0) < 1e-6
    assert res.trace.chart == "shear"
    assert len(calls) == 2 * res.panels_evaluated + 1
    assert all(call[0] for call in calls)
    assert all(x == (n[0], 3) and y == m[:2] + (3,) and y[0] == x[0]
               for _, x, y, n, m in calls)
    order = cfg.panel_order
    assert {call[2] for call in calls[1:]} == {(order, order, 3),
                                               (2 * order, 2 * order, 3)}


# ---------------------------------------------------------------------------
# closed pairs on their pair chart

def _harmonics(curve):
    return curve.cos_rows - 1j * curve.sin_rows


def _reversed(curve):
    return hl.ParamCurve.real_closed(curve.const, curve.cos_rows,
                                     -curve.sin_rows)


@pytest.mark.parametrize("k", [-1, 0, 1])
def test_the_shear_speeds_bound_the_difference_field(k):
    # random torus pairs, some reversed, random offsets c and delta ranges:
    # the panel's bound on |dD/dsigma| = |c1'(sigma) - k c2'(t2)| and c2's
    # on |dD/ddelta| = |c2'(t2)| hold on dense samples of the panel
    rng = np.random.default_rng(40 + k)
    worst = 0.0
    for _ in range(14):
        c1, c2 = (workloads.torus_curve(int(rng.integers(4)), rng.uniform())
                  for _ in range(2))
        if rng.uniform() < 0.5:
            c2 = _reversed(c2)
        shear = quadrature.Shear(k, rng.uniform(-0.5, 0.5), _harmonics(c1),
                                 _harmonics(c2), c1.const, c2.const)
        mid, half = rng.uniform(-0.5, 0.5), 0.5 ** int(rng.integers(1, 8))
        speed_sigma, speed_delta = shear.speeds(
            np.array([[0.0, mid - half]]), np.array([[1.0, mid + half]]))
        sigma = np.linspace(0.0, 1.0, 2049)[:, None]
        delta = np.linspace(mid - half, mid + half, 33)[None, :]
        v1 = c1.eval_batch(sigma)[1]
        v2 = c2.eval_batch(shear.t2(sigma, delta))[1]
        ratio = np.linalg.norm(v1 - k * v2, axis=-1).max() / speed_sigma[0]
        assert ratio <= 1.0
        assert np.linalg.norm(v2, axis=-1).max() <= speed_delta[0]
        worst = max(worst, ratio)
    # and the bound is not loose
    assert worst > 0.7


def _random_torus_pair(rng, k, gap):
    """A random torus pair gap apart in phase, c2 reversed for k = -1, and
    its chart t2 = k t1 + c + delta at a random c."""
    wraps, phase = int(rng.integers(4)), rng.uniform()
    c1, c2 = (workloads.torus_curve(wraps, p) for p in (phase, phase + gap))
    if k < 0:
        c2 = _reversed(c2)
    return c1, c2, quadrature.Shear(k, rng.uniform(-0.5, 0.5), _harmonics(c1),
                                    _harmonics(c2), c1.const, c2.const)


def _random_panels(rng, count):
    """Panels of [0, 1] x [-1/2, 1/2] with sides 2^-1 to 2^-7: (lo, hi)."""
    width = 0.5 ** rng.integers(1, 8, size=(count, 2))
    lo = np.stack([rng.uniform(0.0, 1.0 - width[:, 0]),
                   rng.uniform(-0.5, 0.5 - width[:, 1])], axis=1)
    return lo, lo + width


def _pointwise_pair_check(shear, c1, c2, lo, hi, m):
    """The pair check from pointwise curve evaluations, panel by panel:
    D = c1(sigma) - c2(t2) on the m x m linspace grid, whether its smallest
    norm is within the certified radius, and the axis along which D spreads
    more on the grid's ends and middle of its middle row and column."""
    flags, axes = [], []
    ends = [0, m // 2, m - 1]
    for a, b in zip(lo, hi):
        sigma, delta = np.linspace(a[0], b[0], m), np.linspace(a[1], b[1], m)
        d = (c1.positions(sigma)[:, None]
             - c2.positions(shear.t2(sigma[:, None], delta[None, :])))
        speed_sigma, speed_delta = shear.speeds(a[None], b[None])
        cover = 0.5 * ((b[0] - a[0]) * speed_sigma[0]
                       + (b[1] - a[1]) * speed_delta[0]) / (m - 1)
        flags.append(np.linalg.norm(d, axis=-1).min() <= cover)
        spread = [np.linalg.norm(np.ptp(d[ends, m // 2], axis=0)),
                  np.linalg.norm(np.ptp(d[m // 2, ends], axis=0))]
        axes.append(int(np.argmax(spread)))
    return flags, axes


@pytest.mark.parametrize("k", [-1, 0, 1])
def test_the_difference_field_matches_pointwise_evaluation(k):
    # random torus pairs and panels: the separable field equals
    # c1(sigma) - c2(k sigma + c + delta) evaluated point by point
    rng = np.random.default_rng(50 + k)
    m = 9
    for _ in range(8):
        c1, c2, shear = _random_torus_pair(rng, k, rng.uniform(0.005, 0.3))
        lo, hi = _random_panels(rng, 20)
        steps = np.linspace(0.0, 1.0, m)
        samples = lo.T[..., None] + (hi - lo).T[..., None] * steps
        field = np.moveaxis(shear.difference(samples), 0, -1)
        sigma, delta = samples
        want = (c1.positions(sigma)[:, :, None]
                - c2.positions(shear.t2(sigma[:, :, None],
                                        delta[:, None, :])))
        scale = np.abs(c1.positions(sigma)).max()
        assert np.abs(field - want).max() <= 1e-13 * scale


@pytest.mark.parametrize("k", [-1, 0, 1])
def test_the_separable_second_side_matches_pointwise_evaluation(k):
    # random torus pairs and panels: both sides of a pair run, read off the
    # Fourier rows under both rules, give the positions, velocities and
    # Plucker rows of eval_batch and plucker_rows, side a at the sigma
    # nodes and side b at t2 of every node pair
    rng = np.random.default_rng(80 + k)
    cfg = hl.QuadConfig()
    for _ in range(6):
        c1, c2, shear = _random_torus_pair(rng, k, rng.uniform(0.005, 0.3))
        origin = rng.normal(size=3)
        engine = quadrature._Engine(
            None, quadrature.Interval(0.0, 1.0),
            quadrature.Interval(-0.5, 0.5), cfg,
            *(gauss._plucker_side(origin, first) for first in (True, False)),
            shear=shear)
        lo, hi = _random_panels(rng, 20)
        for n, blocks in zip((cfg.panel_order, 2 * cfg.panel_order),
                             engine._pair_rules(lo, hi)):
            (sigma, wa, x, rows_x), (t2, wb, y, rows_y) = blocks
            assert sigma.shape == wa.shape == wb.shape == (20, n)
            assert t2.shape == (20, n, n)
            for curve, params, first, got, got_rows in (
                    (c1, sigma, True, x, rows_x), (c2, t2, False, y, rows_y)):
                pts, vel = curve.eval_batch(params)
                rows = _kernels.plucker_rows(pts, vel, origin, first)
                got_vel = got_rows[..., :3] if first else got_rows[..., 3:]
                for have, want in ((got, pts), (got_vel, vel),
                                   (got_rows, rows)):
                    assert have.shape == want.shape
                    assert (np.abs(have - want).max()
                            <= 1e-13 * np.abs(want).max())


@pytest.mark.parametrize("k", [-1, 0, 1])
def test_the_pair_check_matches_a_pointwise_reference(k):
    # the engine's flags and split axes, read off the separable field,
    # are those of the check evaluated curve point by curve point
    rng = np.random.default_rng(60 + k)
    cfg = hl.QuadConfig()
    flagged = 0
    for _ in range(6):
        c1, c2, shear = _random_torus_pair(rng, k, rng.uniform(0.005, 0.05))
        engine = quadrature._Engine(None, quadrature.Interval(0.0, 1.0),
                                    quadrature.Interval(-0.5, 0.5), cfg,
                                    shear=shear)
        lo, hi = _random_panels(rng, 40)
        flags, axes = engine._unresolved(lo, hi)
        want = _pointwise_pair_check(shear, c1, c2, lo, hi,
                                     cfg.panel_order + 1)
        assert flags.tolist() == want[0]
        assert axes.tolist() == want[1]
        assert engine._split_axes(lo, hi).tolist() == want[1]
        flagged += int(flags.sum())
    assert 0 < flagged < 6 * 40


@pytest.mark.parametrize("k", [-1, 0, 1])
def test_the_pair_check_raises_below_the_guard(k):
    # strands 1e-8 apart in phase come within about 3e-8, and a check pass
    # over a grid of cells raises; 1e-3 apart they pass
    rng = np.random.default_rng(70 + k)
    edges = np.linspace(0.0, 1.0, 9)[:-1]
    lo = np.array([(a, b - 0.5) for a in edges for b in edges])
    for gap, close in ((1e-8, True), (1e-3, False)):
        c1, c2, _ = _random_torus_pair(rng, k, gap)
        shear = quadrature.Shear(k, 0.0, _harmonics(c1), _harmonics(c2),
                                 c1.const, c2.const)
        engine = quadrature._Engine(None, quadrature.Interval(0.0, 1.0),
                                    quadrature.Interval(-0.5, 0.5),
                                    hl.QuadConfig(), shear=shear)
        if close:
            with pytest.raises(hl.CurvesTooClose):
                engine._unresolved(lo, lo + 0.125)
        else:
            engine._unresolved(lo, lo + 0.125)


def test_the_reversed_torus_pair_takes_the_reversed_chart():
    # the closest-point map of a reversed strand has degree -1: on the chart
    # t2 = -t1 + c + delta the 6e-3 pair takes a few panels
    c1 = workloads.torus_curve(3, 0.1)
    c2 = _reversed(workloads.torus_curve(3, 0.106))
    res = hl.gauss_linking(c1, c2, hl.QuadConfig(tol=1e-6))
    assert (res.trace.chart, res.trace.k) == ("shear", -1)
    assert res.converged and res.panels_evaluated <= 200
    assert abs(res.value + 3.0) <= res.err_estimate


def test_torus_pairs_take_few_panels_on_their_pair_charts():
    # the 12 windings x gap strata of the gauss_loops benchmark, each pair
    # within its err of its winding, in under 1,500 panels together (14,000
    # or so on the product chart) and 2 s
    start = time.perf_counter()
    panels = 0
    for wraps in range(4):
        for gap in (6.1e-3, 0.041, 0.31):
            res = hl.gauss_linking(workloads.torus_curve(wraps, 0.1),
                                   workloads.torus_curve(wraps, 0.1 + gap),
                                   hl.QuadConfig(tol=1e-6))
            assert res.trace.chart == "shear"
            assert res.converged
            assert abs(res.value - wraps) <= res.err_estimate
            panels += res.panels_evaluated
    assert panels <= 1500
    assert time.perf_counter() - start < 2.0


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


def _crossing_total_oracle(p1, d1, p2, d2):
    """All-pairs signed crossing sum with no broad phase: the parameters of
    every segment pair, counted when both lie strictly inside."""
    r = np.roll(p1, -1, axis=0) - p1
    s = np.roll(p2, -1, axis=0) - p2
    denom = r[:, None, 0] * s[None, :, 1] - r[:, None, 1] * s[None, :, 0]
    ca = p2[None, :, :] - p1[:, None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (ca[..., 0] * s[None, :, 1] - ca[..., 1] * s[None, :, 0]) / denom
        u = (ca[..., 0] * r[:, None, 1] - ca[..., 1] * r[:, None, 0]) / denom
    inside = (t > 0) & (t < 1) & (u > 0) & (u < 1)
    depth1 = d1[:, None] + t * (np.roll(d1, -1) - d1)[:, None]
    depth2 = d2[None, :] + u * (np.roll(d2, -1) - d2)[None, :]
    over = np.where(depth1 > depth2, 1.0, -1.0)
    return float(np.sum(np.where(inside, np.sign(denom) * over, 0.0)))


def _projected(pl, direction=DEFAULT_DIRECTION):
    u, v, d = _projection_frame(direction)
    vert = pl.vertices
    return np.stack([vert @ u, vert @ v], axis=-1), vert @ d


def _random_polylines(seed):
    rng = np.random.default_rng(seed)
    return (hl.Polyline3(rng.normal(size=(rng.integers(3, 60), 3))),
            hl.Polyline3(rng.normal(size=(rng.integers(3, 60), 3))))


def _torus_polylines(wraps, phase, gap):
    return (hl.Polyline3.from_curve(_torus_curve(wraps, phase)),
            hl.Polyline3.from_curve(_torus_curve(wraps, phase + gap)))


@pytest.mark.parametrize("make, args", [
    *[(_random_polylines, (seed,)) for seed in range(12)],
    (_torus_polylines, (2, 0.7, 0.04)),
    (_torus_polylines, (3, 0.2, 0.0062)),
    (_torus_polylines, (2, 0.1, 0.006)),
    (_torus_polylines, (3, 0.5, 0.3)),
])
def test_crossing_sum_matches_all_pairs_oracle(make, args):
    pl1, pl2 = make(*args)
    for direction in (DEFAULT_DIRECTION, (0.05, -0.3, 0.9)):
        (a, da), (b, db) = _projected(pl1, direction), _projected(pl2, direction)
        total, degenerate = _kernels.crossing_sum(a, da, b, db)
        assert not degenerate
        assert total == _crossing_total_oracle(a, da, b, db)


_SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


def _dense_overlaps(lo1, hi1, lo2, hi2):
    """The n x m bounding-box test that the sorted sweep replaced, kept as
    its oracle: every pair's four comparisons, in row-major order."""
    overlap = ((lo1[:, None, 0] <= hi2[None, :, 0])
               & (lo2[None, :, 0] <= hi1[:, None, 0])
               & (lo1[:, None, 1] <= hi2[None, :, 1])
               & (lo2[None, :, 1] <= hi1[:, None, 1]))
    return np.nonzero(overlap)


@pytest.mark.parametrize("seed", range(4))
def test_overlapping_boxes_match_the_dense_test_on_touching_boxes(seed):
    # corners on a coarse integer grid, so many boxes share an edge or a
    # corner exactly, with widths from 0 to the whole grid
    rng = np.random.default_rng(seed)
    boxes = []
    for count in (40, 50):
        lo = rng.integers(0, 12, size=(count, 2)).astype(float)
        size = rng.integers(0, 3, size=(count, 2)) ** rng.integers(1, 4)
        boxes += [lo, lo + size]
    i, j = _kernels._overlapping_boxes(*boxes)
    want_i, want_j = _dense_overlaps(*boxes)
    assert len(want_i) > 0
    assert np.array_equal(i, want_i) and np.array_equal(j, want_j)


def _benchmark_torus_polylines(wraps, gap):
    # the torus pairs of perfbench's gauss_loops workload
    phase = 0.1 + 0.2 * wraps
    return (hl.Polyline3.from_curve(workloads.torus_curve(wraps, phase)),
            hl.Polyline3.from_curve(workloads.torus_curve(wraps, phase + gap)))


def _circle_and_long_triangle(n=400, swap=False):
    # a circle of n short sides against a triangle with one side 200 long
    angle = 2 * np.pi * np.arange(n) / n
    circle = np.stack([np.cos(angle), np.sin(angle)], axis=1)
    triangle = np.array([[-100.0, 0.3], [100.0, -0.2], [0.0, 50.0]])
    a, b = (triangle, circle) if swap else (circle, triangle)
    return a, np.linspace(0.0, 1.0, len(a)), b, np.linspace(2.0, 1.5, len(b))


def _planar(second):
    return _SQUARE, np.zeros(4), second, np.ones(len(second))


def _projected_pair(make, *args):
    pl1, pl2 = make(*args)
    return (*_projected(pl1), *_projected(pl2))


@pytest.mark.parametrize("case, args, degenerate", [
    *[(_projected_pair, (_benchmark_torus_polylines, w, gap), 0)
      for w in range(4) for gap in (6e-3, 0.04, 0.3)],
    (_projected_pair, (_hopf_polylines,), 0),
    *[(_projected_pair, (_random_polylines, seed), 0) for seed in range(6)],
    (_circle_and_long_triangle, (), 0),
    (_circle_and_long_triangle, (400, True), 0),
    # a side along part of the square's bottom side: a parallel overlap
    (_planar, (np.array([[0.5, 0.0], [2.0, 0.0], [2.0, -1.0]]),), 1),
    # the triangle's first vertex lies on the square's side x = 1
    (_planar, (np.array([[1.0, 0.5], [2.0, 0.5], [2.0, 1.5]]),), 1),
    # far from the square: no box overlaps
    (_planar, (_SQUARE + [5.0, 5.0],), 0),
])
def test_crossing_sweep_matches_the_dense_box_test(monkeypatch, case, args,
                                                   degenerate):
    a, da, b, db = case(*args)
    seen = []
    sweep = _kernels._overlapping_boxes

    def recorded(*boxes):
        pairs = sweep(*boxes)
        seen.append((boxes, pairs))
        return pairs

    monkeypatch.setattr(_kernels, "_overlapping_boxes", recorded)
    got = _kernels.crossing_sum(a, da, b, db)
    (boxes, (i, j)), = seen
    want_i, want_j = _dense_overlaps(*boxes)
    assert np.array_equal(i, want_i) and np.array_equal(j, want_j)
    monkeypatch.setattr(_kernels, "_overlapping_boxes", _dense_overlaps)
    assert got == _kernels.crossing_sum(a, da, b, db)
    assert got[1] == degenerate
    if case is _planar and not degenerate:
        assert len(i) == 0 and got == (0.0, 0)


def test_crossing_sum_ignores_far_segment_on_an_endpoint_line():
    # the line through the triangle's first side, y = x, passes through the
    # square's corners (0, 0) and (1, 1), but the side is far from both
    triangle = np.array([[3.0, 3.0], [4.0, 4.0], [5.0, 3.0]])
    assert _kernels.crossing_sum(_SQUARE, np.zeros(4),
                                 triangle, np.ones(3)) == (0.0, 0)


def test_crossing_sum_flags_vertex_on_segment():
    # the triangle's first vertex lies on the square's side x = 1
    triangle = np.array([[1.0, 0.5], [2.0, 0.5], [2.0, 1.5]])
    assert _kernels.crossing_sum(_SQUARE, np.zeros(4),
                                 triangle, np.ones(3))[1] == 1


def test_polyline_validation():
    with pytest.raises(ValueError):
        hl.Polyline3(np.array([[0.0, 0, 0], [1.0, 0, 0]]))
    with pytest.raises(ValueError):
        hl.Polyline3(np.array([[0.0, 0, 0], [0.0, 0, 0], [1.0, 0, 0],
                               [0.0, 1, 0]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_polyline_rejects_a_non_finite_vertex(bad):
    # unchecked, a NaN coordinate in the Hopf pair's c1 gave a crossing
    # count of 1 with no warning, and an inf one RuntimeWarnings and then
    # DegenerateProjection, which names the wrong cause
    vertices = _hopf_polylines()[0].vertices.copy()
    vertices[100, 1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        hl.Polyline3(vertices)


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


def _small_ring(gap, angle=0.0, linked=True, centre=(0, 0, 0)):
    """Circle of radius gap in the plane of the z axis and the unit circle's
    radius at the given angle, both about centre. Centred on the unit circle
    it threads it; moved outward by 2 gap it does not. Either way the gap
    to it is gap."""
    c, s = math.cos(angle), math.sin(angle)
    r = 1.0 if linked else 1.0 + 2 * gap
    return hl.ParamCurve.real_closed(np.add(centre, (r * c, r * s, 0)),
                                     [[gap * c, gap * s, 0]], [[0, 0, gap]])


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


# the same rings by the crossing route: at angle 3.1 the ring threads the
# unit circle between two of its 512 vertices, where the chord sags about
# 1.9e-5 inside the arc, so 512 samples alone miscount the 1e-5 and 2e-6
# rings; the route doubles its samples until the sags certify the count.
# Far from the origin a ring at t = -1/1024 sits on the last of 1024
# samples, which allclose puts on the first: stripped as a closing vertex,
# it left a chord of two steps that passed outside the ring and certified 0
_FAR = (1000.0, 1000.0, 1000.0)


@pytest.mark.parametrize("gap, angle, centre, samples", [
    (1e-4, 3.1, (0, 0, 0), 512), (1e-5, 3.1, (0, 0, 0), 2048),
    (2e-6, 3.1, (0, 0, 0), 4096), (4.3e-6, -2 * math.pi / 1024, _FAR, 2048)])
@pytest.mark.parametrize("linked", [True, False])
def test_near_ring_crossing_route_gives_linking_number(gap, angle, centre,
                                                       samples, linked):
    circle = hl.ParamCurve.real_closed(centre, [[1, 0, 0]], [[0, 1, 0]])
    ring = _small_ring(gap, angle, linked, centre)
    scene = hl.Scene(curves={"c1": circle, "c2": ring}, scene_id="near_ring")
    rep = report.compute(scene, "gauss_crossing", hl.QuadConfig())
    assert rep.value == int(linked)
    assert rep.extra["samples"] == samples
    if linked and gap < 1e-4:
        # what the fixed 512 samples gave
        assert hl.crossing_linking(
            *(hl.Polyline3.from_curve(c, 512) for c in (circle, ring))) == 0


def test_each_doubling_evaluates_only_its_new_samples(monkeypatch):
    # the 2e-6 ring doubles from 512 to 4,096 samples: each doubling
    # evaluates its n new odd samples alone, and gives from_curve's
    # vertices on 2n samples bit for bit
    ring = _small_ring(2e-6, 3.1)
    seen = []
    raw = hl.ParamCurve.positions

    def counted(self, params):
        seen.append(np.size(params))
        return raw(self, params)

    monkeypatch.setattr(hl.ParamCurve, "positions", counted)
    *polylines, n = hl.certified_polylines(_UNIT_CIRCLE, ring)
    monkeypatch.undo()
    assert n == 4096
    assert seen == [512, 512, 512, 512, 1024, 1024, 2048, 2048]
    for curve, pl in zip((_UNIT_CIRCLE, ring), polylines):
        assert np.array_equal(pl.vertices,
                              hl.Polyline3.from_curve(curve, n).vertices)
        for count in (512, 1024, 2048):
            assert np.array_equal(
                hl.Polyline3.from_curve(curve, count).doubled(curve).vertices,
                hl.Polyline3.from_curve(curve, 2 * count).vertices)


def test_polyline_keeps_a_fine_ring_far_from_the_origin():
    # a ring of radius 4.3e-6 about (1000, 1000, 1000) on 1,024 vertices:
    # allclose puts its last vertex, 2.6e-8 from the first, on it, but it is
    # no repeat of it
    t = np.linspace(0.0, 2 * math.pi, 1024, endpoint=False)
    ring = np.add(_FAR, 4.3e-6 * np.stack(
        [np.cos(t), np.sin(t), np.zeros_like(t)], axis=1))
    assert np.allclose(ring[0], ring[-1])
    assert hl.Polyline3(ring).vertices.shape == (1024, 3)


@pytest.mark.parametrize("gap", [2e-7, 5e-7])
@pytest.mark.parametrize("linked", [True, False])
def test_crossing_route_raises_on_curves_within_the_guard(gap, linked):
    with pytest.raises(hl.CurvesTooClose, match="come within"):
        hl.certified_polylines(_UNIT_CIRCLE, _small_ring(gap, 3.1, linked))


@pytest.mark.parametrize("seed", range(6))
def test_polyline_distance_matches_dense_sampling(seed):
    # the closest points of every segment pair, against points 1/400 of a
    # segment apart on both polylines: never above their minimum, and
    # below it by no more than the spacing allows
    rng = np.random.default_rng(seed)
    v1 = rng.normal(size=(int(rng.integers(3, 12)), 3))
    v2 = rng.normal(size=(int(rng.integers(3, 12)), 3)) + rng.normal(size=3)
    s = np.linspace(0.0, 1.0, 401)[:, None, None]

    def dense(v):
        return (v + s * (np.roll(v, -1, axis=0) - v)).reshape(-1, 3)

    a, b = dense(v1), dense(v2)
    sampled = np.sqrt(((a[:, None] - b[None]) ** 2).sum(-1)).min()
    step = max(np.linalg.norm(np.roll(v, -1, axis=0) - v, axis=1).max()
               for v in (v1, v2)) / 400
    got = _kernels.polyline_dist(v1, v2, 100.0)
    assert sampled - step <= got <= sampled + 1e-12
    # a reach below the distance measures nothing or says so
    assert _kernels.polyline_dist(v1, v2, 0.5 * got) > 0.5 * got
