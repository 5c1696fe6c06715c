"""End-to-end acceptance checks, one test per contract.

Each test prints a single summary line with the measured numbers; pytest -v
shows one PASSED/FAILED line per contract. Tolerances are pinned here and
must not be loosened to make a failing check pass.
"""

import math

import numpy as np
import pytest

import hololink as hl
from hololink import gauss, report, scenes

TWO_PI5 = 2 * math.pi ** 5


def _line(num, label, detail):
    print(f"acceptance {num:02d} [{label}] {detail}")


def test_01_hopf_and_split_match_crossing_route(cfg):
    sc = scenes.hopf()
    res = hl.gauss_linking(sc.curves["c1"], sc.curves["c2"], cfg)
    pl1 = hl.Polyline3.from_curve(sc.curves["c1"], gauss.CROSSING_SAMPLES)
    pl2 = hl.Polyline3.from_curve(sc.curves["c2"], gauss.CROSSING_SAMPLES)
    crossings = hl.crossing_linking(pl1, pl2)
    sp = scenes.split()
    res0 = hl.gauss_linking(sp.curves["c1"], sp.curves["c2"], cfg)
    cross0 = hl.crossing_linking(
        hl.Polyline3.from_curve(sp.curves["c1"], gauss.CROSSING_SAMPLES),
        hl.Polyline3.from_curve(sp.curves["c2"], gauss.CROSSING_SAMPLES))
    _line(1, "hopf/split", f"integral={res.value:.6f} crossings={crossings} "
                           f"split={res0.value:.2e}/{cross0}")
    assert abs(abs(res.value) - 1.0) < 1e-3
    assert round(float(res.value.real)) == crossings == 1
    assert abs(res0.value) < 1e-3
    assert cross0 == 0


def test_02_skew_lines_half_sign_with_flip(cfg):
    sc = scenes.skew_lines()
    res = hl.gauss_linking(sc.curves["c1"], sc.curves["c2"], cfg)
    flipped = hl.ParamCurve.line((0, 0, -1), (0, 1, 0))
    res_f = hl.gauss_linking(sc.curves["c1"], flipped, cfg)
    _line(2, "skew lines", f"value={res.value:.5f}±{res.tail_estimate:.1e} "
                           f"flipped={res_f.value:.5f}")
    assert abs(res.value - 0.5) + res.tail_estimate <= 2e-2
    assert abs(res_f.value + 0.5) + res_f.tail_estimate <= 2e-2


def test_03_sphere_reproduction_errors_decrease(cfg):
    f = scenes.coordinate_poly(0)  # first coordinate function
    w0 = (1.0, 0.0, 0.0)
    errs = [abs(hl.bm_reproduce(f, w0, eps, cfg) - 1.0)
            for eps in (0.2, 0.1, 0.05, 0.025)]
    _line(3, "reproduction", "errs=" + ", ".join(f"{e:.2e}" for e in errs))
    assert all(b < a for a, b in zip(errs, errs[1:]))
    assert errs[-1] <= 5e-3


def test_04_kernel_forms_agree(rng):
    ctx = hl.BMContext()
    worst = 0.0
    for _ in range(1000):
        z, dz, w, dw = (rng.normal(size=3) + 1j * rng.normal(size=3)
                        for _ in range(4))
        a = hl.bm_pullback_integrand(z, dz, w, dw, ctx)
        b = hl.bm_pullback_epsilon_sum(z, dz, w, dw, ctx)
        worst = max(worst, abs(a - b) / max(abs(a), 1.0))
    _line(4, "kernel identity", f"worst rel diff={worst:.2e} over 1000 pairs")
    assert worst <= 1e-14


def test_05_calibration_stable_and_reconciling(constants):
    rep = report.compute(scenes.l0(), "holo_integral", hl.QuadConfig(tol=1e-6))
    tail_ratio = rep.tail_estimate / abs(rep.value)
    rels = []
    fast = hl.QuadConfig(tol=1e-4)
    for seed in range(5):
        sc = scenes.random_line_scene(seed)
        sc.constants = constants
        integral = report.compute(sc, "holo_integral", fast).value
        raw = report.compute(sc, "residue", fast).value
        scaled = raw * constants.kappa_xmethod
        rels.append(abs(integral - scaled) / abs(scaled))
    _line(5, "calibration", f"window tail ratio={tail_ratio:.2e}; "
          f"integral-vs-residue rels max={max(rels):.2e}")
    assert rep.converged
    assert tail_ratio <= 1e-2  # doubling the window moves the value < 1%
    assert abs(rep.value - constants.kappa_line) <= 1e-2 * abs(rep.value)
    assert max(rels) <= 1e-2


def test_06_residue_independent_of_cut():
    sc = scenes.l0()
    z2 = scenes.coordinate_poly(1)
    z3 = scenes.coordinate_poly(2)
    plus = hl.Poly3(np.array([[0, 1, 0], [0, 0, 1]]), np.array([1.0, 1.0]))
    minus = hl.Poly3(np.array([[0, 1, 0], [0, 0, 1]]), np.array([1.0, -1.0]))
    steep = hl.Poly3(np.array([[0, 1, 0], [0, 0, 1]]), np.array([2.0, 1.0]))
    swap = hl.Poly3(np.array([[0, 0, 1], [0, 1, 0]]), np.array([1.0, -1.0]))
    values = []
    for f1, f2 in [(z2, z3), (plus, z3), (minus, z3), (steep, z3), (z2, swap)]:
        cut = hl.SurfaceCut(f1, f2, "c1")
        lift = hl.lift_theta(cut, sc.ambient, sc.forms["theta1"],
                             sc.curves["c1"])
        values.append(hl.residue_linking(
            lift, (sc.curves["c2"], sc.forms["theta2"]), sc.ambient))
    spread = max(abs(v - values[0]) / abs(values[0]) for v in values)
    _line(6, "cut independence", f"5 cuts, relative spread={spread:.2e}")
    assert spread <= 1e-10


def test_07_symmetry_and_bilinearity():
    ctx = hl.BMContext()
    cfg = hl.QuadConfig(tol=1e-4)
    a, b = 0.7 - 0.3j, -1.1 + 0.2j
    worst_sym = worst_lin = 0.0
    for seed in range(10):
        sc = scenes.random_polynomial_scene(seed)
        c1, c2 = sc.curves["c1"], sc.curves["c2"]
        th1, th2 = sc.forms["theta1"], sc.forms["theta2"]
        r12 = hl.holo_linking_integral((c1, th1), (c2, th2), ctx, cfg)
        r21 = hl.holo_linking_integral((c2, th2), (c1, th1), ctx, cfg)
        budget = (r12.err_estimate + r12.tail_estimate
                  + r21.err_estimate + r21.tail_estimate + 1e-12)
        worst_sym = max(worst_sym, abs(r12.value - r21.value) / budget)
        ra = hl.holo_linking_integral((c1, th1.scaled(a)), (c2, th2), ctx, cfg)
        rb = hl.holo_linking_integral((c1, th1), (c2, th2.scaled(b)), ctx, cfg)
        for scale, rs in ((a, ra), (b, rb)):
            cap = 3 * max(r12.err_estimate + r12.tail_estimate,
                          rs.err_estimate + rs.tail_estimate) + 1e-12
            worst_lin = max(worst_lin,
                            abs(rs.value - scale * r12.value) / cap)
    _line(7, "sym/bilinear", f"worst symmetry ratio={worst_sym:.2e}, "
          f"worst linearity ratio={worst_lin:.2e} (<=1 passes)")
    assert worst_sym <= 1.0
    assert worst_lin <= 1.0


def test_08_residue_sums_vanish():
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        den_deg = int(rng.integers(3, 7))
        num_deg = int(rng.integers(0, den_deg - 1))
        num = rng.normal(size=num_deg + 1) + 1j * rng.normal(size=num_deg + 1)
        while True:
            roots = rng.normal(size=den_deg) + 1j * rng.normal(size=den_deg)
            gaps = np.abs(roots[:, None] - roots[None, :]) + np.eye(den_deg)
            if gaps.min() >= 0.3:
                break
        den = np.array([1.0 + 0j])
        for r in roots:
            den = np.convolve(den, np.array([-r, 1.0]))
        _, residues, res_inf = hl.rational_all_residues(num, den)
        worst = max(worst, abs(sum(residues) + res_inf))
    _line(8, "residue theorem", f"worst |sum+inf|={worst:.2e} over 20 forms")
    assert worst <= 1e-10


def test_09_principal_value_converges_simple_only():
    cfg = hl.QuadConfig(tol=1e-3)
    rep = report.compute(scenes.pv_lines(), "holo_pv", cfg)
    with pytest.raises(hl.PVNotConverging) as exc:
        report.compute(scenes.pv_lines(pole_order=2), "holo_pv", cfg)
    _line(9, "principal value", f"simple pole value={rep.value:.6g} "
          f"converged={rep.converged}; double pole -> {exc.value}")
    assert rep.converged
    assert np.isfinite(rep.value)


def test_10_worker_count_does_not_change_bits(monkeypatch):
    sc = scenes.l0()
    cfg = hl.QuadConfig(tol=1e-4)
    monkeypatch.setenv("HOLOLINK_WORKERS", "1")
    r1 = report.compute(sc, "holo_integral", cfg)
    monkeypatch.setenv("HOLOLINK_WORKERS", "4")
    r4 = report.compute(sc, "holo_integral", cfg)
    _line(10, "determinism", f"1 vs 4 workers: value bits equal="
          f"{r1.value == r4.value}, panels {r1.panels_evaluated}"
          f"=={r4.panels_evaluated}")
    assert r1.value == r4.value
    assert r1.err_estimate == r4.err_estimate
    assert r1.panels_evaluated == r4.panels_evaluated
