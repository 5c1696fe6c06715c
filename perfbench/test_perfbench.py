"""Self-test of the benchmark on tiny configurations (a few seconds):

    python3 -m pytest perfbench/test_perfbench.py -q

Covers the span arithmetic, failure counting and the reference checks.
"""

from pathlib import Path
import sys

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

hl = run.import_library()
import tracer  # noqa: E402
import workloads  # noqa: E402
from hololink import report, scenes  # noqa: E402
from hololink.errors import CurvesTooClose, PVNotConverging  # noqa: E402
from hololink.geometry import NormalizationConstants  # noqa: E402


# ---------------------------------------------------------------------------
# span arithmetic

def _span(spans, name, start, end, parent=None, query="q", info=None):
    s = tracer.Span(len(spans), name, parent, query)
    s.start, s.end, s.info = start, end, info
    spans.append(s)
    return s


def test_self_time_subtracts_children_and_nesting_counts_once():
    spans = []
    panels = {"panels": 10, "unconverged": 0, "tail_rel": 1e-3}
    xc = _span(spans, "report.xcheck", 0.0, 10.0)
    pv = _span(spans, "quadrature.integrate_pv", 1.0, 9.0, xc, info=panels)
    prod = _span(spans, "quadrature.integrate_product", 1.5, 8.5, pv,
                 info=dict(panels, tail_rel=2e-3))
    _span(spans, "kernels.bm_grid", 2.0, 5.0, prod,
          info={"pairs": 100, "bytes": 800})
    _span(spans, "geometry.eval_batch", 5.0, 6.0, prod, info={"points": 7})
    _span(spans, "kernels.min_dist", 8.6, 8.8, pv, info={"pairs": 4})
    _span(spans, "geometry.eval_batch", 9.5, 9.75, xc, info={"points": 3})
    _span(spans, "report.xcheck", 20.0, 21.0, query="other")

    out = tracer.summarize(spans, [("q", "kernels"), ("other", "kernels")],
                           queries={"q"})
    assert out["quadrature.s"] == pytest.approx(8.0)
    assert out["quadrature.calls"] == 1
    assert out["quadrature.panels"] == 10          # outermost span only
    assert out["quadrature.tail_rel_max"] == 1e-3
    # 8 s inclusive minus 3 + 1 (bm_grid, eval_batch) minus 0.2 (min_dist)
    assert out["quadrature.self_s"] == pytest.approx(3.8)
    assert out["quadrature.children_s"] == pytest.approx(4.2)
    assert out["quadrature.children_layers"] == ["geometry", "kernels"]
    assert out["quadrature.s"] == pytest.approx(
        out["quadrature.self_s"] + out["quadrature.children_s"])
    assert out["geometry.eval_batch.s"] == pytest.approx(1.25)
    assert out["geometry.eval_batch.points"] == 10
    assert out["kernels.bm_grid.pairs"] == 100
    assert out["report.xcheck.s"] == pytest.approx(10.0)
    assert out["report.self_s"] == pytest.approx(10.0 - 8.0 - 0.25)
    assert out["kernels.runtime_warnings"] == 1


def test_tracer_restores_every_name_and_satisfies_the_identity():
    originals = [(owner, attr, owner.__dict__[attr])
                 for owner, attr, _, _ in tracer.targets(hl)]
    scene = _torus_scene(1, 0.3)
    t = tracer.Tracer()
    t.query = "q"
    t.install(hl)
    try:
        result = report.xcheck(scene, workloads.GAUSS_CFG)
    finally:
        t.uninstall()
    assert result.verdict == "PASS"
    for owner, attr, raw in originals:
        assert owner.__dict__[attr] is raw
    out = tracer.summarize(t.spans, t.warnings)
    assert out["quadrature.calls"] == 1
    # two rules per panel, plus the batch probe of quadrature._ensure_batch_2
    assert out["kernels.gauss_grid.calls"] == 2 * out["quadrature.panels"] + 1
    assert out["kernels.crossing_sum.calls"] == 1
    assert set(out["quadrature.children_layers"]) <= {"kernels", "geometry"}
    assert out["quadrature.s"] == pytest.approx(
        out["quadrature.self_s"] + out["quadrature.children_s"], rel=1e-9)


# ---------------------------------------------------------------------------
# failure counting

class _Rep:
    def __init__(self, value, converged=True, err=0.0, tail=0.0):
        self.value, self.converged = value, converged
        self.err_estimate, self.tail_estimate = err, tail


def _tally(*queries):
    tally = workloads.Tally()
    for q in queries:
        workloads.run_query(q, {}, tally)
    return tally


def test_failures_are_counted_not_fatal():
    def ok(check, state):
        check.route("r", _Rep(1.0 + 1e-7, err=1e-7), 1.0)

    def unconverged(check, state):
        check.route("r", _Rep(1.0, converged=False), 1.0)

    def misses(check, state):
        check.route("r", _Rep(1.1, err=1e-3), 1.0)

    def raises(check, state):
        raise CurvesTooClose("too close")

    def defect(check, state):
        raise ZeroDivisionError("bug")

    Q = workloads.Query
    tally = _tally(Q("ok", ok), Q("unconverged", unconverged),
                   Q("misses", misses), Q("raises", raises),
                   Q("defect", defect),
                   Q("expected", raises, CurvesTooClose),
                   Q("wrong_expected", raises, PVNotConverging),
                   Q("not_raised", ok, PVNotConverging))
    assert tally.attempted == 8
    failed = [f["query"] for f in tally.failures]
    assert failed == ["unconverged", "misses", "raises", "defect",
                      "wrong_expected", "not_raised"]
    assert tally.failed == 6
    assert max(tally.budget_ratio) == pytest.approx(0.1 / 1e-3)
    assert max(tally.err_rel) == pytest.approx(0.1)


def test_zero_budget_uses_the_floor():
    check = workloads.Check()
    check.reference("exact", 2.0 + 1e-10, 2.0, 0.0)
    assert not check.reasons
    assert check.budget_ratio[0] == pytest.approx(1e-10 / (2 * 1e-9))
    check.reference("exact", 2.0 + 1e-8, 2.0, 0.0)
    assert len(check.reasons) == 1


# ---------------------------------------------------------------------------
# reference checks on tiny configurations

def _torus_scene(wraps, gap):
    return hl.geometry.validate_scene(hl.Scene(
        scene_id="t", curves={"c1": workloads.torus_curve(wraps, 0.1),
                              "c2": workloads.torus_curve(wraps, 0.1 + gap)},
        constants=NormalizationConstants()))


@pytest.mark.parametrize("wraps", [0, 1, 2, 3])
def test_torus_curve_matches_the_scenes_polyline(wraps):
    a, b = scenes.torus_polyline_pair(n=64, wraps=wraps, phase=0.3)
    t = np.linspace(0.0, 1.0, 64, endpoint=False)
    assert np.allclose(workloads.torus_curve(wraps, 0.0).eval_batch(t)[0], a,
                       atol=1e-13)
    assert np.allclose(workloads.torus_curve(wraps, 0.3).eval_batch(t)[0], b,
                       atol=1e-13)


def test_far_torus_pair_meets_its_integer():
    query = workloads.Query("t", workloads._torus_query(_torus_scene(2, 0.3), 2))
    tally = _tally(query)
    assert tally.failed == 0
    assert max(tally.err_rel) < 1e-6


def test_fast_routes_tiny_round_passes():
    queries = workloads.build_fast_routes(5, line_scenes=3, skew_pairs=3)
    tally = workloads.Tally()
    state = {}
    for q in queries:
        workloads.run_query(q, state, tally)
    assert tally.attempted == 7 and tally.failed == 0
    assert max(tally.err_rel) < 1e-12


def test_fast_routes_reference_catches_a_wrong_value():
    queries = workloads.build_fast_routes(5, line_scenes=1, skew_pairs=0)
    state = {"residue_l0": 2.0}     # off by a factor: every ratio misses
    tally = workloads.Tally()
    workloads.run_query(queries[1], state, tally)
    assert tally.failed == 1


def test_scaled_l0_closed_form_and_residue_match_the_factor():
    scene, factor = workloads.scaled_l0(np.random.default_rng(3), "c")
    scene.constants = NormalizationConstants(kappa_line=1.0 + 0j)
    closed = report.compute(scene, "holo_closed", workloads.FAST_CFG).value
    assert abs(closed - factor) <= 1e-12 * abs(factor)
    l0 = scenes.l0()
    ratio = (report.compute(scene, "residue", workloads.FAST_CFG).value
             / report.compute(l0, "residue", workloads.FAST_CFG).value)
    assert abs(ratio - factor) <= 1e-9 * abs(factor)


def test_builds_are_deterministic_in_the_seed():
    for build in (workloads.build_gauss_loops, workloads.build_fast_routes):
        labels = [q.label for q in build(4)]
        assert labels == [q.label for q in build(4)]
        assert labels != [q.label for q in build(5)]
