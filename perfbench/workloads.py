"""Seeded workloads of the end-to-end benchmark.

`build(name, seed)` is the set-up: it generates and validates every scene of
the workload from the seed and returns one round of queries. The timed body
runs rounds of these queries one after another (a closed loop with one
client). Every query checks its answer against a reference that the
benchmark computes itself, and `run_query` turns each outcome into counted
failures and accuracy records; a failing query never stops the run.

The library is used only through its public API: `report.calibrate`,
`report.compute`, `report.xcheck`, `scenes.*`, `scene_io.loads_scene` /
`dumps_scene` and the `ParamCurve` / `OneForm` / `Scene` constructors.
"""

from dataclasses import dataclass, field
import math
import sys
import traceback

import numpy as np

from hololink import QuadConfig, geometry, report, scene_io, scenes
from hololink.errors import HololinkError, PVNotConverging
from hololink.geometry import (AmbientForm, NormalizationConstants, OneForm,
                               ParamCurve, Scene, SurfaceCut)

# report.xcheck accepts a pair when |a - b| <= 3 (budgets) + 1e-9 max(1, |a|,
# |b|); a query misses its reference by the same rule, with the reference in
# place of the second route. The floor also stands in for a zero budget in
# budget_ratio.
XCHECK_FACTOR = 3.0
FLOOR_REL = 1e-9


# ---------------------------------------------------------------------------
# outcome bookkeeping

class Check:
    """Failure reasons and accuracy records of one query."""

    def __init__(self):
        self.reasons = []
        self.err_rel = []
        self.budget_ratio = []
        self.allowed_rel = []

    def fail(self, reason):
        self.reasons.append(reason)

    def reference(self, label, value, ref, budget):
        """Compare a route's value with the benchmark's reference."""
        scale = max(1.0, abs(ref))
        diff = abs(value - ref)
        self.err_rel.append(diff / scale)
        self.budget_ratio.append(diff / max(budget, FLOOR_REL * scale))
        allowed = XCHECK_FACTOR * budget + FLOOR_REL * scale
        if not diff <= allowed:
            self.fail(f"{label} misses its reference: |{value} - {ref}| = "
                      f"{diff:.3e} > {allowed:.3e}")

    def route(self, label, rep, ref, scale=1.0):
        """A Report against the reference, with its own error budget."""
        if not rep.converged:
            self.fail(f"{label} returned converged=False")
        self.reference(label, rep.value * scale, ref,
                       abs(scale) * (rep.err_estimate + rep.tail_estimate))

    def xcheck(self, result, kappa_xmethod=None):
        """The verdict of report.xcheck and the width of what it allowed."""
        if result.verdict != "PASS":
            self.fail(f"xcheck {result.scene_id}: verdict {result.verdict} "
                      f"(failures {result.failures})")
        values = {}
        for rep in result.reports:
            scale = kappa_xmethod if rep.method == "residue" else 1.0
            values[rep.method] = rep.value * scale
        for pair in result.checks:
            size = max([1.0] + [abs(values[m]) for m in pair["methods"]])
            self.allowed_rel.append(pair["allowed"] / size)


@dataclass
class Query:
    label: str
    fn: object                 # fn(check, state); state is shared by a round
    expect: type = None        # HololinkError subclass the query must raise


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    err_rel: list = field(default_factory=list)
    budget_ratio: list = field(default_factory=list)
    allowed_rel: list = field(default_factory=list)

    def add(self, label, check):
        self.attempted += 1
        if check.reasons:
            self.failed += 1
            self.failures.append({"query": label, "reasons": check.reasons})
        self.err_rel += check.err_rel
        self.budget_ratio += check.budget_ratio
        self.allowed_rel += check.allowed_rel


def run_query(query, state, tally):
    """Run one query, count it, and record why it failed if it did."""
    check = Check()
    try:
        query.fn(check, state)
    except HololinkError as exc:
        if query.expect is None or not isinstance(exc, query.expect):
            check.fail(f"unexpected {type(exc).__name__}: {exc}")
    except Exception as exc:  # a defect, not a numerical verdict: count it
        traceback.print_exc(file=sys.stderr)
        check.fail(f"{type(exc).__name__}: {exc}")
    else:
        if query.expect is not None:
            check.fail(f"expected {query.expect.__name__}; none was raised")
    tally.add(query.label, check)


# ---------------------------------------------------------------------------
# holo_xcheck

CALIBRATE_CFG = QuadConfig(tol=1e-6)
HOLO_XCHECK_CFG = QuadConfig(tol=1e-4)
PV_CFG = QuadConfig(tol=1e-3)  # the tolerance of acceptance test_09


def _form_coefficient(rng):
    return rng.uniform(0.5, 1.5) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))


def scaled_l0(rng, scene_id):
    """L0 with a seeded separation d, moved by a seeded signed coordinate
    permutation P and translation, with seeded constant forms c1, c2.

    Returns (scene, factor): the linking value is factor * kappa_line with
    factor = det(P) c1 c2 / d, the closed line form. Scaling by 1/d maps the
    pair onto L0 with truncation radius 40/d, so the integral route differs
    from the calibrated kappa_line by the truncation error that R vs 2R
    extrapolation leaves, while the proximity structure, and so the cost,
    stays that of L0 (random_line_scene queries cost 43-85 s each depending
    on the seed).
    """
    perm = rng.permutation(3)
    signs = rng.choice([-1.0, 1.0], size=3)
    frame = np.zeros((3, 3))
    frame[perm, np.arange(3)] = signs        # column k = signs[k] e_perm[k]
    shift = rng.uniform(-1.0, 1.0, size=3)
    sep = math.exp(rng.uniform(math.log(0.8), math.log(1.25)))
    c1, c2 = _form_coefficient(rng), _form_coefficient(rng)
    p1 = shift
    p2 = sep * frame[:, 2] + shift
    curve1 = ParamCurve.line(p1, frame[:, 0])
    curve2 = ParamCurve.line(p2, frame[:, 1])
    cut = SurfaceCut(scenes.linear_poly(frame[:, 1], p1),
                     scenes.linear_poly(frame[:, 2], p1), "c1")
    scene = geometry.validate_scene(Scene(
        scene_id=scene_id,
        curves={"c1": curve1, "c2": curve2},
        forms={"theta1": OneForm("c1", np.array([c1])),
               "theta2": OneForm("c2", np.array([c2]))},
        ambient=AmbientForm.standard(),
        cuts={"cut1": cut},
        constants=NormalizationConstants()))
    return scene, float(np.linalg.det(frame)) * c1 * c2 / sep


def build_holo_xcheck(seed):
    rng = np.random.default_rng(seed)
    scene, factor = scaled_l0(rng, f"L0_scaled_{seed}")
    double_pole = scenes.builtin("pv_lines_double")

    def calibrate(check, state):
        consts = report.calibrate(CALIBRATE_CFG)
        if not np.isfinite(abs(consts.kappa_line)) or consts.kappa_line == 0:
            check.fail(f"calibrate returned kappa_line = {consts.kappa_line}")
        state["constants"] = consts

    def xcheck(check, state):
        consts = state.get("constants")
        if consts is None:
            check.fail("no calibrated constants (calibrate failed)")
            return
        scene.constants = consts
        result = report.xcheck(scene, HOLO_XCHECK_CFG)
        check.xcheck(result, consts.kappa_xmethod)
        ref = factor * consts.kappa_line
        for rep in result.reports:
            scale = consts.kappa_xmethod if rep.method == "residue" else 1.0
            check.route(rep.method, rep, ref, scale)

    def pv_double(check, state):
        report.compute(double_pole, "holo_pv", PV_CFG)

    return [Query("calibrate:L0", calibrate),
            Query(f"xcheck:{scene.scene_id}", xcheck),
            Query("holo_pv:pv_lines_double", pv_double, PVNotConverging)]


# ---------------------------------------------------------------------------
# gauss_loops

GAUSS_CFG = QuadConfig(tol=1e-6)
WINDINGS = (0, 1, 2, 3)
# phase-gap strata: narrow, so every round has the same cost profile while
# the seed draws each gap within its stratum and the base phase
GAP_STRATA = ((0.006, 0.0063), (0.04, 0.042), (0.3, 0.315))
TORUS_MAJOR, TORUS_MINOR = 2.0, 0.5


def torus_curve(wraps, phase, major=TORUS_MAJOR, minor=TORUS_MINOR):
    """The (1, wraps) torus curve of scenes.torus_polyline_pair as an exact
    trigonometric polynomial:

        (major + minor cos A) (cos 2 pi t, sin 2 pi t), minor sin A,
        A = 2 pi (wraps t + phase).
    """
    k_max = wraps + 1
    const = np.zeros(3)
    cos_rows = np.zeros((k_max, 3))
    sin_rows = np.zeros((k_max, 3))

    def harmonic(k, shift, amp, axis, sine):
        # amp * cos(2 pi k t + shift), or amp * sin(...) when sine
        if k < 0:
            k, shift = -k, -shift
            amp = -amp if sine else amp
        if sine:
            c, s = amp * math.sin(shift), amp * math.cos(shift)
        else:
            c, s = amp * math.cos(shift), -amp * math.sin(shift)
        if k == 0:
            const[axis] += c
        else:
            cos_rows[k - 1, axis] += c
            sin_rows[k - 1, axis] += s

    phi = 2.0 * math.pi * phase
    half = 0.5 * minor
    harmonic(1, 0.0, major, 0, False)
    harmonic(1, 0.0, major, 1, True)
    harmonic(wraps + 1, phi, half, 0, False)   # cos A cos 2pi t
    harmonic(wraps - 1, phi, half, 0, False)
    harmonic(wraps + 1, phi, half, 1, True)    # cos A sin 2pi t
    harmonic(wraps - 1, phi, -half, 1, True)
    harmonic(wraps, phi, minor, 2, True)       # sin A
    return ParamCurve.real_closed(const, cos_rows, sin_rows)


def build_gauss_loops(seed):
    rng = np.random.default_rng(seed)
    queries = []
    for wraps in WINDINGS:
        for lo, hi in GAP_STRATA:
            gap = lo * (hi / lo) ** rng.uniform()
            base = rng.uniform()
            scene = geometry.validate_scene(Scene(
                scene_id=f"torus_w{wraps}_gap{gap:.5f}",
                curves={"c1": torus_curve(wraps, base),
                        "c2": torus_curve(wraps, base + gap)},
                constants=NormalizationConstants()))
            queries.append(Query(f"xcheck:{scene.scene_id}",
                                 _torus_query(scene, wraps)))
    return queries


def _torus_query(scene, wraps):
    def fn(check, state):
        result = report.xcheck(scene, GAUSS_CFG)
        check.xcheck(result)
        for rep in result.reports:
            check.route(rep.method, rep, float(wraps))
    return fn


# ---------------------------------------------------------------------------
# fast_routes

FAST_CFG = QuadConfig()
LINE_SCENES = 48
SKEW_PAIRS = 16
# the closed line form with kappa_line = 1 is c1 c2 / det3(e1, e2, e3): a
# normalization every line scene shares, so no calibration is needed
UNIT_LINE = NormalizationConstants(kappa_line=1.0 + 0j)


def _line_ratio(scene):
    """c1 c2 / det3(e1, e2, p2 - p1) from the scene's own data."""
    n1, n2 = scene.query_pair()
    p1, e1 = scene.curves[n1].line_frame()
    p2, e2 = scene.curves[n2].line_frame()
    coeff = scene.form_for(n1).num[0] * scene.form_for(n2).num[0]
    return complex(coeff / np.linalg.det(np.array([e1, e2, p2 - p1])))


def _skew_pair(rng, k):
    while True:
        p1, e1, p2, e2 = rng.normal(size=(4, 3))
        det = float(np.linalg.det(np.array([e1, e2, p2 - p1])))
        size = np.linalg.norm(e1) * np.linalg.norm(e2) * np.linalg.norm(p2 - p1)
        if abs(det) >= 0.1 * size:
            break
    scene = geometry.validate_scene(Scene(
        scene_id=f"skew_{k}",
        curves={"c1": ParamCurve.line(p1, e1), "c2": ParamCurve.line(p2, e2)},
        constants=NormalizationConstants()))
    return scene, 0.5 * math.copysign(1.0, det)


def build_fast_routes(seed, line_scenes=LINE_SCENES, skew_pairs=SKEW_PAIRS):
    rng = np.random.default_rng(seed)
    l0 = scenes.l0()
    l0.constants = UNIT_LINE
    l0_text = scene_io.dumps_scene(l0)

    def reference_residue(check, state):
        scene = scene_io.loads_scene(l0_text)
        closed = report.compute(scene, "holo_closed", FAST_CFG)
        check.reference("holo_closed", closed.value, 1.0, 0.0)
        state["residue_l0"] = report.compute(scene, "residue", FAST_CFG).value

    queries = [Query("residue:L0", reference_residue)]
    for k in range(line_scenes):
        scene = scenes.random_line_scene(int(rng.integers(2 ** 31)))
        scene.constants = UNIT_LINE
        queries.append(Query(f"routes:{scene.scene_id}",
                             _line_query(scene_io.dumps_scene(scene),
                                         _line_ratio(scene))))
    for k in range(skew_pairs):
        scene, ref = _skew_pair(rng, k)
        queries.append(Query(f"gauss_closed:{scene.scene_id}",
                             _skew_query(scene_io.dumps_scene(scene), ref)))
    return queries


def _line_query(text, ref):
    def fn(check, state):
        scene = scene_io.loads_scene(text)
        closed = report.compute(scene, "holo_closed", FAST_CFG)
        check.reference("holo_closed", closed.value, ref, 0.0)
        raw = report.compute(scene, "residue", FAST_CFG).value
        if "residue_l0" not in state:
            check.fail("no L0 residue to normalize by (residue:L0 failed)")
            return
        check.reference("residue/residue(L0)", raw / state["residue_l0"],
                        ref, 0.0)
    return fn


def _skew_query(text, ref):
    def fn(check, state):
        scene = scene_io.loads_scene(text)
        rep = report.compute(scene, "gauss_closed", FAST_CFG)
        check.reference("gauss_closed", rep.value, ref, 0.0)
    return fn


# share of each workload's time spent in pair-grid kernels (the traced
# kernels.bm_grid.s and kernels.gauss_grid.s over the round); it weights the
# bulk loop of speed.py in the workload's speed scale
BULK_SHARE = {
    "holo_xcheck": 0.7,
    "gauss_loops": 0.2,
    "fast_routes": 0.0,
}

BUILDERS = {
    "holo_xcheck": build_holo_xcheck,
    "gauss_loops": build_gauss_loops,
    "fast_routes": build_fast_routes,
}


def build(name, seed):
    """Set-up: every scene of the workload, generated and validated."""
    return BUILDERS[name](seed)
