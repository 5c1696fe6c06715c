"""Method dispatch, applicability rules, reports, cross-checks, calibration.

A Report is the single output record of every computation: the value, its
error estimate, its tail estimate (always 0: unbounded curves are
integrated whole, with no truncation), convergence state, the constants
and quadrature configuration that produced it, and wall time. Integral
methods add extra["trace"]: the quadrature trace (rounds, panels
integrated per round, panels halved per round without being integrated,
check passes per round, deepest split, whether max_depth stopped a hot
panel) and the worker count. Reports serialize to JSON (deterministic
except wall_time_ms) and to fixed-column CSV.
"""

import json
import time
from dataclasses import dataclass, field, replace

from . import __version__, scenes as _scenes
from .errors import (CalibrationUnstable, MethodInapplicable, NumericalError,
                     SceneInvalid)
from .gauss import (Polyline3, crossing_linking, gauss_linking,
                    line_gauss_closed)
from .geometry import NormalizationConstants, poly_deg
from .holo import (BMContext, complex_linking_number, holo_line,
                   holo_line_obstacle, holo_linking_integral, line_holo_closed)
from .quadrature import QuadConfig, workers_from_env
from .residue import atiyah_p3, lift_theta, residue_linking

METHODS = (
    "gauss_integral", "gauss_crossing", "gauss_closed",
    "holo_integral", "holo_pv", "holo_line", "holo_closed",
    "residue", "complex_link", "atiyah",
)

# methods eligible for automatic cross-checking; complex_link measures a
# different (theta-independent) quantity and atiyah needs extra scene data,
# so both run only when asked for by name.
XCHECK_METHODS = (
    "gauss_integral", "gauss_crossing", "gauss_closed",
    "holo_integral", "holo_pv", "holo_line", "holo_closed", "residue",
)

CROSSING_SAMPLES = 512


@dataclass
class Report:
    scene_id: str
    method: str
    value: complex
    err_estimate: float
    tail_estimate: float
    converged: bool
    panels_evaluated: int
    constants: NormalizationConstants
    config: QuadConfig
    wall_time_ms: float = 0.0
    extra: dict = field(default_factory=dict)


def _config_dict(cfg):
    return {
        "tol": cfg.tol,
        "max_depth": cfg.max_depth,
        "panel_order": cfg.panel_order,
    }


def report_to_dict(report):
    value = complex(report.value)
    return {
        "scene_id": report.scene_id,
        "method": report.method,
        "value": [value.real, value.imag],
        "err_estimate": float(report.err_estimate),
        "tail_estimate": float(report.tail_estimate),
        "converged": bool(report.converged),
        "panels_evaluated": int(report.panels_evaluated),
        "constants": report.constants.to_dict(),
        "config": _config_dict(report.config),
        "extra": report.extra,
        "wall_time_ms": float(report.wall_time_ms),
    }


def report_to_json(report):
    return json.dumps(report_to_dict(report), indent=2)


CSV_HEADER = ("scene_id,method,value_re,value_im,err_estimate,tail_estimate,"
              "converged,panels_evaluated,kappa_line_re,kappa_line_im,tol,"
              "max_depth,panel_order,wall_time_ms")


def report_to_csv_row(report):
    value = complex(report.value)
    kappa = complex(report.constants.kappa_line)
    cells = [report.scene_id, report.method,
             repr(value.real), repr(value.imag),
             repr(float(report.err_estimate)),
             repr(float(report.tail_estimate)),
             str(bool(report.converged)).lower(),
             str(int(report.panels_evaluated)),
             repr(kappa.real), repr(kappa.imag),
             repr(report.config.tol), str(report.config.max_depth),
             str(report.config.panel_order),
             repr(float(report.wall_time_ms))]
    return ",".join(cells)


# ---------------------------------------------------------------------------
# applicability

def _query(scene):
    n1, n2 = scene.query_pair()
    return (n1, scene.curves[n1]), (n2, scene.curves[n2])


def _constant_coeff(form):
    return poly_deg(form.num) == 0 and poly_deg(form.den) == 0


def _inapplicable(scene, method):
    """Why method cannot run on the scene's query pair, or None when it can.

    Real-curve methods apply only when the query curves carry no forms (a
    weighted pair is a holomorphic query); holomorphic methods need a form
    on each query curve, and a pole declared on either form (a marked
    point alone is not a pole) leaves holo_pv as the only holomorphic
    route. The kernel routes (holo_integral, holo_pv, holo_line and
    holo_closed) pair the curves through the standard ambient form
    dz1 ^ dz2 ^ dz3 only, so they refuse a scene that declares another;
    residue reads the declared form. holo_line, holo_closed and residue
    give the whole-curve value, so they need whole-plane query curves;
    holo_line also needs what holo.holo_line_obstacle asks of the pair (a
    line, polynomial forms, an integrand decaying faster than |u|^-2), and
    residue the ambient form and a two-surface cut containing the first
    curve. Every rule is decided here, from the scene's data:
    MethodInapplicable is a SceneError, which xcheck does not catch.
    """
    (n1, c1), (n2, c2) = _query(scene)
    f1, f2 = scene.form_for(n1), scene.form_for(n2)
    if method == "atiyah":
        if scene.atiyah is None:
            return "scene declares no projective line data"
        return None
    if method.startswith("gauss_"):
        if f1 is not None or f2 is not None:
            return "query curves carry one-forms (holomorphic query)"
        closed = c1.kind == "real_closed" and c2.kind == "real_closed"
        lines = c1.is_real_line and c2.is_real_line
        if method == "gauss_crossing" and not closed:
            return "needs two closed real curves"
        if method == "gauss_closed" and not lines:
            return "needs two real lines"
        if not (closed or lines):
            return "needs two closed real curves or two real lines"
        return None
    if c1.kind != "complex_affine" or c2.kind != "complex_affine":
        return "needs two complex curves"
    if method == "complex_link":
        return None
    if f1 is None or f2 is None:
        return "needs a one-form on each query curve"
    if (method != "residue" and scene.ambient is not None
            and not scene.ambient.is_standard):
        return "needs the standard ambient form"
    any_poles = bool(f1.poles or f2.poles)
    if method == "holo_pv":
        return None if any_poles else "no declared poles; use holo_integral"
    if any_poles:
        return "forms carry poles; use holo_pv"
    if (method in ("holo_line", "holo_closed", "residue")
            and not (c1.whole and c2.whole)):
        return "gives the whole-curve value; needs whole-plane curves"
    if method == "holo_line":
        return holo_line_obstacle((c1, f1), (c2, f2))
    if method == "holo_closed":
        if not (c1.is_line and c2.is_line):
            return "needs two complex lines"
        if not (_constant_coeff(f1) and _constant_coeff(f2)):
            return "needs constant-coefficient forms"
    if method == "residue":
        if scene.ambient is None:
            return "needs an ambient form"
        cut = scene.cut_for(n1)
        if cut is None or cut.f2 is None:
            return "needs a two-surface cut containing the first curve"
    return None


def applicable_methods(scene):
    """The cross-checkable methods this scene supports, in canonical order."""
    return [m for m in XCHECK_METHODS if _inapplicable(scene, m) is None]


# ---------------------------------------------------------------------------
# computation

def _scene_constants(scene):
    """The scene's constants, with the closed form BMContext.line_kappa in
    place of a kappa_line it leaves None."""
    consts = scene.constants or NormalizationConstants()
    if consts.kappa_line is not None:
        return consts
    return replace(consts, kappa_line=BMContext().line_kappa)


def compute(scene, method, cfg, seed=0):
    """Run one method on a scene's query pair and wrap the result."""
    if method not in METHODS:
        raise SceneInvalid("method", f"unknown method {method!r}; "
                                     f"choose from {METHODS}")
    reason = _inapplicable(scene, method)
    if reason is not None:
        raise MethodInapplicable(f"{method}: {reason}")
    (n1, c1), (n2, c2) = _query(scene)
    f1, f2 = scene.form_for(n1), scene.form_for(n2)
    ctx = BMContext()
    consts = _scene_constants(scene)
    t0 = time.perf_counter()

    value = res = None
    err = tail = 0.0
    converged = True
    panels = 0
    extra = {}

    if method == "gauss_integral":
        res = gauss_linking(c1, c2, cfg)
    elif method == "gauss_crossing":
        pl1 = Polyline3.from_curve(c1, CROSSING_SAMPLES)
        pl2 = Polyline3.from_curve(c2, CROSSING_SAMPLES)
        value = float(crossing_linking(pl1, pl2, seed=seed))
        extra = {"samples": CROSSING_SAMPLES}
    elif method == "gauss_closed":
        (p1, e1), (p2, e2) = c1.line_frame(), c2.line_frame()
        value = line_gauss_closed(e1.real, e2.real, (p2 - p1).real)
    elif method in ("holo_integral", "holo_pv"):
        res = holo_linking_integral((c1, f1), (c2, f2), ctx, cfg)
    elif method == "holo_line":
        res = holo_line((c1, f1), (c2, f2), ctx, cfg)
    elif method == "holo_closed":
        (p1, e1), (p2, e2) = c1.line_frame(), c2.line_frame()
        coeff1 = f1.num[0] / f1.den[0]
        coeff2 = f2.num[0] / f2.den[0]
        value = line_holo_closed(e1, e2, p2 - p1, coeff1, coeff2, consts)
    elif method == "residue":
        lift = lift_theta(scene.cut_for(n1), scene.ambient, f1, c1)
        value = residue_linking(lift, (c2, f2), scene.ambient)
    elif method == "complex_link":
        res = complex_linking_number(c1, c2, ctx, cfg)
    elif method == "atiyah":
        value = atiyah_p3(scene.atiyah["l"], scene.atiyah["p"])
        extra = {"reduced": [value.real, value.imag]}

    if res is not None:
        value, err, tail = res.value, res.err_estimate, res.tail_estimate
        converged, panels = res.converged, res.panels_evaluated
        extra = {"trace": dict(res.trace.to_dict(), workers=workers_from_env())}

    ms = (time.perf_counter() - t0) * 1000.0
    return Report(scene_id=scene.scene_id, method=method, value=complex(value),
                  err_estimate=float(err), tail_estimate=float(tail),
                  converged=bool(converged), panels_evaluated=int(panels),
                  constants=consts, config=cfg, wall_time_ms=ms, extra=extra)


# ---------------------------------------------------------------------------
# cross-check

@dataclass
class CrossCheck:
    scene_id: str
    verdict: str
    reports: list
    checks: list
    failures: list


def xcheck(scene, cfg, seed=0):
    """Run every applicable method and compare all pairs.

    Residue values are converted to the integral normalization through
    kappa_line, the same constant holo_closed uses (the closed form unless
    the scene's constants block gives one), before comparison. A pair
    passes when the difference is within three times the summed error and
    tail estimates (plus a machine-precision floor); any numerical failure
    is recorded and fails the check.
    """
    methods = applicable_methods(scene)
    if len(methods) < 2:
        raise MethodInapplicable(
            f"cross-check needs at least two applicable methods; scene "
            f"{scene.scene_id!r} supports {methods or 'none'}")
    consts = _scene_constants(scene)

    reports, failures = [], []
    for method in methods:
        try:
            reports.append(compute(scene, method, cfg, seed=seed))
        except NumericalError as exc:
            failures.append({"method": method,
                             "error": type(exc).__name__,
                             "message": str(exc)})

    comparable = []
    for rep in reports:
        value = rep.value
        if rep.method == "residue":
            value = value * consts.kappa_line
        comparable.append((rep.method, value, rep.err_estimate,
                           rep.tail_estimate, rep.converged))

    checks = []
    verdict_ok = not failures
    for i in range(len(comparable)):
        for j in range(i + 1, len(comparable)):
            mi, vi, ei, ti, oki = comparable[i]
            mj, vj, ej, tj, okj = comparable[j]
            diff = abs(vi - vj)
            allowed = 3.0 * (ei + ti + ej + tj) \
                + 1e-9 * max(1.0, abs(vi), abs(vj))
            ok = bool(diff <= allowed and oki and okj)
            checks.append({"methods": [mi, mj], "diff": diff,
                           "allowed": allowed, "pass": ok})
            verdict_ok = verdict_ok and ok

    return CrossCheck(scene_id=scene.scene_id,
                      verdict="PASS" if verdict_ok else "FAIL",
                      reports=reports, checks=checks, failures=failures)


def xcheck_to_dict(result):
    return {
        "scene_id": result.scene_id,
        "verdict": result.verdict,
        "methods": [r.method for r in result.reports],
        "reports": [report_to_dict(r) for r in result.reports],
        "checks": [{"methods": c["methods"],
                    "diff": float(c["diff"]),
                    "allowed": float(c["allowed"]),
                    "pass": bool(c["pass"])} for c in result.checks],
        "failures": result.failures,
    }


# ---------------------------------------------------------------------------
# calibration

def calibrate(cfg):
    """Measure the line constant on the reference line-pair scene.

    The library uses the closed form BMContext.line_kappa by default; this
    measurement checks it, and its output, pasted into a scene's constants
    block, takes precedence over it there.

    kappa_line is the holo_line value of the reference pair scenes.l0():
    the kernel integral over both whole lines, as one 2-D integral on a
    compact chart, with no truncation window and no tail (at tol 1e-6, 15
    panels, within 4e-16 of -2 pi^5). Raises CalibrationUnstable when the
    integral fails to converge. The constants record tol and the hololink
    version they were measured with; truncation_radius stays None, because
    no window is used.
    """
    scene = _scenes.l0()
    (n1, c1), (n2, c2) = _query(scene)
    res = holo_line((c1, scene.form_for(n1)), (c2, scene.form_for(n2)),
                    BMContext(), cfg)
    if not res.converged:
        raise CalibrationUnstable(
            f"reference integral did not converge within max_depth="
            f"{cfg.max_depth} (err estimate {res.err_estimate:.3e})")
    return NormalizationConstants(kappa_line=complex(res.value), tol=cfg.tol,
                                  version=__version__)
