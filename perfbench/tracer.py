"""Per-layer tracing from outside the library.

`Tracer.install` wraps library functions at the names their callers look
them up (for example `holo.integrate_pv`, `_kernels.bm_grid` or
`ParamCurve.eval_batch`); nothing under `src/` changes. Each call becomes a
span (name, start, end, parent span, query id) kept in memory, with the
counters its arguments and result give (panels, pairs, points, computed
bytes). `summarize` turns spans into per-layer metrics afterwards.

A span's layer is the first part of its name, and layers are named after
modules; `kernels` is the `_kernels` module (a metric name may not start
with `_`). A layer's `.s` counts only its outermost spans, so nested calls
of one layer are not counted twice; `.self_s` subtracts the time covered by
direct child spans.
"""

from collections import defaultdict
import functools
import gzip
import json
import time
import warnings

import numpy as np


class Span:
    __slots__ = ("index", "name", "start", "end", "parent", "query", "info")

    def __init__(self, index, name, parent, query):
        self.index = index
        self.name = name
        self.parent = parent
        self.query = query
        self.start = self.end = None
        self.info = None

    @property
    def layer(self):
        return self.name.split(".", 1)[0]

    @property
    def duration(self):
        return self.end - self.start


def _panels(args, result):
    tail = float(result.tail_estimate)
    size = abs(complex(result.value))
    return {"panels": int(result.panels_evaluated),
            "unconverged": int(not result.converged),
            "tail_rel": tail / size if size > 0 else 0.0}


def _grid(args, result):
    a, b = args[0], args[2]
    return {"pairs": a.shape[0] * b.shape[0],
            "bytes": sum(x.nbytes for x in args[:4]) + np.asarray(result).nbytes}


def _points(args, result):
    return {"points": int(np.size(args[1]))}


def targets(hl):
    """(owner, attribute, span name, counter) for every traced call site."""
    holo, gauss, quad, kern = hl.holo, hl.gauss, hl.quadrature, hl._kernels
    report, residue, geometry = hl.report, hl.residue, hl.geometry
    return [
        (holo, "integrate_pv", "quadrature.integrate_pv", _panels),
        (quad, "integrate_product", "quadrature.integrate_product", _panels),
        (quad, "integrate_curve", "quadrature.integrate_curve", _panels),
        (gauss, "integrate_product", "quadrature.integrate_product", _panels),
        (kern, "bm_grid", "kernels.bm_grid", _grid),
        (kern, "gauss_grid", "kernels.gauss_grid", _grid),
        (kern, "crossing_sum", "kernels.crossing_sum", _grid),
        (kern, "min_dist", "kernels.min_dist", None),
        (geometry.ParamCurve, "eval_batch", "geometry.eval_batch", _points),
        (geometry.OneForm, "coeff_batch", "geometry.coeff_batch", None),
        (geometry, "validate_scene", "geometry.validate_scene", None),
        (hl.scenes, "validate_scene", "geometry.validate_scene", None),
        (hl.scene_io, "validate_scene", "geometry.validate_scene", None),
        (hl.scene_io, "loads_scene", "scene_io.loads_scene", None),
        (hl.scene_io, "dumps_scene", "scene_io.dumps_scene", None),
        (gauss.Polyline3, "from_curve", "gauss.Polyline3.from_curve", None),
        (report, "crossing_linking", "gauss.crossing_linking", None),
        (report, "gauss_linking", "gauss.gauss_linking", None),
        (report, "holo_linking_integral", "holo.holo_linking_integral", None),
        (report, "lift_theta", "residue.lift_theta", None),
        (report, "residue_linking", "residue.residue_linking", None),
        (residue, "curve_surface_intersections",
         "residue.curve_surface_intersections", None),
        (report, "calibrate", "report.calibrate", None),
        (report, "xcheck", "report.xcheck", None),
        (report, "compute", "report.compute", None),
    ]


class Tracer:
    """Spans and warning counts of one traced run, kept in memory."""

    def __init__(self):
        self.spans = []
        self.warnings = []          # (query, layer) per RuntimeWarning
        self.query = None
        self._stack = []
        self._patches = []
        self._warning_ctx = None
        self._shown = set()
        self._showwarning = None

    # -- spans -------------------------------------------------------------

    def _open(self, name):
        span = Span(len(self.spans), name,
                    self._stack[-1] if self._stack else None, self.query)
        self.spans.append(span)
        self._stack.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span):
        span.end = time.perf_counter()
        self._stack.pop()

    def wrap(self, owner, attr, name, counter=None):
        raw = owner.__dict__[attr]
        is_classmethod = isinstance(raw, classmethod)
        func = raw.__func__ if is_classmethod else raw

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                self._close(span)
            if counter is not None:
                span.info = counter(args[1:] if is_classmethod else args,
                                    result)
            return result

        setattr(owner, attr, classmethod(traced) if is_classmethod else traced)
        self._patches.append((owner, attr, raw))

    # -- warnings ----------------------------------------------------------

    def _on_warning(self, message, category, filename, lineno, file=None,
                    line=None):
        if issubclass(category, RuntimeWarning):
            layer = self._stack[-1].layer if self._stack else "benchmark"
            self.warnings.append((self.query, layer))
            if (layer, str(message)) in self._shown:
                return
            self._shown.add((layer, str(message)))
        self._showwarning(message, category, filename, lineno, file, line)

    # -- lifetime ----------------------------------------------------------

    def install(self, hl):
        """Wrap every target and count each RuntimeWarning; numpy's error
        state is left as it is, so warnings still fire."""
        for owner, attr, name, counter in targets(hl):
            self.wrap(owner, attr, name, counter)
        self._warning_ctx = warnings.catch_warnings()
        self._warning_ctx.__enter__()
        warnings.simplefilter("always", RuntimeWarning)
        self._showwarning = warnings.showwarning
        warnings.showwarning = self._on_warning

    def uninstall(self):
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches = []
        if self._warning_ctx is not None:
            self._warning_ctx.__exit__(None, None, None)
            self._warning_ctx = None

    def write(self, path):
        """All spans as gzip'd JSON lines: index, name, start, end, parent,
        query, counters."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps([s.index, s.name, s.start, s.end,
                                     None if s.parent is None else s.parent.index,
                                     s.query, s.info]) + "\n")


# ---------------------------------------------------------------------------
# span arithmetic

def _outermost(span, key):
    """True when no ancestor of span shares key(span)."""
    mine = key(span)
    parent = span.parent
    while parent is not None:
        if key(parent) == mine:
            return False
        parent = parent.parent
    return True


def summarize(spans, warnings_seen=(), queries=None):
    """Totals per span name and per layer over the spans of the given
    query ids (all spans when queries is None).

    Per name: s, calls and the counters. Per layer: s, self_s, calls
    (outermost spans only), and,
    for quadrature, panels, unconverged, tail_rel_max and children_s (time
    of direct child spans of other layers) with children_layers.
    """
    chosen = [s for s in spans if queries is None or s.query in queries]
    child_time = defaultdict(float)
    for s in chosen:
        if s.parent is not None:
            child_time[s.parent.index] += s.duration
    out = defaultdict(float)
    children_layers = set()
    tail_rel_max = 0.0
    for s in chosen:
        name, layer = s.name, s.layer
        out[name + ".calls"] += 1
        for key, value in (s.info or {}).items():
            if key != "tail_rel":
                out[f"{name}.{key}"] += value
        if _outermost(s, lambda x: x.name):
            out[name + ".s"] += s.duration
        out[layer + ".self_s"] += s.duration - child_time[s.index]
        if _outermost(s, lambda x: x.layer):
            out[layer + ".calls"] += 1
            out[layer + ".s"] += s.duration
            if s.info and "panels" in s.info:
                out[layer + ".panels"] += s.info["panels"]
                out[layer + ".unconverged"] += s.info["unconverged"]
                tail_rel_max = max(tail_rel_max, s.info["tail_rel"])
        if s.parent is not None and s.parent.layer == "quadrature" \
                and layer != "quadrature":
            out["quadrature.children_s"] += s.duration
            children_layers.add(layer)
    out["quadrature.tail_rel_max"] = tail_rel_max
    for query, layer in warnings_seen:
        if queries is None or query in queries:
            out[layer + ".runtime_warnings"] += 1
    result = dict(out)
    result["quadrature.children_layers"] = sorted(children_layers)
    return result
