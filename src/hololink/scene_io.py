"""Scene JSON: load, validate, save.

Layout: a UTF-8 JSON object with keys `curves`, `forms`, `ambient`,
`cuts`, `constants`, plus optional `scene_id` and `atiyah`. Complex
numbers are two-element arrays [re, im] (bare numbers are accepted on
input); three-variable polynomials are term lists
{"exponents": [i, j, k], "coeff": [re, im]} and one-variable polynomials
use single-entry exponent lists. A complex curve's domain is a plane (the
default) or a rect; an older file's disk loads as a plane, whatever its
radius. Every parse error names the JSON path of the offending field.
"""

import json
import math
import os

import numpy as np

from .errors import SceneInvalid
from .geometry import (AmbientForm, NormalizationConstants, OneForm,
                       ParamCurve, Poly3, Scene, SurfaceCut, poly_trim,
                       validate_scene)

# The largest exponent a polynomial term may carry. Generated scenes use at
# most 4; the bound stops a huge exponent from allocating a dense
# coefficient array of that length.
MAX_EXPONENT = 64


def _path(path, *keys):
    """path extended by keys: an int key is an index, a str key a field.
    The parsers pass keys down and join them only to name a rejected
    value."""
    for key in keys:
        path += f"[{key}]" if isinstance(key, int) else f".{key}"
    return path


def _is_number(value):
    """A finite JSON number: int or float, but not a bool, which Python
    counts as an int, nor the NaN and +-Infinity that json.loads accepts,
    nor an int beyond the float range."""
    if type(value) is float:
        return math.isfinite(value)
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _complex_in(value, path, *keys):
    if isinstance(value, list):
        if len(value) == 2 and _is_number(value[0]) and _is_number(value[1]):
            return complex(value[0], value[1])
    elif _is_number(value):
        return complex(value)
    raise SceneInvalid(_path(path, *keys),
                       f"expected a number or [re, im] pair, got {value!r}")


def _complex_out(value):
    value = complex(value)
    return [value.real, value.imag]


def _complex_list_in(value, path, key):
    """The optional list of complex numbers at value[key], [] when absent."""
    items = value.get(key, [])
    if not isinstance(items, list):
        raise SceneInvalid(_path(path, key), "expected a list of numbers")
    return [_complex_in(v, path, key, i) for i, v in enumerate(items)]


def _vector_in(value, path, n=3):
    if not isinstance(value, list) or len(value) != n:
        raise SceneInvalid(path, f"expected a list of {n} numbers")
    return [_complex_in(v, path, i) for i, v in enumerate(value)]


def _terms_in(value, nvars, path, *keys):
    if not isinstance(value, list) or not value:
        raise SceneInvalid(_path(path, *keys), "expected a non-empty list of terms")
    terms = []
    for i, term in enumerate(value):
        if not isinstance(term, dict):
            raise SceneInvalid(_path(path, *keys, i),
                               "expected an object with exponents and coeff")
        exps = term.get("exponents")
        # type() is int: json.loads gives a bool for true and false
        if (not isinstance(exps, list) or len(exps) != nvars
                or not all(type(e) is int and 0 <= e <= MAX_EXPONENT
                           for e in exps)):
            raise SceneInvalid(_path(path, *keys, i, "exponents"),
                               f"expected {nvars} integers in 0..{MAX_EXPONENT}")
        if "coeff" not in term:
            raise SceneInvalid(_path(path, *keys, i, "coeff"), "missing coefficient")
        terms.append((tuple(exps),
                       _complex_in(term["coeff"], path, *keys, i, "coeff")))
    return terms


def _poly3_in(value, path, *keys):
    return Poly3.from_terms(_terms_in(value, 3, path, *keys))


def _poly1_in(value, path, *keys):
    terms = _terms_in(value, 1, path, *keys)
    deg = max(e[0] for e, _ in terms)
    coeffs = np.zeros(deg + 1, dtype=complex)
    for (k,), c in terms:
        coeffs[k] += c
    return coeffs


def _poly3_out(poly):
    return [{"exponents": [int(e) for e in exps], "coeff": _complex_out(c)}
            for exps, c in zip(poly.exponents, poly.coeffs)]


def _poly1_out(coeffs):
    coeffs = poly_trim(np.asarray(coeffs, dtype=complex))
    return [{"exponents": [k], "coeff": _complex_out(c)}
            for k, c in enumerate(coeffs) if c != 0 or k == 0]


def _domain_in(value, path):
    if not isinstance(value, dict) or "type" not in value:
        raise SceneInvalid(path, "expected an object with a type field")
    kind = value["type"]
    if kind in ("circle", "plane"):
        return (kind,)
    if kind == "disk":  # a plane's older name: its radius is checked, not kept
        radius = value.get("radius")
        if not _is_number(radius) or radius <= 0:
            raise SceneInvalid(path + ".radius", "expected a positive number")
        return ("plane",)
    if kind == "rect":
        re = value.get("re")
        im = value.get("im")
        for key, pair in (("re", re), ("im", im)):
            if (not isinstance(pair, list) or len(pair) != 2
                    or not all(_is_number(v) for v in pair)
                    or not pair[0] < pair[1]):
                raise SceneInvalid(f"{path}.{key}",
                                   "expected [lo, hi] with lo < hi")
        return ("rect", float(re[0]), float(re[1]), float(im[0]), float(im[1]))
    raise SceneInvalid(path + ".type", f"unknown domain type {kind!r}")


def _domain_out(domain):
    if domain[0] in ("circle", "plane"):
        return {"type": domain[0]}
    return {"type": "rect", "re": [domain[1], domain[2]],
            "im": [domain[3], domain[4]]}


def _real_rows_in(value, path, allow_empty=False):
    if value is None and allow_empty:
        return []
    if not isinstance(value, list):
        raise SceneInvalid(path, "expected a list of 3-vectors")
    rows = []
    for i, row in enumerate(value):
        vec = _vector_in(row, f"{path}[{i}]")
        for j, v in enumerate(vec):
            if v.imag != 0.0:
                raise SceneInvalid(f"{path}[{i}][{j}]",
                                   "real_closed maps take real coefficients")
        rows.append([v.real for v in vec])
    return rows


def _curve_in(name, value, path):
    if not isinstance(value, dict):
        raise SceneInvalid(path, "expected a curve object")
    kind = value.get("kind")
    marked = _complex_list_in(value, path, "marked_points")
    mp = value.get("map")
    if not isinstance(mp, dict):
        raise SceneInvalid(path + ".map", "expected a map object")
    if kind == "real_closed":
        const = value.get("map", {}).get("const", [0.0, 0.0, 0.0])
        const_vec = [v.real for v in _vector_in(const, path + ".map.const")]
        cos_rows = _real_rows_in(mp.get("cos"), path + ".map.cos", allow_empty=True)
        sin_rows = _real_rows_in(mp.get("sin"), path + ".map.sin", allow_empty=True)
        if not cos_rows and not sin_rows:
            raise SceneInvalid(path + ".map", "real_closed map needs cos or sin rows")
        marked_real = [p.real for p in marked]
        return ParamCurve.real_closed(const_vec, cos_rows, sin_rows,
                                      marked_points=marked_real)
    if kind == "complex_affine":
        comps = mp.get("components")
        if not isinstance(comps, list) or len(comps) != 3:
            raise SceneInvalid(path + ".map.components",
                               "expected three polynomial components")
        components = tuple(_poly1_in(c, path, "map", "components", i)
                           for i, c in enumerate(comps))
        domain = _domain_in(value.get("domain", {"type": "plane"}),
                            path + ".domain")
        if domain[0] == "circle":
            raise SceneInvalid(path + ".domain.type",
                               "complex_affine curves need a plane or rect domain")
        return ParamCurve.complex_affine(components, domain=domain,
                                         marked_points=marked)
    raise SceneInvalid(path + ".kind", f"unknown curve kind {kind!r}")


def _curve_out(curve):
    out = {"kind": curve.kind}
    if curve.kind == "real_closed":
        out["map"] = {"const": [float(v) for v in curve.const],
                      "cos": [[float(v) for v in row] for row in curve.cos_rows],
                      "sin": [[float(v) for v in row] for row in curve.sin_rows]}
        out["domain"] = {"type": "circle"}
        out["marked_points"] = [float(np.real(p)) for p in curve.marked_points]
    else:
        out["map"] = {"components": [_poly1_out(c) for c in curve.components]}
        out["domain"] = _domain_out(curve.domain)
        out["marked_points"] = [_complex_out(p) for p in curve.marked_points]
    return out


def _form_in(value, path, curves):
    if not isinstance(value, dict):
        raise SceneInvalid(path, "expected a form object")
    curve = value.get("curve")
    if not isinstance(curve, str) or curve not in curves:
        raise SceneInvalid(path + ".curve", f"unknown curve {curve!r}")
    coeff = value.get("coeff")
    if not isinstance(coeff, dict) or "numerator" not in coeff:
        raise SceneInvalid(path + ".coeff", "expected numerator (and optional denominator)")
    num = _poly1_in(coeff["numerator"], path, "coeff", "numerator")
    if "denominator" in coeff:
        den = _poly1_in(coeff["denominator"], path, "coeff", "denominator")
    else:
        den = np.ones(1, dtype=complex)
    return OneForm(curve, num, den, tuple(_complex_list_in(value, path, "poles")))


def _form_out(form):
    out = {"curve": form.curve,
           "coeff": {"numerator": _poly1_out(form.num)}}
    if not (form.den.size == 1 and form.den[0] == 1.0):
        out["coeff"]["denominator"] = _poly1_out(form.den)
    out["poles"] = [_complex_out(p) for p in form.poles]
    return out


def _ambient_in(value, path):
    if not isinstance(value, dict) or "numerator" not in value:
        raise SceneInvalid(path, "expected numerator (and optional denominator)")
    num = _poly3_in(value["numerator"], path, "numerator")
    if "denominator" in value:
        den = _poly3_in(value["denominator"], path, "denominator")
    else:
        den = Poly3.constant(1.0)
    return AmbientForm(num, den)


def _ambient_out(ambient):
    out = {"numerator": _poly3_out(ambient.num)}
    if not (ambient.den.coeffs.size == 1
            and ambient.den.coeffs[0] == 1.0
            and not ambient.den.exponents.any()):
        out["denominator"] = _poly3_out(ambient.den)
    return out


def _cut_in(value, path, curves):
    if not isinstance(value, dict):
        raise SceneInvalid(path, "expected a cut object")
    if "F1" not in value:
        raise SceneInvalid(path + ".F1", "missing cut polynomial")
    f1 = _poly3_in(value["F1"], path, "F1")
    f2 = _poly3_in(value["F2"], path, "F2") if "F2" in value else None
    contains = value.get("contains_curve")
    if not isinstance(contains, str) or contains not in curves:
        raise SceneInvalid(path + ".contains_curve", f"unknown curve {contains!r}")
    return SurfaceCut(f1, f2, contains)


def _cut_out(cut):
    out = {"F1": _poly3_out(cut.f1)}
    if cut.f2 is not None:
        out["F2"] = _poly3_out(cut.f2)
    out["contains_curve"] = cut.contains_curve
    return out


def _constants_in(value, path):
    if not isinstance(value, dict):
        raise SceneInvalid(path, "expected a constants object")
    for key in value:
        if key not in ("kappa_line",) + NormalizationConstants._PROVENANCE:
            raise SceneInvalid(f"{path}.{key}", "unknown field; a constants "
                               "block holds kappa_line, tol, "
                               "truncation_radius and version")
    out = {}
    if value.get("kappa_line") is not None:
        out["kappa_line"] = _complex_out(_complex_in(value["kappa_line"],
                                                     path, "kappa_line"))
    for key in ("tol", "truncation_radius"):
        if value.get(key) is not None:
            if not _is_number(value[key]):
                raise SceneInvalid(f"{path}.{key}", "expected a number")
            out[key] = float(value[key])
    if value.get("version") is not None:
        if not isinstance(value["version"], str):
            raise SceneInvalid(path + ".version", "expected a string")
        out["version"] = value["version"]
    return NormalizationConstants.from_dict(out)


def _atiyah_in(value, path):
    if not isinstance(value, dict):
        raise SceneInvalid(path, "expected an object with l and p arrays")
    out = {}
    for key in ("l", "p"):
        rows = value.get(key)
        if not isinstance(rows, list) or len(rows) != 4:
            raise SceneInvalid(f"{path}.{key}", "expected four linear forms")
        out[key] = np.array(
            [_vector_in(r, f"{path}.{key}[{i}]", n=4) for i, r in enumerate(rows)],
            dtype=complex)
    return out


def _atiyah_out(atiyah):
    return {key: [[_complex_out(v) for v in row] for row in np.asarray(rows)]
            for key, rows in atiyah.items()}


def _named_in(data, key):
    """The optional object of named entries at data[key], {} when absent."""
    value = data.get(key, {})
    if not isinstance(value, dict):
        raise SceneInvalid(key, f"expected an object of named {key}")
    return value


def loads_scene(text, scene_id="scene"):
    """Parse and validate a scene from a JSON string."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SceneInvalid("$", f"not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise SceneInvalid("$", "top level must be an object")
    if "curves" not in data or not isinstance(data["curves"], dict) or not data["curves"]:
        raise SceneInvalid("curves", "expected a non-empty object of curves")

    curves = {}
    for name, cdef in data["curves"].items():
        curves[name] = _curve_in(name, cdef, f"curves.{name}")

    forms = {}
    for name, fdef in _named_in(data, "forms").items():
        forms[name] = _form_in(fdef, f"forms.{name}", curves)

    ambient = None
    if data.get("ambient") is not None:
        ambient = _ambient_in(data["ambient"], "ambient")

    cuts = {}
    for name, cdef in _named_in(data, "cuts").items():
        cuts[name] = _cut_in(cdef, f"cuts.{name}", curves)

    constants = None
    if data.get("constants") is not None:
        constants = _constants_in(data["constants"], "constants")

    atiyah = None
    if data.get("atiyah") is not None:
        atiyah = _atiyah_in(data["atiyah"], "atiyah")

    scene = Scene(curves=curves, forms=forms, ambient=ambient, cuts=cuts,
                  constants=constants, atiyah=atiyah,
                  scene_id=str(data.get("scene_id", scene_id)))
    return validate_scene(scene)


def load_scene(path):
    """Load and validate a scene from a JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise SceneInvalid("$", f"cannot read {path}: {exc}") from exc
    default_id = os.path.splitext(os.path.basename(str(path)))[0]
    return loads_scene(text, scene_id=default_id)


def scene_to_dict(scene):
    out = {"scene_id": scene.scene_id,
           "curves": {name: _curve_out(c) for name, c in scene.curves.items()}}
    if scene.forms:
        out["forms"] = {name: _form_out(f) for name, f in scene.forms.items()}
    if scene.ambient is not None:
        out["ambient"] = _ambient_out(scene.ambient)
    if scene.cuts:
        out["cuts"] = {name: _cut_out(c) for name, c in scene.cuts.items()}
    if scene.constants is not None:
        out["constants"] = scene.constants.to_dict()
    if scene.atiyah is not None:
        out["atiyah"] = _atiyah_out(scene.atiyah)
    return out


def dumps_scene(scene):
    """Serialize a scene to one line of JSON (round-trips through
    loads_scene). No indent, so json's C encoder writes it."""
    return json.dumps(scene_to_dict(scene))


def save_scene(scene, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_scene(scene))
        fh.write("\n")
