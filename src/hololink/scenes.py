"""Built-in scenes and randomized scene generators.

Builtins cover the reference configurations every route is tested
against: the two standard skew lines (real and complex readings), the
linked and unlinked circle pairs, a principal-value variant with simple
poles, and the projective two-line residue example. Generators produce
seeded random line scenes (for cross-method consistency at scale) and
random polynomial-curve scenes (for symmetry/bilinearity checks on
compact domains).
"""

import numpy as np

from .errors import SceneInvalid
from .geometry import (AmbientForm, NormalizationConstants, OneForm,
                       ParamCurve, Poly3, Scene, SurfaceCut, det3,
                       validate_scene)

_Z = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def coordinate_poly(axis, shift=0.0):
    """The polynomial z_axis - shift."""
    terms = [(_Z[axis], 1.0)]
    if shift != 0.0:
        terms.append(((0, 0, 0), -shift))
    return Poly3.from_terms(terms)


def linear_poly(normal, point):
    """The affine-linear polynomial normal . (z - point)."""
    normal = np.asarray(normal, dtype=complex)
    point = np.asarray(point, dtype=complex)
    terms = [(_Z[i], normal[i]) for i in range(3) if normal[i] != 0.0]
    const = -complex(normal @ point)
    if const != 0.0 or not terms:
        terms.append(((0, 0, 0), const))
    return Poly3.from_terms(terms)


def _const_form(curve_name, value=1.0):
    return OneForm(curve_name, np.array([value], dtype=complex))


def _line_pair():
    c1 = ParamCurve.line((0, 0, 0), (1, 0, 0))
    c2 = ParamCurve.line((0, 0, 1), (0, 1, 0))
    return c1, c2


def l0():
    """The reference line pair (s,0,0) / (0,t,1) with unit constant forms,
    the standard volume form, and the coordinate-plane cut of the first
    line. Calibration measures every route-relative constant here."""
    c1, c2 = _line_pair()
    return validate_scene(Scene(
        scene_id="L0",
        curves={"c1": c1, "c2": c2},
        forms={"theta1": _const_form("c1"), "theta2": _const_form("c2")},
        ambient=AmbientForm.standard(),
        cuts={"cut1": SurfaceCut(coordinate_poly(1), coordinate_poly(2), "c1")},
        constants=NormalizationConstants()))


def skew_lines():
    """The same two lines read as real curves (no forms), for the real
    Gauss integral and the sign closed form: linking +1/2."""
    c1, c2 = _line_pair()
    return validate_scene(Scene(
        scene_id="skew_lines",
        curves={"c1": c1, "c2": c2},
        constants=NormalizationConstants()))


def hopf():
    """Geometrically linked circle pair: the unit circle in the xy-plane
    and a unit circle in the xz-plane through its center. Linking +1."""
    c1 = ParamCurve.real_closed((0, 0, 0), [[1, 0, 0]], [[0, 1, 0]])
    c2 = ParamCurve.real_closed((1, 0, 0), [[1, 0, 0]], [[0, 0, 1]])
    return validate_scene(Scene(
        scene_id="hopf",
        curves={"c1": c1, "c2": c2},
        constants=NormalizationConstants()))


def split():
    """Two coplanar far-apart circles: linking 0."""
    c1 = ParamCurve.real_closed((0, 0, 0), [[1, 0, 0]], [[0, 1, 0]])
    c2 = ParamCurve.real_closed((4, 0, 0), [[1, 0, 0]], [[0, 1, 0]])
    return validate_scene(Scene(
        scene_id="split",
        curves={"c1": c1, "c2": c2},
        constants=NormalizationConstants()))


def close_pair(offset=1e-7):
    """Two circles a hair apart — an ill-posed query that must surface as
    CurvesTooClose, not as a silent wrong number."""
    c1 = ParamCurve.real_closed((0, 0, 0), [[1, 0, 0]], [[0, 1, 0]])
    c2 = ParamCurve.real_closed((offset, 0, 0), [[1, 0, 0]], [[0, 1, 0]])
    return validate_scene(Scene(
        scene_id="close_pair",
        curves={"c1": c1, "c2": c2},
        constants=NormalizationConstants()))


PV_POLE_1 = 0.3 + 0.2j
PV_POLE_2 = -0.1 + 0.4j


def pv_lines(pole_order=1):
    """The reference line pair with rational forms carrying one declared
    simple pole each (pole_order=2 builds the non-convergent double-pole
    variant used to exercise the principal-value failure path)."""
    c1 = ParamCurve.line((0, 0, 0), (1, 0, 0), marked_points=(PV_POLE_1,))
    c2 = ParamCurve.line((0, 0, 1), (0, 1, 0), marked_points=(PV_POLE_2,))
    den1 = np.array([-PV_POLE_1, 1.0], dtype=complex)
    den2 = np.array([-PV_POLE_2, 1.0], dtype=complex)
    if pole_order == 2:
        den1 = np.convolve(den1, den1)
    forms = {"theta1": OneForm("c1", np.array([1.0 + 0j]), den1, (PV_POLE_1,)),
             "theta2": OneForm("c2", np.array([1.0 + 0j]), den2, (PV_POLE_2,))}
    return validate_scene(Scene(
        scene_id="pv_lines" if pole_order == 1 else "pv_lines_double",
        curves={"c1": c1, "c2": c2},
        forms=forms,
        ambient=AmbientForm.standard(),
        constants=NormalizationConstants()))


ATIYAH_L = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
ATIYAH_P = ((1, 0, 2, 0), (0, 1, 0, 3), (1, 0, 0, -1), (0, 1, -1, 0))


def atiyah_lines():
    """The projective two-line residue example: coordinate-plane lines
    with the reference general-position hyperplanes."""
    c1, c2 = _line_pair()
    return validate_scene(Scene(
        scene_id="atiyah_lines",
        curves={"c1": c1, "c2": c2},
        ambient=AmbientForm.standard(),
        constants=NormalizationConstants(),
        atiyah={"l": np.array(ATIYAH_L, dtype=complex),
                "p": np.array(ATIYAH_P, dtype=complex)}))


BUILTIN_SCENES = {
    "L0": l0,
    "skew_lines": skew_lines,
    "hopf": hopf,
    "split": split,
    "close_pair": close_pair,
    "pv_lines": pv_lines,
    "pv_lines_double": lambda: pv_lines(pole_order=2),
    "atiyah_lines": atiyah_lines,
}


def builtin(name):
    if name not in BUILTIN_SCENES:
        raise KeyError(f"unknown builtin scene {name!r}; "
                       f"choose from {sorted(BUILTIN_SCENES)}")
    return BUILTIN_SCENES[name]()


# ---------------------------------------------------------------------------
# randomized generators

def _unit_complex_vector(rng):
    v = rng.normal(size=3) + 1j * rng.normal(size=3)
    return v / np.linalg.norm(v)


def random_line_scene(seed):
    """Random disjoint complex line pair with constant forms and a cut of
    the first line: exercises the integral, closed-form, and residue
    routes on the same data."""
    rng = np.random.default_rng(seed)
    for _ in range(64):
        e1 = _unit_complex_vector(rng)
        e2 = _unit_complex_vector(rng)
        e3 = (rng.uniform(0.8, 2.0) * _unit_complex_vector(rng))
        # the lines' distance is |det3| / |e1 x e2| >= |det3| for unit e1
        # and e2, so this test also keeps them at least 0.15 apart
        if abs(complex(det3(e1, e2, e3))) < 0.15:
            continue
        p1 = 0.3 * _unit_complex_vector(rng)
        p2 = p1 + e3
        c1 = rng.uniform(0.5, 1.5) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        c2 = rng.uniform(0.5, 1.5) * np.exp(1j * rng.uniform(0, 2 * np.pi))

        # two independent linear forms vanishing on line 1
        probe = np.eye(3, dtype=complex)[int(np.argmin(np.abs(e1)))]
        a1 = np.cross(e1, probe)
        a1 = a1 / np.linalg.norm(a1)
        a2 = np.cross(e1, a1)
        a2 = a2 / np.linalg.norm(a2)

        return validate_scene(Scene(
            scene_id=f"random_line_{seed}",
            curves={"c1": ParamCurve.line(p1, e1),
                    "c2": ParamCurve.line(p2, e2)},
            forms={"theta1": _const_form("c1", c1), "theta2": _const_form("c2", c2)},
            ambient=AmbientForm.standard(),
            cuts={"cut1": SurfaceCut(linear_poly(a1, p1), linear_poly(a2, p1), "c1")},
            constants=NormalizationConstants()))
    raise RuntimeError(f"no valid random line scene for seed {seed}")


def random_polynomial_scene(seed, degree=2):
    """Random disjoint polynomial-curve pair on compact rectangle domains
    with polynomial forms: the symmetry/bilinearity workload."""
    rng = np.random.default_rng(seed)
    domain = ("rect", -1.0, 1.0, -1.0, 1.0)
    for _ in range(64):
        def rand_components(offset):
            comps = []
            for axis in range(3):
                c = 0.35 * (rng.normal(size=degree + 1)
                            + 1j * rng.normal(size=degree + 1))
                c[1] += 0.8  # keep the velocity clear of zero
                c[0] += offset[axis]
                comps.append(c)
            return tuple(comps)

        curve1 = ParamCurve.complex_affine(rand_components((0, 0, 0)), domain=domain)
        curve2 = ParamCurve.complex_affine(rand_components((6, 1, 0)), domain=domain)
        th1 = OneForm("c1", 0.5 * (rng.normal(size=2) + 1j * rng.normal(size=2))
                      + np.array([1.0, 0.0]))
        th2 = OneForm("c2", 0.5 * (rng.normal(size=2) + 1j * rng.normal(size=2))
                      + np.array([1.0, 0.0]))
        scene = Scene(
            scene_id=f"random_poly_{seed}",
            curves={"c1": curve1, "c2": curve2},
            forms={"theta1": th1, "theta2": th2},
            ambient=AmbientForm.standard(),
            constants=NormalizationConstants())
        try:
            return validate_scene(scene)
        except SceneInvalid:
            continue
    raise RuntimeError(f"no valid random polynomial scene for seed {seed}")


def torus_polyline_pair(n=512, wraps=2, phase=0.5):
    """Vertices of two interleaved (1, wraps)-torus curves on the same
    torus — a closed pair with linking number +wraps under the library
    orientation; used by the crossing-count tests."""
    t = np.linspace(0.0, 1.0, n, endpoint=False)

    def curve(ph):
        ang = 2 * np.pi * (wraps * t + ph)
        rad = 2.0 + 0.5 * np.cos(ang)
        return np.stack([rad * np.cos(2 * np.pi * t),
                         rad * np.sin(2 * np.pi * t),
                         0.5 * np.sin(ang)], axis=-1)

    return curve(0.0), curve(phase)
