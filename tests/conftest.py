import numpy as np
import pytest

import hololink as hl


@pytest.fixture(scope="session")
def constants():
    """Calibrated line constants, measured once per session."""
    return hl.calibrate(hl.QuadConfig(tol=1e-6))


@pytest.fixture()
def cfg():
    return hl.QuadConfig()


@pytest.fixture()
def fast_cfg():
    return hl.QuadConfig(tol=1e-4)


@pytest.fixture()
def rng():
    return np.random.default_rng(20260816)


def _tangent_cut_scene(delta):
    def curve(*components):
        return hl.ParamCurve.complex_affine(
            tuple(np.array(c, dtype=complex) for c in components))

    def poly(*terms):
        return hl.Poly3.from_terms(terms)

    return hl.validate_scene(hl.Scene(
        scene_id=f"tangent_cut_{delta:g}",
        curves={"c1": curve([0, 1], [0, 0, 0.3], [0]),
                "c2": curve([0, 1], [delta], [1, 0.2])},
        forms={"theta1": hl.OneForm("c1", np.array([1.0])),
               "theta2": hl.OneForm("c2", np.array([1.0]))},
        ambient=hl.AmbientForm.standard(),
        cuts={"cut1": hl.SurfaceCut(poly(((0, 1, 0), 1.0), ((2, 0, 0), -0.3)),
                                    poly(((0, 0, 1), 1.0)), "c1")},
        constants=hl.NormalizationConstants()))


@pytest.fixture()
def tangent_cut_scene():
    """Builder of the pair c1 = (t, 0.3 t^2, 0), cut by z2 - 0.3 z1^2 and
    z3, and c2 = (s, delta, 1 + 0.2 s), unit forms, both whole planes:
    the cut surface touches c2 at delta = 0, where f1(c2) = delta - 0.3 s^2
    has a double root."""
    return _tangent_cut_scene
