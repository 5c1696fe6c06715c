import json
import math
from pathlib import Path

import numpy as np
import pytest

import hololink as hl
from hololink import scenes
from hololink.errors import SceneInvalid


ALL_BUILTINS = sorted(scenes.BUILTIN_SCENES)


@pytest.mark.parametrize("name", ALL_BUILTINS)
def test_round_trip_builtins(name):
    scene = scenes.builtin(name)
    text = hl.dumps_scene(scene)
    back = hl.loads_scene(text, scene_id=scene.scene_id)
    assert hl.dumps_scene(back) == text


@pytest.mark.parametrize("seed", [1, 7, 42])
def test_round_trip_generated_scenes(seed):
    for scene in (scenes.random_line_scene(seed),
                  scenes.random_polynomial_scene(seed)):
        text = hl.dumps_scene(scene)
        back = hl.loads_scene(text, scene_id=scene.scene_id)
        assert hl.dumps_scene(back) == text


def test_round_trip_preserves_values():
    scene = scenes.pv_lines()
    back = hl.loads_scene(hl.dumps_scene(scene), scene_id=scene.scene_id)
    c1, c2 = back.curves["c1"], back.curves["c2"]
    assert c1.marked_points == (scenes.PV_POLE_1,)
    assert c2.marked_points == (scenes.PV_POLE_2,)
    th1 = back.forms["theta1"]
    assert th1.poles == (scenes.PV_POLE_1,)
    assert np.allclose(th1.den, [-scenes.PV_POLE_1, 1.0])
    params = np.array([0.7 + 0.2j, -1.0, 2.5j])
    orig = scene.forms["theta1"].coeff_batch(params)
    assert np.allclose(th1.coeff_batch(params), orig, rtol=1e-15)


def test_file_round_trip(tmp_path):
    scene = scenes.l0()
    path = tmp_path / "reference_pair.json"
    hl.save_scene(scene, path)
    back = hl.load_scene(path)
    assert back.scene_id == "L0"  # the embedded id wins over the filename
    assert list(back.curves) == ["c1", "c2"]
    assert back.cuts["cut1"].contains_curve == "c1"

    data = json.loads(path.read_text())
    del data["scene_id"]
    path.write_text(json.dumps(data))
    assert hl.load_scene(path).scene_id == "reference_pair"  # fallback


def test_load_missing_file_is_scene_error(tmp_path):
    with pytest.raises(SceneInvalid):
        hl.load_scene(tmp_path / "nope.json")


def test_malformed_json_reports_root_path():
    with pytest.raises(SceneInvalid) as exc:
        hl.loads_scene("{not json", scene_id="x")
    assert exc.value.path == "$"


def _base_dict():
    return json.loads(hl.dumps_scene(scenes.l0()))


def _expect_path(data, fragment):
    with pytest.raises(SceneInvalid) as exc:
        hl.loads_scene(json.dumps(data), scene_id="x")
    assert fragment in exc.value.path, exc.value


def test_missing_curves_rejected():
    _expect_path({"forms": {}}, "curves")


def test_unknown_curve_kind_rejected():
    data = _base_dict()
    data["curves"]["c1"]["kind"] = "mystery"
    _expect_path(data, "curves.c1")


def test_form_with_unknown_curve_rejected():
    data = _base_dict()
    data["forms"]["theta1"]["curve"] = "ghost"
    _expect_path(data, "forms.theta1")


def test_real_curve_with_imaginary_rows_rejected():
    data = json.loads(hl.dumps_scene(scenes.hopf()))
    data["curves"]["c1"]["map"]["cos"][0][0] = [1.0, 0.5]
    _expect_path(data, "curves.c1")


def test_circle_domain_on_complex_curve_rejected():
    data = _base_dict()
    data["curves"]["c1"]["domain"] = {"type": "circle"}
    _expect_path(data, "curves.c1.domain")


@pytest.mark.parametrize("radius", [0, 0.0, -1.0])
def test_nonpositive_disk_radius_rejected(radius):
    # the window is positive: the scene is the only place it is set
    data = _base_dict()
    data["curves"]["c1"]["domain"]["radius"] = radius
    _expect_path(data, "curves.c1.domain.radius")


@pytest.mark.parametrize("keys, value, path", [
    (("curves", "c1", "domain", "radius"), True, "curves.c1.domain.radius"),
    (("curves", "c1", "domain"), {"type": "rect", "re": [False, True],
                                  "im": [-1.0, 1.0]}, "curves.c1.domain.re"),
    (("forms", "theta1", "coeff", "numerator", 0, "coeff"), True,
     "forms.theta1.coeff.numerator[0].coeff"),
    (("forms", "theta1", "coeff", "numerator", 0, "coeff"), [True, 0.0],
     "forms.theta1.coeff.numerator[0].coeff"),
    (("ambient", "numerator", 0, "exponents"), [False, False, False],
     "ambient.numerator[0].exponents"),
    (("constants", "truncation_radius"), True, "constants.truncation_radius"),
    (("constants", "kappa_line"), True, "constants.kappa_line"),
    (("constants", "tol"), True, "constants.tol"),
])
def test_booleans_are_not_numbers(keys, value, path):
    # JSON true and false are Python bools, which isinstance counts as ints
    _expect_rejected_at(keys, value, path)


def _expect_rejected_at(keys, value, path):
    """L0's JSON with the field at keys set to value fails at exactly path."""
    data = _base_dict()
    target = data
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = value
    with pytest.raises(SceneInvalid) as exc:
        hl.loads_scene(json.dumps(data), scene_id="x")
    assert exc.value.path == path


C2_DIRECTION = ("curves", "c2", "map", "components", 1, 1, "coeff")


@pytest.mark.parametrize("keys, value, path", [
    (C2_DIRECTION, [math.nan, 0.0], "curves.c2.map.components[1][1].coeff"),
    (C2_DIRECTION, -math.inf, "curves.c2.map.components[1][1].coeff"),
    (("curves", "c1", "domain", "radius"), math.inf, "curves.c1.domain.radius"),
    (("curves", "c1", "domain", "radius"), 10 ** 400,
     "curves.c1.domain.radius"),
    (("curves", "c1", "domain"), {"type": "rect", "re": [-math.inf, 1.0],
                                  "im": [-1.0, 1.0]}, "curves.c1.domain.re"),
    (("curves", "c1", "marked_points"), [[0.5, math.nan]],
     "curves.c1.marked_points[0]"),
    (("forms", "theta1", "coeff", "numerator", 0, "coeff"), math.nan,
     "forms.theta1.coeff.numerator[0].coeff"),
    (("ambient", "numerator", 0, "coeff"), [math.inf, 0.0],
     "ambient.numerator[0].coeff"),
    (("constants", "kappa_line"), [math.nan, 0.0], "constants.kappa_line"),
    (("constants", "tol"), math.nan, "constants.tol"),
], ids=["c2-direction-nan", "c2-direction-minus-inf", "radius-inf",
        "radius-int-overflow", "rect-inf", "marked-point-nan",
        "form-nan", "ambient-inf", "kappa-line-nan", "tol-nan"])
def test_non_finite_numbers_are_rejected(keys, value, path):
    # json.loads reads the NaN, Infinity and -Infinity literals as floats,
    # and a NaN passes every comparison that would otherwise reject it
    _expect_rejected_at(keys, value, path)


@pytest.mark.parametrize("keys, value, path", [
    (("forms",), [], "forms"),
    (("forms",), 3, "forms"),
    (("curves", "c1", "marked_points"), 5, "curves.c1.marked_points"),
    (("forms", "theta1", "poles"), 5, "forms.theta1.poles"),
    (("forms", "theta1", "coeff", "numerator", 0, "exponents"), [10 ** 9],
     "forms.theta1.coeff.numerator[0].exponents"),
    (("ambient", "numerator", 0, "exponents"), [0, 10 ** 9, 0],
     "ambient.numerator[0].exponents"),
], ids=["forms-list", "forms-number", "marked-points-number",
        "poles-number", "form-exponent-huge", "ambient-exponent-huge"])
def test_malformed_shapes_are_rejected(keys, value, path):
    # each would otherwise surface as an AttributeError, a TypeError or,
    # for a huge exponent, a dense allocation of that many coefficients
    _expect_rejected_at(keys, value, path)


def test_cut_missing_first_surface_rejected():
    data = _base_dict()
    del data["cuts"]["cut1"]["F1"]
    _expect_path(data, "cuts.cut1")


def test_cut_second_surface_optional():
    data = _base_dict()
    del data["cuts"]["cut1"]["F2"]
    scene = hl.loads_scene(json.dumps(data), scene_id="x")
    assert scene.cuts["cut1"].f2 is None


def test_projective_block_round_trip():
    scene = scenes.atiyah_lines()
    back = hl.loads_scene(hl.dumps_scene(scene), scene_id=scene.scene_id)
    assert np.allclose(back.atiyah["l"], np.array(scenes.ATIYAH_L))
    assert np.allclose(back.atiyah["p"], np.array(scenes.ATIYAH_P))


def test_constants_block_round_trip():
    scene = scenes.l0()
    scene.constants = hl.NormalizationConstants(kappa_line=-612.5 + 0.25j)
    back = hl.loads_scene(hl.dumps_scene(scene), scene_id="x")
    assert back.constants.kappa_line == -612.5 + 0.25j
    assert back.constants.kappa_xmethod == -612.5 + 0.25j


@pytest.mark.parametrize("key, value", [
    ("kapa_line", [1.0, 0.0]),            # a typo must not fall back silently
    ("kappa_xmethod", [1.0, 0.0]),
    ("include_cn", True),
    ("C3", 31.00627668029982),
])
def test_constants_block_rejects_unknown_fields(key, value):
    data = _base_dict()
    data["constants"] = {key: value}
    _expect_path(data, f"constants.{key}")


def test_constants_provenance_round_trip():
    scene = scenes.l0()
    scene.constants = hl.NormalizationConstants(
        kappa_line=-612.5 + 0.25j, tol=1e-6, truncation_radius=40.0,
        version="0.1.0")
    back = hl.loads_scene(hl.dumps_scene(scene), scene_id="x")
    assert back.constants == scene.constants
    data = hl.scene_to_dict(scene)
    data["constants"]["tol"] = "1e-6"
    with pytest.raises(SceneInvalid) as exc:
        hl.loads_scene(json.dumps(data), scene_id="x")
    assert exc.value.path == "constants.tol"
    data = hl.scene_to_dict(scene)
    data["constants"]["version"] = 0.1
    with pytest.raises(SceneInvalid) as exc:
        hl.loads_scene(json.dumps(data), scene_id="x")
    assert exc.value.path == "constants.version"
    del data["constants"]["version"]
    back = hl.loads_scene(json.dumps(data), scene_id="x")
    assert back.constants.version is None


def test_package_version_matches_pyproject():
    # calibrate records hololink.__version__ in the constants it writes
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert project["version"] == hl.__version__


def test_scene_to_dict_is_json_ready():
    d = hl.scene_to_dict(scenes.random_polynomial_scene(3))
    json.dumps(d)  # must not raise
    assert set(d) >= {"scene_id", "curves", "forms"}
