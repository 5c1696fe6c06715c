from dataclasses import replace
import json
import math

import numpy as np
import pytest

import hololink as hl
from hololink import cli, report, scenes


# ---------------------------------------------------------------------------
# applicability

APPLICABILITY = {
    "L0": ["holo_integral", "holo_line", "holo_closed", "residue"],
    "skew_lines": ["gauss_integral", "gauss_closed"],
    "hopf": ["gauss_integral", "gauss_crossing"],
    "split": ["gauss_integral", "gauss_crossing"],
    "pv_lines": ["holo_pv"],
    "pv_lines_double": ["holo_pv"],
}


@pytest.mark.parametrize("name,methods", sorted(APPLICABILITY.items()))
def test_applicable_methods(name, methods):
    assert report.applicable_methods(scenes.builtin(name)) == methods


# coarse enough that every integral route returns within milliseconds
APPLICABILITY_CFG = hl.QuadConfig(tol=1e-2, max_depth=3)


@pytest.mark.parametrize("name", sorted(scenes.BUILTIN_SCENES))
def test_compute_refuses_exactly_the_unlisted_methods(name):
    scene = scenes.builtin(name)
    listed = report.applicable_methods(scene)
    for method in report.XCHECK_METHODS:
        refused = False
        try:
            report.compute(scene, method, APPLICABILITY_CFG)
        except hl.MethodInapplicable:
            refused = True
        except hl.NumericalError:
            pass  # the method ran and failed: close_pair, pv_lines_double
        assert refused == (method not in listed), method


def test_closed_form_constants_by_default(fast_cfg):
    kappa = -2 * math.pi ** 5
    rep = report.compute(scenes.l0(), "holo_closed", fast_cfg)
    assert abs(rep.value - kappa) <= 1e-15 * abs(kappa)
    assert rep.constants.kappa_line == rep.constants.kappa_xmethod
    assert rep.constants.kappa_line == rep.value


def test_weighted_scene_blocks_real_methods(cfg):
    with pytest.raises(hl.MethodInapplicable):
        report.compute(scenes.l0(), "gauss_integral", cfg)


def test_unknown_method_is_scene_error(cfg):
    with pytest.raises(hl.SceneInvalid):
        report.compute(scenes.hopf(), "no_such_method", cfg)


# ---------------------------------------------------------------------------
# reports

def test_crossing_report_fields(cfg):
    rep = report.compute(scenes.hopf(), "gauss_crossing", cfg)
    assert rep.value == 1.0
    assert rep.err_estimate == 0.0 and rep.converged
    d = report.report_to_dict(rep)
    assert d["value"] == [1.0, 0.0]
    assert d["extra"]["samples"] == 512
    assert set(d["config"]) == {"tol", "max_depth", "panel_order"}


def test_report_json_deterministic_except_wall_time(cfg):
    reps = [report.compute(scenes.skew_lines(), "gauss_integral", cfg)
            for _ in range(2)]
    dicts = [report.report_to_dict(r) for r in reps]
    for d in dicts:
        assert d.pop("wall_time_ms") >= 0.0
    assert json.dumps(dicts[0]) == json.dumps(dicts[1])


def test_csv_row_matches_header(cfg):
    rep = report.compute(scenes.hopf(), "gauss_crossing", cfg)
    row = report.report_to_csv_row(rep)
    assert len(row.split(",")) == len(report.CSV_HEADER.split(","))


def test_residue_report_is_raw_value(cfg):
    rep = report.compute(scenes.l0(), "residue", cfg)
    assert rep.value == pytest.approx(1.0, abs=1e-10)


TRACE_KEYS = {"rounds", "panels_per_round", "skipped_per_round",
              "checks_per_round", "deepest_split", "max_depth_hit", "workers"}


@pytest.mark.parametrize("scene, method", [
    ("hopf", "gauss_integral"),
    ("skew_lines", "gauss_integral"),
    ("L0", "complex_link"),
])
def test_integral_report_carries_its_trace(fast_cfg, scene, method):
    rep = report.compute(scenes.builtin(scene), method, fast_cfg)
    trace = json.loads(report.report_to_json(rep))["extra"]["trace"]
    assert set(trace) == TRACE_KEYS
    assert trace["rounds"] == len(trace["panels_per_round"]) >= 1
    assert sum(trace["panels_per_round"]) == rep.panels_evaluated
    assert trace["deepest_split"] >= 1
    assert trace["max_depth_hit"] is False
    assert trace["workers"] == 1
    assert rep.tail_estimate == 0.0


def test_trace_lists_the_panels_halved_unintegrated(fast_cfg):
    # L0's one initial cell is too coarse for the proximity samples to
    # separate the lines: the first round halves 5 panels unintegrated over
    # 4 check passes, then integrates the 6 resolved ones; three more rounds
    # refine by error alone
    rep = report.compute(scenes.l0(), "holo_integral", fast_cfg)
    trace = json.loads(report.report_to_json(rep))["extra"]["trace"]
    assert trace["rounds"] == 4
    assert trace["panels_per_round"] == [6, 4, 4, 8]
    assert trace["skipped_per_round"] == [5, 0, 0, 0]
    assert trace["checks_per_round"] == [4, 0, 0, 0]
    assert rep.panels_evaluated == 22
    assert complex(rep.value) == -612.0393753010411 + 0j
    assert rep.err_estimate == 0.013936301828382458


def test_holo_line_report_names_no_window(fast_cfg):
    # the whole-plane route integrates no window, so it has no tail
    rep = report.compute(scenes.l0(), "holo_line", fast_cfg)
    trace = json.loads(report.report_to_json(rep))["extra"]["trace"]
    assert set(trace) == TRACE_KEYS
    assert rep.tail_estimate == 0.0
    assert sum(trace["panels_per_round"]) == rep.panels_evaluated


# ---------------------------------------------------------------------------
# a scene file's older disk domain loads as the whole plane: its radius does
# not reach the integral

# L0 as an older scene file declared it, written by hand
LEGACY_L0 = """{
  "scene_id": "L0",
  "curves": {
    "c1": {"kind": "complex_affine",
           "map": {"components": [[{"exponents": [1], "coeff": 1}],
                                  [{"exponents": [0], "coeff": 0}],
                                  [{"exponents": [0], "coeff": 0}]]},
           "domain": {"type": "disk", "radius": 15.0}},
    "c2": {"kind": "complex_affine",
           "map": {"components": [[{"exponents": [0], "coeff": 0}],
                                  [{"exponents": [1], "coeff": 1}],
                                  [{"exponents": [0], "coeff": 1}]]},
           "domain": {"type": "disk", "radius": 15.0}}},
  "forms": {"theta1": {"curve": "c1",
                       "coeff": {"numerator": [{"exponents": [0], "coeff": 1}]}},
            "theta2": {"curve": "c2",
                       "coeff": {"numerator": [{"exponents": [0], "coeff": 1}]}}},
  "ambient": {"numerator": [{"exponents": [0, 0, 0], "coeff": 1}]},
  "cuts": {"cut1": {"F1": [{"exponents": [0, 1, 0], "coeff": 1}],
                    "F2": [{"exponents": [0, 0, 1], "coeff": 1}],
                    "contains_curve": "c1"}},
  "constants": {"kappa_line": null}
}"""


def _legacy_skew_lines():
    """LEGACY_L0's curves alone, skew_lines as an older file declared
    it."""
    data = json.loads(LEGACY_L0)
    for key in ("forms", "ambient", "cuts"):
        del data[key]
    data["scene_id"] = "skew_lines"
    return json.dumps(data)


def test_legacy_disk_scene_loads_as_the_whole_plane(fast_cfg):
    scene = hl.loads_scene(LEGACY_L0)
    assert all(c.domain == ("plane",) for c in scene.curves.values())
    text = hl.dumps_scene(scene)
    assert text == hl.dumps_scene(scenes.l0())
    assert json.loads(text)["curves"]["c1"]["domain"] == {"type": "plane"}
    for legacy, builtin, method in (
            (scene, scenes.l0(), "holo_integral"),
            (hl.loads_scene(_legacy_skew_lines()), scenes.skew_lines(),
             "gauss_integral")):
        got, want = (report.compute(s, method, fast_cfg)
                     for s in (legacy, builtin))
        assert complex(got.value) == complex(want.value), method
        assert got.err_estimate == want.err_estimate, method
        assert got.panels_evaluated == want.panels_evaluated, method


def test_report_integrates_over_the_scene_window(monkeypatch, fast_cfg):
    wide = report.compute(scenes.l0(), "holo_integral", fast_cfg)
    data = json.loads(LEGACY_L0)
    data["curves"]["c1"]["domain"]["radius"] = 20.0
    data["curves"]["c2"]["domain"]["radius"] = 10.0
    scene = hl.loads_scene(json.dumps(data))
    seen = []

    def spy(integrand, dom_a, dom_b, *args, **kwargs):
        seen.append((dom_a, dom_b))
        return integrate_pv(integrand, dom_a, dom_b, *args, **kwargs)

    integrate_pv = hl.holo.integrate_pv
    monkeypatch.setattr(hl.holo, "integrate_pv", spy)
    narrow = report.compute(scene, "holo_integral", fast_cfg)
    [(dom_a, dom_b)] = seen
    assert isinstance(dom_a, hl.quadrature.Plane)
    assert isinstance(dom_b, hl.quadrature.Plane)
    assert complex(narrow.value) == complex(wide.value)
    assert narrow.err_estimate == wide.err_estimate
    assert narrow.tail_estimate == wide.tail_estimate == 0.0


def test_kernel_routes_refuse_a_non_standard_ambient_form(fast_cfg):
    # L0 with the ambient form 2 dz1 ^ dz2 ^ dz3: the residue route reads
    # the form and halves its value; the kernel routes integrate against
    # dz1 ^ dz2 ^ dz3 only, so they refuse the scene rather than give the
    # standard form's value under the declared one
    scene = scenes.l0()
    scene.ambient = hl.AmbientForm(hl.Poly3.constant(2.0))
    hl.validate_scene(scene)
    assert not scene.ambient.is_standard
    assert hl.AmbientForm(hl.Poly3.constant(2.0),
                          hl.Poly3.constant(2.0)).is_standard
    for method in ("holo_integral", "holo_pv", "holo_line", "holo_closed"):
        with pytest.raises(hl.MethodInapplicable,
                           match="needs the standard ambient form"):
            report.compute(scene, method, fast_cfg)
    assert report.compute(scene, "residue", fast_cfg).value == 0.5
    assert report.applicable_methods(scene) == ["residue"]
    with pytest.raises(hl.MethodInapplicable, match="two applicable"):
        report.xcheck(scene, fast_cfg)


def test_projective_report_extra(cfg):
    rep = report.compute(scenes.atiyah_lines(), "atiyah", cfg)
    assert rep.value == pytest.approx(-1.0)
    assert rep.extra["reduced"] == pytest.approx([-1.0, 0.0])


# ---------------------------------------------------------------------------
# cross-checks

def test_xcheck_requires_two_methods(cfg):
    with pytest.raises(hl.MethodInapplicable):
        report.xcheck(scenes.pv_lines(), cfg)


def test_xcheck_gauss_scene_passes(fast_cfg):
    result = report.xcheck(scenes.hopf(), fast_cfg)
    assert result.verdict == "PASS"
    assert [r.method for r in result.reports] == ["gauss_integral",
                                                  "gauss_crossing"]
    assert all(c["pass"] for c in result.checks)


def test_xcheck_reference_scene_four_routes(constants, fast_cfg):
    scene = scenes.l0()
    scene.constants = constants
    result = report.xcheck(scene, fast_cfg)
    assert result.verdict == "PASS"
    assert [r.method for r in result.reports] == APPLICABILITY["L0"]
    assert len(result.checks) == 6


def test_xcheck_reference_scene_with_closed_form_constants():
    result = report.xcheck(scenes.l0(), hl.QuadConfig(tol=1e-4))
    assert result.verdict == "PASS"
    reps = {r.method: r for r in result.reports}
    assert list(reps) == APPLICABILITY["L0"]
    closed = reps["holo_closed"].value
    residue = reps["residue"].value * reps["residue"].constants.kappa_xmethod
    assert abs(residue - closed) <= 1e-12 * abs(closed)


def test_marked_point_is_not_a_pole(fast_cfg):
    # a marked point with pole-free forms leaves the holomorphic routes of
    # an unmarked L0 applicable: only a form's declared poles count
    scene = scenes.l0()
    scene.curves["c1"] = replace(scene.curves["c1"],
                                 marked_points=(scenes.PV_POLE_1,))
    hl.validate_scene(scene)
    assert report.applicable_methods(scene) == APPLICABILITY["L0"]
    result = report.xcheck(scene, fast_cfg)
    assert result.verdict == "PASS"
    assert [r.method for r in result.reports] == APPLICABILITY["L0"]


def test_whole_curve_routes_need_disk_windows(cfg):
    # over a rectangle the integral covers a compact piece of each line,
    # while holo_closed and residue give the whole-line value
    scene = scenes.l0()
    rect = ("rect", -40.0, 40.0, -40.0, 40.0)
    scene.curves = {name: replace(curve, domain=rect)
                    for name, curve in scene.curves.items()}
    hl.validate_scene(scene)
    assert report.applicable_methods(scene) == ["holo_integral"]
    for method in ("holo_line", "residue", "holo_closed"):
        with pytest.raises(hl.MethodInapplicable):
            report.compute(scene, method, cfg)


def test_xcheck_passes_on_a_tangent_cut(tangent_cut_scene):
    # the cut surface touches c2: the residue sum is 2/3 at a double root
    scene = tangent_cut_scene(0.0)
    result = report.xcheck(scene, hl.QuadConfig(tol=1e-3))
    assert result.verdict == "PASS", result.failures
    reps = {r.method: r for r in result.reports}
    assert list(reps) == ["holo_integral", "holo_line", "residue"]
    integral = reps["holo_integral"]
    expected = integral.constants.kappa_xmethod * 2 / 3
    assert abs(integral.value - expected) \
        <= integral.err_estimate + integral.tail_estimate


def test_xcheck_close_pair_fails(fast_cfg):
    result = report.xcheck(scenes.close_pair(), fast_cfg)
    assert result.verdict == "FAIL"
    assert {f["error"] for f in result.failures} == {"CurvesTooClose",
                                                     "DegenerateProjection"}


# ---------------------------------------------------------------------------
# calibration

def test_calibration_values(constants):
    # measured 3.7e-16 from the closed form: no window, no tail
    analytic = -2 * math.pi ** 5
    assert abs(constants.kappa_line - analytic) / abs(analytic) < 1e-13
    assert constants.kappa_xmethod == constants.kappa_line


def test_calibration_idempotent(constants):
    again = report.calibrate(hl.QuadConfig(tol=1e-6))
    rel = abs(again.kappa_line - constants.kappa_line) / abs(
        constants.kappa_line)
    assert rel < 1e-6


def test_calibration_records_its_provenance(constants):
    # no truncation window was used, so none is recorded
    assert constants.tol == 1e-6 and constants.truncation_radius is None
    assert constants.version == hl.__version__
    back = hl.NormalizationConstants.from_dict(constants.to_dict())
    assert back == constants


def test_one_pinned_constant_scales_both_closed_form_routes():
    # holo_closed and the residue route share kappa_line: pinning it moves
    # both, so they still agree to rounding
    scene = scenes.l0()
    scene.constants = hl.NormalizationConstants(
        kappa_line=complex(-2 * math.pi ** 5 * (1 + 1e-3)))
    result = report.xcheck(scene, hl.QuadConfig(tol=1e-4))
    check, = [c for c in result.checks
              if c["methods"] == ["holo_closed", "residue"]]
    assert check["pass"]
    assert check["diff"] <= 1e-9 * abs(scene.constants.kappa_line)


def test_calibration_unstable_at_low_depth():
    with pytest.raises(hl.CalibrationUnstable):
        report.calibrate(hl.QuadConfig(tol=1e-6, max_depth=2))


# ---------------------------------------------------------------------------
# command line

def _run(args, capsys):
    code = cli.main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cli_scene_list(capsys):
    code, out, _ = _run(["scene", "--list"], capsys)
    assert code == 0
    assert "L0" in out.split() and "hopf" in out.split()


def test_cli_scene_emit_and_run(tmp_path, capsys):
    scene_path = tmp_path / "pair.json"
    code, _, _ = _run(["scene", "hopf", "--out", str(scene_path)], capsys)
    assert code == 0
    code, out, _ = _run(["run", str(scene_path), "gauss_crossing"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["value"] == [1.0, 0.0]
    assert data["method"] == "gauss_crossing"


def test_cli_run_csv_format(capsys):
    code, out, _ = _run(["run", "builtin:skew_lines", "gauss_closed",
                         "--format", "csv"], capsys)
    assert code == 0
    header, row = out.strip().splitlines()
    assert header == report.CSV_HEADER
    assert row.startswith("skew_lines,gauss_closed,0.5,")


def test_cli_run_deterministic(capsys):
    outs = []
    for _ in range(2):
        code, out, _ = _run(["run", "builtin:L0", "holo_closed"], capsys)
        assert code == 0
        data = json.loads(out)
        data.pop("wall_time_ms")
        outs.append(json.dumps(data, sort_keys=True))
    assert outs[0] == outs[1]


def test_cli_integrates_over_the_scene_file_window(tmp_path, capsys):
    # a scene file's older disk of radius 15 stands for the whole line too
    spath = tmp_path / "skew15.json"
    spath.write_text(_legacy_skew_lines())
    code, out, _ = _run(["run", str(spath), "gauss_integral", "--tol", "1e-5"],
                        capsys)
    assert code == 0
    data = json.loads(out)
    assert data["tail_estimate"] == 0.0
    assert abs(data["value"][0] - 0.5) <= data["err_estimate"]


def test_cli_bad_scene_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"curves": 3}')
    code, _, err = _run(["run", str(bad), "residue"], capsys)
    assert code == 2
    assert "SceneInvalid" in err


@pytest.mark.parametrize("text, field", [
    ("[1, 2]", "constants:"),
    ('{"kappa_line": [1]}', "constants.kappa_line:"),
    ('{"include_cn": "false"}', "constants.include_cn:"),
])
def test_cli_bad_constants_file_exits_2(tmp_path, capsys, text, field):
    # a scene file whose constants block is malformed
    data = json.loads(hl.dumps_scene(scenes.hopf()))
    data["constants"] = json.loads(text)
    spath = tmp_path / "bad_constants.json"
    spath.write_text(json.dumps(data))
    code, _, err = _run(["run", str(spath), "gauss_crossing"], capsys)
    assert code == 2
    assert "SceneInvalid" in err and field in err


def test_cli_unknown_builtin_exits_2(capsys):
    code, _, err = _run(["run", "builtin:nope", "residue"], capsys)
    assert code == 2
    assert "nope" in err


def test_cli_double_pole_exits_3(capsys):
    code, _, err = _run(["run", "builtin:pv_lines_double", "holo_pv"], capsys)
    assert code == 3
    assert "PVNotConverging" in err


def test_cli_xcheck_close_pair_exits_4(capsys):
    code, out, err = _run(["xcheck", "builtin:close_pair", "--tol", "1e-4"],
                          capsys)
    assert code == 4
    assert json.loads(out)["verdict"] == "FAIL"
    assert "xcheck close_pair: FAIL" in err.splitlines()
    assert "CurvesTooClose" in err


def test_cli_xcheck_hopf_passes(capsys):
    # both formats print the verdict line on stderr
    code, out, err = _run(["xcheck", "builtin:hopf", "--tol", "1e-4"], capsys)
    assert code == 0
    assert err.splitlines() == ["xcheck hopf: PASS"]
    data = json.loads(out)
    assert data["verdict"] == "PASS"
    assert data["methods"] == ["gauss_integral", "gauss_crossing"]
    code, out, err = _run(["xcheck", "builtin:hopf", "--tol", "1e-4",
                           "--format", "csv"], capsys)
    assert code == 0
    assert err.splitlines() == ["xcheck hopf: PASS"]
    header, *rows = out.strip().splitlines()
    assert header == report.CSV_HEADER
    assert [r.split(",")[1] for r in rows] == data["methods"]


def test_cli_calibrate_prints_a_scene_constants_block(tmp_path, capsys,
                                                     monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, err = _run(["calibrate"], capsys)
    assert code == 0
    assert err == ""
    assert list(tmp_path.iterdir()) == []
    block = json.loads(out)
    assert block["kappa_line"][0] == pytest.approx(-2 * math.pi ** 5,
                                                   rel=1e-2)
    data = json.loads(hl.dumps_scene(scenes.l0()))
    data["constants"] = block
    scene = hl.loads_scene(json.dumps(data))
    assert scene.constants.to_dict() == block


def test_cli_calibrate_unstable_exits_3(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, err = _run(["calibrate", "--max-depth", "2"], capsys)
    assert code == 3
    assert out == ""
    assert "CalibrationUnstable" in err
    assert list(tmp_path.iterdir()) == []


def test_cli_run_without_constants_uses_closed_form(tmp_path, capsys,
                                                    monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, err = _run(["run", "builtin:L0", "holo_closed"], capsys)
    assert code == 0
    assert err == ""
    assert list(tmp_path.iterdir()) == []
    value = json.loads(out)["value"]
    analytic = -2 * math.pi ** 5
    assert abs(complex(*value) - analytic) <= 1e-15 * abs(analytic)


def test_cli_scene_constants_beat_file(tmp_path, capsys, monkeypatch):
    # a scene pinning kappa_line explicitly is computed with that value; a
    # constants file beside it is never read
    monkeypatch.chdir(tmp_path)
    (tmp_path / "hololink_constants.json").write_text(
        json.dumps(hl.NormalizationConstants(kappa_line=1.0 + 0j).to_dict()))
    scene = scenes.l0()
    scene.constants = hl.NormalizationConstants(kappa_line=-100.0 + 0j)
    hl.save_scene(scene, tmp_path / "pinned.json")
    code, out, _ = _run(["run", "pinned.json", "holo_closed"], capsys)
    assert code == 0
    assert json.loads(out)["value"] == [-100.0, 0.0]


def test_cli_reads_no_constants_file_it_is_not_given(tmp_path, capsys,
                                                     monkeypatch):
    # a stale constants file in the working directory is not read
    monkeypatch.chdir(tmp_path)
    (tmp_path / "hololink_constants.json").write_text(
        json.dumps(hl.NormalizationConstants(kappa_line=1.0 + 0j).to_dict()))
    code, out, _ = _run(["run", "builtin:L0", "holo_closed"], capsys)
    assert code == 0
    value = complex(*json.loads(out)["value"])
    analytic = -2 * math.pi ** 5
    assert abs(value - analytic) <= 1e-15 * abs(analytic)
    code, _, err = _run(["xcheck", "builtin:L0", "--tol", "1e-4"], capsys)
    assert code == 0
    assert "xcheck L0: PASS" in err.splitlines()


@pytest.mark.parametrize("command", [
    ["run", "builtin:L0", "holo_closed", "--constants", "c.json"],
    ["xcheck", "builtin:hopf", "--constants", "c.json"],
    ["calibrate", "--constants", "c.json"],
    ["run", "builtin:L0", "holo_closed", "--no-cn"],
    # calibrate prints a constants block: it has no report format and no
    # crossing route to seed
    ["calibrate", "--format", "csv"],
    ["calibrate", "--seed", "1"],
], ids=["run-constants", "xcheck-constants", "calibrate-constants",
        "run-no-cn", "calibrate-format", "calibrate-seed"])
def test_cli_removed_flags_are_usage_errors(capsys, command):
    with pytest.raises(SystemExit) as exc:
        cli.main(command)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
