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
    "L0": ["holo_integral", "holo_closed", "residue"],
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


# the declared window of each query curve; None for a compact domain
TRACE_RADIUS = {"hopf": [None, None], "skew_lines": [40.0, 40.0],
                "L0": [40.0, 40.0]}


@pytest.mark.parametrize("scene, method, source", [
    ("hopf", "gauss_integral", "quadrature"),
    ("skew_lines", "gauss_integral", "tail"),
    ("L0", "complex_link", "tail"),
])
def test_integral_report_carries_its_trace(fast_cfg, scene, method, source):
    rep = report.compute(scenes.builtin(scene), method, fast_cfg)
    trace = json.loads(report.report_to_json(rep))["extra"]["trace"]
    assert trace["rounds"] == len(trace["panels_per_round"]) >= 1
    assert sum(trace["panels_per_round"]) == rep.panels_evaluated
    assert trace["deepest_split"] >= 1
    assert trace["max_depth_hit"] is False
    assert trace["err_source"] == source
    assert trace["workers"] == 1
    assert trace["radius"] == TRACE_RADIUS[scene]


# ---------------------------------------------------------------------------
# truncation windows: each curve is integrated over the disk it declares

def test_report_integrates_over_the_scene_window(fast_cfg):
    wide = report.compute(scenes.l0(), "holo_integral", fast_cfg)
    narrow = report.compute(scenes.l0(radius=10.0), "holo_integral", fast_cfg)
    assert narrow.tail_estimate != wide.tail_estimate
    assert narrow.value != wide.value
    assert wide.extra["trace"]["radius"] == [40.0, 40.0]
    assert narrow.extra["trace"]["radius"] == [10.0, 10.0]


def test_each_curve_keeps_its_own_window(tmp_path, capsys, monkeypatch,
                                         fast_cfg):
    scene = scenes.l0()
    scene.curves["c1"] = hl.ParamCurve.line((0, 0, 0), (1, 0, 0), radius=20.0)
    hl.validate_scene(scene)
    seen = []

    def spy(integrand, dom_a, dom_b, *args, **kwargs):
        seen.append((type(dom_a), dom_a.radius, type(dom_b), dom_b.radius))
        return integrate_pv(integrand, dom_a, dom_b, *args, **kwargs)

    integrate_pv = hl.holo.integrate_pv
    monkeypatch.setattr(hl.holo, "integrate_pv", spy)
    rep = report.compute(scene, "holo_integral", fast_cfg)
    assert seen == [(hl.quadrature.Disk, 20.0, hl.quadrature.Disk, 40.0)]
    assert rep.extra["trace"]["radius"] == [20.0, 40.0]

    spath = tmp_path / "mixed.json"
    hl.save_scene(scene, spath)
    code, out, _ = _run(["run", str(spath), "holo_integral", "--tol", "1e-4"],
                        capsys)
    assert code == 0
    data = json.loads(out)
    assert data["value"] == [rep.value.real, rep.value.imag]
    assert data["extra"]["trace"]["radius"] == [20.0, 40.0]


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


def test_xcheck_reference_scene_three_routes(constants, fast_cfg):
    scene = scenes.l0()
    scene.constants = constants
    result = report.xcheck(scene, fast_cfg)
    assert result.verdict == "PASS"
    assert [r.method for r in result.reports] == ["holo_integral",
                                                  "holo_closed", "residue"]
    assert len(result.checks) == 3


def test_xcheck_reference_scene_with_closed_form_constants():
    result = report.xcheck(scenes.l0(), hl.QuadConfig(tol=1e-4))
    assert result.verdict == "PASS"
    reps = {r.method: r for r in result.reports}
    assert list(reps) == ["holo_integral", "holo_closed", "residue"]
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
    for method in ("residue", "holo_closed"):
        with pytest.raises(hl.MethodInapplicable):
            report.compute(scene, method, cfg)


def test_xcheck_passes_on_a_tangent_cut(tangent_cut_scene):
    # the cut surface touches c2: the residue sum is 2/3 at a double root
    scene = tangent_cut_scene(0.0)
    result = report.xcheck(scene, hl.QuadConfig(tol=1e-3))
    assert result.verdict == "PASS", result.failures
    reps = {r.method: r for r in result.reports}
    assert list(reps) == ["holo_integral", "residue"]
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
    # measured 1.7e-7 from the closed form
    analytic = -2 * math.pi ** 5
    assert abs(constants.kappa_line - analytic) / abs(analytic) < 1e-6
    assert constants.kappa_xmethod == constants.kappa_line


def test_calibration_idempotent(constants):
    again = report.calibrate(hl.QuadConfig(tol=1e-6))
    rel = abs(again.kappa_line - constants.kappa_line) / abs(
        constants.kappa_line)
    assert rel < 1e-6


def test_calibration_records_its_provenance(constants):
    assert constants.tol == 1e-6 and constants.truncation_radius == 40.0
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
    spath = tmp_path / "skew15.json"
    hl.save_scene(scenes.skew_lines(radius=15.0), spath)
    code, out, _ = _run(["run", str(spath), "gauss_integral", "--tol", "1e-5"],
                        capsys)
    assert code == 0
    data = json.loads(out)
    assert data["extra"]["trace"]["radius"] == [15.0, 15.0]
    # coarser window, but the tail step still recovers the half
    assert abs(data["value"][0] - 0.5) < 3e-2


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
], ids=["run-constants", "xcheck-constants", "calibrate-constants",
        "run-no-cn"])
def test_cli_removed_flags_are_usage_errors(capsys, command):
    with pytest.raises(SystemExit) as exc:
        cli.main(command)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
