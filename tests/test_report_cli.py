from dataclasses import replace
import json
import math

import numpy as np
import pytest

import hololink as hl
from hololink import cli, report, scenes


def _write_constants(path, constants):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(constants.to_dict(), fh)


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


@pytest.mark.parametrize("include_cn, kappa", [(True, -2 * math.pi ** 5),
                                               (False, -2 * math.pi ** 2)],
                         ids=["with_cn", "without_cn"])
def test_closed_form_constants_by_default(fast_cfg, include_cn, kappa):
    rep = report.compute(scenes.l0(), "holo_closed", fast_cfg,
                         include_cn=include_cn)
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
    assert d["config"]["radius"] == 40.0


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


def test_xcheck_close_pair_fails(fast_cfg):
    result = report.xcheck(scenes.close_pair(), fast_cfg)
    assert result.verdict == "FAIL"
    assert {f["error"] for f in result.failures} == {"CurvesTooClose",
                                                     "DegenerateProjection"}


# ---------------------------------------------------------------------------
# calibration

def test_calibration_values(constants):
    # measured 1.7e-7 from the closed form with and without C3
    without_cn = report.calibrate(hl.QuadConfig(tol=1e-6), include_cn=False)
    for consts, analytic in ((constants, -2 * math.pi ** 5),
                             (without_cn, -2 * math.pi ** 2)):
        assert abs(consts.kappa_line - analytic) / abs(analytic) < 1e-6
        ratio = consts.kappa_xmethod / consts.kappa_line
        assert ratio == pytest.approx(1.0, rel=1e-10)  # reference residue is 1


def test_calibration_idempotent(constants):
    again = report.calibrate(hl.QuadConfig(tol=1e-6))
    rel = abs(again.kappa_line - constants.kappa_line) / abs(
        constants.kappa_line)
    assert rel < 1e-6


def test_calibration_records_its_provenance(constants):
    assert constants.include_cn is True
    assert constants.tol == 1e-6 and constants.truncation_radius == 40.0
    assert constants.version == hl.__version__
    back = hl.NormalizationConstants.from_dict(constants.to_dict())
    assert back == constants


def test_constants_from_the_other_normalization_are_rejected(constants,
                                                              fast_cfg):
    # calibrated with C3, run without it: the routes would differ by pi^3
    scene = scenes.l0()
    scene.constants = constants
    with pytest.raises(hl.ConstantsMismatch):
        report.xcheck(scene, fast_cfg, include_cn=False)
    with pytest.raises(hl.ConstantsMismatch):
        report.compute(scene, "holo_closed", fast_cfg, include_cn=False)
    # constants without provenance load and run as before
    scene.constants = hl.NormalizationConstants.from_dict(
        {"C3": constants.c3, "kappa_line": [constants.kappa_line.real,
                                            constants.kappa_line.imag]})
    assert scene.constants.include_cn is None
    report.compute(scene, "holo_closed", fast_cfg, include_cn=False)


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
    code, out, _ = _run(["run", str(scene_path), "gauss_crossing",
                         "--constants", str(tmp_path / "c.json")], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["value"] == [1.0, 0.0]
    assert data["method"] == "gauss_crossing"


def test_cli_run_csv_format(tmp_path, capsys, constants):
    cpath = tmp_path / "c.json"
    _write_constants(cpath, constants)
    code, out, _ = _run(["run", "builtin:skew_lines", "gauss_closed",
                         "--format", "csv", "--constants", str(cpath)],
                        capsys)
    assert code == 0
    header, row = out.strip().splitlines()
    assert header == report.CSV_HEADER
    assert row.startswith("skew_lines,gauss_closed,0.5,")


def test_cli_run_deterministic(tmp_path, capsys, constants):
    cpath = tmp_path / "c.json"
    _write_constants(cpath, constants)
    outs = []
    for _ in range(2):
        code, out, _ = _run(["run", "builtin:L0", "holo_closed",
                             "--constants", str(cpath)], capsys)
        assert code == 0
        data = json.loads(out)
        data.pop("wall_time_ms")
        outs.append(json.dumps(data, sort_keys=True))
    assert outs[0] == outs[1]


def test_cli_radius_flag_overrides_scene(tmp_path, capsys, constants):
    cpath = tmp_path / "c.json"
    _write_constants(cpath, constants)
    code, out, _ = _run(["run", "builtin:skew_lines", "gauss_integral",
                         "--radius", "15", "--tol", "1e-5",
                         "--constants", str(cpath)], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["config"]["radius"] == 15.0
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
    cpath = tmp_path / "c.json"
    cpath.write_text(text)
    code, _, err = _run(["run", "builtin:hopf", "gauss_crossing",
                         "--constants", str(cpath)], capsys)
    assert code == 2
    assert "SceneInvalid" in err and field in err


def test_cli_unknown_builtin_exits_2(capsys):
    code, _, err = _run(["run", "builtin:nope", "residue"], capsys)
    assert code == 2
    assert "nope" in err


def test_cli_no_cn_with_calibrated_constants_exits_2(tmp_path, capsys,
                                                     constants):
    cpath = tmp_path / "c.json"
    _write_constants(cpath, constants)
    code, _, err = _run(["run", "builtin:L0", "holo_closed", "--no-cn",
                         "--constants", str(cpath)], capsys)
    assert code == 2
    assert "ConstantsMismatch" in err


def test_cli_double_pole_exits_3(tmp_path, capsys):
    code, _, err = _run(["run", "builtin:pv_lines_double", "holo_pv",
                         "--constants", str(tmp_path / "c.json")], capsys)
    assert code == 3
    assert "PVNotConverging" in err


def test_cli_xcheck_close_pair_exits_4(tmp_path, capsys):
    code, out, err = _run(["xcheck", "builtin:close_pair", "--tol", "1e-4",
                           "--constants", str(tmp_path / "c.json")], capsys)
    assert code == 4
    assert json.loads(out)["verdict"] == "FAIL"
    assert "CurvesTooClose" in err


def test_cli_xcheck_hopf_passes(tmp_path, capsys):
    code, out, _ = _run(["xcheck", "builtin:hopf", "--tol", "1e-4",
                         "--constants", str(tmp_path / "c.json")], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "PASS"
    assert data["methods"] == ["gauss_integral", "gauss_crossing"]


def test_cli_calibrate_writes_file(tmp_path, capsys):
    cpath = tmp_path / "written.json"
    code, out, err = _run(["calibrate", "--constants", str(cpath)], capsys)
    assert code == 0
    data = json.loads(cpath.read_text())
    assert data["kappa_line"][0] == pytest.approx(-2 * math.pi ** 5, rel=1e-2)
    assert json.loads(out)["kappa_line"] == data["kappa_line"]


def test_cli_calibrate_unstable_exits_3(tmp_path, capsys):
    cpath = tmp_path / "never.json"
    code, _, err = _run(["calibrate", "--max-depth", "2",
                         "--constants", str(cpath)], capsys)
    assert code == 3
    assert "CalibrationUnstable" in err
    assert not cpath.exists()


def test_cli_run_without_constants_uses_closed_form(tmp_path, capsys,
                                                    monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, err = _run(["run", "builtin:L0", "holo_closed",
                           "--constants", str(tmp_path / "missing.json")],
                          capsys)
    assert code == 0
    assert err == ""
    assert list(tmp_path.iterdir()) == []
    value = json.loads(out)["value"]
    analytic = -2 * math.pi ** 5
    assert abs(complex(*value) - analytic) <= 1e-15 * abs(analytic)


def test_cli_scene_constants_beat_file(tmp_path, capsys):
    # a scene pinning kappa_line explicitly is computed with that value
    scene = scenes.l0()
    scene.constants = hl.NormalizationConstants(kappa_line=-100.0 + 0j,
                                                kappa_xmethod=-100.0 + 0j)
    spath = tmp_path / "pinned.json"
    hl.save_scene(scene, spath)
    code, out, _ = _run(["run", str(spath), "holo_closed",
                         "--constants", str(tmp_path / "c.json")], capsys)
    assert code == 0
    assert json.loads(out)["value"] == [-100.0, 0.0]
