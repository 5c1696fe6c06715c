"""Command-line interface.

Subcommands:
  run SCENE METHOD   compute one method on a scene, print a report
  xcheck SCENE       run every applicable method and compare all pairs
  calibrate          measure the line constants and write them to a file
  scene NAME         emit a built-in or generated scene as JSON

SCENE is a path to a scene JSON file, or ``builtin:NAME`` for a built-in.
Exit codes: 0 success, 2 scene/usage errors, 3 numerical failures (including
unconverged integrals), 4 cross-check FAIL.
"""

import argparse
import json
import sys

from .errors import NumericalError, SceneError, SceneInvalid
from .quadrature import QuadConfig
from .report import (CSV_HEADER, calibrate, compute, report_to_csv_row,
                     report_to_dict, report_to_json, xcheck, xcheck_to_dict)
from .scene_io import _constants_in, dumps_scene, load_scene
from .scenes import (BUILTIN_SCENES, builtin, random_line_scene,
                     random_polynomial_scene)

DEFAULT_CONSTANTS_PATH = "hololink_constants.json"
DEFAULT_RADIUS = 40.0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hololink",
        description="Linking numbers of real and complex curves by "
                    "integral, combinatorial, closed-form, and residue "
                    "routes.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--tol", type=float, default=1e-6,
                       help="quadrature tolerance (default 1e-6)")
        p.add_argument("--max-depth", type=int, default=24,
                       help="panel subdivision depth limit (default 24)")
        p.add_argument("--panel-order", type=int, default=8,
                       help="Gauss-Legendre points per panel axis "
                            "(default 8)")
        p.add_argument("--radius", type=float, default=None,
                       help="truncation radius for unbounded domains "
                            "(default: scene's declared radius, else 40)")
        p.add_argument("--format", choices=("json", "csv"), default="json",
                       help="report format (default json)")
        p.add_argument("--constants", default=DEFAULT_CONSTANTS_PATH,
                       help="constants file that calibrate writes; run "
                            "and xcheck read it when the scene gives no "
                            "kappa_line, else use the closed form (default "
                            "./hololink_constants.json)")
        p.add_argument("--seed", type=int, default=0,
                       help="seed for the crossing-count projection "
                            "direction (default 0)")
        p.add_argument("--no-cn", action="store_true",
                       help="drop the dimension constant from kernel "
                            "prefactors")

    p_run = sub.add_parser("run", help="compute one method on a scene")
    p_run.add_argument("scene", help="scene JSON path or builtin:NAME")
    p_run.add_argument("method", help="method name")
    add_common(p_run)

    p_x = sub.add_parser("xcheck",
                         help="cross-check all applicable methods")
    p_x.add_argument("scene", help="scene JSON path or builtin:NAME")
    add_common(p_x)

    p_cal = sub.add_parser("calibrate",
                           help="measure and persist the line constants")
    add_common(p_cal)

    p_scene = sub.add_parser("scene", help="emit a scene as JSON")
    p_scene.add_argument("name", nargs="?", default=None,
                         help="builtin name, random_line, or random_poly")
    p_scene.add_argument("--list", action="store_true",
                         help="list built-in scene names")
    p_scene.add_argument("--seed", type=int, default=0,
                         help="seed for generated scenes")
    p_scene.add_argument("--out", default=None,
                         help="write to a file instead of stdout")
    return parser


def _load_scene_arg(arg):
    if arg.startswith("builtin:"):
        name = arg.split(":", 1)[1]
        if name not in BUILTIN_SCENES:
            raise SceneInvalid("scene", f"unknown builtin scene {name!r}; "
                                        f"choose from {sorted(BUILTIN_SCENES)}")
        return builtin(name)
    return load_scene(arg)


def _resolve_config(args, scene=None):
    """Build the quadrature config; the radius flag beats the scene's
    declared disk radius, which beats the default."""
    radius = args.radius
    if radius is None and scene is not None:
        for name in scene.query_pair():
            dom = scene.curves[name].domain
            if dom[0] == "disk":
                radius = float(dom[1])
                break
    if radius is None:
        radius = DEFAULT_RADIUS
    return QuadConfig(tol=args.tol, max_depth=args.max_depth,
                      panel_order=args.panel_order, truncation_radius=radius)


def _load_constants_file(path):
    """The constants in the file, checked field by field as a scene's
    constants object is; None when the file cannot be read."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError:
        return None
    except json.JSONDecodeError as exc:
        raise SceneInvalid("constants", f"constants file {path!r} is not "
                                        f"valid JSON: {exc}")
    return _constants_in(data, "constants")


def _resolve_constants(args, scene):
    """Scene-declared constants win, then the constants file; compute fills
    any kappa still missing with the closed form."""
    if scene.constants is not None and scene.constants.kappa_line is not None:
        return scene.constants
    return _load_constants_file(args.constants) or scene.constants


def _emit_report(report, fmt):
    if fmt == "csv":
        print(CSV_HEADER)
        print(report_to_csv_row(report))
    else:
        print(report_to_json(report))


def _cmd_run(args):
    scene = _load_scene_arg(args.scene)
    cfg = _resolve_config(args, scene)
    scene.constants = _resolve_constants(args, scene)
    rep = compute(scene, args.method, cfg, seed=args.seed,
                  include_cn=not args.no_cn)
    _emit_report(rep, args.format)
    if not rep.converged:
        print(f"error: {args.method} did not converge within max_depth="
              f"{cfg.max_depth}", file=sys.stderr)
        return 3
    return 0


def _cmd_xcheck(args):
    scene = _load_scene_arg(args.scene)
    cfg = _resolve_config(args, scene)
    scene.constants = _resolve_constants(args, scene)
    result = xcheck(scene, cfg, seed=args.seed, include_cn=not args.no_cn)
    if args.format == "csv":
        print(CSV_HEADER)
        for rep in result.reports:
            print(report_to_csv_row(rep))
        print(f"xcheck {result.scene_id}: {result.verdict}", file=sys.stderr)
    else:
        print(json.dumps(xcheck_to_dict(result), indent=2))
    for failure in result.failures:
        print(f"error: {failure['method']} raised {failure['error']}: "
              f"{failure['message']}", file=sys.stderr)
    return 0 if result.verdict == "PASS" else 4


def _cmd_calibrate(args):
    cfg = _resolve_config(args)
    consts = calibrate(cfg, include_cn=not args.no_cn)
    text = json.dumps(consts.to_dict(), indent=2)
    with open(args.constants, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    print(text)
    print(f"constants written to {args.constants}", file=sys.stderr)
    return 0


def _cmd_scene(args):
    if args.list or args.name is None:
        for name in sorted(BUILTIN_SCENES) + ["random_line", "random_poly"]:
            print(name)
        return 0
    if args.name == "random_line":
        scene = random_line_scene(args.seed)
    elif args.name == "random_poly":
        scene = random_polynomial_scene(args.seed)
    elif args.name in BUILTIN_SCENES:
        scene = builtin(args.name)
    else:
        raise SceneInvalid("scene", f"unknown scene name {args.name!r}")
    text = dumps_scene(scene)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(f"scene written to {args.out}", file=sys.stderr)
    else:
        print(text)
    return 0


_COMMANDS = {"run": _cmd_run, "xcheck": _cmd_xcheck,
             "calibrate": _cmd_calibrate, "scene": _cmd_scene}


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except SceneError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
