"""Command-line interface.

Subcommands:
  run SCENE METHOD   compute one method on a scene, print a report
  xcheck SCENE       run every applicable method and compare all pairs
  calibrate          measure the line constant and print it as a constants
                     block
  scene NAME         emit a built-in or generated scene as one line of JSON

SCENE is a path to a scene JSON file, or ``builtin:NAME`` for a built-in.
A complex curve on a ``plane`` domain, or an older file's ``disk`` of any
radius, is integrated over its whole plane. The line constant is the
scene's: its ``constants`` block, where calibrate's output is pasted, or
else the closed form.
Exit codes: 0 success, 2 scene/usage errors, 3 numerical failures (including
unconverged integrals), 4 cross-check FAIL.
"""

import argparse
import json
import sys

from .errors import NumericalError, SceneError, SceneInvalid
from .quadrature import QuadConfig
from .report import (CSV_HEADER, calibrate, compute, report_to_csv_row,
                     report_to_json, xcheck, xcheck_to_dict)
from .scene_io import dumps_scene, load_scene
from .scenes import (BUILTIN_SCENES, builtin, random_line_scene,
                     random_polynomial_scene)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hololink",
        description="Linking numbers of real and complex curves by "
                    "integral, combinatorial, closed-form, and residue "
                    "routes.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_quadrature(p):
        p.add_argument("--tol", type=float, default=1e-6,
                       help="quadrature tolerance (default 1e-6)")
        p.add_argument("--max-depth", type=int, default=24,
                       help="panel subdivision depth limit (default 24)")
        p.add_argument("--panel-order", type=int, default=8,
                       help="Gauss-Legendre points per panel axis "
                            "(default 8)")

    def add_common(p):
        add_quadrature(p)
        p.add_argument("--format", choices=("json", "csv"), default="json",
                       help="report format (default json)")
        p.add_argument("--seed", type=int, default=0,
                       help="seed for the crossing-count projection "
                            "direction (default 0)")

    p_run = sub.add_parser("run", help="compute one method on a scene")
    p_run.add_argument("scene", help="scene JSON path or builtin:NAME")
    p_run.add_argument("method", help="method name")
    add_common(p_run)

    p_x = sub.add_parser("xcheck",
                         help="cross-check all applicable methods")
    p_x.add_argument("scene", help="scene JSON path or builtin:NAME")
    add_common(p_x)

    p_cal = sub.add_parser("calibrate",
                           help="measure the line constant and print it as "
                                "a scene constants block")
    add_quadrature(p_cal)

    p_scene = sub.add_parser("scene", help="emit a scene as one line of JSON")
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


def _config(args):
    return QuadConfig(tol=args.tol, max_depth=args.max_depth,
                      panel_order=args.panel_order)


def _emit_report(report, fmt):
    if fmt == "csv":
        print(CSV_HEADER)
        print(report_to_csv_row(report))
    else:
        print(report_to_json(report))


def _cmd_run(args):
    scene = _load_scene_arg(args.scene)
    cfg = _config(args)
    rep = compute(scene, args.method, cfg, seed=args.seed)
    _emit_report(rep, args.format)
    if not rep.converged:
        print(f"error: {args.method} did not converge within max_depth="
              f"{cfg.max_depth}", file=sys.stderr)
        return 3
    return 0


def _cmd_xcheck(args):
    scene = _load_scene_arg(args.scene)
    result = xcheck(scene, _config(args), seed=args.seed)
    if args.format == "csv":
        print(CSV_HEADER)
        for rep in result.reports:
            print(report_to_csv_row(rep))
    else:
        print(json.dumps(xcheck_to_dict(result), indent=2))
    print(f"xcheck {result.scene_id}: {result.verdict}", file=sys.stderr)
    for failure in result.failures:
        print(f"error: {failure['method']} raised {failure['error']}: "
              f"{failure['message']}", file=sys.stderr)
    return 0 if result.verdict == "PASS" else 4


def _cmd_calibrate(args):
    print(json.dumps(calibrate(_config(args)).to_dict(), indent=2))
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
