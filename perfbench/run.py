#!/usr/bin/env python3
"""End-to-end benchmark of hololink.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the library is imported from
`src/` of that checkout and nowhere else. The timed body runs in one
process with one worker (HOLOLINK_WORKERS is removed from the environment)
and one BLAS thread; set-up is also timed in two child processes. It
generates the workload's scenes from the seed (set-up), then
runs rounds of the workload's queries one after another until S seconds
have passed, always finishing the round in progress and running at least
one. Every answer is checked against a reference; failures are counted,
never fatal.

--trace 0 reports the end-to-end metrics; their times are scaled to a fixed
host speed measured in the same run (see speed.py). --trace 1 alternates
untraced and traced rounds (at least one of each) and reports the per-layer
metrics of the traced rounds, per round, from spans recorded around the
library's functions (see tracer.py); the spans are written to
perfbench/out/.

Every metric is printed by name with its unit, then a `REPORT {...}` line
with the provenance, every metric and the failures, and last one JSON line:
{"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import hashlib
import json
import os
from pathlib import Path
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 2    # extra set-ups in child processes; setup_s is the median
REF_EVERY = 1.0     # seconds of timed body between two speed samples
REF_EDGE = 3        # speed samples before the first and after the last round

# name -> unit; the metrics of a --trace 0 run
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# accuracy and failure metrics: printed by every run, not gated (they are
# exact for a given seed and move with it; see README.md)
ACCURACY = {
    "fail_frac": "ratio",
    "err_rel_max": "ratio",
    "budget_ratio_max": "ratio",
    "xcheck_allowed_rel": "ratio",
}
# name -> unit; the metrics of a --trace 1 run, each per traced round
PER_LAYER = {
    "quadrature.s": "s",
    "quadrature.self_s": "s",
    "quadrature.calls": "count",
    "quadrature.panels": "count",
    "quadrature.unconverged": "count",
    "quadrature.tail_rel_max": "ratio",
    "quadrature.runtime_warnings": "count",
    "kernels.bm_grid.s": "s",
    "kernels.bm_grid.calls": "count",
    "kernels.bm_grid.pairs": "count",
    "kernels.bm_grid.bytes": "B",
    "kernels.pairs_per_panel": "count",
    "kernels.pairs_per_s": "1/s",
    "kernels.gauss_grid.s": "s",
    "kernels.gauss_grid.calls": "count",
    "kernels.gauss_grid.pairs": "count",
    "kernels.crossing_sum.s": "s",
    "kernels.crossing_sum.calls": "count",
    "kernels.crossing_sum.pairs": "count",
    "kernels.min_dist.s": "s",
    "kernels.runtime_warnings": "count",
    "geometry.eval_batch.s": "s",
    "geometry.eval_batch.calls": "count",
    "geometry.eval_batch.points": "count",
    "geometry.coeff_batch.s": "s",
    "geometry.validate_scene.s": "s",
    "geometry.runtime_warnings": "count",
    "scene_io.loads_scene.s": "s",
    "scene_io.dumps_scene.s": "s",
    "gauss.Polyline3.from_curve.s": "s",
    "gauss.crossing_linking.s": "s",
    "gauss.gauss_linking.s": "s",
    "holo.holo_linking_integral.s": "s",
    "residue.lift_theta.s": "s",
    "residue.residue_linking.s": "s",
    "residue.curve_surface_intersections.s": "s",
    "residue.runtime_warnings": "count",
    "report.calibrate.s": "s",
    "report.xcheck.s": "s",
    "report.compute.s": "s",
    "report.compute.calls": "count",
    "setup.geometry.eval_batch.s": "s",
    "setup.geometry.validate_scene.s": "s",
    "setup.scene_io.dumps_scene.s": "s",
    "trace_overhead_s": "s",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("holo_xcheck", "gauss_loops", "fast_routes"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_library():
    """Import hololink from this checkout's src/, refusing any other copy."""
    if not (SRC / "hololink" / "__init__.py").is_file():
        raise SystemExit(f"error: no hololink sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import hololink
    if Path(hololink.__file__).resolve().parent != SRC / "hololink":
        raise SystemExit(f"error: imported hololink from {hololink.__file__}, "
                         f"not from {SRC}")
    return hololink


def one_worker():
    """One worker, one BLAS thread; returns the HOLOLINK_WORKERS it removed."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    return os.environ.pop("HOLOLINK_WORKERS", None)


def provenance(hl, seed, workers_seen):
    import numpy
    digest = hashlib.sha256()
    for path in sorted((SRC / "hololink").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True, timeout=30,
                                check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "backend": "numba" if hl._kernels.HAS_NUMBA else "numpy",
        "hololink_workers_env": workers_seen,
        "workers": hl.quadrature.workers_from_env(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "seed": seed,
    }


def setup_probe(workload, seed):
    """Seconds for import plus set-up, measured in a fresh child process."""
    out = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                          "--workload", workload, "--seed", str(seed),
                          "--setup-probe"],
                         capture_output=True, text=True, timeout=120,
                         check=True)
    return float(out.stdout.split()[-1])


def run_rounds(hl, queries, workloads, seconds, tracer, speed):
    """Closed loop over rounds until `seconds` have passed. With a tracer,
    rounds alternate untraced / traced and both kinds run at least once.
    Speed samples run between queries; a round's time is the sum of its
    query times. Returns (tally, [(seconds, traced)])."""
    tally = workloads.Tally()
    rounds = []
    for _ in range(REF_EDGE):
        speed.sample()
    last_ref = start = time.perf_counter()
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            tracer.query = f"round{len(rounds)}"
            tracer.install(hl)
        state = {}
        busy = 0.0
        try:
            for query in queries:
                t0 = time.perf_counter()
                workloads.run_query(query, state, tally)
                busy += time.perf_counter() - t0
                if not traced and time.perf_counter() - last_ref >= REF_EVERY:
                    speed.sample()
                    last_ref = time.perf_counter()
        finally:
            if traced:
                tracer.uninstall()
        rounds.append((busy, traced))
        done = time.perf_counter() - start >= seconds
        if done and (tracer is None or len(rounds) >= 2):
            for _ in range(REF_EDGE):
                speed.sample()
            return tally, rounds


def accuracy_metrics(tally):
    return {
        "fail_frac": tally.failed / tally.attempted,
        "err_rel_max": max(tally.err_rel, default=None),
        "budget_ratio_max": max(tally.budget_ratio, default=None),
        "xcheck_allowed_rel": (statistics.median(tally.allowed_rel)
                               if tally.allowed_rel else None),
    }


def layer_metrics(tracer, rounds, tracer_mod):
    """Per-layer metrics per traced round, plus the set-up spans."""
    traced = [f"round{i}" for i, (_, t) in enumerate(rounds) if t]
    n = len(traced)
    body = tracer_mod.summarize(tracer.spans, tracer.warnings, set(traced))
    setup = tracer_mod.summarize(tracer.spans, tracer.warnings, {"setup"})
    metrics = {}
    for name in PER_LAYER:
        if name.startswith("setup."):
            metrics[name] = setup.get(name[len("setup."):], 0.0)
        elif name == "quadrature.tail_rel_max":
            metrics[name] = body.get(name, 0.0)
        else:
            metrics[name] = body.get(name, 0.0) / n
    pairs = body.get("kernels.bm_grid.pairs", 0.0)
    panels = body.get("quadrature.panels", 0.0)
    bm_s = body.get("kernels.bm_grid.s", 0.0)
    metrics["kernels.pairs_per_panel"] = pairs / panels if panels else 0.0
    metrics["kernels.pairs_per_s"] = pairs / bm_s if bm_s else 0.0
    metrics["trace_overhead_s"] = (
        statistics.median(d for d, t in rounds if t)
        - statistics.median(d for d, t in rounds if not t))
    identity = {
        "quadrature.s": metrics["quadrature.s"],
        "quadrature.self_s": metrics["quadrature.self_s"],
        "children_s": body.get("quadrature.children_s", 0.0) / n,
        "children_layers": body["quadrature.children_layers"],
    }
    identity["gap_s"] = (identity["quadrature.s"] - identity["quadrature.self_s"]
                         - identity["children_s"])
    return metrics, identity


def main(argv=None):
    args = parse_args(argv)
    t_start = time.perf_counter()
    workers_seen = one_worker()
    hl = import_library()
    sys.path.insert(0, str(HERE))
    import workloads
    import speed as speed_mod
    import tracer as tracer_mod

    if args.setup_probe:
        workloads.build(args.workload, args.seed)
        print(time.perf_counter() - t_start)
        return 0

    tracer = None
    if args.trace:
        tracer = tracer_mod.Tracer()
        tracer.query = "setup"
        tracer.install(hl)
    try:
        queries = workloads.build(args.workload, args.seed)
    finally:
        if tracer is not None:
            tracer.uninstall()
    setup_s = time.perf_counter() - t_start

    speed = speed_mod.Speed()
    tally, rounds = run_rounds(hl, queries, workloads, args.seconds, tracer,
                               speed)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    prov = provenance(hl, args.seed, workers_seen)
    accuracy = accuracy_metrics(tally)
    record = {"workload": args.workload, "provenance": prov,
              "rounds": len(rounds), "queries_per_round": len(queries),
              "round_s": [d for d, _ in rounds],
              "accuracy": accuracy, "failures": tally.failures[:20]}
    if args.trace:
        metrics, identity = layer_metrics(tracer, rounds, tracer_mod)
        units = PER_LAYER
        record["quadrature_identity"] = identity
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
        tracer.write(spans_path)
        record["spans"] = str(spans_path.relative_to(ROOT))
    else:
        setups = [setup_s] + [setup_probe(args.workload, args.seed)
                              for _ in range(SETUP_PROBES)]
        wall_scale = speed.scale(workloads.BULK_SHARE[args.workload])
        setup_scale = speed.scale(0.0)
        record["raw"] = {"wall_s": statistics.median(d for d, _ in rounds),
                         "setup_s": statistics.median(setups),
                         "setup_samples_s": setups, "wall_scale": wall_scale,
                         "setup_scale": setup_scale,
                         "speed_calls_s": speed.calls,
                         "speed_bulk_s": speed.bulk}
        metrics = {
            "wall_s": record["raw"]["wall_s"] * wall_scale,
            "setup_s": record["raw"]["setup_s"] * setup_scale,
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END
    record["metrics"] = metrics

    print(f"workload {args.workload} seed {args.seed}: {len(rounds)} rounds "
          f"of {len(queries)} queries, backend {prov['backend']}, "
          f"{prov['workers']} worker(s)")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    for name, value in accuracy.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name} = {shown} {ACCURACY[name]}")
    for failure in tally.failures[:20]:
        print(f"  FAILED {failure['query']}: {'; '.join(failure['reasons'])}")
    print("REPORT " + json.dumps(record))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
