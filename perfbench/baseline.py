#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarize it.

    python3 perfbench/baseline.py --seeds 1-10 [--workloads a,b] [--trace]
                                  [--out perfbench/BASELINE.json]

For every workload, runs perfbench/run.py once per seed (tracing off) and
reports, per end-to-end metric, the median, the quartiles and the spread
(q3 - q1) / median, flagged against a third of the metric's bound in
BENCHMARK.json. The accuracy metrics are listed per seed. With --trace, one
traced run per workload (the first seed) adds the per-layer split. Runs
whose kernel backend differs from the first run's are not comparable and
stop the summary.

--out writes the summary as JSON, keeping the `predictions` and
`held_out_seed` entries already in that file.
"""

import argparse
import json
from pathlib import Path
import statistics
import subprocess
import sys

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(int(trace))],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
    lines = proc.stdout.strip().splitlines()
    report = next(json.loads(line[len("REPORT "):]) for line in lines
                  if line.startswith("REPORT "))
    final = json.loads(lines[-1])
    return report, final


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
            "values": values}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads",
                        help="comma-separated; default: all in BENCHMARK.json")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    backend = None
    summary = {"seeds": seeds, "run_seconds": bench["run_seconds"],
               "workloads": {}}
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in bench["workloads"]])
    for workload in names:
        runs = []
        for seed in seeds:
            report, final = run_once(workload, seed, bench["run_seconds"], False)
            if backend is None:
                backend = report["provenance"]["backend"]
                summary["provenance"] = report["provenance"]
            if report["provenance"]["backend"] != backend:
                raise SystemExit(f"{workload} seed {seed} ran the "
                                 f"{report['provenance']['backend']} backend, "
                                 f"not {backend}: not comparable")
            runs.append((report, final))
            report["metrics"]["raw_wall_s"] = report["raw"]["wall_s"]
            print(f"{workload} seed {seed}: "
                  + ", ".join(f"{k}={v:.6g}" for k, v in report["metrics"].items())
                  + f", failed {final['failed']}/{final['attempted']}",
                  flush=True)
        entry = {"end_to_end": {}, "accuracy": {}, "attempted": 0, "failed": 0}
        for name in list(bounds) + ["raw_wall_s"]:
            stats = spread([r["metrics"][name] for r, _ in runs])
            entry["end_to_end"][name] = stats
            bound = bounds.get(name, 0.25)
            flag = "ok" if stats["spread"] <= bound / 3 else "WIDE"
            print(f"  {name}: median {stats['median']:.6g} spread "
                  f"{stats['spread']:.3f} (bound {bound}) {flag}")
        for name in runs[0][0]["accuracy"]:
            entry["accuracy"][name] = [r["accuracy"][name] for r, _ in runs]
        for _, final in runs:
            entry["attempted"] += final["attempted"]
            entry["failed"] += final["failed"]
        entry["failures"] = [f for r, _ in runs for f in r["failures"]]
        if args.trace:
            report, _ = run_once(workload, seeds[0], bench["run_seconds"], True)
            entry["per_layer"] = report["metrics"]
            entry["quadrature_identity"] = report["quadrature_identity"]
        summary["workloads"][workload] = entry

    if args.out:
        out = Path(args.out)
        if out.exists():
            old = json.loads(out.read_text())
            for key in ("held_out_seed", "predictions"):
                if key in old:
                    summary[key] = old[key]
        out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
