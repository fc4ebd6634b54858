"""Run every workload and print each end-to-end metric by name and unit,
with fail_ratio, the tracing overhead and the spreads; optionally write the
result record.

    python3 perfbench/report.py [--seeds 1,2] [--seconds 20] [--write FILE]

For each workload it runs the first seed, the second seed, the first seed
again, and one traced run of the first seed.  The run-to-run spread is the
difference between the two runs of the first seed; the seed spread is the
difference between the seeds; both are given as a share of their mean.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

import run

END_TO_END = ("setup_s", "wall_s", "cpu_s", "peak_rss_mb")


def run_once(workload, seed, seconds, trace):
    with tempfile.NamedTemporaryFile(suffix=".json", dir=run.WORK_ROOT) as fh:
        done = subprocess.run(
            [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(trace), "--out", fh.name],
            stdout=subprocess.PIPE, text=True, check=True)
        sys.stdout.write(done.stdout)
        return json.loads(Path(fh.name).read_text(encoding="utf-8"))


def _share(a, b):
    return abs(a - b) / ((a + b) / 2)


def _git(*args):
    try:
        return subprocess.run(["git", *args], cwd=run.ROOT, text=True,
                              capture_output=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1,2")
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--write", help="write the result record here")
    args = parser.parse_args()
    seed_a, seed_b = (int(s) for s in args.seeds.split(","))
    run.WORK_ROOT.mkdir(exist_ok=True)

    workloads = {}
    for name in run.WORKLOADS:
        a1 = run_once(name, seed_a, args.seconds, 0)
        b = run_once(name, seed_b, args.seconds, 0)
        a2 = run_once(name, seed_a, args.seconds, 0)
        traced = run_once(name, seed_a, args.seconds, 1)
        metrics = {}
        for key in END_TO_END:
            va1, vb, va2 = (r["metrics"][key]["value"] for r in (a1, b, a2))
            metrics[key] = {
                "value": statistics.median((va1, vb, va2)),
                "unit": a1["metrics"][key]["unit"],
                "run_to_run_spread": _share(va1, va2),
                "seed_spread": _share((va1 + va2) / 2, vb),
            }
        workloads[name] = {
            "metrics": metrics,
            "fail_ratio": max(r["fail_ratio"] for r in (a1, b, a2, traced)),
            "trace_overhead_s": traced["metrics"]["trace.overhead_s"]["value"],
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }

    print(f"\n{'workload':9s}{'metric':14s}{'value':>12s} {'unit':6s}"
          f"{'run-to-run':>11s}{'seed':>8s}")
    for name, w in workloads.items():
        for key, m in w["metrics"].items():
            print(f"{name:9s}{key:14s}{m['value']:12.4f} {m['unit']:6s}"
                  f"{m['run_to_run_spread']:11.3f}{m['seed_spread']:8.3f}")
        print(f"{name:9s}{'fail_ratio':14s}{w['fail_ratio']:12.4f} ratio")
        print(f"{name:9s}{'trace overhead':14s}{w['trace_overhead_s']:12.4f} s")

    if args.write:
        pins = json.loads(run.EXPECTED_FILE.read_text(encoding="utf-8"))
        record = {
            "commit": _git("rev-parse", "HEAD"),
            "src_tree": _git("rev-parse", "HEAD:src"),
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "cpu_model": _cpu_model(),
            "seeds": [seed_a, seed_b],
            "seconds": args.seconds,
            "verify_checks_per_suite": dict(Counter(s for s, _, _ in pins["verify"])),
            "workloads": workloads,
        }
        Path(args.write).write_text(json.dumps(record, indent=2) + "\n",
                                    encoding="utf-8")


if __name__ == "__main__":
    main()
