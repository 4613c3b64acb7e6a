"""Run every workload, untraced and traced, and print every metric by name and unit.

    python3 perfbench/baseline.py [--seed N] [--seconds S] [--write perfbench/results/NAME.json]

Run from the repository root.  Each (workload, trace) pair is one run of
perfbench/run.py; the environment record, the per-pass spread and the
correctness verdict are kept next to the numbers.  With --write the
collected results are saved as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workload import WORKLOADS  # noqa: E402


def run(workload: str, trace: int, args) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seconds", str(args.seconds), "--trace", str(trace)]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} trace={trace} failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    out = json.loads(lines[-1])
    for line in lines:
        tag, _, rest = line.partition(" ")
        if tag in ("env", "summary"):
            out[tag] = json.loads(rest)
    out["incorrect"] = [l for l in proc.stderr.splitlines() if l.startswith("incorrect:")]
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--write", default=None, help="save the results as JSON here")
    args = ap.parse_args(argv)

    results = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            res = run(workload, trace, args)
            results[f"{workload}/trace{trace}"] = res
            s = res["summary"]
            print(f"== {workload} trace={trace} correct={res['correct']} passes={s['passes']} "
                  f"load {res['env']['loadavg_start']} -> {s['loadavg_end']}")
            for line in res["incorrect"]:
                print(f"   {line}")
            metrics = dict(res["metrics"])
            if not trace:
                metrics["failed_frac"] = {"value": s["failed_frac"], "unit": "fraction"}
            for name, m in metrics.items():
                spread = None if trace else s["spread"].get(name)
                extra = f"   (passes {spread[0]:.4g} .. {spread[2]:.4g})" if spread else ""
                print(f"   {name:34s} {m['value']:>14.6g} {m['unit']}{extra}")
    if args.write:
        with open(args.write, "w") as f:
            json.dump(results, f, indent=1, sort_keys=True)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
