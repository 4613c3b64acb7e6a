"""condmoments benchmark: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root; the package is imported from ./src.  Each
measured pass is a fresh child process (perfbench/workload.py) that runs the
workload's slice of the bundled verify suite through the public CLI path, as
a `condmoments verify` user would, in one thread with BLAS pinned to one
thread.  Passes repeat at the same seed until the next one would end after
--seconds (at least MIN_PASSES run), and every metric is the median over the
passes of the run.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced and
traced passes and reports the per-layer metrics of the traced ones (see
layertrace.py) and the tracing overhead.  Every run checks the outputs
(see check()).  Lines before the last print the environment, each pass,
every metric by name and unit, and the spread over the passes.  The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  A pass that cannot run at all (for example,
no sources) ends the run with exit code 1 and no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workload import PROBE_CLOSED, SCALE, WORKLOADS  # noqa: E402

MIN_PASSES = 3
PASS_TIMEOUT_S = 150
BAND = 3.0  # correctness band, in multiples of a row's gate tolerance
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# end-to-end metrics measured on each untraced pass: name -> unit (pass_frac,
# the fifth, is the same on every pass at a seed)
PER_PASS = {"setup_s": "s", "verdict_s": "s", "samples_per_s": "samples/s", "peak_rss_mb": "MB"}
LAYER_TIMES = {
    "randgeom.draw_s": "randgeom.draw",
    "bwspace.eval_s": "bwspace.eval",
    "bwspace.jacobian_s": "bwspace.jacobian",
    "roots.sample_s": "roots.sample",
    "roots.scalar_s": "roots.scalar",
    "montecarlo.matrix_s": "montecarlo.matrix",
    "montecarlo.poly_s": "montecarlo.poly",
    "cli.parse_s": "cli.parse",
    "cli.report_s": "cli.report",
    "cli.verify_self_s": "cli.verify_self",
    "formulas.s": "formulas",
}
LAYER_COUNTS = ("randgeom.calls", "bwspace.points", "roots.lines",
                "roots.scalar_retries", "montecarlo.dropped")


class PassError(RuntimeError):
    """A pass could not run or produced no readable report."""


def loadavg() -> list[float]:
    with open("/proc/loadavg") as f:
        return [float(x) for x in f.read().split()[:3]]


def steal_ticks() -> int:
    """Ticks the hypervisor took from this machine's vCPUs, all CPUs summed."""
    with open("/proc/stat") as f:
        return int(f.readline().split()[8])


def environment() -> dict:
    """What the numbers depend on besides the code: machine, versions, load."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "git_sha": sha,
        "blas_threads": BLAS_ENV,
        "loadavg_start": loadavg(),
    }


def run_pass(args, out_dir: str, trace: bool) -> dict:
    """One child process; returns its clock readings, rows and CSV bytes."""
    cmd = [sys.executable, os.path.join(HERE, "workload.py"), "--workload", args.workload,
           "--out", out_dir]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    if trace:
        cmd.append("--trace")
    env = dict(os.environ, **BLAS_ENV)
    steal_start = steal_ticks()
    t_spawn = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise PassError(f"pass exceeded {PASS_TIMEOUT_S} s") from exc
    t_exit = time.perf_counter()
    steal = steal_ticks() - steal_start
    if proc.returncode != 0 or not proc.stdout.strip():
        raise PassError(f"pass exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    rec = json.loads(proc.stdout.strip().splitlines()[-1])
    try:
        with open(os.path.join(out_dir, "verify-report.csv"), "rb") as f:
            rec["csv"] = f.read()
        with open(os.path.join(out_dir, "verify-report.json")) as f:
            rec["rows"] = json.load(f)["comparisons"]
    except (OSError, ValueError, KeyError) as exc:
        raise PassError(f"unreadable report: {exc}") from exc
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    rec["traced"] = trace
    rec["steal_ticks"] = steal
    rec["wall_s"] = t_exit - t_spawn
    rec["setup_s"] = rec["t_verify"] - t_spawn
    rec["verdict_s"] = rec["t_written"] - t_spawn
    rec["samples_per_s"] = rec["samples"] / (rec["t_verified"] - rec["t_verify"])
    rec["peak_rss_mb"] = rec["maxrss_kb"] / 1024.0
    # diagnostic: the same rate on the CPU clock, to tell a slow CPU from a preempted one
    rec["cpu_samples_per_s"] = rec["samples"] / rec["cpu_verify_s"]
    return rec


def check(passes: list[dict]) -> list[str]:
    """Correctness problems across the passes of one run (empty when correct).

    A gate verdict is a 3- or 4-sigma test, so a correct program fails one
    now and then at some seed; pass_frac reports the verdicts.  What makes a
    run incorrect is a verdict that disagrees with its own z, an estimate
    more than BAND gate tolerances from its reference, a probe that no longer
    separates the two espnormrest forms, an errored row, or a CSV that is not
    byte-identical between passes at the same seed.
    """
    problems = []
    first = passes[0]
    for rec in passes:
        ids = [row["experiment_id"] for row in rec["rows"]]
        if not ids or ids != rec["experiments"]:
            problems.append(f"report rows {ids} do not match experiments {rec['experiments']}")
        for row in rec["rows"]:
            name, z, tol = row["experiment_id"], row["z"], row["tolerance_sigmas"]
            if row["error"]:
                problems.append(f"{name}: error {row['error']}")
            elif name == PROBE_CLOSED:
                if row["pass"]:
                    problems.append(f"{name}: published closed form no longer flagged (z={z})")
            elif row["pass"] != (abs(z) <= tol):
                problems.append(f"{name}: verdict {row['pass']} disagrees with z={z}, tol={tol}")
            elif not abs(z) <= BAND * tol:
                problems.append(f"{name}: z={z} is beyond {BAND:g} x its gate tolerance")
        if rec["csv"] != first["csv"]:
            problems.append("CSV differs between passes at the same seed")
    traced = [rec for rec in passes if rec["traced"]]
    if any(rec["counts"] != traced[0]["counts"] for rec in traced):
        problems.append("layer counts differ between traced passes at the same seed")
    return sorted(set(problems))


def pass_frac(rows: list[dict]) -> float:
    """Non-probe rows that passed their gate, over all non-probe rows."""
    gated = [row for row in rows if not row["probe"]]
    return sum(bool(row["pass"]) for row in gated) / len(gated)


def _median(passes, key):
    return statistics.median(rec[key] for rec in passes)


def end_to_end(passes: list[dict]) -> dict:
    out = {name: {"value": _median(passes, name), "unit": unit} for name, unit in PER_PASS.items()}
    out["pass_frac"] = {"value": pass_frac(passes[0]["rows"]), "unit": "fraction"}
    return out


def per_layer(untraced: list[dict], traced: list[dict]) -> dict:
    samples = traced[0]["samples"]
    out = {}
    for name, layer in LAYER_TIMES.items():
        self_s = statistics.median(rec["layers"][layer]["self_s"] for rec in traced)
        out[name] = {"value": self_s, "unit": "s"}
        # samples per layer-second; 0 where the workload never enters the layer
        out[f"{layer}.samples_per_s"] = {
            "value": samples / self_s if self_s > 0 else 0.0, "unit": "samples/s"}
    counts = traced[0]["counts"]
    for name in LAYER_COUNTS:
        out[name] = {"value": counts[name], "unit": "count"}
    lines = counts["roots.lines"]
    out["roots.first_try_frac"] = {
        "value": (lines - counts["roots.retried_lines"]) / lines if lines else 1.0,
        "unit": "fraction"}
    attempted = counts["montecarlo.attempted"]
    out["montecarlo.kept_frac"] = {
        "value": (attempted - counts["montecarlo.dropped"]) / attempted, "unit": "fraction"}
    out["trace.overhead_frac"] = {
        "value": 1.0 - _median(traced, "samples_per_s") / _median(untraced, "samples_per_s"),
        "unit": "fraction"}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="condmoments benchmark, one workload")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=None,
                    help="suite seed (default: the suite's DEFAULT_SEED)")
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    start = time.perf_counter()
    env = environment()
    print("env " + json.dumps(env), flush=True)
    min_passes = 2 * MIN_PASSES if args.trace else MIN_PASSES
    work = os.path.join(ROOT, ".perfbench-work", f"run-{os.getpid()}")
    passes = []
    try:
        while True:
            traced = bool(args.trace) and len(passes) % 2 == 1
            rec = run_pass(args, os.path.join(work, f"pass-{len(passes)}"), traced)
            passes.append(rec)
            print(f"pass {len(passes)}{' traced' if traced else ''}: wall {rec['wall_s']:.3f} s, "
                  f"setup {rec['setup_s']:.3f} s, {rec['samples_per_s']:.1f} samples/s",
                  flush=True)
            next_end = time.perf_counter() + statistics.median(p["wall_s"] for p in passes)
            if len(passes) >= min_passes and next_end > start + args.seconds:
                break
    except PassError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass

    problems = check(passes)
    for problem in problems:
        print(f"incorrect: {problem}", file=sys.stderr)
    untraced = [rec for rec in passes if not rec["traced"]]
    traced = [rec for rec in passes if rec["traced"]]
    attempted = sum(rec["samples"] for rec in passes)
    failed = sum(rec["failed"] for rec in passes)
    e2e = end_to_end(untraced)
    metrics = per_layer(untraced, traced) if args.trace else e2e
    shown = {**e2e, "failed_frac": {"value": failed / attempted, "unit": "fraction"},
             **(metrics if args.trace else {})}
    for name, m in shown.items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")
    summary = {
        "workload": args.workload, "seed": args.seed, "scale": SCALE[args.workload],
        "passes": len(untraced), "traced_passes": len(traced),
        "failed_frac": failed / attempted,
        # [min, median, max] over the untraced passes
        "spread": {name: [min(r[name] for r in untraced), _median(untraced, name),
                          max(r[name] for r in untraced)]
                   for name in (*PER_PASS, "cpu_samples_per_s")},
        "steal_ticks": sum(rec["steal_ticks"] for rec in passes),
        "loadavg_end": loadavg(),
    }
    print("summary " + json.dumps(summary))
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
