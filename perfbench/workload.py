"""One pass of a benchmark workload through the public condmoments CLI path.

run.py starts this file as a child process for every measured pass:

    python3 perfbench/workload.py --workload NAME --seed S --out DIR [--trace]

The child builds the bundled suite at seed S, keeps the workload's
experiments, multiplies their sample counts by the workload's SCALE
(experiment seeds are left as the suite derives them), and runs them through
cli.parse_config -> cli.run_verify -> cli.write_report with the CLI defaults
(no --workers).  It prints one JSON line: its perf_counter readings (the
clock is system-wide, so run.py can subtract its own spawn time), the CPU
time of run_verify, the sample counts, ru_maxrss and, with --trace, the
layer trace.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# The three workloads partition cli.default_suite() by experiment id.
POLY_DETERMINED = ("theorem-determined-d1", "theorem-determined-d2",
                   "theorem-determined-d3", "scaling-identity-d2")
POLY_LINES = ("theorem-underdetermined-n2d2", "relative-vs-matrix-n2d2")
WORKLOADS = ("poly-determined", "poly-lines", "matrix")
# Sample-count multiplier of each workload against the bundled suite, chosen
# so a pass takes a few seconds on one core and a run holds several passes.
SCALE = {"poly-determined": 0.1, "poly-lines": 0.2, "matrix": 1.0}

PROBE_CLOSED = "espnormrest-probe-closed"

_POLY = ("poly_moment", "poly_matrix_pair", "poly_scaling_pair")
_TWO_SIDED = ("detweighted_rect_pair", "detweighted_square_pair", "poly_scaling_pair")


def select(workload: str, experiment_ids) -> list[str]:
    """The suite experiments a workload runs, in suite order."""
    if workload == "poly-determined":
        return [e for e in experiment_ids if e in POLY_DETERMINED]
    if workload == "poly-lines":
        return [e for e in experiment_ids if e in POLY_LINES]
    if workload == "matrix":
        return [e for e in experiment_ids if e not in POLY_DETERMINED + POLY_LINES]
    raise ValueError(f"unknown workload {workload!r}")


def primary_samples(estimator_id: str, samples: int) -> int:
    """Systems on the polynomial side, matrices or vectors on the matrix side.

    The matrix half of poly_matrix_pair is timed but not counted.
    """
    return 2 * samples if estimator_id in _TWO_SIDED else samples


def _import_package():
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "condmoments", "__init__.py")):
        raise SystemExit(f"condmoments sources not found under {src}")
    sys.path.insert(0, src)
    import condmoments
    from condmoments import bwspace, cli, formulas, montecarlo, randgeom, roots

    if not os.path.abspath(condmoments.__file__).startswith(src + os.sep):
        raise SystemExit(f"imported condmoments from {condmoments.__file__}, not {src}")
    return {"bwspace": bwspace, "cli": cli, "formulas": formulas,
            "montecarlo": montecarlo, "randgeom": randgeom, "roots": roots}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=None, help="suite seed (default: cli.DEFAULT_SEED)")
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)

    modules = _import_package()
    cli, bwspace = modules["cli"], modules["bwspace"]
    seed = cli.DEFAULT_SEED if args.seed is None else args.seed
    scale = SCALE[args.workload]
    config = cli.config_to_dict(cli.default_suite(seed))
    wanted = select(args.workload, [e["experiment_id"] for e in config["experiments"]])
    config["experiments"] = [e for e in config["experiments"] if e["experiment_id"] in wanted]
    for e in config["experiments"]:
        e["samples"] = max(1, round(e["samples"] * scale))
        if "matrix_samples" in e["params"]:
            e["params"]["matrix_samples"] = max(1, round(e["params"]["matrix_samples"] * scale))

    # warm the monomial-table caches the polynomial estimators fill on first
    # use, through one jacobian_at call on a zero system of each shape (before
    # tracing, so the layer counts see only the verify run)
    for e in config["experiments"]:
        if e["estimator_id"] in _POLY:
            n, degrees = e["params"]["n"], e["params"]["degrees"]
            zero = bwspace.make_system(n, degrees, [[0.0] * math.comb(n + d, n) for d in degrees])
            bwspace.jacobian_at(zero, [[1.0] + [0.0] * n])

    tracer = None
    if args.trace:
        from layertrace import Tracer

        tracer = Tracer()
        tracer.install(modules)
    experiments = cli.parse_config(config)

    t_verify = time.perf_counter()
    cpu_verify = time.process_time()
    report = cli.run_verify(experiments)
    t_verified = time.perf_counter()
    cpu_verify = time.process_time() - cpu_verify
    cli.write_report(report, args.out)
    t_written = time.perf_counter()

    samples = failed = 0
    for exp, row in zip(experiments, report.rows):
        n = primary_samples(exp.estimator_id, exp.samples)
        samples += n
        if row["error"]:
            failed += n
        elif exp.estimator_id in _POLY:
            failed += exp.samples - row["n_samples"]  # systems dropped by the estimator

    record = {
        "t_verify": t_verify,
        "t_verified": t_verified,
        "t_written": t_written,
        "cpu_verify_s": cpu_verify,
        "samples": samples,
        "failed": failed,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "experiments": [e.experiment_id for e in experiments],
    }
    if tracer is not None:
        record["layers"] = tracer.layer_times()
        record["counts"] = tracer.counts
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
