"""Experiment harness and command-line interface.

Subcommands:

    verify    run a verification suite (bundled default or --config) and
              write a JSON report plus CSV summary
    estimate  run one estimator and print the result as JSON
    formulas  print any closed-form value as JSON
    selftest  run the property suites with fixed seeds

Config and report formats are JSON; the CSV summary has one row per
experiment with columns experiment_id, estimator_id, params, n_samples,
mean, stderr, closed_form, z, pass.  The library functions (run_verify,
run_selftest, run_formulas) return their results and print nothing; main and
the _cmd_* functions print them: verify its verdict lines once the report
files are written, selftest its lines after the last suite.  Exit codes:
0 all non-probe experiments pass, 1 a check failed, an estimator errored or
stdout was closed before the output was written, 2 the config or command
line was invalid.  The estimator tables below (_ESTIMATORS, _PAIRS,
_CLOSED_FORMS) are the single list of estimator and closed-form ids and their
params, and the fields of ExperimentConfig the single list of experiment keys
and their defaults; a config key or param that no list names is a config
error.  _FORMULAS is the one table of closed-form values: the formulas
subcommand prints its entries, and each _CLOSED_FORMS id names the entry it
reads.

run_verify deals the rows of more than one sampling range (an estimator call
that montecarlo.ranges counts more than one range for, such as an n = 2,
d = 2 row of 2000 systems of 8 lines, which runs 6 ranges of 341 systems)
round-robin, in row order, over one process per CPU in os.sched_getaffinity
(at most one per such row): the caller's process runs its share and every
other row, and the rest are forked once at the start and pickle their rows
back through a pipe.  A row is a pure function of its experiment, so the
report is the same in any number of processes; one CPU, a platform without
sched_getaffinity, or fewer than two such rows runs every row in order in the
caller's process.  Forking a row of one range costs more than the row (a
round trip of 2.5-2.9 ms from a numpy process), which is why the small rows
stay in the caller's: dealing every row took the poly-determined benchmark,
four one-range rows, from 571k to 295k samples/s on a 2-core Xeon (slower in
19 of 20 alternating pairs).  The fan-out stays also where it does not gain
time, on a host whose second CPU is busy: the benchmark's peak_rss_mb reads
the caller alone, and a caller that runs both poly-lines rows also runs the
matrix half of relative-vs-matrix-n2d2 and so loads numpy.random; in one
process that workload peaks at 39.4 MB against 34.2 MB fanned out (10 of 10
alternating pairs), above the benchmark's 10% bound.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import os
import pickle
import signal
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import NamedTuple

import numpy as np

from . import __version__ as VERSION
from . import bwspace, conditioning, formulas, montecarlo, randgeom, roots
from .montecarlo import Comparison, EstimatorConfig
from .randgeom import RngStream, mix64

CONFIG_VERSION = 1
DEFAULT_SEED = 20260809
SEED_ENV_VAR = "CONDMOMENTS_SEED"


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment; its fields are the one list of experiment keys and their
    defaults, which parse_config reads and config_to_dict writes (a config
    without a seed gets one derived)."""

    experiment_id: str
    estimator_id: str
    params: dict
    samples: int
    seed: int
    tolerance_sigmas: float = 3.0
    closed_form_id: str | None = None
    lines_per_system: int | None = None
    probe: bool = False


@dataclass
class Report:
    version: str
    timestamp: str
    runtime_seconds: float
    overall_pass: bool
    rows: list[dict] = field(default_factory=list)
    processes: int = 1


# ---------------------------------------------------------------------------
# estimator tables: the one list of estimator, pair and closed-form ids.  They
# look montecarlo and formulas functions up on the module at call time, so a
# function replaced there (a test double, a tracer) is the one that runs.

# single estimator id -> its params, in montecarlo's estimate_<id> and <id>_domain order
_ESTIMATORS = {
    "pinv_moment": ("r", "m", "alpha", "norm"),
    "detweighted_rect": ("r", "n", "alpha", "norm"),
    "detweighted_square": ("r", "k", "alpha", "norm"),
    "espnorm": ("n", "alpha"),
    "espnormrest": ("n", "alpha", "beta"),
    "poly_moment": ("n", "degrees", "alpha", "relative", "norm"),
}
_DEFAULTS = {"relative": False}
_SECOND_FROBENIUS = {"alpha": 2.0, "norm": "frobenius"}


class _Pair(NamedTuple):
    """Two estimates checked as lhs_scale * lhs = rhs_scale * rhs.

    lhs and rhs map the params it takes to (estimator id, its params), scales
    to (lhs_scale, rhs_scale); rhs_samples names the param holding the rhs
    sample count when samples are not overridden; defaults holds the params
    a config may leave out.
    """

    params: tuple[str, ...]
    lhs: Callable[[dict], tuple[str, dict]]
    rhs: Callable[[dict], tuple[str, dict]]
    scales: Callable[[dict], tuple[float, float]] = lambda p: (1.0, 1.0)
    rhs_samples: str | None = None
    defaults: dict = {}


_PAIRS = {
    # rectangular fibration: scaled weighted r x n moment = pinv moment over r x (n+1)
    "detweighted_rect_pair": _Pair(
        params=("r", "n", "alpha", "norm"),
        lhs=lambda p: ("detweighted_rect", p),
        rhs=lambda p: ("pinv_moment", {**p, "m": p["n"] + 1}),
        scales=lambda p: (formulas.rect_fibration_constant(p["r"], p["n"]).value, 1.0),
    ),
    # kernel fibration: r x n pinv moment = scaled square moment, det exponent 2(n-r)
    "detweighted_square_pair": _Pair(
        params=("r", "n", "alpha", "norm"),
        lhs=lambda p: ("pinv_moment", {**p, "m": p["n"]}),
        rhs=lambda p: ("detweighted_square", {**p, "k": p["n"] - p["r"]}),
        scales=lambda p: (1.0, formulas.kernel_constant(p["r"], p["n"] - p["r"]).value),
        defaults=_SECOND_FROBENIUS,
    ),
    # relative polynomial moment = pinv moment over r x (n+1)
    "poly_matrix_pair": _Pair(
        params=("n", "degrees", "alpha", "norm", "matrix_samples"),
        lhs=lambda p: ("poly_moment", {**p, "relative": True}),
        rhs=lambda p: ("pinv_moment", {**p, "r": len(p["degrees"]), "m": p["n"] + 1}),
        rhs_samples="matrix_samples",
    ),
    # absolute = Gamma(N) / Gamma(N - alpha/2) * relative
    "poly_scaling_pair": _Pair(
        params=("n", "degrees", "alpha", "norm"),
        lhs=lambda p: ("poly_moment", {**p, "relative": False}),
        rhs=lambda p: ("poly_moment", {**p, "relative": True}),
        scales=lambda p: (1.0, formulas.scaling_constant(p["n"], p["degrees"], p["alpha"]).value),
    ),
}

class _ClosedForm(NamedTuple):
    """A closed form as the check of a single estimate: the estimator it
    checks, the params it holds at, the _FORMULAS entry that gives its value,
    and, where that entry returns more than one form, the field it reads."""

    checks: str
    fixed: dict
    formula: str
    field: str | None = None


_CLOSED_FORMS = {
    "pinv_moment_value": _ClosedForm("pinv_moment", _SECOND_FROBENIUS, "pinv_moment"),
    "invnor2mdet_value": _ClosedForm("detweighted_square", _SECOND_FROBENIUS, "invnor2mdet"),
    "main_theorem_value": _ClosedForm("poly_moment", {**_SECOND_FROBENIUS, "relative": False},
                                      "main_theorem"),
    "espnorm_value": _ClosedForm("espnorm", {}, "espnorm"),
    "espnormrest_closed": _ClosedForm("espnormrest", {}, "espnormrest", "closed_form"),
    "espnormrest_sum": _ClosedForm("espnormrest", {}, "espnormrest", "sum_form"),
}


def _takes(estimator_id: str) -> tuple[tuple[str, ...], dict]:
    """The params an estimator or pair id takes, and the defaults of those a
    config may leave out."""
    pair = _PAIRS.get(estimator_id)
    if pair is not None:
        return pair.params, {**_DEFAULTS, **pair.defaults}
    if estimator_id in _ESTIMATORS:
        return _ESTIMATORS[estimator_id], _DEFAULTS
    raise ValueError(f"unknown estimator_id {estimator_id!r}")


def _calls(exp: ExperimentConfig, samples_override: int | None = None) -> list:
    """(estimator id, args, seed, samples) of each estimator call an experiment makes."""
    samples = exp.samples if samples_override is None else samples_override
    p = {**_takes(exp.estimator_id)[1], **exp.params}
    pair = _PAIRS.get(exp.estimator_id)
    if pair is not None:
        own = pair.rhs_samples is not None and samples_override is None
        sides = [(*pair.lhs(p), mix64(exp.seed, 1), samples),
                 (*pair.rhs(p), mix64(exp.seed, 2), p[pair.rhs_samples] if own else samples)]
    else:
        sides = [(exp.estimator_id, p, exp.seed, samples)]
    return [(est_id, [params[name] for name in _ESTIMATORS[est_id]], seed, n)
            for est_id, params, seed, n in sides]


def _closed_form(exp: ExperimentConfig) -> formulas.FormulaValue:
    """The closed form of a single-estimator experiment, checked to apply."""
    cf_id = exp.closed_form_id
    if cf_id not in _CLOSED_FORMS:
        raise ValueError(f"closed_form_id must be one of {list(_CLOSED_FORMS)}, got {cf_id!r}")
    form = _CLOSED_FORMS[cf_id]
    if form.checks != exp.estimator_id:
        raise ValueError(f"{cf_id} checks {form.checks}, not {exp.estimator_id}")
    p = {**_DEFAULTS, **exp.params}
    for name, at in form.fixed.items():
        if p.get(name) != at:
            raise ValueError(f"{cf_id} holds only at {name} = {at!r}, got {p.get(name)!r}")
    value = _FORMULAS[form.formula](exp.params)
    return value if form.field is None else getattr(value, form.field)


def _validate_experiment(exp: ExperimentConfig) -> None:
    """Reject an experiment before sampling: every estimator call must pass its
    montecarlo domain check; a single estimate needs a closed form that applies."""
    try:
        if not isinstance(exp.probe, bool):
            raise ValueError(f"probe must be true or false, got {exp.probe!r}")
        formulas.check_finite(positive=True, tolerance_sigmas=exp.tolerance_sigmas)
        # a pair's estimators take seeds mixed from the experiment's, so check it here
        randgeom.check_seed(exp.seed)
        if exp.lines_per_system is not None:
            bwspace.check_counts(lines_per_system=exp.lines_per_system)
        # the params are checked against the tables before _calls indexes them
        takes, defaults = _takes(exp.estimator_id)
        unknown = [name for name in exp.params if name not in takes]
        missing = [name for name in takes if name not in exp.params and name not in defaults]
        wrong = [f"{kind} param {', '.join(map(repr, names))}"
                 for kind, names in (("unknown", unknown), ("missing", missing)) if names]
        if wrong:
            raise ValueError(f"{'; '.join(wrong)}: {exp.estimator_id} takes {', '.join(takes)}")
        calls, pair = _calls(exp), _PAIRS.get(exp.estimator_id)
        for est_id, args, _, samples in calls:
            bwspace.check_counts(samples=samples)
            getattr(montecarlo, f"{est_id}_domain")(*args)
        if pair is None:
            _closed_form(exp)
        elif exp.closed_form_id is not None:
            raise ValueError(f"pair experiments take no closed_form_id, "
                             f"got {exp.closed_form_id!r}")
    except (KeyError, TypeError, ValueError) as err:
        raise ValueError(f"{exp.experiment_id}: {err}") from err


def run_experiment(exp: ExperimentConfig, samples_override: int | None = None) -> Comparison:
    """Execute one experiment and compare against its reference."""
    estimates = [getattr(montecarlo, f"estimate_{est_id}")(
                     *args, EstimatorConfig(samples=n, seed=seed, lines_per_system=_lines(exp)))
                 for est_id, args, seed, n in _calls(exp, samples_override)]
    pair = _PAIRS.get(exp.estimator_id)
    if pair is None:
        return montecarlo.compare(estimates[0], _closed_form(exp), exp.tolerance_sigmas)
    lhs_scale, rhs_scale = pair.scales(exp.params)
    return montecarlo.compare_pair(*estimates, exp.tolerance_sigmas,
                                   lhs_scale=lhs_scale, rhs_scale=rhs_scale)


def _lines(exp: ExperimentConfig) -> int:
    """The lines per system an experiment's estimator calls sample."""
    lines = exp.lines_per_system
    return EstimatorConfig.lines_per_system if lines is None else lines


def _row(exp: ExperimentConfig, comp: Comparison | None, err: Exception | None = None) -> dict:
    """One report row: the comparison, or the error that stopped the experiment."""
    est = comp.estimate if comp else None
    ref = getattr(comp, "reference_estimate", None)
    return {
        "experiment_id": exp.experiment_id,
        "estimator_id": exp.estimator_id,
        "params": exp.params,
        "n_samples": getattr(est, "n_samples", 0),
        "attempted": getattr(est, "attempted", None),
        "dropped": getattr(est, "dropped", None),
        "reference_attempted": getattr(ref, "attempted", None),
        "reference_dropped": getattr(ref, "dropped", None),
        "seed": exp.seed,
        "method": getattr(est, "method", None),
        "mean": getattr(est, "mean", None),
        "stderr": getattr(est, "stderr", None),
        "lhs_scale": getattr(comp, "lhs_scale", 1.0),
        "closed_form": comp.closed_form.value if comp and comp.closed_form else None,
        "closed_form_id": exp.closed_form_id,
        "reference_value": getattr(comp, "reference_value", None),
        "reference_stderr": getattr(comp, "reference_stderr", None),
        "z": getattr(comp, "z_score", None),
        "pass": getattr(comp, "passed", False),
        "probe": exp.probe,
        "tolerance_sigmas": exp.tolerance_sigmas,
        "error": f"{type(err).__name__}: {err}" if err else None,
    }


# ---------------------------------------------------------------------------
# bundled default suite (the acceptance experiments)

def default_suite(seed: int = DEFAULT_SEED) -> list[ExperimentConfig]:
    """The bundled verification suite, a config with base seed `seed` run
    through parse_config like any other."""
    exps: list[dict] = []

    def add(*required, **optional):
        # the required fields in _REQUIRED_FIELDS order, then those the row sets
        exps.append(dict(zip(_REQUIRED_FIELDS, required, strict=True), **optional))

    for r, m in ((1, 3), (2, 4), (3, 5), (2, 5)):
        add(f"pinv-r{r}m{m}", "pinv_moment",
            {"r": r, "m": m, "alpha": 2.0, "norm": "frobenius"},
            100_000, closed_form_id="pinv_moment_value")

    for r, k in ((1, 1), (2, 1), (2, 2), (3, 1)):
        add(f"invnor2mdet-r{r}k{k}", "detweighted_square",
            {"r": r, "k": float(k), "alpha": 2.0, "norm": "frobenius"},
            100_000, closed_form_id="invnor2mdet_value")

    for norm in conditioning.NORMS:
        add(f"rect-identity-{norm}", "detweighted_rect_pair",
            {"r": 2, "n": 3, "alpha": 2.0, "norm": norm}, 100_000)

    add("kernel-identity-r2n3", "detweighted_square_pair",
        {"r": 2, "n": 3, "alpha": 2.0, "norm": "frobenius"}, 100_000)

    for d in (1, 2, 3):
        add(f"theorem-determined-d{d}", "poly_moment",
            {"n": 1, "degrees": [d], "alpha": 2.0, "relative": False,
             "norm": "frobenius"},
            10_000, tolerance_sigmas=4.0, closed_form_id="main_theorem_value")

    add("theorem-underdetermined-n2d2", "poly_moment",
        {"n": 2, "degrees": [2], "alpha": 2.0, "relative": False,
         "norm": "frobenius"},
        10_000, closed_form_id="main_theorem_value", lines_per_system=8)

    add("relative-vs-matrix-n2d2", "poly_matrix_pair",
        {"n": 2, "degrees": [2], "alpha": 2.0, "norm": "frobenius",
         "matrix_samples": 100_000},
        10_000, lines_per_system=8)

    add("scaling-identity-d2", "poly_scaling_pair",
        {"n": 1, "degrees": [2], "alpha": 2.0, "norm": "frobenius"}, 10_000)

    for n, alpha in ((3, 4.0), (2, -2.0), (4, 2.0)):
        add(f"espnorm-n{n}a{alpha:g}", "espnorm",
            {"n": n, "alpha": alpha}, 100_000, closed_form_id="espnorm_value")

    for n, alpha in ((3, 1), (4, 2)):
        add(f"espnormrest-n{n}a{alpha}", "espnormrest",
            {"n": n, "alpha": alpha, "beta": 2.0}, 100_000, closed_form_id="espnormrest_closed")

    add("espnormrest-probe-sum", "espnormrest", {"n": 3, "alpha": 1, "beta": 0.0}, 100_000,
        closed_form_id="espnormrest_sum", probe=True)
    add("espnormrest-probe-closed", "espnormrest", {"n": 3, "alpha": 1, "beta": 0.0}, 100_000,
        tolerance_sigmas=5.0, closed_form_id="espnormrest_closed", probe=True)

    return parse_config({"seed": seed, "experiments": exps})


# ---------------------------------------------------------------------------
# config parsing

_REQUIRED_FIELDS = ("experiment_id", "estimator_id", "params", "samples")


def _experiment_config(e, index: int, seed: int) -> ExperimentConfig:
    """Experiment `index` of a config, seeded `seed` unless it has its own; an
    error names it by id, else by #index."""
    if not isinstance(e, dict):
        raise ValueError(f"#{index}: experiment must be a JSON object, got {e!r}")
    name = e.get("experiment_id", f"#{index}")
    missing = [f for f in _REQUIRED_FIELDS if f not in e]
    if missing:
        raise ValueError(f"{name}: missing field {', '.join(map(repr, missing))}")
    if not isinstance(e["params"], dict):
        raise ValueError(f"{name}: params must be a JSON object, got {e['params']!r}")
    known = {f.name for f in dataclasses.fields(ExperimentConfig)}
    unknown = [key for key in e if key not in known]
    if unknown:
        raise ValueError(f"{name}: unknown field {', '.join(map(repr, unknown))}")
    return ExperimentConfig(**{"seed": seed, **e, "experiment_id": str(e["experiment_id"]),
                               "estimator_id": str(e["estimator_id"]),
                               "params": dict(e["params"])})


def parse_config(obj: dict, seed: int | None = None) -> list[ExperimentConfig]:
    """Validate a config dict and return the experiment list.

    Experiment i without a seed of its own gets mix64(base, i + 1), where base
    is the config's seed (DEFAULT_SEED when it has none).  A seed given here
    replaces that base and every experiment's own seed, which is still checked.
    """
    if not isinstance(obj, dict):
        raise ValueError("config must be a JSON object")
    unknown = [key for key in obj if key not in ("version", "seed", "experiments")]
    if unknown:
        raise ValueError(f"unknown config field {', '.join(map(repr, unknown))}")
    version = obj.get("version", CONFIG_VERSION)
    if version != CONFIG_VERSION:
        raise ValueError(f"unsupported config version {version}")
    base_seed = obj.get("seed", DEFAULT_SEED)
    randgeom.check_seed(base_seed)
    if seed is not None:
        randgeom.check_seed(seed)
        base_seed = seed
    raw = obj.get("experiments")
    if not isinstance(raw, list) or not raw:
        raise ValueError("config must list at least one experiment")
    exps = []
    seen = set()
    for i, e in enumerate(raw):
        derived = mix64(base_seed, i + 1)
        exp = _experiment_config(e, i, derived)
        if exp.experiment_id in seen:
            raise ValueError(f"duplicate experiment_id {exp.experiment_id!r}")
        seen.add(exp.experiment_id)
        _validate_experiment(exp)
        exps.append(dataclasses.replace(exp, tolerance_sigmas=float(exp.tolerance_sigmas),
                                        seed=exp.seed if seed is None else derived))
    return exps


def config_to_dict(exps: list[ExperimentConfig]) -> dict:
    """Serialize experiments back to the config schema, every field written
    (an unset closed_form_id or lines_per_system as null)."""
    return {"version": CONFIG_VERSION, "experiments": [dataclasses.asdict(e) for e in exps]}


# ---------------------------------------------------------------------------
# verify / report

def run_verify(
    experiments: list[ExperimentConfig],
    samples_override: int | None = None,
) -> Report:
    """Run every experiment; overall pass is the conjunction of non-probe rows."""
    start = time.perf_counter()
    big = [i for i, exp in enumerate(experiments) if _most_ranges(exp, samples_override) > 1]
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    processes = max(1, min(cpus, len(big)))
    worker = {i: k % processes for k, i in enumerate(big)}
    shares = [[i for i in range(len(experiments)) if worker.get(i, 0) == w]
              for w in range(processes)]
    by_index = _run_shares(experiments, shares, samples_override)
    rows = [by_index[i] for i in range(len(experiments))]
    overall = all(r["pass"] for r in rows if not r["probe"])
    return Report(
        version=VERSION,
        timestamp=datetime.now(timezone.utc).isoformat(),
        runtime_seconds=time.perf_counter() - start,
        overall_pass=overall,
        rows=rows,
        processes=processes,
    )


def _most_ranges(exp: ExperimentConfig, samples_override: int | None) -> int:
    """The most sampling ranges any estimator call of an experiment runs; 0 for
    one whose calls cannot be named or sized, which fails in its row."""
    try:
        return max(montecarlo.ranges(est_id, args, n, _lines(exp))
                   for est_id, args, _, n in _calls(exp, samples_override))
    except (ArithmeticError, IndexError, KeyError, TypeError, ValueError):
        return 0


def _run_rows(experiments: list[ExperimentConfig], indices: list[int],
              samples_override: int | None) -> dict[int, dict]:
    """{index: row} of the experiments at `indices`, run in order; an error
    the estimators raise on bad input or numerics becomes the row's error."""
    rows = {}
    for i in indices:
        exp = experiments[i]
        try:
            rows[i] = _row(exp, run_experiment(exp, samples_override))
        except (conditioning.NumericError, KeyError, ValueError) as err:
            rows[i] = _row(exp, None, err)
    return rows


def _run_shares(experiments: list[ExperimentConfig], shares: list[list[int]],
                samples_override: int | None) -> dict[int, dict]:
    """{index: row} of every share: shares[0] run here, each later one in a
    worker forked at the start; every worker is reaped before this returns
    or raises."""
    forked = {}  # share -> (pid, pipe) of each worker not yet reaped
    try:
        for w in range(1, len(shares)):
            forked[w] = _fork_rows(experiments, shares[w], samples_override)
        rows = _run_rows(experiments, shares[0], samples_override)
        for w in list(forked):
            pid, pipe = forked[w]
            with pipe:
                data = pipe.read()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del forked[w]
            try:
                result = pickle.loads(data)
            except (EOFError, pickle.UnpicklingError) as err:
                ids = ", ".join(experiments[i].experiment_id for i in shares[w])
                raise RuntimeError(f"a verify worker exited with status {status} and "
                                   f"no result; its rows {ids} did not run") from err
            if isinstance(result, BaseException):
                raise result
            rows.update(result)
    finally:
        for pid, pipe in forked.values():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return rows


def _fork_rows(experiments: list[ExperimentConfig], indices: list[int],
               samples_override: int | None) -> tuple[int, io.BufferedReader]:
    """Fork a worker that runs the rows at `indices` and pickles {index: row},
    or the exception that stopped it, to a pipe; returns (pid, pipe's read end).

    The worker leaves by os._exit and never returns into its caller's stack,
    so no caller's cleanup or buffered output runs twice.  A raw fork stays
    over concurrent.futures' process pool, which on a 2-core Xeon took 11-15 ms
    to import, 1.2 MB resident and 6.3-10 ms per round trip (2.5-2.9 ms here),
    and took the poly-lines benchmark from 103k to 68k samples/s (slower in 19
    of 20 alternating pairs).
    """
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            try:
                result = _run_rows(experiments, indices, samples_override)
            except Exception as err:  # the parent re-raises it with its type
                result = err
            with open(write_fd, "wb") as pipe:
                pickle.dump(result, pipe)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    return pid, open(read_fd, "rb")


def report_csv(report: Report) -> str:
    """CSV summary; deterministic for a fixed config (no timestamps)."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["experiment_id", "estimator_id", "params", "n_samples",
                "mean", "stderr", "closed_form", "z", "pass"])
    for r in report.rows:
        w.writerow([
            r["experiment_id"],
            r["estimator_id"],
            json.dumps(r["params"], sort_keys=True),
            r["n_samples"],
            repr(r["mean"]) if r["mean"] is not None else "",
            repr(r["stderr"]) if r["stderr"] is not None else "",
            repr(r["reference_value"]) if r["reference_value"] is not None else "",
            repr(r["z"]) if r["z"] is not None else "",
            r["pass"],
        ])
    return buf.getvalue()


def report_json(report: Report) -> dict:
    return {
        "version": report.version,
        "timestamp": report.timestamp,
        "runtime_seconds": report.runtime_seconds,
        "overall_pass": report.overall_pass,
        "processes": report.processes,
        "comparisons": report.rows,
    }


def _finite_json(obj):
    """obj with every non-finite float replaced by the string the CSV prints
    for it ("inf", "-inf", "nan"), since RFC 8259 JSON has no such numbers."""
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(float(obj))
    if isinstance(obj, dict):
        return {k: _finite_json(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_json(v) for v in obj]
    return obj


def _json_text(obj) -> str:
    """Standard JSON for a report or result; finite values print as json.dumps would."""
    return json.dumps(_finite_json(obj), indent=2, allow_nan=False)


def write_report(report: Report, out_dir: str) -> tuple[str, str]:
    os.makedirs(out_dir, exist_ok=True)
    json_path = os.path.join(out_dir, "verify-report.json")
    csv_path = os.path.join(out_dir, "verify-report.csv")
    with open(json_path, "w") as f:
        f.write(_json_text(report_json(report)) + "\n")
    with open(csv_path, "w") as f:
        f.write(report_csv(report))
    return json_path, csv_path


# ---------------------------------------------------------------------------
# selftest property suites

def _suite_euler_identity(seed: int) -> tuple[bool, str]:
    rng = RngStream(seed, 0)
    worst = 0.0
    for _ in range(25):
        n = 2
        h = randgeom.gaussian_system(rng, n, (2, 3))
        x = randgeom.complex_gaussian_vector(rng, n + 1)
        lhs = bwspace.jacobian(h, x) @ x
        rhs = np.array(h.degrees) * bwspace.evaluate(h, x)
        worst = max(worst, float(np.linalg.norm(lhs - rhs) / max(1.0, np.linalg.norm(rhs))))
    return worst < 1e-10, f"max Euler residual {worst:.2e}"


def _suite_reproducing_kernel(seed: int) -> tuple[bool, str]:
    rng = RngStream(seed, 0)
    worst = 0.0
    for _ in range(25):
        d, n = 3, 2
        h = randgeom.gaussian_system(rng, n, (d,))
        x = randgeom.complex_gaussian_vector(rng, n + 1)
        k = bwspace.kernel_poly(x, d)
        lhs = bwspace.bw_inner(h, k)
        rhs = bwspace.evaluate(h, x)[0]
        bound = bwspace.bw_norm(h) * np.linalg.norm(x) ** d
        worst = max(worst, float(abs(lhs - rhs) / bound))
    return worst < 1e-10, f"max reproducing residual {worst:.2e}"


def _suite_bw_invariance(seed: int) -> tuple[bool, str]:
    rng = RngStream(seed, 0)
    worst = 0.0
    for _ in range(10):
        h = randgeom.gaussian_system(rng, 2, (2, 2))
        u = randgeom.haar_unitary(rng, 3)
        hr = randgeom.rotate_system(h, u)
        worst = max(worst, abs(bwspace.bw_norm(hr) - bwspace.bw_norm(h)) / bwspace.bw_norm(h))
    return worst < 1e-10, f"max norm drift {worst:.2e}"


def _suite_mu_invariance(seed: int) -> tuple[bool, str]:
    rng = RngStream(seed, 0)
    worst = 0.0
    for _ in range(10):
        h = randgeom.gaussian_system(rng, 2, (2,))
        pts = roots.sample_variety_points(h, rng, 1)
        x = pts[0]
        mu = conditioning.mu(h, x)
        u = randgeom.haar_unitary(rng, 3)
        mu_rot = conditioning.mu(randgeom.rotate_system(h, u), u @ x)
        worst = max(worst, abs(mu_rot - mu) / mu)
        scaled = bwspace.make_system(h.n, h.degrees, [3.7 * c for c in h.coords])
        worst = max(worst, abs(conditioning.mu(scaled, x) - mu) / mu)
    return worst < 1e-8, f"max mu drift {worst:.2e}"


def _suite_haar_unitarity(seed: int) -> tuple[bool, str]:
    rng = RngStream(seed, 0)
    worst = 0.0
    for dim in (2, 3, 5):
        u = randgeom.haar_unitary(rng, dim)
        worst = max(worst, float(np.linalg.norm(u.conj().T @ u - np.eye(dim))))
    return worst < 1e-10, f"max unitarity residual {worst:.2e}"


def _suite_roots(seed: int) -> tuple[bool, str]:
    rng = RngStream(seed, 0)
    for trial in range(20):
        n = 2 if trial % 2 else 1
        d = 1 + trial % 5
        h = randgeom.gaussian_system(rng, n, (d,))
        pts = roots.sample_variety_points(h, rng, 2)
        expected = d if n == 1 else 2 * d
        if len(pts) != expected:
            return False, f"expected {expected} points, got {len(pts)}"
        _, off_zero = conditioning.zero_set_mu(n, (d,), [h.coords[0][None]], pts[None], False)
        if off_zero[0]:
            return False, "a sampled point is not a zero"
    # Vieta at d = 5, on the form with monomial coefficients b
    b = randgeom.complex_gaussian_vector(rng, 6)
    g = bwspace.make_system(1, (5,), [b / bwspace.monomial_basis(1, 5)[1]])
    pts = roots.binary_form_roots(g, rng)
    w = pts[:, 1] / pts[:, 0]
    ok_sum = abs(np.sum(w) + b[4] / b[5]) <= 1e-8 * max(1.0, abs(b[4] / b[5]))
    ok_prod = abs(np.prod(w) - (-1) ** 5 * b[0] / b[5]) <= 1e-8 * max(1.0, abs(b[0] / b[5]))
    if not (ok_sum and ok_prod):
        return False, "Vieta check failed"
    return True, "membership, degree and Vieta checks hold"


def _suite_gamma_telescoping(seed: int) -> tuple[bool, str]:
    worst = 0.0
    for n in range(1, 7):
        for r in range(1, n + 1):
            degrees = [2] * r
            c = formulas.exmualpha_constant(n, r, degrees, 2.0)
            w = formulas.invnor2mdet_value(r, n - r + 1)
            target = formulas.main_theorem_value(n, degrees)
            worst = max(worst, abs(c.value * w.value - target.value) / target.value)
    return worst < 1e-12, f"max telescoping residual {worst:.2e}"


def _suite_gaussian_convention(seed: int) -> tuple[bool, str]:
    rng = RngStream(seed, 0)
    z = randgeom.complex_gaussian_array(rng, (100_000,))
    m2 = float(np.mean(np.abs(z) ** 2))
    se = float(np.std(np.abs(z) ** 2, ddof=1)) / math.sqrt(z.size)
    ok = abs(m2 - 1.0) <= 4 * se
    return ok, f"per-coordinate second moment {m2:.4f} (target 1, se {se:.1e})"


_SELFTEST_SUITES = [
    ("euler-identity", _suite_euler_identity),
    ("reproducing-kernel", _suite_reproducing_kernel),
    ("bw-unitary-invariance", _suite_bw_invariance),
    ("mu-invariance", _suite_mu_invariance),
    ("haar-unitarity", _suite_haar_unitarity),
    ("roots", _suite_roots),
    ("gamma-telescoping", _suite_gamma_telescoping),
    ("gaussian-convention", _suite_gaussian_convention),
]


def run_selftest(seed: int = DEFAULT_SEED) -> list[tuple[str, bool, str]]:
    """(name, passed, detail) of every property suite, in _SELFTEST_SUITES order."""
    return [(name, *fn(mix64(seed, index + 1)))
            for index, (name, fn) in enumerate(_SELFTEST_SUITES)]


# ---------------------------------------------------------------------------
# formulas subcommand

# formula name -> its closed form from the parsed arguments; the one list of
# names the formulas subcommand accepts, and the one table of closed-form
# values (_CLOSED_FORMS reads its values here)
_FORMULAS = {
    "espnorm": lambda a: formulas.espnorm_value(a["n"], a["alpha"]),
    "espnormrest": lambda a: formulas.espnormrest_value(a["n"], a["alpha"], a["beta"]),
    "invnor2mdet": lambda a: formulas.invnor2mdet_value(a["r"], a["k"]),
    "main_theorem": lambda a: formulas.main_theorem_value(a["n"], a["degrees"]),
    "exmualpha": lambda a: formulas.exmualpha_constant(a["n"], a["r"], a["degrees"], a["alpha"]),
    "pinv_moment": lambda a: formulas.pinv_moment_value(a["r"], a["m"]),
    "volumes": lambda a: formulas.volumes(a["n"], a["k"], a["l"], a["degrees"]),
}


def run_formulas(name: str, args: dict) -> dict:
    """Evaluate a named closed form and return its fields as a JSON-ready dict
    (the zero-variety volume under the key vol_Vh)."""
    if name not in _FORMULAS:
        raise ValueError(f"unknown formula {name!r}")
    out = dataclasses.asdict(_FORMULAS[name](args))
    return {"vol_Vh" if key == "vol_vh" else key: value for key, value in out.items()}


# ---------------------------------------------------------------------------
# argument parsing / main

def _parse_degrees(text: str) -> list[int]:
    try:
        return [int(p) for p in text.split(",") if p.strip() != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad degree list {text!r}") from exc


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="condmoments",
                                 description="Moment identities for random polynomial systems "
                                             "and matrices: closed forms and MC verification.")
    sub = ap.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run a verification suite")
    v.add_argument("--config", help="JSON config path (default: bundled suite)")
    v.add_argument("--seed", type=int, help="override every experiment seed")
    v.add_argument("--samples", type=int, help="override every experiment's sample count")
    v.add_argument("--out", default="report", help="output directory for JSON/CSV reports")

    e = sub.add_parser("estimate", help="run a single estimator")
    e.add_argument("--estimator", required=True, choices=list(_ESTIMATORS))
    e.add_argument("--samples", type=int, default=100_000)
    e.add_argument("--seed", type=int, default=None)
    e.add_argument("--r", type=int)
    e.add_argument("--m", type=int)
    e.add_argument("--n", type=int)
    e.add_argument("--k", type=float)
    e.add_argument("--alpha", type=float, default=2.0)
    e.add_argument("--beta", type=float)
    e.add_argument("--norm", choices=conditioning.NORMS, default="frobenius")
    e.add_argument("--degrees", type=_parse_degrees)
    e.add_argument("--relative", action="store_true")
    e.add_argument("--lines", type=int, default=EstimatorConfig.lines_per_system)

    f = sub.add_parser("formulas", help="print a closed-form value as JSON")
    f.add_argument("name", choices=list(_FORMULAS))
    f.add_argument("--n", type=int)
    f.add_argument("--r", type=int)
    f.add_argument("--m", type=int)
    f.add_argument("--k", type=float)
    f.add_argument("--l", type=int)
    f.add_argument("--alpha", type=float)
    f.add_argument("--beta", type=float)
    f.add_argument("--degrees", type=_parse_degrees)

    s = sub.add_parser("selftest", help="run the property suites")
    s.add_argument("--seed", type=int, default=None)
    return ap


def _resolve_seed(cli_seed: int | None) -> int:
    """--seed, else CONDMOMENTS_SEED, else DEFAULT_SEED; a ValueError naming
    the flag or the variable if that seed is not an integer in [0, 2^64)."""
    if cli_seed is not None:
        seed, source = cli_seed, "--seed"
    elif (raw := os.environ.get(SEED_ENV_VAR)) is not None:
        try:
            seed, source = int(raw), SEED_ENV_VAR
        except ValueError:
            raise ValueError(f"{SEED_ENV_VAR} must be an integer, got {raw!r}") from None
    else:
        return DEFAULT_SEED
    if not 0 <= seed < 2**64:
        raise ValueError(f"{source} must be in [0, 2^64), got {seed}")
    return seed


def _verdict_line(row: dict) -> str:
    """The line verify prints for a report row."""
    flag = "probe" if row["probe"] else ("pass" if row["pass"] else "FAIL")
    if row["error"]:
        return f"[{flag}] {row['experiment_id']}: error {row['error']}"
    return (f"[{flag}] {row['experiment_id']}: mean={row['mean']:.6g} "
            f"ref={row['reference_value']:.6g} z={row['z']:+.2f}")


def _cmd_verify(args) -> int:
    try:
        if args.config:
            with open(args.config) as fh:
                exps = parse_config(json.load(fh),
                                    None if args.seed is None else _resolve_seed(args.seed))
        else:
            exps = default_suite(_resolve_seed(args.seed))
        # the override reaches every estimator call: reject it before sampling
        if args.samples is not None:
            bwspace.check_counts(samples=args.samples)
        # an --out that cannot be a directory is found before sampling too
        os.makedirs(args.out, exist_ok=True)
    except (OSError, KeyError, TypeError, ValueError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    report = run_verify(exps, samples_override=args.samples)
    json_path, csv_path = write_report(report, args.out)
    for row in report.rows:
        print(_verdict_line(row))
    print(f"report: {json_path}")
    print(f"summary: {csv_path}")
    errored = any(r["error"] for r in report.rows)
    print(f"overall: {'PASS' if report.overall_pass else 'FAIL'}")
    return 0 if report.overall_pass and not errored else 1


def _cmd_estimate(args) -> int:
    estimate = getattr(montecarlo, f"estimate_{args.estimator}")
    try:
        cfg = EstimatorConfig(samples=args.samples, seed=_resolve_seed(args.seed),
                              lines_per_system=args.lines)
        est = estimate(*(getattr(args, name) for name in _ESTIMATORS[args.estimator]), cfg)
    except (TypeError, ValueError) as err:
        print(f"parameter error: {err}", file=sys.stderr)
        return 2
    except conditioning.NumericError as err:
        print(f"estimator failure: {err}", file=sys.stderr)
        return 1
    print(_json_text(est.__dict__))
    return 0


def _cmd_formulas(args) -> int:
    params = {k: v for k, v in vars(args).items()
              if k not in ("command", "name") and v is not None}
    try:
        out = run_formulas(args.name, params)
    except (KeyError, TypeError) as err:
        print(f"missing parameter for {args.name}: {err}", file=sys.stderr)
        return 2
    except ValueError as err:
        print(f"domain error: {err}", file=sys.stderr)
        return 2
    print(_json_text(out))
    return 0


def _cmd_selftest(args) -> int:
    try:
        seed = _resolve_seed(args.seed)
    except ValueError as err:
        print(f"parameter error: {err}", file=sys.stderr)
        return 2
    results = run_selftest(seed)
    for name, ok, detail in results:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    return 0 if all(ok for _, ok, _ in results) else 1


_COMMANDS = {"verify": _cmd_verify, "estimate": _cmd_estimate,
             "formulas": _cmd_formulas, "selftest": _cmd_selftest}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        status = _COMMANDS[args.command](args)
        sys.stdout.flush()
    except BrokenPipeError:
        # stdout was closed before the output was written: point it at the null
        # device, so that the interpreter's flush at exit raises nothing either
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return status


if __name__ == "__main__":
    sys.exit(main())
