"""Outside-in layer tracing for the condmoments benchmark.

install() swaps each traced public function, on its module object, for a
timing wrapper, and touches no file of the package.  That reaches every
call the estimator path makes, because the package calls across modules
through module attributes (montecarlo -> randgeom.complex_gaussian_array,
roots -> bwspace.evaluate_at, cli -> formulas.main_theorem_value) and within
a module through module globals (roots.sample_variety_points ->
binary_form_roots, randgeom.haar_unitary -> complex_gaussian_array), and
both lookups happen at call time.

Each wrapper records a span: calls, total time and self time, which is the
total minus the time of the traced spans it caused.  Spans of the same layer
add up.  Counters are taken at the same boundaries.  The program runs in one
thread, so a span stack is enough and no span ever waits on another.
"""

from __future__ import annotations

import functools
import time

# (module name, function name) -> span name; a layer's self time is the sum
# over its spans.
SPANS = {
    ("randgeom", "complex_gaussian_array"): "randgeom.draw",
    ("randgeom", "gaussian_system"): "randgeom.draw",
    ("randgeom", "haar_unitary"): "randgeom.draw",
    ("bwspace", "evaluate_at"): "bwspace.eval",
    ("bwspace", "jacobian_at"): "bwspace.jacobian",
    ("roots", "sample_variety_points"): "roots.sample",
    ("roots", "restrict_to_line"): "roots.scalar",
    ("roots", "binary_form_roots"): "roots.scalar",
    ("montecarlo", "estimate_pinv_moment"): "montecarlo.matrix",
    ("montecarlo", "estimate_detweighted_rect"): "montecarlo.matrix",
    ("montecarlo", "estimate_detweighted_square"): "montecarlo.matrix",
    ("montecarlo", "estimate_espnorm"): "montecarlo.matrix",
    ("montecarlo", "estimate_espnormrest"): "montecarlo.matrix",
    ("montecarlo", "estimate_poly_moment"): "montecarlo.poly",
    ("cli", "parse_config"): "cli.parse",
    ("cli", "write_report"): "cli.report",
    ("cli", "run_verify"): "cli.verify_self",
    ("formulas", "espnorm_value"): "formulas",
    ("formulas", "espnormrest_value"): "formulas",
    ("formulas", "invnor2mdet_value"): "formulas",
    ("formulas", "main_theorem_value"): "formulas",
    ("formulas", "exmualpha_constant"): "formulas",
    ("formulas", "pinv_moment_value"): "formulas",
    ("formulas", "volumes"): "formulas",
}

LAYERS = sorted(set(SPANS.values()))

COUNTERS = (
    "randgeom.calls",
    "bwspace.points",
    "roots.lines",
    "roots.scalar_retries",
    "roots.retried_lines",
    "montecarlo.attempted",
    "montecarlo.dropped",
)


class _Frame:
    __slots__ = ("layer", "fn", "args", "child_s", "haar_calls")

    def __init__(self, layer, fn, args):
        self.layer = layer
        self.fn = fn
        self.args = args
        self.child_s = 0.0
        self.haar_calls = 0


class Tracer:
    """Span stack, per-layer times and counters of one traced process."""

    def __init__(self):
        self.calls = {layer: 0 for layer in LAYERS}
        self.total_s = {layer: 0.0 for layer in LAYERS}
        self.self_s = {layer: 0.0 for layer in LAYERS}
        self.counts = {name: 0 for name in COUNTERS}
        self._stack: list[_Frame] = []

    def install(self, modules: dict) -> None:
        """Wrap every function in SPANS on the given {name: module} objects.

        The wrappers stay for the life of the process.
        """
        for (mod_name, fn_name), layer in SPANS.items():
            module = modules[mod_name]
            setattr(module, fn_name, self._wrap(layer, fn_name, getattr(module, fn_name)))

    def _wrap(self, layer, fn_name, fn):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = _Frame(layer, fn_name, args)
            self._on_enter(frame)
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                self.calls[layer] += 1
                self.total_s[layer] += elapsed
                self.self_s[layer] += elapsed - frame.child_s
                if stack:
                    stack[-1].child_s += elapsed
            self._on_exit(frame, result)
            return result

        return wrapper

    def _inside(self, fn_name: str):
        for frame in reversed(self._stack):
            if frame.fn == fn_name:
                return frame
        return None

    def _on_enter(self, frame: _Frame) -> None:
        c = self.counts
        if frame.layer == "randgeom.draw":
            c["randgeom.calls"] += 1
            if frame.fn == "haar_unitary":
                solve = self._inside("binary_form_roots")
                if solve is not None:
                    solve.haar_calls += 1
        elif frame.layer in ("bwspace.eval", "bwspace.jacobian"):
            c["bwspace.points"] += len(frame.args[1])
        elif frame.fn == "sample_variety_points":
            h, lines = frame.args[0], frame.args[2]
            c["roots.lines"] += lines if h.n >= 2 else 1
        elif frame.fn == "binary_form_roots":
            sampler = self._inside("sample_variety_points")
            if sampler is not None and sampler.args[0].n >= 2:
                c["roots.scalar_retries"] += 1

    def _on_exit(self, frame: _Frame, result) -> None:
        c = self.counts
        if frame.fn == "binary_form_roots":
            # a line is retried when it left the batched path (n >= 2) or
            # needed a second chart (more than one Haar draw)
            sampler = self._inside("sample_variety_points")
            scalar_retry = sampler is not None and sampler.args[0].n >= 2
            if scalar_retry or frame.haar_calls > 1:
                c["roots.retried_lines"] += 1
        elif frame.layer in ("montecarlo.matrix", "montecarlo.poly"):
            attempted = result.params.get("systems", result.n_samples)
            c["montecarlo.attempted"] += attempted
            c["montecarlo.dropped"] += attempted - result.n_samples

    def layer_times(self) -> dict:
        return {
            layer: {"calls": self.calls[layer], "total_s": self.total_s[layer],
                    "self_s": self.self_s[layer]}
            for layer in LAYERS
        }
