"""Per-layer tracing of cmlab, installed from outside the package.

The tracer replaces selected cmlab functions by timing wrappers for the
duration of one traced operation and restores them afterwards.  A function
imported by name into other cmlab modules (``from .solver import solve_cm``)
is replaced in every module that binds the same object.  A name that no
longer exists raises ``TraceTargetMissing``: the traced run fails instead of
reporting a layer as zero.

Spans nest: ``busy_s`` of a span name is its inclusive time, ``self_s`` its
time minus that of its direct child spans.  The operation itself is the root
span ``op``, so ``op`` self time is what no traced layer accounts for.
"""

from __future__ import annotations

import math
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

MODULES = ("grid", "hamiltonian", "eigensolver", "regularizer", "modes", "solver", "consistency", "reports", "cli")

# (module, attribute path) -> span name, for functions that need nothing but a
# span.  Functions that also feed counters get their own wrapper below.
SPANS = {
    ("cli", "load_config"): "cli.load_config",
    ("cli", "build_operator"): "cli.build_operator",
    ("hamiltonian", "HamiltonianOperator.materialize_dense"): "hamiltonian.materialize_dense",
    ("regularizer", "L1Regularizer.prox_array"): "regularizer.prox_array",
    ("regularizer", "ZeroRegularizer.prox_array"): "regularizer.prox_array",
    ("regularizer", "L1Regularizer.evaluate_columns"): "regularizer.evaluate_columns",
    ("regularizer", "ZeroRegularizer.evaluate_columns"): "regularizer.evaluate_columns",
    ("modes", "orthonormal_columns"): "modes.orthonormal_columns",
    ("solver", "rotation_polish"): "solver.rotation_polish",
    ("consistency", "mu_sweep"): "consistency.mu_sweep",
    ("consistency", "interaction_matrix"): "consistency.measures",
    ("consistency", "procrustes_align"): "consistency.measures",
    ("consistency", "localization"): "consistency.measures",
    ("consistency", "column_mass_suite"): "consistency.column_mass_suite",
    ("consistency", "gap_bound_suite"): "consistency.gap_bound_suite",
}


class TraceTargetMissing(RuntimeError):
    """A function the tracer must wrap is no longer in cmlab."""


class Tracer:
    def __init__(self):
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])  # name -> [calls, busy_s, self_s]
        self.counts = Counter()
        self.start_objectives = []
        self._child_time = []  # one accumulator per open span
        self._eigensolve_depth = 0

    def call(self, name: str, fn, args, kwargs):
        self._child_time.append(0.0)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - t0
            stats = self.spans[name]
            stats[0] += 1
            stats[1] += elapsed
            stats[2] += elapsed - self._child_time.pop()
            if self._child_time:
                self._child_time[-1] += elapsed

    def span_wrapper(self, name: str, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs)

        return traced

    @contextmanager
    def installed(self):
        """Wrap every traced cmlab function; restore the originals on exit."""
        patches = []  # (owner, attribute, original)
        try:
            for (module, path), name in SPANS.items():
                patches += _replace(module, path, lambda fn, name=name: self.span_wrapper(name, fn))
            for (module, path), make in self._special_wrappers().items():
                patches += _replace(module, path, make)
            yield self
        finally:
            for owner, attribute, original in reversed(patches):
                setattr(owner, attribute, original)

    def _special_wrappers(self):
        tracer = self

        def node_count(prop):
            def counted(grid):
                tracer.counts["grid.node_count.calls"] += 1
                return prop.fget(grid)

            return property(counted)

        def apply_array(fn):
            def traced(op, x):
                tracer.counts["hamiltonian.apply_array.columns"] += 1 if x.ndim == 1 else x.shape[1]
                if tracer._eigensolve_depth:
                    tracer.counts["eigensolver.matvecs"] += 1
                return tracer.call("hamiltonian.apply_array", fn, (op, x), {})

            return traced

        def reference_eigenpairs(fn):
            def traced(*args, **kwargs):
                tracer._eigensolve_depth += 1
                try:
                    return tracer.call("eigensolver.reference_eigenpairs", fn, args, kwargs)
                finally:
                    tracer._eigensolve_depth -= 1

            return traced

        def build_shifted_solver(fn):
            def traced(H, penalty):
                solve = tracer.call("solver.shifted_factor", fn, (H, penalty), {})
                n = math.prod(H.grid.points_per_axis)

                def traced_solve(rhs):
                    tracer.counts["solver.shifted_solve.bytes_computed"] += n * n * 8
                    return tracer.call("solver.shifted_solve", solve, (rhs,), {})

                return traced_solve

            return traced

        def splitting_run(fn):
            def traced(H, J, config, penalty, shifted_solve, w, x0):
                run = fn(H, J, config, penalty, shifted_solve, w, x0)
                tracer.counts["solver.starts"] += 1
                tracer.counts["solver.iterations"] += run.iterations
                if not run.converged and run.iterations >= config.max_iters:
                    tracer.counts["solver.starts_capped"] += 1
                tracer.start_objectives.append(run.best_objective)
                return run

            return traced

        def solve_cm(fn):
            def traced(*args, **kwargs):
                result = tracer.call("solver.solve_cm", fn, args, kwargs)
                tracer.counts["solver.winner_iterations"] += result.iterations
                return result

            return traced

        def write_atomic(fn):
            def traced(path, text):
                tracer.counts["reports.write_atomic.bytes"] += len(text.encode())
                return tracer.call("reports.write_atomic", fn, (path, text), {})

            return traced

        return {
            ("grid", "Grid.node_count"): node_count,
            ("hamiltonian", "HamiltonianOperator.apply_array"): apply_array,
            ("eigensolver", "reference_eigenpairs"): reference_eigenpairs,
            ("solver", "_build_shifted_solver"): build_shifted_solver,
            ("solver", "_splitting_run"): splitting_run,
            ("solver", "solve_cm"): solve_cm,
            ("reports", "write_atomic"): write_atomic,
        }

    def metrics(self, wall_traced: float, wall_untraced: float) -> dict:
        """Every per-layer metric of one traced operation, as {name: (value, unit)}."""
        out = {}

        def span(name, *fields):
            calls, busy, own = self.spans.get(name, (0, 0.0, 0.0))
            values = {"calls": (calls, "count"), "busy_s": (busy, "s"), "self_s": (own, "s")}
            for field in fields:
                out[f"{name}.{field}"] = values[field]

        def count(name, unit="count"):
            out[name] = (self.counts[name], unit)

        span("cli.load_config", "busy_s")
        span("cli.build_operator", "busy_s")
        count("grid.node_count.calls")
        span("hamiltonian.apply_array", "calls", "busy_s")
        count("hamiltonian.apply_array.columns")
        span("hamiltonian.materialize_dense", "busy_s")
        span("eigensolver.reference_eigenpairs", "calls", "busy_s", "self_s")
        count("eigensolver.matvecs")
        span("regularizer.prox_array", "calls", "busy_s")
        span("regularizer.evaluate_columns", "calls", "busy_s")
        span("modes.orthonormal_columns", "calls", "busy_s")
        span("solver.solve_cm", "calls", "busy_s", "self_s")
        span("solver.shifted_factor", "busy_s")
        span("solver.shifted_solve", "calls", "busy_s")
        count("solver.shifted_solve.bytes_computed", "bytes")
        span("solver.rotation_polish", "busy_s")
        for name in ("solver.starts", "solver.starts_capped", "solver.iterations", "solver.winner_iterations"):
            count(name)
        iterations = self.counts["solver.iterations"]
        useful = self.counts["solver.winner_iterations"] / iterations if iterations else 0.0
        out["solver.useful_iter_ratio"] = (useful, "ratio")
        span("consistency.mu_sweep", "self_s")
        span("consistency.measures", "busy_s")
        span("consistency.column_mass_suite", "busy_s")
        span("consistency.gap_bound_suite", "busy_s")
        span("reports.write_atomic", "calls", "busy_s")
        count("reports.write_atomic.bytes", "bytes")
        _, op_busy, op_self = self.spans.get("op", (0, 0.0, 0.0))
        out["trace.traced_wall_s"] = (wall_traced, "s")
        out["trace.untraced_wall_s"] = (wall_untraced, "s")
        out["trace.overhead_ratio"] = (wall_traced / wall_untraced - 1.0, "ratio")
        out["trace.unaccounted_s"] = (op_self, "s")
        out["trace.accounted_ratio"] = ((op_busy - op_self) / op_busy if op_busy else 0.0, "ratio")
        return out


def _replace(module_name: str, path: str, make_wrapper):
    """Replace ``cmlab.<module>.<path>`` by ``make_wrapper(original)`` everywhere it is bound."""
    module = sys.modules.get(f"cmlab.{module_name}")
    if module is None:
        raise TraceTargetMissing(f"module cmlab.{module_name} is not loaded")
    owner_name, _, attribute = path.rpartition(".")
    owner = module
    try:
        if owner_name:
            owner = getattr(module, owner_name)
        original = owner.__dict__[attribute] if owner_name else getattr(module, attribute)
    except (AttributeError, KeyError):
        raise TraceTargetMissing(f"cmlab.{module_name}.{path} does not exist; the traced run cannot measure it")
    wrapper = make_wrapper(original)
    patches = [(owner, attribute, original)]
    setattr(owner, attribute, wrapper)
    if not owner_name:
        for other in MODULES:
            other_module = sys.modules.get(f"cmlab.{other}")
            if other_module is not module and getattr(other_module, attribute, None) is original:
                patches.append((other_module, attribute, original))
                setattr(other_module, attribute, wrapper)
    return patches
