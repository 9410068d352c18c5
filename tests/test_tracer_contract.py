"""The solver names that the benchmark's tracer (``perfbench/tracer.py``) wraps and reads.

The traced benchmark run replaces ``solver.solve_cm`` and
``solver._splitting_run`` by counting wrappers, which read ``iterations`` off
a result and ``best_objective``, ``iterations`` and ``converged`` off a run.
A renamed one fails here, not only in the traced benchmark run.
"""

import importlib
import os

import cmlab.cli  # noqa: F401  (the tracer wraps names in every cmlab module)
from cmlab import Grid, HamiltonianOperator, SolverConfig, make_regularizer, reference_eigenpairs, solver

PERFBENCH = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "perfbench"))


def test_tracer_installs_over_the_solver_and_counts_its_runs(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    tracing = importlib.import_module("tracer")
    H = HamiltonianOperator(Grid(1, (1.0,), (32,), "dirichlet"))
    J, eigs = make_regularizer("l1"), reference_eigenpairs(H, 2)
    cfg = SolverConfig(mu=10.0, max_iters=200, starts=("eigen",))
    penalty = solver.default_penalty(cfg.mu, float(eigs.eigenvalues[1]))
    x0 = solver._start_matrix("eigen", H, 2, eigs)
    solve_cm, splitting_run = solver.solve_cm, solver._splitting_run

    tracer = tracing.Tracer()
    with tracer.installed():  # raises TraceTargetMissing for a wrapped name that is gone
        assert solver.solve_cm is not solve_cm and solver._splitting_run is not splitting_run
        result = solver.solve_cm(H, J, 2, cfg, eigs)
        solve = solver._build_shifted_solver(H, penalty)
        run = solver._splitting_run(H, J, cfg, penalty, solve, H.grid.cell_volume, x0)
    assert solver.solve_cm is solve_cm and solver._splitting_run is splitting_run

    metrics = {name: value for name, (value, _) in tracer.metrics(1.0, 1.0).items()}
    assert metrics["solver.solve_cm.calls"] == 1
    assert metrics["solver.winner_iterations"] == result.iterations
    assert metrics["solver.starts"] == 1
    assert metrics["solver.iterations"] == run.iterations
    assert tracer.start_objectives == [run.best_objective]
