"""Batch front end: eigensolves, single solves, mu sweeps, property verification.

One JSON config file per experiment, passed as the sole positional argument;
``--mu`` (solve only) and ``--seed`` override the corresponding scalar keys.
Exit codes: 0 success (a non-converged solve still reports), 1 verification
failure, 2 usage or config error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import warnings

import numpy as np

from . import consistency, reports
from .eigensolver import reference_eigenpairs, spectral_gap
from .grid import _BOUNDARIES, DIRICHLET, Grid
from .hamiltonian import HamiltonianOperator, harmonic_well, multiwell, within_scale
from .modes import RankDeficientError
from .regularizer import _KINDS, make_regularizer
from .solver import (
    IndefinitePenaltyError,
    ShrinkStepError,
    SolverConfig,
    check_start,
    solve_cm,
    start_fields,
)

VERIFY_BOX_POINTS = 256
VERIFY_N = 2


class ConfigError(ValueError):
    """Invalid or incomplete experiment configuration."""


REQUIRED = object()  # default of a key that must be given
OMITTED = object()  # default of a key that is left out of the echo when not given


def _int(minimum: int):
    """Reader of a JSON integer (not a bool, not a float) at least ``minimum``."""

    def read(value, where: str) -> int:
        if type(value) is not int or value < minimum:
            raise ConfigError(f"{where} must be an integer >= {minimum}")
        return value

    return read


def _float(value, where: str) -> float:
    """A finite number; bools are not numbers."""
    try:
        out = float(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{where} must be a number")
    if isinstance(value, bool) or not math.isfinite(out):
        raise ConfigError(f"{where} must be a finite number")
    return out


def _pos_float(value, where: str) -> float:
    out = _float(value, where)
    if out <= 0:
        raise ConfigError(f"{where} must be positive")
    return out


def _point(value, where: str) -> list[float]:
    """Coordinates, one number standing for a 1D point; the potential checks the length."""
    if isinstance(value, (int, float)):
        value = [value]
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{where} must be a list of coordinates")
    return [_float(v, where) for v in value]


def _start(value, where: str) -> str:
    """A start name, read by the solver's own check of the start syntax."""
    try:
        check_start(value)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}")
    return value


def _typed(kind: type, noun: str):
    def read(value, where: str):
        if type(value) is not kind:
            raise ConfigError(f"{where} must be {noun}")
        return value

    return read


def _one_of(*options):
    """Reader of one of ``options``, compared by type and value (so True is not 1)."""

    def read(value, where: str):
        if not any(type(value) is type(o) and value == o for o in options):
            raise ConfigError(f"{where} must be {' or '.join(repr(o) for o in options)}")
        return value

    return read


def _list(item):
    """Reader of a non-empty JSON list whose entries ``item`` reads."""

    def read(value, where: str) -> list:
        if not isinstance(value, (list, tuple)) or not value:
            raise ConfigError(f"{where} must be a non-empty list")
        return [item(v, f"{where}[]") for v in value]

    return read


def _walk(value, where: str, table: dict) -> dict:
    """Read a JSON object by ``table`` (``key -> (reader, default)``) into its echo.

    The echo lists the keys in table order.  A key that is not given takes
    its default, which is read like a given value, except that ``REQUIRED``
    is an error, ``OMITTED`` leaves the key out and None is echoed as null.
    Where the default is None or ``OMITTED``, a given null counts as not
    given.  Keys outside the table are an error.
    """
    if not isinstance(value, dict):
        raise ConfigError(f"{where or 'config root'} must be an object")
    rest = dict(value)
    echo = {}
    for key, (reader, default) in table.items():
        name = f"{where}.{key}" if where else key
        given = rest.pop(key, default)
        if given is None and default in (None, OMITTED):
            given = default  # a null stands for "not given" where the default allows it
        if given is REQUIRED:
            raise ConfigError(f"{name} is required")
        if given is not OMITTED:
            echo[key] = None if given is None and default is None else reader(given, name)
    if rest:
        raise ConfigError(f"unknown key(s) in {where or 'config'}: {', '.join(sorted(rest))}")
    return echo


def _block(table: dict):
    return lambda value, where: _walk(value, where, table)


def _load_column(grid: Grid, path: str) -> np.ndarray:
    """The node values in a text file: one line for each node of ``grid``, one number each."""
    count = grid.node_count
    need = f"path {path} must hold one number per line, one line for each of the grid's {count} nodes"
    try:
        with warnings.catch_warnings(action="ignore", category=UserWarning):  # no numbers: named below
            values = np.loadtxt(path, dtype=float, ndmin=1)
    except (OSError, ValueError) as exc:
        raise ValueError(f"{need}: {exc}")
    if values.shape != (count,):
        raise ValueError(f"{need}; it holds an array of shape {values.shape}")
    if not within_scale(values, grid.cell_volume):
        raise ValueError(f"path {path} holds a value that is not finite or too large for the solvers")
    return values


# kind -> (node values of V, table of the block's other keys); the values are
# called with the grid and those keys, give None for V = 0, and raise an error
# that begins with the key it is about; the keys follow ``kind`` in the echo
POTENTIALS = {
    "free": (lambda grid: None, {}),
    "harmonic": (harmonic_well, {"omega": (_pos_float, 1.0), "center": (_point, OMITTED)}),
    "multiwell": (
        multiwell,
        {
            "centers": (_list(_point), REQUIRED),
            "depth": (_pos_float, REQUIRED),
            "width": (_pos_float, REQUIRED),
        },
    ),
    "tabulated": (_load_column, {"path": (_typed(str, "a string"), REQUIRED)}),
}


def _potential(value, where: str) -> dict:
    """The potential block: its ``kind`` picks the table the other keys are read by."""
    kind = value.get("kind") if isinstance(value, dict) else None
    table = POTENTIALS[kind][1] if isinstance(kind, str) and kind in POTENTIALS else {}
    return _walk(value, where, {"kind": (_one_of(*POTENTIALS), REQUIRED), **table})


DOMAIN = {
    "dim": (_one_of(1, 2), REQUIRED),
    "extent": (_list(_pos_float), REQUIRED),
    "points": (_list(_int(2)), REQUIRED),
    "boundary": (_one_of(*_BOUNDARIES), DIRICHLET),
}
PROBLEM = {
    "N": (_int(1), REQUIRED),
    "regularizer": (_one_of(*_KINDS), "l1"),
    "mu": (_pos_float, OMITTED),
    "mu_schedule": (_list(_pos_float), OMITTED),
}
SOLVER = {
    "penalty": (_pos_float, None),  # null: the solver's default penalty
    "max_iters": (_int(1), SolverConfig.max_iters),
    "tol": (_pos_float, SolverConfig.tol),
    "starts": (_list(_start), None),  # null: eigen and two random starts drawn from the seed
}
OUTPUT = {
    "dir": (_typed(str, "a string"), "out"),
    "formats": (_list(_one_of("csv", "json")), ["csv", "json"]),
    "trace": (_typed(bool, "a boolean"), False),
}
CONFIG = {
    "domain": (_block(DOMAIN), REQUIRED),
    "potential": (_potential, REQUIRED),
    "problem": (_block(PROBLEM), REQUIRED),
    "solver": (_block(SOLVER), {}),
    "output": (_block(OUTPUT), {}),
    "seed": (_int(0), 0),
}


def parse_config(raw: dict, base_dir: str = ".") -> dict:
    """Read ``raw`` by ``CONFIG``, then apply the rules that tie keys together.

    The result, one dict per block of ``CONFIG``, is fully normalized and is
    also the config echo written into ``solve.json`` and ``sweep.json``.
    """
    cfg = _walk(raw, "", CONFIG)
    domain, problem = cfg["domain"], cfg["problem"]
    dim = domain["dim"]
    for key in ("extent", "points"):
        if len(domain[key]) != dim:
            raise ConfigError(f"domain.{key} must list {dim} value(s), one per axis")
    nodes = math.prod(domain["points"])
    if problem["N"] > nodes:
        raise ConfigError(f"problem.N = {problem['N']} exceeds the {nodes} grid nodes")
    schedule = problem.get("mu_schedule", [])
    if any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise ConfigError("problem.mu_schedule must be strictly ascending")
    solver, potential = cfg["solver"], cfg["potential"]
    if solver["starts"] is None:
        seed = cfg["seed"]
        solver["starts"] = ["eigen", f"random:{seed + 1}", f"random:{seed + 2}"]
    if "path" in potential:
        potential["path"] = os.path.abspath(os.path.join(base_dir, potential["path"]))
    return cfg


def load_config(path: str, mu_override: float | None = None, seed_override: int | None = None) -> dict:
    try:
        with open(path, encoding="utf-8") as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path} is not UTF-8 text: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}")
    except RecursionError:
        raise ConfigError(f"config {path} nests too deeply to parse")
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    if seed_override is not None:
        raw["seed"] = seed_override
    if mu_override is not None:
        problem = raw.get("problem")
        if isinstance(problem, dict):
            problem["mu"] = mu_override
    return parse_config(raw, base_dir=os.path.dirname(os.path.abspath(path)))


def build_operator(cfg: dict) -> HamiltonianOperator:
    d, potential = cfg["domain"], dict(cfg["potential"])
    values_of, _ = POTENTIALS[potential.pop("kind")]
    grid = Grid(d["dim"], d["extent"], d["points"], d["boundary"])  # the parser checked these
    # a grid too large to allocate fails at its first array of node values: the potential's or the operator's
    too_large = f"domain.points {d['points']}: a grid of {grid.node_count} nodes does not fit in memory"
    try:
        values = values_of(grid, **potential)
    except ValueError as exc:
        raise ConfigError(f"potential.{exc}")
    except MemoryError:
        raise ConfigError(too_large)
    try:
        return HamiltonianOperator(grid, values)
    except ValueError as exc:
        raise ConfigError(str(exc))
    except ArithmeticError as exc:
        raise ConfigError(f"domain or potential is out of floating-point range: {exc}")
    except MemoryError:
        raise ConfigError(too_large)


def build_solver_config(cfg: dict, mu: float) -> SolverConfig:
    return SolverConfig(mu=mu, **cfg["solver"])


def _write(cfg: dict, name: str, text: str) -> None:
    """Write one output file into ``output.dir``; a failure is a config error."""
    out = cfg["output"]["dir"]
    try:
        reports.write_atomic(os.path.join(out, name), text)
    except OSError as exc:
        raise ConfigError(f"output.dir {out!r}: cannot write {name}: {exc}")


def cmd_eig(cfg: dict) -> int:
    H = build_operator(cfg)
    N = cfg["problem"]["N"]
    count = min(N + 1, H.node_count)
    eigs = reference_eigenpairs(H, count)
    if "csv" in cfg["output"]["formats"]:
        _write(cfg, "eigs.csv", reports.eigs_csv(eigs))
        _write(cfg, "eigenmodes.csv", reports.modes_csv(eigs.modes))
    for i in range(count):
        print(f"lambda_{i + 1} = {reports.fmt(eigs.eigenvalues[i])}")
    if count >= N + 1:
        gap = spectral_gap(eigs, N)
        print(f"spectral_gap = {reports.fmt(gap)}")
        if gap < consistency.default_gap_threshold(eigs, N):
            print("GAP_DEGENERATE")
    return 0


def cmd_solve(cfg: dict) -> int:
    problem, output = cfg["problem"], cfg["output"]
    if "mu" not in problem:
        raise ConfigError("problem.mu is required for solve")
    H = build_operator(cfg)
    J = make_regularizer(problem["regularizer"])
    result = solve_cm(H, J, problem["N"], build_solver_config(cfg, problem["mu"]), trace=output["trace"])
    widths = consistency.localization(result.modes)
    energy = float(np.trace(consistency.interaction_matrix(H, result.modes)))
    if "csv" in output["formats"]:
        _write(cfg, "modes.csv", reports.modes_csv(result.modes))
        if output["trace"]:
            _write(cfg, "trace.csv", reports.trace_csv(result.trace))
    if "json" in output["formats"]:
        doc = {
            "objective": result.objective,
            "energy": energy,
            "ortho_defect": result.modes.ortho_defect,
            "localization": [float(v) for v in widths],
            **start_fields(result),
            "config": cfg,
        }
        _write(cfg, "solve.json", reports.json_text(doc))
    print(f"objective = {reports.fmt(result.objective)}")
    print(f"energy = {reports.fmt(energy)}")
    print(f"ortho_defect = {reports.fmt(result.modes.ortho_defect)}")
    print(f"converged = {'true' if result.converged else 'false'}")
    return 0


def cmd_sweep(cfg: dict) -> int:
    problem, output = cfg["problem"], cfg["output"]
    if "mu_schedule" not in problem:
        raise ConfigError("problem.mu_schedule is required for sweep")
    N, schedule = problem["N"], problem["mu_schedule"]
    nodes = math.prod(cfg["domain"]["points"])
    if N + 1 > nodes:
        raise ConfigError(f"sweep needs N + 1 = {N + 1} eigenpairs, the grid has {nodes} nodes")
    H = build_operator(cfg)
    J = make_regularizer(problem["regularizer"])
    report = consistency.mu_sweep(H, J, N, schedule, build_solver_config(cfg, schedule[0]))
    if "csv" in output["formats"]:
        _write(cfg, "sweep.csv", reports.sweep_csv(report))
    if "json" in output["formats"]:
        _write(cfg, "sweep.json", reports.json_text({**report, "config": cfg}))
    if report["degenerate"]:
        print("DEGENERATE")
    else:
        for name, verdict in report["verdicts"].items():
            print(f"{name.upper()}: {verdict}")
    return 0


def cmd_verify(cases: int, seed: int) -> int:
    if cases < 1:
        raise ConfigError("--cases must be at least 1")
    if seed < 0:
        raise ConfigError("--seed must be non-negative")
    if seed + cases > consistency.CASE_SEED_LIMIT:
        raise ConfigError("--seed + --cases - 1 must be below 2**128, the Philox key range of a case seed")
    worst_mass, mass_violations = consistency.column_mass_suite(cases, seed)
    print(f"column_mass: {cases} draws, max mass = {reports.fmt(worst_mass)} (limit 1 + 1e-10)")

    grid = Grid(1, (1.0,), (VERIFY_BOX_POINTS,), "dirichlet")
    H = HamiltonianOperator(grid)
    frame_cases = max(1, cases // 10)
    max_slack, bound_violations = consistency.gap_bound_suite(H, VERIFY_N, frame_cases, seed)
    print(
        f"gap_bound: {frame_cases} frames, max slack = {reports.fmt(max_slack)} (limit 1e-8)"
    )

    violations = {"column_mass": mass_violations, "gap_bound": bound_violations}
    for name, seeds in violations.items():
        if seeds:
            print(f"{name} violations at seeds: {seeds}", file=sys.stderr)
    failed = any(violations.values())
    print("verify: " + ("FAIL" if failed else "PASS"))
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="cmlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    for name, text in (
        ("eig", "reference eigenpairs and spectral gap"),
        ("solve", "one regularized solve at a single mu"),
        ("sweep", "mu sweep with consistency verdicts"),
    ):
        p = sub.add_parser(name, help=text)
        p.add_argument("config", help="path to the experiment JSON config")
        p.add_argument("--mu", type=float, default=None, help="override problem.mu (solve only)")
        p.add_argument("--seed", type=int, default=None, help="override seed")

    v = sub.add_parser("verify", help="run the invariant property suites")
    v.add_argument("--cases", type=int, default=1000, help="number of seeded draws")
    v.add_argument("--seed", type=int, default=0, help="base seed")

    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            return cmd_verify(args.cases, args.seed)
        if args.mu is not None and args.command != "solve":
            raise ConfigError(f"--mu applies to solve only; {args.command} does not take it")
        cfg = load_config(args.config, mu_override=args.mu, seed_override=args.seed)
        if args.command == "eig":
            return cmd_eig(cfg)
        if args.command == "solve":
            return cmd_solve(cfg)
        return cmd_sweep(cfg)
    except (ConfigError, IndefinitePenaltyError, RankDeficientError, ShrinkStepError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
