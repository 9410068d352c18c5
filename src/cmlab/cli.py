"""Batch front end: eigensolves, single solves, mu sweeps, property verification.

One JSON config file per experiment, passed as the sole positional argument;
``--mu`` and ``--seed`` override the corresponding scalar keys.  Exit codes:
0 success (a non-converged solve still reports), 1 verification failure,
2 usage or config error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from dataclasses import asdict, dataclass

import numpy as np

from . import consistency, reports
from .eigensolver import reference_eigenpairs, spectral_gap
from .grid import Grid
from .hamiltonian import (
    FreeParticle,
    HamiltonianOperator,
    HarmonicWell,
    MultiWell,
    Potential,
    Tabulated,
)
from .regularizer import make_regularizer
from .solver import (
    EigenInit,
    IndefinitePenaltyError,
    RandomOrthonormal,
    ShrinkStepError,
    SolverConfig,
    solve_cm,
)

VERIFY_BOX_POINTS = 256
VERIFY_N = 2


class ConfigError(ValueError):
    """Invalid or incomplete experiment configuration."""


@dataclass(frozen=True)
class PotentialSpec:
    kind: str
    omega: float | None = None
    center: tuple[float, ...] | None = None
    centers: tuple[tuple[float, ...], ...] | None = None
    depth: float | None = None
    width: float | None = None
    path: str | None = None


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated, fully normalized experiment description."""

    dim: int
    extent: tuple[float, ...]
    points: tuple[int, ...]
    boundary: str
    potential: PotentialSpec
    N: int
    regularizer: str
    mu: float | None
    mu_schedule: tuple[float, ...] | None
    penalty: float | None
    max_iters: int
    tol: float
    starts: tuple[str, ...]
    out_dir: str
    formats: tuple[str, ...]
    trace: bool
    seed: int

    def to_dict(self) -> dict:
        potential = {"kind": self.potential.kind}
        for key, value in asdict(self.potential).items():
            if key != "kind" and value is not None:
                potential[key] = list(value) if isinstance(value, tuple) else value
        if self.potential.centers is not None:
            potential["centers"] = [list(c) for c in self.potential.centers]
        problem: dict = {"N": self.N, "regularizer": self.regularizer}
        if self.mu is not None:
            problem["mu"] = self.mu
        if self.mu_schedule is not None:
            problem["mu_schedule"] = list(self.mu_schedule)
        return {
            "domain": {
                "dim": self.dim,
                "extent": list(self.extent),
                "points": list(self.points),
                "boundary": self.boundary,
            },
            "potential": potential,
            "problem": problem,
            "solver": {
                "penalty": self.penalty,
                "max_iters": self.max_iters,
                "tol": self.tol,
                "starts": list(self.starts),
            },
            "output": {
                "dir": self.out_dir,
                "formats": list(self.formats),
                "trace": self.trace,
            },
            "seed": self.seed,
        }


def _block(raw: dict, name: str, required: bool = True) -> dict:
    if name not in raw:
        if required:
            raise ConfigError(f"missing block: {name}")
        return {}
    value = raw.pop(name)
    if not isinstance(value, dict):
        raise ConfigError(f"block {name!r} must be an object")
    return dict(value)


def _reject_unknown(block: dict, name: str) -> None:
    if block:
        raise ConfigError(f"unknown key(s) in {name}: {', '.join(sorted(block))}")


def _int(value, where: str, minimum: int) -> int:
    """A JSON integer: not a bool, not a float, at least ``minimum``."""
    if type(value) is not int or value < minimum:
        raise ConfigError(f"{where} must be an integer >= {minimum}")
    return value


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


def _point(value, dim: int, where: str) -> tuple[float, ...]:
    if isinstance(value, (int, float)):
        value = [value]
    if not isinstance(value, (list, tuple)) or len(value) != dim:
        raise ConfigError(f"{where} must have {dim} coordinate(s)")
    return tuple(_float(v, where) for v in value)


def _parse_potential(block: dict, dim: int) -> PotentialSpec:
    kind = block.pop("kind", None)
    if kind is None:
        raise ConfigError("potential.kind is required")
    if kind == "free":
        spec = PotentialSpec(kind="free")
    elif kind == "harmonic":
        omega = _pos_float(block.pop("omega", 1.0), "potential.omega")
        center = block.pop("center", None)
        if center is not None:
            center = _point(center, dim, "potential.center")
        spec = PotentialSpec(kind="harmonic", omega=omega, center=center)
    elif kind == "multiwell":
        centers = block.pop("centers", None)
        if not isinstance(centers, (list, tuple)) or not centers:
            raise ConfigError("potential.centers must be a non-empty list")
        centers = tuple(_point(c, dim, "potential.centers[]") for c in centers)
        depth = _pos_float(block.pop("depth", None), "potential.depth")
        width = _pos_float(block.pop("width", None), "potential.width")
        spec = PotentialSpec(kind="multiwell", centers=centers, depth=depth, width=width)
    elif kind == "tabulated":
        path = block.pop("path", None)
        if not isinstance(path, str):
            raise ConfigError("potential.path is required for a tabulated potential")
        spec = PotentialSpec(kind="tabulated", path=path)
    else:
        raise ConfigError(f"unknown potential kind {kind!r}")
    _reject_unknown(block, "potential")
    return spec


def _parse_starts(value, seed: int) -> tuple[str, ...]:
    if value is None:
        return ("eigen", f"random:{seed + 1}", f"random:{seed + 2}")
    if not isinstance(value, (list, tuple)) or not value:
        raise ConfigError("solver.starts must be a non-empty list")
    for item in value:
        if item != "eigen" and not (isinstance(item, str) and re.fullmatch("random:[0-9]+", item)):
            raise ConfigError(
                f"bad start spec {item!r}; expected 'eigen' or 'random:<seed>' with seed >= 0"
            )
    return tuple(value)


def parse_config(raw: dict, base_dir: str = ".") -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config root must be an object")
    raw = dict(raw)

    domain = _block(raw, "domain")
    dim = domain.pop("dim", None)
    if type(dim) is not int or dim not in (1, 2):
        raise ConfigError("domain.dim must be 1 or 2")
    extent = domain.pop("extent", None)
    points = domain.pop("points", None)
    if not isinstance(extent, (list, tuple)) or len(extent) != dim:
        raise ConfigError(f"domain.extent must list {dim} side length(s)")
    if not isinstance(points, (list, tuple)) or len(points) != dim:
        raise ConfigError(f"domain.points must list {dim} node count(s)")
    extent = tuple(_pos_float(e, "domain.extent[]") for e in extent)
    points = tuple(_int(p, "domain.points[]", 2) for p in points)
    boundary = domain.pop("boundary", "dirichlet")
    if boundary not in ("dirichlet", "periodic"):
        raise ConfigError("domain.boundary must be 'dirichlet' or 'periodic'")
    _reject_unknown(domain, "domain")

    potential = _parse_potential(_block(raw, "potential"), dim)
    if potential.path is not None and not os.path.isabs(potential.path):
        potential = PotentialSpec(
            kind="tabulated", path=os.path.abspath(os.path.join(base_dir, potential.path))
        )

    problem = _block(raw, "problem")
    n_modes = _int(problem.pop("N", None), "problem.N", 1)
    nodes = math.prod(points)
    if n_modes > nodes:
        raise ConfigError(f"problem.N = {n_modes} exceeds the {nodes} grid nodes")
    reg = problem.pop("regularizer", "l1")
    if reg not in ("l1", "zero"):
        raise ConfigError("problem.regularizer must be 'l1' or 'zero'")
    mu = problem.pop("mu", None)
    if mu is not None:
        mu = _pos_float(mu, "problem.mu")
    schedule = problem.pop("mu_schedule", None)
    if schedule is not None:
        if not isinstance(schedule, (list, tuple)) or not schedule:
            raise ConfigError("problem.mu_schedule must be a non-empty list")
        schedule = tuple(_pos_float(m, "problem.mu_schedule[]") for m in schedule)
        if any(b <= a for a, b in zip(schedule, schedule[1:])):
            raise ConfigError("problem.mu_schedule must be strictly ascending")
    _reject_unknown(problem, "problem")

    seed = _int(raw.pop("seed", 0), "seed", 0)

    solver = _block(raw, "solver", required=False)
    penalty = solver.pop("penalty", None)
    if penalty is not None:
        penalty = _pos_float(penalty, "solver.penalty")
    max_iters = _int(solver.pop("max_iters", 3000), "solver.max_iters", 1)
    tol = _pos_float(solver.pop("tol", 1e-7), "solver.tol")
    starts = _parse_starts(solver.pop("starts", None), seed)
    _reject_unknown(solver, "solver")

    output = _block(raw, "output", required=False)
    out_dir = output.pop("dir", "out")
    if not isinstance(out_dir, str):
        raise ConfigError("output.dir must be a string")
    formats = output.pop("formats", ["csv", "json"])
    if not isinstance(formats, (list, tuple)) or not formats:
        raise ConfigError("output.formats must be a non-empty list")
    for f in formats:
        if f not in ("csv", "json"):
            raise ConfigError(f"unknown output format {f!r}")
    trace = output.pop("trace", False)
    if not isinstance(trace, bool):
        raise ConfigError("output.trace must be a boolean")
    _reject_unknown(output, "output")

    _reject_unknown(raw, "config")

    return ExperimentConfig(
        dim=dim,
        extent=extent,
        points=points,
        boundary=boundary,
        potential=potential,
        N=n_modes,
        regularizer=reg,
        mu=mu,
        mu_schedule=schedule,
        penalty=penalty,
        max_iters=max_iters,
        tol=tol,
        starts=starts,
        out_dir=out_dir,
        formats=tuple(formats),
        trace=trace,
        seed=seed,
    )


def load_config(path: str, mu_override: float | None = None, seed_override: int | None = None):
    try:
        with open(path) as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}")
    if not isinstance(raw, dict):
        raise ConfigError("config root must be an object")
    if seed_override is not None:
        raw["seed"] = seed_override
    if mu_override is not None:
        problem = raw.get("problem")
        if isinstance(problem, dict):
            problem["mu"] = mu_override
    return parse_config(raw, base_dir=os.path.dirname(os.path.abspath(path)))


def build_grid(cfg: ExperimentConfig) -> Grid:
    try:
        return Grid(cfg.dim, cfg.extent, cfg.points, cfg.boundary)
    except ValueError as exc:
        raise ConfigError(str(exc))


def build_potential(cfg: ExperimentConfig, grid: Grid) -> Potential:
    p = cfg.potential
    if p.kind == "free":
        return FreeParticle()
    if p.kind == "harmonic":
        return HarmonicWell(omega=p.omega, center=p.center)
    if p.kind == "multiwell":
        return MultiWell(centers=p.centers, depth=p.depth, width=p.width)
    try:
        values = np.loadtxt(p.path, dtype=float, ndmin=1)
    except OSError as exc:
        raise ConfigError(f"cannot read tabulated potential: {exc}")
    if values.ndim != 1:
        raise ConfigError("tabulated potential CSV must hold a single column")
    if values.size != grid.node_count:
        raise ConfigError(
            f"tabulated potential has {values.size} values, grid has {grid.node_count} nodes"
        )
    return Tabulated(tuple(float(v) for v in values))


def build_operator(cfg: ExperimentConfig) -> HamiltonianOperator:
    grid = build_grid(cfg)
    try:
        return HamiltonianOperator(grid, build_potential(cfg, grid))
    except ValueError as exc:
        raise ConfigError(str(exc))
    except ArithmeticError as exc:
        raise ConfigError(f"domain or potential is out of floating-point range: {exc}")


def build_solver_config(cfg: ExperimentConfig, mu: float) -> SolverConfig:
    starts = []
    for spec in cfg.starts:
        if spec == "eigen":
            starts.append(EigenInit())
        else:
            starts.append(RandomOrthonormal(int(spec.split(":", 1)[1])))
    return SolverConfig(
        mu=mu, penalty=cfg.penalty, max_iters=cfg.max_iters, tol=cfg.tol, starts=tuple(starts)
    )


def cmd_eig(cfg: ExperimentConfig) -> int:
    H = build_operator(cfg)
    count = min(cfg.N + 1, H.node_count)
    eigs = reference_eigenpairs(H, count)
    out = cfg.out_dir
    if "csv" in cfg.formats:
        reports.write_atomic(os.path.join(out, "eigs.csv"), reports.eigs_csv(eigs))
        reports.write_atomic(os.path.join(out, "eigenmodes.csv"), reports.modes_csv(eigs.modes))
    for i in range(count):
        print(f"lambda_{i + 1} = {reports.fmt(eigs.eigenvalues[i])}")
    if count >= cfg.N + 1:
        gap = spectral_gap(eigs, cfg.N)
        print(f"spectral_gap = {reports.fmt(gap)}")
        if gap < consistency.default_gap_threshold(eigs, cfg.N):
            print("GAP_DEGENERATE")
    return 0


def cmd_solve(cfg: ExperimentConfig) -> int:
    if cfg.mu is None:
        raise ConfigError("problem.mu is required for solve")
    H = build_operator(cfg)
    J = make_regularizer(cfg.regularizer)
    result = solve_cm(H, J, cfg.N, build_solver_config(cfg, cfg.mu))
    widths = consistency.localization(result.modes)
    energy = float(np.trace(consistency.interaction_matrix(H, result.modes)))
    out = cfg.out_dir
    if "csv" in cfg.formats:
        reports.write_atomic(os.path.join(out, "modes.csv"), reports.modes_csv(result.modes))
        if cfg.trace:
            reports.write_atomic(os.path.join(out, "trace.csv"), reports.trace_csv(result.trace))
    if "json" in cfg.formats:
        doc = {
            "objective": result.objective,
            "energy": energy,
            "ortho_defect": result.modes.ortho_defect,
            "localization": [float(v) for v in widths],
            "iterations": result.iterations,
            "converged": result.converged,
            "winner_start": result.winner_start,
            "start_labels": list(result.start_labels),
            "start_objectives": list(result.start_objectives),
            "start_iterations": list(result.start_iterations),
            "start_converged": list(result.start_converged),
            "config": cfg.to_dict(),
        }
        reports.write_atomic(os.path.join(out, "solve.json"), reports.json_text(doc))
    print(f"objective = {reports.fmt(result.objective)}")
    print(f"energy = {reports.fmt(energy)}")
    print(f"ortho_defect = {reports.fmt(result.modes.ortho_defect)}")
    print(f"converged = {'true' if result.converged else 'false'}")
    return 0


def cmd_sweep(cfg: ExperimentConfig) -> int:
    if cfg.mu_schedule is None:
        raise ConfigError("problem.mu_schedule is required for sweep")
    nodes = math.prod(cfg.points)
    if cfg.N + 1 > nodes:
        raise ConfigError(f"sweep needs N + 1 = {cfg.N + 1} eigenpairs, the grid has {nodes} nodes")
    H = build_operator(cfg)
    J = make_regularizer(cfg.regularizer)
    solver_cfg = build_solver_config(cfg, cfg.mu_schedule[0])
    report = consistency.mu_sweep(H, J, cfg.N, cfg.mu_schedule, solver_cfg)
    out = cfg.out_dir
    if "csv" in cfg.formats:
        reports.write_atomic(os.path.join(out, "sweep.csv"), reports.sweep_csv(report))
    if "json" in cfg.formats:
        reports.write_atomic(
            os.path.join(out, "sweep.json"), reports.sweep_json(report, cfg.to_dict())
        )
    if report.degenerate:
        print("DEGENERATE")
    else:
        print(f"MONOTONE_ENERGY: {report.verdicts['monotone_energy']}")
        print(f"EIG_CONVERGENCE: {report.verdicts['eig_convergence']}")
        print(f"L2_CONVERGENCE: {report.verdicts['l2_convergence']}")
    return 0


def cmd_verify(cases: int, seed: int) -> int:
    if cases < 1:
        print("error: --cases must be at least 1", file=sys.stderr)
        return 2
    if seed < 0:
        print("error: --seed must be non-negative", file=sys.stderr)
        return 2
    worst_mass, mass_violations = consistency.column_mass_suite(cases, seed)
    print(f"column_mass: {cases} draws, max mass = {reports.fmt(worst_mass)} (limit 1 + 1e-10)")

    grid = Grid(1, (1.0,), (VERIFY_BOX_POINTS,), "dirichlet")
    H = HamiltonianOperator(grid, FreeParticle())
    frame_cases = max(1, cases // 10)
    max_slack, bound_violations = consistency.gap_bound_suite(H, VERIFY_N, frame_cases, seed)
    print(
        f"gap_bound: {frame_cases} frames, max slack = {reports.fmt(max_slack)} (limit 1e-8)"
    )

    failed = False
    if mass_violations:
        failed = True
        print(f"column_mass violations at seeds: {mass_violations}", file=sys.stderr)
    if bound_violations:
        failed = True
        print(f"gap_bound violations at seeds: {bound_violations}", file=sys.stderr)
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
        p.add_argument("--mu", type=float, default=None, help="override problem.mu")
        p.add_argument("--seed", type=int, default=None, help="override seed")

    v = sub.add_parser("verify", help="run the invariant property suites")
    v.add_argument("--cases", type=int, default=1000, help="number of seeded draws")
    v.add_argument("--seed", type=int, default=0, help="base seed")

    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            return cmd_verify(args.cases, args.seed)
        cfg = load_config(args.config, mu_override=args.mu, seed_override=args.seed)
        if args.command == "eig":
            return cmd_eig(cfg)
        if args.command == "solve":
            return cmd_solve(cfg)
        return cmd_sweep(cfg)
    except (ConfigError, IndefinitePenaltyError, ShrinkStepError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
