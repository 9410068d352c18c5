"""Workloads of the cmlab benchmark: seeded configs, CLI arguments, output checks.

Every workload runs one ``cmlab.cli`` subcommand.  ``argv`` writes the
workload's config (if it has one) into the working directory and returns the
CLI arguments; ``check`` reads what the CLI printed and wrote and returns the
list of failed checks (empty when the output is correct) plus a behaviour
fingerprint that is reported but never gated.

This module imports only the standard library, so the set-up probe can start
its clock before numpy and scipy are loaded.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import re
from dataclasses import dataclass
from typing import Callable

# With this seed, sweep_1d's config is byte-for-byte configs/reference_sweep.json.
DEFAULT_SEED = 10

ORTHO_LIMIT = 1e-8
ENERGY_FLOOR_SLACK = 1e-8
EIG_RESIDUAL_LIMIT = 1e-6
EIG_REFERENCE_TOL = 1e-8
REFERENCE_EIGENVALUES = os.path.join(os.path.dirname(__file__), "reference_eig_2d_cliff.json")

# Column-mass draws per verify_props operation (gap-bound frames are a tenth).
# Short operations give each run many samples, so wall_s can skip the ones a
# burst of host contention slowed down.
VERIFY_CASES = 2500

SOLVE_2D_STARTS = ["eigen", "random:11", "random:12"]
MULTIWELL_2D = {
    "kind": "multiwell",
    "centers": [[4.0, 4.0], [4.0, 12.0], [12.0, 4.0], [12.0, 12.0]],
    "depth": 3.0,
    "width": 1.2,
}


def _dumps(value) -> str:
    """JSON text in the layout of the shipped configs (``1e-7``, not ``1e-07``)."""
    if isinstance(value, dict):
        return "{" + ", ".join(f"{json.dumps(k)}: {_dumps(v)}" for k, v in value.items()) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(_dumps(v) for v in value) + "]"
    if isinstance(value, float):
        return re.sub(r"e([+-])0(\d)", r"e\1\2", repr(value))
    return json.dumps(value)


def config_text(config: dict) -> str:
    """One line per top-level block, as in ``configs/*.json``."""
    body = ",\n".join(f"  {json.dumps(k)}: {_dumps(v)}" for k, v in config.items())
    return "{\n" + body + "\n}\n"


def sweep_1d_config(seed: int) -> dict:
    return {
        "domain": {"dim": 1, "extent": [1.0], "points": [512], "boundary": "dirichlet"},
        "potential": {"kind": "free"},
        "problem": {"N": 2, "regularizer": "l1", "mu_schedule": [5, 10, 20, 40, 80, 160]},
        "solver": {"penalty": None, "max_iters": 1500, "tol": 1e-7, "starts": ["eigen", f"random:{seed + 1}", f"random:{seed + 2}"]},
        "output": {"dir": "out/reference_sweep", "formats": ["csv", "json"], "trace": False},
        "seed": seed,
    }


def _multiwell_2d_config(seed: int, points: int, out_dir: str) -> dict:
    return {
        "domain": {"dim": 2, "extent": [16.0, 16.0], "points": [points, points], "boundary": "dirichlet"},
        "potential": MULTIWELL_2D,
        "problem": {"N": 4, "regularizer": "l1", "mu": 10.0},
        "solver": {"penalty": None, "max_iters": 2000, "tol": 1e-7, "starts": SOLVE_2D_STARTS},
        "output": {"dir": out_dir, "formats": ["csv", "json"], "trace": True},
        "seed": seed,
    }


def solve_2d_config(seed: int) -> dict:
    # The random starts stay fixed: on this grid the iterations they need
    # before converging depend on the draw (581 in total for this pair,
    # 1525-1617 for the pairs of seeds 0-2), which would double the wall
    # time from one seed to the next.
    return _multiwell_2d_config(seed, 48, "out/solve_2d")


def eig_2d_cliff_config(seed: int) -> dict:
    # The eigensolve draws nothing from the seed; ARPACK's start vector comes
    # from OS entropy, which is what the traced eigensolver.matvecs records.
    return _multiwell_2d_config(seed, 80, "out/eig_2d_cliff")


def verify_box_config(seed: int) -> dict:
    """The operator `cmlab verify` builds (256-node 1D free box), for set-up timing only."""
    return {
        "domain": {"dim": 1, "extent": [1.0], "points": [256], "boundary": "dirichlet"},
        "potential": {"kind": "free"},
        "problem": {"N": 2, "regularizer": "l1"},
        "seed": seed,
    }


def _sha256(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def _read_json(path: str) -> dict:
    with open(path) as handle:
        return json.load(handle)


def check_sweep_1d(stdout: str, out_dir: str):
    problems = []
    for verdict in ("MONOTONE_ENERGY", "EIG_CONVERGENCE", "L2_CONVERGENCE"):
        if f"{verdict}: pass" not in stdout:
            problems.append(f"{verdict} is not 'pass'")
    doc = _read_json(os.path.join(out_dir, "sweep.json"))
    for record in doc["records"]:
        if not record["energy_gap"] >= -ENERGY_FLOOR_SLACK:
            problems.append(f"E - E0 = {record['energy_gap']} < -1e-8 at mu={record['mu']}")
        if not record["ortho_defect"] <= ORTHO_LIMIT:
            problems.append(f"ortho_defect {record['ortho_defect']} > 1e-8 at mu={record['mu']}")
    fingerprint = {
        "sweep_csv_sha256": _sha256(os.path.join(out_dir, "sweep.csv")),
        "winner_iterations": [r["iterations"] for r in doc["records"]],
        "winner_starts": [r["winner_start"] for r in doc["records"]],
    }
    return problems, fingerprint


def check_solve_2d(stdout: str, out_dir: str):
    problems = []
    doc = _read_json(os.path.join(out_dir, "solve.json"))
    if not doc["ortho_defect"] <= ORTHO_LIMIT:
        problems.append(f"ortho_defect {doc['ortho_defect']} > 1e-8")
    eigen_objective = doc["start_objectives"][doc["start_labels"].index("eigen")]
    if not doc["objective"] <= eigen_objective:
        problems.append(f"objective {doc['objective']} above eigen-start objective {eigen_objective}")
    fingerprint = {
        "modes_csv_sha256": _sha256(os.path.join(out_dir, "modes.csv")),
        "winner_iterations": doc["iterations"],
        "winner_start": doc["winner_start"],
        "start_objectives": dict(zip(doc["start_labels"], doc["start_objectives"])),
    }
    return problems, fingerprint


def check_eig_2d_cliff(stdout: str, out_dir: str):
    problems = []
    with open(os.path.join(out_dir, "eigs.csv"), newline="") as handle:
        rows = list(csv.DictReader(handle))
    values = [float(r["lambda"]) for r in rows]
    residuals = [float(r["residual"]) for r in rows]
    if any(b < a for a, b in zip(values, values[1:])):
        problems.append(f"eigenvalues not nondecreasing: {values}")
    if not all(r <= EIG_RESIDUAL_LIMIT for r in residuals):
        problems.append(f"residual above {EIG_RESIDUAL_LIMIT}: {residuals}")
    reference = _read_json(REFERENCE_EIGENVALUES)["eigenvalues"]
    if len(values) != len(reference) or any(
        abs(v - r) > EIG_REFERENCE_TOL for v, r in zip(values, reference)
    ):
        problems.append(f"eigenvalues {values} differ from reference {reference} by > {EIG_REFERENCE_TOL}")
    fingerprint = {
        "eigenvalues": values,
        "max_residual": max(residuals, default=0.0),
    }
    return problems, fingerprint


def check_verify_props(stdout: str, out_dir: str):
    problems = [] if "verify: PASS" in stdout else ["'verify: PASS' not printed"]
    return problems, {"summary": [line for line in stdout.splitlines() if line.startswith(("column_mass", "gap_bound"))]}


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    out_dir: str
    check: Callable[[str, str], tuple]
    config: Callable[[int], dict] | None = None
    setup_config: Callable[[int], dict] | None = None

    def argv(self, seed: int, workdir: str) -> list:
        """Write this workload's config into ``workdir``; return the CLI arguments."""
        if self.config is None:
            return [self.command, "--cases", str(VERIFY_CASES), "--seed", str(seed)]
        path = write_config(self.config(seed), workdir, self.name)
        return [self.command, path]

    def setup_config_path(self, seed: int, workdir: str) -> str:
        """Config whose load and operator build make up this workload's set-up."""
        make = self.setup_config or self.config
        return write_config(make(seed), workdir, self.name + "_setup")


def write_config(config: dict, workdir: str, stem: str) -> str:
    path = os.path.join(workdir, stem + ".json")
    with open(path, "w") as handle:
        handle.write(config_text(config))
    return path


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep_1d", "sweep", "out/reference_sweep", check_sweep_1d, sweep_1d_config),
        Workload("solve_2d", "solve", "out/solve_2d", check_solve_2d, solve_2d_config),
        Workload("eig_2d_cliff", "eig", "out/eig_2d_cliff", check_eig_2d_cliff, eig_2d_cliff_config),
        Workload(
            "verify_props", "verify", "", check_verify_props, setup_config=verify_box_config
        ),
    )
}


def normalize_seed(seed: int) -> int:
    """Seeds reach numpy's default_rng, which rejects negatives."""
    return seed % 2**31
