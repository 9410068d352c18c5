import os

import numpy as np
import pytest

from cmlab import (
    Grid,
    HamiltonianOperator,
    L1Regularizer,
    ModeSet,
    SolverConfig,
    make_regularizer,
    mu_sweep,
    multiwell,
    reference_eigenpairs,
)
from cmlab.cli import build_operator, load_config

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def config_path(name: str) -> str:
    return os.path.abspath(os.path.join(CONFIG_DIR, name))


def l1_total(modes: ModeSet) -> float:
    """sum_i ||f_i||_1 over the columns of a frame (weighted discrete L1 norms)."""
    return float(L1Regularizer().evaluate_columns(modes.matrix, modes.grid.cell_volume).sum())


@pytest.fixture(scope="session")
def box_grid():
    return Grid(1, (1.0,), (512,), "dirichlet")


@pytest.fixture(scope="session")
def box_H(box_grid):
    return HamiltonianOperator(box_grid)


@pytest.fixture(scope="session")
def box_eigs(box_H):
    return reference_eigenpairs(box_H, 4)


@pytest.fixture(scope="session")
def small_box_H():
    return HamiltonianOperator(Grid(1, (1.0,), (64,), "dirichlet"))


@pytest.fixture(scope="session")
def small_box_full_eigs(small_box_H):
    return reference_eigenpairs(small_box_H, 64)


@pytest.fixture(scope="session")
def periodic_H():
    return HamiltonianOperator(Grid(1, (1.0,), (256,), "periodic"))


@pytest.fixture(scope="session")
def periodic_eigs(periodic_H):
    return reference_eigenpairs(periodic_H, 4)


@pytest.fixture(scope="session")
def multiwell_H():
    grid = Grid(1, (40.0,), (400,), "dirichlet")
    wells = multiwell(grid, centers=((8.0,), (16.0,), (24.0,), (32.0,)), depth=3.0, width=1.5)
    return HamiltonianOperator(grid, wells)


@pytest.fixture(scope="session")
def multiwell_eigs(multiwell_H):
    return reference_eigenpairs(multiwell_H, 6)


@pytest.fixture(scope="session")
def reference_config():
    return load_config(config_path("reference_sweep.json"))


@pytest.fixture(scope="session")
def reference_sweep(reference_config):
    """The repo's own acceptance run: the shipped sweep config, run in process."""
    cfg = reference_config
    H = build_operator(cfg)
    problem = cfg["problem"]
    J = make_regularizer(problem["regularizer"])
    solver_cfg = SolverConfig(mu=problem["mu_schedule"][0], **cfg["solver"])
    return mu_sweep(H, J, problem["N"], problem["mu_schedule"], solver_cfg)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
