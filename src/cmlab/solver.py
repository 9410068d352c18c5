"""Orthonormality-constrained minimization of energy + regularizer via splitting.

The functional sum_i (1/mu) J(f_i) + <f_i, H f_i> is minimized over
orthonormal N-frames with an alternating splitting scheme: the smooth
quadratic term is handled by a linear solve, one auxiliary block carries the
regularizer (updated by its prox/shrinkage), one carries the orthonormality
constraint (updated by projection onto the closest orthonormal frame), and
scaled multipliers couple the blocks with quadratic strength ``penalty``.

The problem is non-convex, so nothing certifies global optimality.  What the
solver does certify: every returned frame is feasible (orthonormal to 1e-8),
and because the best feasible iterate across all starts is tracked, including
iteration zero, a run whose starts include the eigenfunction frame never
returns an objective above that frame's.  That single upper bound is what the
consistency experiments lean on.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from .eigensolver import EigenSystem, reference_eigenpairs
from .grid import GridMismatchError
from .hamiltonian import HamiltonianOperator
from .modes import ModeSet, orthonormal_columns
from .regularizer import Regularizer, ZeroRegularizer

OBJECTIVE_REL_TOL = 1e-10
STREAK_REQUIRED = 3


class IndefinitePenaltyError(ValueError):
    """A fixed penalty too small to make H + penalty I positive definite."""


@dataclass(frozen=True)
class EigenInit:
    """Start from the first N reference eigenfunctions."""

    label: str = "eigen"


@dataclass(frozen=True)
class RandomOrthonormal:
    """Start from a seeded random orthonormal frame."""

    seed: int

    @property
    def label(self) -> str:
        return f"random:{self.seed}"


@dataclass(frozen=True)
class ModeInit:
    """Start from an existing frame (warm start along a sweep)."""

    modes: ModeSet

    @property
    def label(self) -> str:
        return "warm"


Start = EigenInit | RandomOrthonormal | ModeInit


@dataclass(frozen=True)
class SolverConfig:
    """Knobs of one solve.

    ``penalty`` is the quadratic coupling strength of the splitting; ``None``
    picks 10 * (1/mu + lambda_N estimate).  ``tol`` bounds the per-mode L2
    change between successive feasible iterates; convergence additionally
    requires the relative objective change to settle below 1e-10.
    """

    mu: float
    penalty: float | None = None
    max_iters: int = 3000
    tol: float = 1e-7
    starts: tuple[Start, ...] = (EigenInit(), RandomOrthonormal(1), RandomOrthonormal(2))

    def __post_init__(self):
        if self.mu <= 0:
            raise ValueError("mu must be positive")
        if self.penalty is not None and self.penalty <= 0:
            raise ValueError("penalty must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if not self.starts:
            raise ValueError("need at least one start")
        object.__setattr__(self, "starts", tuple(self.starts))


@dataclass(frozen=True)
class SolverResult:
    modes: ModeSet
    objective: float
    iterations: int
    converged: bool
    trace: tuple[tuple[float, float], ...]
    winner_start: str
    start_labels: tuple[str, ...]
    start_objectives: tuple[float, ...]


def mode_energies(H: HamiltonianOperator, F: ModeSet) -> np.ndarray:
    """Per-mode Rayleigh quotients <f_i, H f_i> (not normalized)."""
    if F.grid != H.grid:
        raise GridMismatchError("modes live on a different grid than the operator")
    hf = H.apply_array(F.matrix)
    return H.grid.cell_volume * (F.matrix * hf).sum(axis=0)


def objective(H: HamiltonianOperator, J: Regularizer, mu: float, F: ModeSet) -> float:
    """sum_i (1/mu) J(f_i) + <f_i, H f_i>, evaluated from scratch."""
    if mu <= 0:
        raise ValueError("mu must be positive")
    energies = mode_energies(H, F)
    jvals = J.evaluate_columns(F.matrix, H.grid.cell_volume)
    return float(energies.sum() + jvals.sum() / mu)


def default_penalty(mu: float, lambda_top: float) -> float:
    r = 10.0 * (1.0 / mu + max(lambda_top, 0.0))
    return max(r, 1e-6)


def rotation_polish(matrix: np.ndarray, w: float, J: Regularizer, sweeps: int = 30) -> np.ndarray:
    """Rotate a frame within its own span to minimize the regularizer sum.

    In-span rotations leave every Rayleigh quotient sum invariant, so this
    never increases the objective; it jump-starts the splitting iteration at
    the well-localized rotation instead of leaving that (energy-neutral,
    hence weakly forced) direction to the slow shrinkage dynamics.
    Pairwise Givens sweeps: coarse angle grid plus golden-section refinement.
    """
    if matrix.shape[1] < 2 or isinstance(J, ZeroRegularizer):
        return matrix
    x = matrix.copy()
    golden = (np.sqrt(5.0) - 1.0) / 2.0
    coarse = np.linspace(0.0, np.pi / 2, 61)[:-1]

    def pair_cost(pair, theta):
        c, s = np.cos(theta), np.sin(theta)
        rotated = pair @ np.array([[c, -s], [s, c]])
        return float(J.evaluate_columns(rotated, w).sum())

    for _ in range(sweeps):
        improved = False
        for i in range(x.shape[1]):
            for j in range(i + 1, x.shape[1]):
                pair = x[:, [i, j]]
                costs = [pair_cost(pair, t) for t in coarse]
                k = int(np.argmin(costs))
                lo = coarse[k] - np.pi / 120
                hi = coarse[k] + np.pi / 120
                for _ in range(40):
                    m1 = hi - golden * (hi - lo)
                    m2 = lo + golden * (hi - lo)
                    if pair_cost(pair, m1) <= pair_cost(pair, m2):
                        hi = m2
                    else:
                        lo = m1
                theta = 0.5 * (lo + hi)
                if pair_cost(pair, theta) < costs[0] - 1e-13:
                    c, s = np.cos(theta), np.sin(theta)
                    x[:, [i, j]] = pair @ np.array([[c, -s], [s, c]])
                    improved = True
        if not improved:
            break
    return x


def solve_cm(
    H: HamiltonianOperator,
    J: Regularizer,
    N: int,
    config: SolverConfig,
    eigs: EigenSystem | None = None,
) -> SolverResult:
    """Best feasible frame over all configured starts.

    Returns a result even when the iteration cap is hit (``converged`` is
    False then); rank collapse inside the orthonormal projection raises, and
    so does a fixed penalty that leaves H + penalty I indefinite.
    ``eigs`` can carry precomputed reference eigenpairs to avoid a redundant
    eigensolve when the caller already has them.
    """
    n = H.node_count
    if not 1 <= N <= n:
        raise ValueError(f"N must be in [1, {n}], got {N}")

    needs_eigs = config.penalty is None or any(isinstance(s, EigenInit) for s in config.starts)
    if needs_eigs and (eigs is None or eigs.count < N):
        eigs = reference_eigenpairs(H, N)

    # the shifted operator H + penalty I must be positive definite: the
    # quadratic step is a minimization only then, and the factorization
    # relies on it
    if eigs is None:
        eigs = reference_eigenpairs(H, 1)
    lam_min = float(eigs.eigenvalues[0])
    if config.penalty is not None:
        penalty = config.penalty
        if penalty + lam_min <= 0:
            raise IndefinitePenaltyError(
                f"penalty {penalty:g} leaves H + penalty I indefinite: the lowest "
                f"eigenvalue of H is {lam_min:.6g}, so the penalty must exceed {-lam_min:.6g}"
            )
    else:
        penalty = default_penalty(config.mu, float(eigs.eigenvalues[N - 1]))
        if lam_min < 0:
            penalty += 2.0 * (-lam_min)

    shifted_solve = _build_shifted_solver(H, penalty)
    w = H.grid.cell_volume

    runs = []
    for start in config.starts:
        x0 = rotation_polish(_start_matrix(start, H, N, eigs), w, J)
        runs.append(_splitting_run(H, J, config, penalty, shifted_solve, w, x0))
    winner = min(range(len(runs)), key=lambda i: runs[i].best_objective)
    run = runs[winner]

    modes = ModeSet(H.grid, run.best_matrix)
    return SolverResult(
        modes=modes,
        objective=objective(H, J, config.mu, modes),
        iterations=run.iterations,
        converged=run.converged,
        trace=tuple(run.trace),
        winner_start=config.starts[winner].label,
        start_labels=tuple(start.label for start in config.starts),
        start_objectives=tuple(r.best_objective for r in runs),
    )


def warm_started(config: SolverConfig, previous: ModeSet | None) -> SolverConfig:
    """Config with the previous solution appended as an extra start."""
    if previous is None:
        return config
    return replace(config, starts=config.starts + (ModeInit(previous),))


@dataclass
class _Run:
    best_matrix: np.ndarray
    best_objective: float
    iterations: int
    converged: bool
    trace: list = field(default_factory=list)


def _start_matrix(start: Start, H: HamiltonianOperator, N: int, eigs) -> np.ndarray:
    if isinstance(start, EigenInit):
        return eigs.modes.matrix[:, :N].copy()
    if isinstance(start, RandomOrthonormal):
        rng = np.random.default_rng(start.seed)
        raw = rng.standard_normal((H.node_count, N))
        return orthonormal_columns(raw, H.grid.cell_volume)
    if isinstance(start, ModeInit):
        if start.modes.grid != H.grid:
            raise GridMismatchError("warm-start modes live on a different grid")
        if start.modes.count != N:
            raise ValueError("warm-start mode count does not match N")
        return orthonormal_columns(start.modes.matrix, H.grid.cell_volume)
    raise TypeError(f"unknown start type {type(start).__name__}")


def _build_shifted_solver(H: HamiltonianOperator, penalty: float):
    """Solver for (H + penalty I) X = RHS, column-wise, from one sparse LU factor.

    The caller guarantees the shifted matrix is positive definite, so the
    factorization pivots on the diagonal under a symmetric fill-reducing
    ordering.
    """
    shifted = H.matrix + penalty * scipy.sparse.eye_array(H.node_count)
    factor = scipy.sparse.linalg.splu(
        scipy.sparse.csc_array(shifted),
        permc_spec="MMD_AT_PLUS_A",
        diag_pivot_thresh=0.0,
        options={"SymmetricMode": True},
    )
    return factor.solve


def _splitting_run(H, J, config, penalty, shifted_solve, w, x0) -> _Run:
    """One splitting iteration chain from one start; tracks the best feasible iterate."""
    mu, r = config.mu, penalty
    F = x0.copy()
    Q = x0.copy()
    P = x0.copy()
    b = np.zeros_like(x0)
    B = np.zeros_like(x0)

    def feasible_objective(mat):
        hx = H.apply_array(mat)
        energy = w * (mat * hx).sum()
        return float(energy + J.evaluate_columns(mat, w).sum() / mu)

    run = _Run(best_matrix=P.copy(), best_objective=feasible_objective(P), iterations=0, converged=False)
    prev_P = P
    prev_obj = run.best_objective
    streak = 0
    shrink_step = 1.0 / (mu * r)

    for k in range(1, config.max_iters + 1):
        F = shifted_solve(0.5 * r * (Q - b + P - B))
        Q = J.prox_array(F + b, shrink_step)
        P = orthonormal_columns(F + B, w)
        b = b + F - Q
        B = B + F - P

        obj = feasible_objective(P)
        gram = w * (F.T @ F)
        defect = float(np.abs(gram - np.eye(gram.shape[0])).max())
        run.trace.append((obj, defect))
        if obj < run.best_objective:
            run.best_objective = obj
            run.best_matrix = P.copy()

        change = float(np.sqrt(w * ((P - prev_P) ** 2).sum(axis=0)).max())
        rel_obj = abs(obj - prev_obj) / max(1.0, abs(obj))
        streak = streak + 1 if change <= config.tol else 0
        run.iterations = k
        if streak >= STREAK_REQUIRED and rel_obj <= OBJECTIVE_REL_TOL:
            run.converged = True
            break
        prev_P, prev_obj = P, obj

    return run
