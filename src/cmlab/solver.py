"""Orthonormality-constrained minimization of energy + regularizer via splitting.

The functional sum_i (1/mu) J(f_i) + <f_i, H f_i> is minimized over
orthonormal N-frames with an alternating splitting scheme: the smooth
quadratic term is handled by a linear solve, one auxiliary block carries the
regularizer (updated by its prox/shrinkage), one carries the orthonormality
constraint (updated by projection onto the closest orthonormal frame), and
scaled multipliers couple the blocks with quadratic strength ``penalty``.

All starts of one solve run in lockstep as one block: their iterates sit in
an (S, N, node_count) stack, one mode per row, and each iteration makes one
multi-RHS shifted solve per distinct penalty, one prox, one stacked polar
projection and one operator apply for every start still running.  The
projection takes each start's polar factor X G^{-1/2} from its N x N Gram
matrix G (one stacked eigendecomposition for the block), with a second pass
for a start whose Gram condition is above 1e3, and returns the block stored
by rows as it came.  Each start
carries its own mu and penalty.  Every reduction stays inside one start's
slab, so each start's run is bitwise the same alone as in any block; a start
that converges leaves the block.  A mu sweep (``solve_sweep``) runs the
configured starts of all its mu values as one such block, then the chain of
warm starts, each from the previous mu's winner; ``solve_cm`` is its one-mu
case.

The problem is non-convex, so nothing certifies global optimality.  What the
solver does certify: every returned frame is feasible (orthonormal to 1e-8),
and because the best feasible iterate across all starts is tracked, including
iteration zero, a run whose starts include the eigenfunction frame never
returns an objective above that frame's.  That single upper bound is what the
consistency experiments lean on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

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


class ShrinkStepError(ValueError):
    """mu * penalty out of floating-point range: the shrinkage step 1/(mu * penalty) is 0 or inf."""


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
    start_iterations: tuple[int, ...]
    start_converged: tuple[bool, ...]


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
    so does a fixed penalty that leaves H + penalty I indefinite, and a
    ``mu * penalty`` whose shrinkage step is not a positive finite number.
    ``eigs`` can carry precomputed reference eigenpairs to avoid a redundant
    eigensolve when the caller already has them.  This is the one-mu sweep.
    """
    return solve_sweep(H, J, N, (config.mu,), config, eigs)[0]


def solve_sweep(
    H: HamiltonianOperator,
    J: Regularizer,
    N: int,
    schedule,
    config: SolverConfig,
    eigs: EigenSystem | None = None,
) -> list[SolverResult]:
    """One result per mu of ``schedule``, each warm-started from the previous winner.

    The results equal those of the chain ``solve_cm(H, J, N,
    warm_started(replace(config, mu=mu), previous), eigs)``, where
    ``previous`` is the modes of the previous mu's result.  Every mu is
    validated before any factorization.  Then the configured starts of all mu
    values run as one lockstep block, since none of them depends on another
    mu; each start is rotation-polished once, as the polish does not depend
    on mu.  Last, the schedule is walked in order: each warm start runs alone
    from the previous winner, and each mu's winner is picked as ``solve_cm``
    picks it.
    """
    n = H.node_count
    if not 1 <= N <= n:
        raise ValueError(f"N must be in [1, {n}], got {N}")
    configs = [replace(config, mu=mu) for mu in schedule]
    if not configs:
        return []

    needs_eigs = config.penalty is None or any(isinstance(s, EigenInit) for s in config.starts)
    if needs_eigs and (eigs is None or eigs.count < N):
        eigs = reference_eigenpairs(H, N)
    if eigs is None:
        eigs = reference_eigenpairs(H, 1)
    penalties = [_penalty(cfg, N, eigs) for cfg in configs]  # fail before any factorization
    solvers = {r: _build_shifted_solver(H, r) for r in dict.fromkeys(penalties)}
    w = H.grid.cell_volume

    polished = [rotation_polish(_start_matrix(s, H, N, eigs), w, J) for s in config.starts]
    S = len(polished)
    # mu-major: every start at the first mu, then every start at the next one
    x0 = np.stack(polished * len(configs))
    mus = np.repeat([cfg.mu for cfg in configs], S)
    rs = np.repeat(penalties, S)
    block = _lockstep(H, J, w, x0, mus, rs, solvers, config.max_iters, config.tol)

    results = []
    previous = None
    for i, (cfg, penalty) in enumerate(zip(configs, penalties)):
        runs = block[i * S : (i + 1) * S]
        if previous is not None:
            cfg = warm_started(cfg, previous)
            warm = rotation_polish(_start_matrix(cfg.starts[-1], H, N, eigs), w, J)
            runs += _lockstep(
                H, J, w, warm[None], [cfg.mu], [penalty], solvers, cfg.max_iters, cfg.tol
            )
        results.append(_result(H, J, cfg, runs))
        previous = results[-1].modes
    return results


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
    objectives: np.ndarray  # feasible objective per iteration
    defects: np.ndarray  # orthonormality defect of F per iteration

    @property
    def trace(self) -> list[tuple[float, float]]:
        return list(zip(self.objectives.tolist(), self.defects.tolist()))


def _result(H: HamiltonianOperator, J: Regularizer, config: SolverConfig, runs) -> SolverResult:
    """The result of one solve from its runs, one per start of ``config``."""
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
        start_iterations=tuple(r.iterations for r in runs),
        start_converged=tuple(r.converged for r in runs),
    )


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


def _penalty(config: SolverConfig, N: int, eigs: EigenSystem) -> float:
    """The penalty of a solve at ``config.mu``, validated.

    The shifted operator H + penalty I must be positive definite: the
    quadratic step is a minimization only then, and the factorization relies
    on it.  The shrinkage step 1/(mu * penalty) must be a positive finite
    number.
    """
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
    _shrink_step(config.mu, penalty)
    return penalty


def _shrink_step(mu: float, penalty: float) -> float:
    """The prox step 1/(mu * penalty); raises unless it is a positive finite number."""
    scale = mu * penalty
    step = 1.0 / scale if scale > 0.0 else math.inf
    if not 0.0 < step < math.inf:
        raise ShrinkStepError(
            f"mu * penalty = {mu:g} * {penalty:g} is out of floating-point range: the "
            "shrinkage step 1/(mu * penalty) must be a positive finite number"
        )
    return step


def _splitting_run(H, J, config, penalty, shifted_solve, w, x0) -> _Run:
    """One splitting iteration chain from one (node_count, N) start."""
    return _splitting_runs(H, J, config, penalty, shifted_solve, w, x0[None])[0]


def _splitting_runs(H, J, config, penalty, shifted_solve, w, x0) -> list[_Run]:
    """Chains from a (S, node_count, N) stack of starts, in lockstep at one mu and penalty."""
    _shrink_step(config.mu, penalty)
    S = len(x0)
    solvers = {penalty: shifted_solve}
    return _lockstep(
        H, J, w, x0, [config.mu] * S, [penalty] * S, solvers, config.max_iters, config.tol
    )


def _lockstep(H, J, w, x0, mu, penalty, solvers, max_iters, tol) -> list[_Run]:
    """Splitting iteration chains from a (S, node_count, N) stack of starts, in lockstep.

    Start s runs at its own ``mu[s]`` and ``penalty[s]`` (sequences of
    length S); ``solvers`` maps each penalty to the shifted solve of
    H + penalty I.  The block holds one (N, node_count) slab per running
    start, one mode per row, ordered by penalty, so the starts that share a
    penalty form a contiguous slice whose transpose, a view, is the
    node_count x (slabs N) right-hand side of one shifted solve.  Each start
    keeps its own stop rule, best feasible iterate and trace, and a start
    that meets the stop rule leaves the block.  The block arrays are updated
    in place where that keeps the order of operations, so that few copies of
    the block are alive at once.
    """
    order = np.argsort(penalty, kind="stable")
    S, n, N = x0.shape
    eye = np.eye(N)
    mu = np.asarray(mu, dtype=float)[order]
    penalty = np.asarray(penalty, dtype=float)[order]
    half_r = (0.5 * penalty)[:, None, None]
    shrink_step = (1.0 / (mu * penalty))[:, None, None]

    def feasible_objectives(rows, mu):
        # the product is laid out like ``rows``, so each start's energy is a sum
        # over its own contiguous slab, in the same order whatever else is running
        hx = H.apply_array(rows.reshape(-1, n).T).T.reshape(rows.shape)
        energy = w * np.multiply(rows, hx, order="C").sum(axis=(1, 2))
        return energy + J.evaluate_columns(rows.mT, w).sum(axis=1) / mu

    def groups(penalty):
        # (lo, hi, solve) per run of equal penalties in the sorted block
        edges = [0, *(np.flatnonzero(penalty[1:] != penalty[:-1]) + 1).tolist(), len(penalty)]
        return [(lo, hi, solvers[penalty[lo]]) for lo, hi in zip(edges, edges[1:])]

    P = np.ascontiguousarray(x0[order].mT)
    Q = P.copy()
    b = np.zeros_like(P)
    B = np.zeros_like(P)

    # each running slab's best feasible iterate, aligned with the block; a
    # slab's entry moves to ``best_matrix`` (by block index) when it leaves.
    # P is never written in place, so ``best`` can share its memory.
    best = P
    best_obj = feasible_objectives(P, mu)
    best_matrix = [None] * S
    best_objective = np.empty(S)
    iterations = np.zeros(S, dtype=int)
    converged = np.zeros(S, dtype=bool)
    # per-start traces; the columns grow geometrically with the iterations run
    objectives = np.empty((S, min(max_iters, 1024)))
    defects = np.empty_like(objectives)

    active = np.arange(S)  # block index of each running slab
    slabs = groups(penalty)
    prev_obj = best_obj
    streak = np.zeros(S, dtype=int)

    for k in range(1, max_iters + 1):
        if k > objectives.shape[1]:
            more = min(max_iters, 2 * (k - 1)) - (k - 1)
            objectives = np.concatenate((objectives, np.empty((S, more))), axis=1)
            defects = np.concatenate((defects, np.empty((S, more))), axis=1)
        # the right-hand side 0.5 r (Q - b + P - B), built in the memory of Q
        # (which the prox recomputes), then the solution in its place
        F = Q
        F -= b
        F += P
        F -= B
        F *= half_r
        for lo, hi, solve in slabs:
            F[lo:hi] = solve(F[lo:hi].reshape(-1, n).T).T.reshape(hi - lo, N, n)
        gram = np.vecdot(F[:, :, None, :], F[:, None, :, :])  # mode pairs, one dot each
        defects[active, k - 1] = np.abs(w * gram - eye).max(axis=(1, 2))
        # the multiplier updates b + F - Q and B + F - P, with b + F and B + F
        # formed in place as the arguments of the prox and the projection
        b += F
        B += F
        del F  # freed before the prox and the projection allocate
        Q = J.prox_array(b, shrink_step)
        b -= Q
        # the projection of the row-stored B comes back stored by rows: no copy
        next_P = np.ascontiguousarray(orthonormal_columns(B.mT, w).mT)
        moved = next_P - P
        change = np.sqrt(w * np.vecdot(moved, moved)).max(axis=1)
        del moved
        P = next_P
        B -= P

        obj = feasible_objectives(P, mu)
        objectives[active, k - 1] = obj
        better = obj < best_obj
        if better.all():
            best, best_obj = P, obj
        elif better.any():
            best[better] = P[better]  # an earlier P, which nothing reads any more
            best_obj = np.where(better, obj, best_obj)

        rel_obj = np.abs(obj - prev_obj) / np.maximum(1.0, np.abs(obj))
        streak = np.where(change <= tol, streak + 1, 0)
        iterations[active] = k
        done = (streak >= STREAK_REQUIRED) & (rel_obj <= OBJECTIVE_REL_TOL)
        if done.any():
            converged[active[done]] = True
            for i in np.flatnonzero(done).tolist():
                best_matrix[active[i]] = best[i]
            best_objective[active[done]] = best_obj[done]
            keep = ~done
            if not keep.any():
                break
            # one slab array at a time, so the block is never held twice
            shared = best is P
            Q = Q[keep]
            P = P[keep]
            b = b[keep]
            B = B[keep]
            best = P if shared else best[keep]
            active, obj, best_obj, streak, mu, penalty, half_r, shrink_step = (
                a[keep] for a in (active, obj, best_obj, streak, mu, penalty, half_r, shrink_step)
            )
            slabs = groups(penalty)
        prev_obj = obj
    else:  # the cap: the slabs still running leave with their best
        for i, s in enumerate(active.tolist()):
            best_matrix[s] = best[i]
        best_objective[active] = best_obj

    runs = [
        _Run(
            best_matrix=np.ascontiguousarray(best_matrix[s].T),
            best_objective=float(best_objective[s]),
            iterations=count,
            converged=bool(converged[s]),
            objectives=objectives[s, :count],
            defects=defects[s, :count],
        )
        for s, count in enumerate(iterations.tolist())
    ]
    return [runs[s] for s in np.argsort(order)]
