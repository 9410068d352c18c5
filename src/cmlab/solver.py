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
shifted solve uses LAPACK's tridiagonal factor when H + penalty I is
tridiagonal (every 1D Dirichlet box) and a sparse LU factor otherwise.  The
projection takes each start's polar factor X G^{-1/2} from its N x N Gram
matrix G (one stacked eigendecomposition for the block), with a second pass
for a start whose Gram condition is above 1e3, and returns the block stored
by rows as it came.  Each start carries its own mu, penalty and iteration
count.  Every reduction stays inside one start's slab, so each start's run
is bitwise the same alone as in any block; a start that stops leaves the
block.  The block starts empty and every start joins it the same way, the
given ones before the first iteration and later ones while it runs.  A mu
sweep (``solve_sweep``) gives the configured starts of all its mu values to
one such block, and runs the chain of warm starts, each from the previous
mu's winner, inside the same block: a warm start joins as soon as the lowest
best objective of the previous mu belongs to a finished start.  A running
start's best can still fall below it, so a walk over the schedule checks each
such guess afterwards and runs a warm start alone where the guess was wrong.
``solve_cm`` is the one-mu case.

The problem is non-convex, so nothing certifies global optimality.  What the
solver does certify: every returned frame is feasible (orthonormal to 1e-8),
and because the best feasible iterate across all starts is tracked, including
iteration zero, a run whose starts include the eigenfunction frame never
returns an objective above that frame's.  That single upper bound is what the
consistency experiments lean on.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse
import scipy.sparse.linalg
from scipy.linalg import lapack

from .eigensolver import EigenSystem, reference_eigenpairs
from .grid import GridMismatchError
from .hamiltonian import HamiltonianOperator
from .modes import ModeSet, orthonormal_columns
from .regularizer import Regularizer, ZeroRegularizer

OBJECTIVE_REL_TOL = 1e-10
STREAK_REQUIRED = 3
POLISH_SWEEPS = 30


class IndefinitePenaltyError(ValueError):
    """A fixed penalty too small to make H + penalty I positive definite."""


class ShrinkStepError(ValueError):
    """mu * penalty out of floating-point range: the shrinkage step 1/(mu * penalty) is 0 or inf."""


RANDOM_START = re.compile("random:([0-9]+)")


def check_start(start) -> None:
    """Raise unless ``start`` is ``"eigen"``, ``"random:<seed>"`` or a warm-start ``ModeSet``."""
    if isinstance(start, ModeSet):
        return
    if not (isinstance(start, str) and (start == "eigen" or RANDOM_START.fullmatch(start))):
        raise ValueError(
            f"bad start spec {start!r}; expected 'eigen' or 'random:<seed>' with seed >= 0"
        )


@dataclass(frozen=True)
class SolverConfig:
    """Knobs of one solve.

    ``penalty`` is the quadratic coupling strength of the splitting; ``None``
    picks 10 * (1/mu + lambda_N estimate).  ``tol`` bounds the per-mode L2
    change between successive feasible iterates; convergence additionally
    requires the relative objective change to settle below 1e-10.  Each
    start is ``"eigen"`` (the first N reference eigenfunctions),
    ``"random:<seed>"`` (a seeded random orthonormal frame) or a ``ModeSet``
    (a warm start from that frame, labelled ``"warm"``).
    """

    mu: float
    penalty: float | None = None
    max_iters: int = 3000
    tol: float = 1e-7
    starts: tuple[str | ModeSet, ...] = ("eigen", "random:1", "random:2")

    def __post_init__(self):
        if self.mu <= 0:
            raise ValueError("mu must be positive")
        if self.penalty is not None and self.penalty <= 0:
            raise ValueError("penalty must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        object.__setattr__(self, "starts", tuple(self.starts))
        if not self.starts:
            raise ValueError("need at least one start")
        for start in self.starts:
            check_start(start)


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


def start_fields(result: SolverResult) -> dict:
    """The per-start keys of ``solve.json`` and of each ``sweep.json`` record, in report order."""
    return {
        "iterations": result.iterations,
        "converged": result.converged,
        "winner_start": result.winner_start,
        "start_labels": list(result.start_labels),
        "start_objectives": list(result.start_objectives),
        "start_iterations": list(result.start_iterations),
        "start_converged": list(result.start_converged),
    }


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


def rotation_polish(matrix: np.ndarray, w: float, J: Regularizer) -> np.ndarray:
    """Rotate a frame within its own span to minimize the regularizer sum.

    In-span rotations leave every Rayleigh quotient sum invariant, so this
    never increases the objective; it jump-starts the splitting iteration at
    the well-localized rotation instead of leaving that (energy-neutral,
    hence weakly forced) direction to the slow shrinkage dynamics.  Up to
    ``POLISH_SWEEPS`` greedy sweeps of pairwise Givens rotations: the L1 sum
    of a turned pair is concave in the angle between the breakpoints where one
    of its rows turns onto an axis, so its exact minimum is at one of them
    (``_pair_angle``), and the pair turns there if that saves over 1e-13.
    """
    if matrix.shape[1] < 2 or isinstance(J, ZeroRegularizer):
        return matrix
    x = matrix.copy()
    for _ in range(POLISH_SWEEPS):
        improved = False
        for i in range(x.shape[1]):
            for j in range(i + 1, x.shape[1]):
                theta, cost = _pair_angle(x[:, i], x[:, j])
                if w * cost < w * (np.abs(x[:, i]).sum() + np.abs(x[:, j]).sum()) - 1e-13:
                    c, s = np.cos(theta), np.sin(theta)
                    x[:, [i, j]] = x[:, [i, j]] @ np.array([[c, -s], [s, c]])
                    improved = True
        if not improved:
            break
    return x


def _pair_angle(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """The angle t in [0, pi/2] minimizing sum_i |x_i'| + |y_i'|, and that minimum.

    The pair turned by t is x' = cos(t) x + sin(t) y, y' = cos(t) y - sin(t) x.
    With (x_i, y_i) = r_i (cos a_i, sin a_i), its sum is sum_i r_i (|cos(a_i - t)|
    + |sin(a_i - t)|): period pi/2, and concave between the breakpoints b_i = a_i
    mod pi/2 (one cos + sin arc each), so the minimum lies at a breakpoint.  With
    the b_i sorted, z_i = r_i e^{i b_i}, Z their sum and L_k = z_1 + ... + z_k, the
    sum at t = b_k is Re(e^{-i b_k} Z) + Im(e^{-i b_k} (Z - 2 L_k)).
    """
    b = np.arctan2(y, x) % (np.pi / 2)
    order = np.argsort(b)
    b = b[order]
    z = np.hypot(x, y)[order] * np.exp(1j * b)
    total, turn = z.sum(), np.exp(-1j * b)
    costs = (turn * total).real + (turn * (total - 2.0 * np.cumsum(z))).imag
    k = int(np.argmin(costs))
    return float(b[k]), float(costs[k])


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

    The results equal those of the chain ``solve_cm(H, J, N, replace(config,
    mu=mu, starts=config.starts + (previous,)), eigs)``, where ``previous``
    is the modes of the previous mu's result (no warm start at the first
    mu).  Every mu is validated before any factorization.  Then the
    configured starts of all mu values run as one lockstep block (each start
    rotation-polished once, as the polish does not depend on mu), and the
    warm chain runs inside that block by speculation: the warm start of mu_i
    joins the block once mu_{i-1}'s warm start has finished and the lowest
    best objective among mu_{i-1}'s runs, a running start counted at its
    best so far (which can only fall), belongs to a finished run; it starts
    from that run's best frame.  Last, the schedule is walked in order: each
    mu's winner is picked as ``solve_cm`` picks it, and a speculated warm run
    is kept only if its source is the previous mu's winner; otherwise that
    mu's warm start runs alone from the winner, as a chain of ``solve_cm``
    calls would run it.  A run is bitwise the same in any block, so both
    paths give the chain's results.
    """
    n = H.node_count
    if not 1 <= N <= n:
        raise ValueError(f"N must be in [1, {n}], got {N}")
    configs = [replace(config, mu=mu) for mu in schedule]
    if not configs:
        return []

    needs_eigs = config.penalty is None or "eigen" in config.starts
    if needs_eigs and (eigs is None or eigs.count < N):
        eigs = reference_eigenpairs(H, N)
    if eigs is None:
        eigs = reference_eigenpairs(H, 1)
    penalties = [_penalty(cfg, N, eigs) for cfg in configs]  # fail before any factorization
    solvers = {r: _build_shifted_solver(H, r) for r in dict.fromkeys(penalties)}
    w = H.grid.cell_volume

    def warm_start(modes, i):
        # the warm slab of mu i, from the previous winner's modes
        return rotation_polish(_start_matrix(modes, H, N, eigs), w, J), configs[i].mu, penalties[i]

    polished = [rotation_polish(_start_matrix(s, H, N, eigs), w, J) for s in config.starts]
    S = len(polished)
    # mu-major: every start at the first mu, then every start at the next one
    configured = [(x, cfg.mu, r) for cfg, r in zip(configs, penalties) for x in polished]
    warm = {}  # mu index -> (block index of its speculated warm run, block index of its source)

    def admit(runs, running):
        i = len(warm) + 1  # the next mu to get its warm start
        if i == len(configs):
            return []
        members = list(range((i - 1) * S, i * S))  # the runs of mu i-1
        if i > 1:
            members.append(warm[i - 1][0])
            if runs[members[-1]] is None:  # its warm start is still running
                return []
        best = [running[j] if runs[j] is None else runs[j].best_objective for j in members]
        source = members[_winner(best)]
        if runs[source] is None:
            return []
        warm[i] = (len(runs), source)
        return [warm_start(ModeSet(H.grid, runs[source].best_matrix), i)]

    block = _lockstep(H, J, w, configured, solvers, config.max_iters, config.tol, admit)

    results = []
    for i, cfg in enumerate(configs):
        runs = block[i * S : (i + 1) * S]
        starts = config.starts
        if results:
            starts += (results[-1].modes,)
            index, source = warm[i]
            if block[source] is winner:
                runs.append(block[index])
            else:
                runs += _lockstep(H, J, w, [warm_start(starts[-1], i)], solvers, cfg.max_iters, cfg.tol)
        results.append(_result(H.grid, starts, runs))
        winner = runs[_winner([run.best_objective for run in runs])]
    return results


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


def _result(grid, starts, runs) -> SolverResult:
    """The result of one solve from its runs, one per start; a frame start is ``"warm"``."""
    winner = _winner([run.best_objective for run in runs])
    run = runs[winner]
    labels = tuple("warm" if isinstance(start, ModeSet) else start for start in starts)
    return SolverResult(
        modes=ModeSet(grid, run.best_matrix),
        objective=run.best_objective,
        iterations=run.iterations,
        converged=run.converged,
        trace=tuple(run.trace),
        winner_start=labels[winner],
        start_labels=labels,
        start_objectives=tuple(r.best_objective for r in runs),
        start_iterations=tuple(r.iterations for r in runs),
        start_converged=tuple(r.converged for r in runs),
    )


def _winner(objectives) -> int:
    """Index of the lowest objective, the first of a tie: the start that a solve reports."""
    return min(range(len(objectives)), key=objectives.__getitem__)


def _start_matrix(start: str | ModeSet, H: HamiltonianOperator, N: int, eigs) -> np.ndarray:
    """The (node_count, N) frame of a start that ``check_start`` accepts."""
    if isinstance(start, ModeSet):
        if start.grid != H.grid:
            raise GridMismatchError("warm-start modes live on a different grid")
        if start.count != N:
            raise ValueError("warm-start mode count does not match N")
        return orthonormal_columns(start.matrix, H.grid.cell_volume)
    if start == "eigen":
        return eigs.modes.matrix[:, :N].copy()
    rng = np.random.default_rng(int(RANDOM_START.fullmatch(start)[1]))
    raw = rng.standard_normal((H.node_count, N))
    return orthonormal_columns(raw, H.grid.cell_volume)


def _build_shifted_solver(H: HamiltonianOperator, penalty: float):
    """Solver for (H + penalty I) X = RHS, column-wise, from one factor of the shifted matrix.

    A matrix with no entry off its three central diagonals (every 1D
    Dirichlet box, and the 2-node periodic one) gets LAPACK's tridiagonal
    L D L^T factor, whose solve overwrites an F-ordered right-hand side with
    the solution; any other gets a sparse LU factor that pivots on the
    diagonal under a symmetric fill-reducing ordering.  The shifted matrix
    must be positive definite; the tridiagonal factor raises
    ``IndefinitePenaltyError`` when it is not.
    """
    shifted = scipy.sparse.coo_array(H.matrix + penalty * scipy.sparse.eye_array(H.node_count))
    if np.all(np.abs(shifted.row - shifted.col) <= 1):
        d, e, info = lapack.dpttrf(shifted.diagonal(), shifted.diagonal(1))
        if info:
            raise IndefinitePenaltyError(f"penalty {penalty:g} leaves H + penalty I indefinite")
        return lambda rhs: lapack.dpttrs(d, e, rhs, overwrite_b=1)[0]
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
    _shrink_step(config.mu, penalty)
    solvers = {penalty: shifted_solve}
    return _lockstep(H, J, w, [(x0, config.mu, penalty)], solvers, config.max_iters, config.tol)[0]


def _lockstep(H, J, w, starts, solvers, max_iters, tol, admit=None) -> list[_Run]:
    """Splitting iteration chains from (start (node_count, N), mu, penalty) triples, in lockstep.

    ``solvers`` maps each penalty to the shifted solve of H + penalty I.  The
    block holds one (N, node_count) slab per running start, one mode per row;
    a run of adjacent slabs that share a penalty is a contiguous slice whose
    transpose, a view, is the node_count x (slabs N) right-hand side of one
    shifted solve.  Each start keeps its own mu, penalty, stop rule,
    iteration count (at most ``max_iters``), best feasible iterate and trace,
    and leaves the block when it stops.

    The block starts empty, and every start joins it the same way: it takes
    the next block index and a slab next to the slabs of its penalty, so that
    it shares their solve.  ``starts`` join before the first iteration.
    Whenever a start leaves, ``admit(runs, running)`` (if given) may return
    more triples, which join then: ``runs`` holds the run of each block index
    so far, None while it runs, and ``running`` maps the block index of each
    running start to its best objective so far.  The block arrays are updated
    in place where that keeps the order of operations, so that few copies of
    the block are alive at once.
    """
    n, N = starts[0][0].shape
    eye = np.eye(N)

    def feasible_objectives(rows, mu):
        # the product is laid out like ``rows``, so each start's energy is a sum
        # over its own contiguous slab, in the same order whatever else is running
        hx = H.apply_array(rows.reshape(-1, n).T).T.reshape(rows.shape)
        energy = w * np.multiply(rows, hx, order="C").sum(axis=(1, 2))
        return energy + J.evaluate_columns(rows.mT, w).sum(axis=1) / mu

    def coefficients(mu, penalty):
        # 0.5 r and the shrinkage step per slab, and (lo, hi, solve) per run
        # of adjacent equal penalties in the block
        edges = [0, *(np.flatnonzero(penalty[1:] != penalty[:-1]) + 1).tolist(), len(penalty)]
        slabs = [(lo, hi, solvers[penalty[lo]]) for lo, hi in zip(edges, edges[1:]) if lo < hi]
        return (0.5 * penalty)[:, None, None], (1.0 / (mu * penalty))[:, None, None], slabs

    # the block, empty until the starts join; P is never written in place, so
    # ``best`` (each slab's best feasible iterate) can share its memory
    Q = P = b = B = best = np.empty((0, N, n))
    # per slab, aligned with the block: its block index, mu, penalty, the step
    # after which it joined, objective, best objective and convergence streak
    active, since, streak = (np.empty(0, dtype=int) for _ in range(3))
    mu, penalty, obj, best_obj = (np.empty(0) for _ in range(4))
    runs = []  # by block index, each set when its start leaves
    # per-start traces; the columns grow geometrically with the iterations run
    objectives = np.empty((0, min(max_iters, 1024)))
    defects = np.empty_like(objectives)

    k = 0
    while True:  # once per change to the block
        for x, new_mu, new_r in starts:
            rows = np.array(x.T, order="C")[None]
            start_obj = feasible_objectives(rows, new_mu)
            same = np.flatnonzero(penalty == new_r)
            at = same[-1] + 1 if same.size else active.size
            shared = best is P
            Q, P, b, B = (np.insert(a, at, v, axis=0) for a, v in ((Q, rows), (P, rows), (b, 0.0), (B, 0.0)))
            best = P if shared else np.insert(best, at, rows, axis=0)
            active, mu, penalty, since, obj, best_obj, streak = (
                np.insert(a, at, v)
                for a, v in zip(
                    (active, mu, penalty, since, obj, best_obj, streak),
                    (len(runs), new_mu, new_r, k, start_obj, start_obj, 0),
                )
            )
            runs.append(None)
            objectives = np.concatenate((objectives, np.empty((1, objectives.shape[1]))))
            defects = np.concatenate((defects, np.empty((1, defects.shape[1]))))
        if not active.size:
            return runs
        half_r, shrink_step, slabs = coefficients(mu, penalty)

        while True:  # until some start stops
            k += 1
            count = k - since  # each running start's iteration
            if count.max() > objectives.shape[1]:
                more = min(max_iters, 2 * objectives.shape[1]) - objectives.shape[1]
                objectives = np.concatenate((objectives, np.empty((len(runs), more))), axis=1)
                defects = np.concatenate((defects, np.empty((len(runs), more))), axis=1)
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
            defects[active, count - 1] = np.abs(w * gram - eye).max(axis=(1, 2))
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

            prev_obj, obj = obj, feasible_objectives(P, mu)
            objectives[active, count - 1] = obj
            better = obj < best_obj
            if better.all():
                best, best_obj = P, obj
            elif better.any():
                best[better] = P[better]  # an earlier P, which nothing reads any more
                best_obj = np.where(better, obj, best_obj)

            rel_obj = np.abs(obj - prev_obj) / np.maximum(1.0, np.abs(obj))
            streak = np.where(change <= tol, streak + 1, 0)
            converged = (streak >= STREAK_REQUIRED) & (rel_obj <= OBJECTIVE_REL_TOL)
            done = converged | (count == max_iters)  # at the cap a start leaves with its best
            if done.any():
                break

        for i in np.flatnonzero(done).tolist():
            s, c = active[i], count[i]
            runs[s] = _Run(
                best_matrix=np.ascontiguousarray(best[i].T),
                best_objective=float(best_obj[i]),
                iterations=int(c),
                converged=bool(converged[i]),
                objectives=objectives[s, :c].copy(),  # copies: the buffers grow and are
                defects=defects[s, :c].copy(),  # replaced while other starts run
            )
        keep = ~done
        # one slab array at a time, so the block is never held twice
        shared = best is P
        Q = Q[keep]
        P = P[keep]
        b = b[keep]
        B = B[keep]
        best = P if shared else best[keep]
        active, mu, penalty, since, obj, best_obj, streak = (
            a[keep] for a in (active, mu, penalty, since, obj, best_obj, streak)
        )
        starts = admit(runs, dict(zip(active.tolist(), best_obj.tolist()))) if admit else ()
