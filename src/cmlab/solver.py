"""Orthonormality-constrained minimization of energy + regularizer via splitting.

The functional sum_i (1/mu) J(f_i) + <f_i, H f_i> is minimized over
orthonormal N-frames with an alternating splitting scheme: the smooth
quadratic term is handled by a linear solve, one auxiliary block carries the
regularizer (updated by its prox/shrinkage), one carries the orthonormality
constraint (updated by projection onto the closest orthonormal frame), and
scaled multipliers couple the blocks with quadratic strength ``penalty``.

All starts of one solve run in lockstep as one block: their iterates sit in an
(S, N, node_count) stack, one mode per row, and each iteration makes one
multi-RHS shifted solve per penalty run, one prox, one stacked polar
projection and one operator apply for every start still running.  The shifted
solve uses LAPACK's tridiagonal factor when H + penalty I is tridiagonal
(every 1D Dirichlet box) and a sparse LU factor otherwise.  The projection
takes each start's polar factor X G^{-1/2} from its N x N Gram matrix G (one
stacked eigendecomposition for the block), with a second pass for a start
whose Gram condition is above 1e3, and returns the block stored by rows as it
came.  Each start carries its own mu and penalty; all starts of a block start
together, so every running start has run the same number of iterations.  Every
reduction stays inside one start's slab, so each start's run is bitwise the
same alone as in any block; a start that stops leaves the block.  The block is
built once from its starts, in the order given, and only shrinks; a penalty
run is a run of adjacent starts of equal penalty.  A mu sweep
(``solve_sweep``) gives the configured starts of all its mu values to one such
block; then, in schedule order, each mu's warm start runs alone from the
previous mu's winner, as a chain of one-mu solves runs it.  ``solve_cm`` is
the one-mu case.

As mu grows, the minimizers tend to W, the L1-minimal rotation of the eigen
frame (Ozolins, Lai, Caflisch & Osher 2013); ``limit_frame`` is W1, the
rotation-polished eigen frame.  Once the previous winner and the winner of
the next mu's configured starts, which the block has already run, approach
W1 at order -1 in mu, a sweep predicts its next warm start along that line
instead of starting at the previous winner as it stands (``warm_start``;
predictor-corrector continuation, Allgower & Georg).

The objective's energy cannot tell apart rotations of a frame within its span;
only the L1 term turns a frame in that direction, and slowly (the gauge
freedom of maximally localized Wannier functions, Marzari & Vanderbilt 1997).
A start that has found the span can drift inside it with a step above ``tol``
for thousands of iterations.  So every ``REPOLISH_EVERY`` iterations, a start
whose step lies within the span it left (at most ``REPOLISH_SPAN`` of it
outside) has its best frame rotation-polished, and restarts from the polished
frame if that lowers its best objective by more than ``REPOLISH_GAIN``
(relative).  Otherwise its current iterate is polished, and if that lowers its
objective, the start's whole splitting state turns by the polishing rotation
(a gauge turn, multipliers kept): the shifted solve acts on nodes and the
polar projection is equivariant, so the turned state iterates as the rotated
old one but for the prox, which is not equivariant; hence the turn is taken
only when it lowers the objective.  The drift belongs to the span, not to how
a start was made, so eigen, random and warm starts share the rule; its
decisions are the start's own, so its run stays the same in any block.

The problem is non-convex, so nothing certifies global optimality.  What the
solver does certify: every returned frame is feasible (orthonormal to 1e-8),
and because the best feasible iterate across all starts is tracked, including
iteration zero, a run whose starts include the eigenfunction frame never
returns an objective above that frame's.  That single upper bound is what the
consistency experiments lean on.
"""

from __future__ import annotations

import math
import operator
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
# the drift re-polish of every start (see ``_lockstep``)
REPOLISH_EVERY = 25
REPOLISH_SPAN = 0.01
REPOLISH_GAIN = 1e-9
# how far from -1 the order of the winners' approach to the limit frame may be
# for a sweep to predict its warm start from that frame (see ``warm_start``)
LIMIT_ORDER_TOL = 0.15
# the columns of a traced run's trace, one row per iteration, in ``trace.csv`` order
TRACE_COLUMNS = ("objective", "ortho_defect")


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
    picks 10 * (1/mu + max(lambda_N, 0)), at least 1e-6, plus 2 |lambda_1|
    when lambda_1 < 0 (lambda_k the k-th reference eigenvalue), so that
    H + penalty I is positive definite.  ``tol`` bounds the per-mode L2
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
        if not (math.isfinite(self.mu) and self.mu > 0):
            raise ValueError("mu must be positive and finite")
        if self.penalty is not None and not (math.isfinite(self.penalty) and self.penalty > 0):
            raise ValueError("penalty must be positive and finite")
        try:  # numpy integers too, but not a bool
            max_iters = None if isinstance(self.max_iters, bool) else operator.index(self.max_iters)
        except TypeError:
            max_iters = None
        if max_iters is None or max_iters < 1:
            raise ValueError(f"max_iters must be an integer >= 1, got {self.max_iters!r}")
        object.__setattr__(self, "max_iters", max_iters)
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ValueError("tol must be positive and finite")
        object.__setattr__(self, "starts", tuple(self.starts))
        if not self.starts:
            raise ValueError("need at least one start")
        for start in self.starts:
            check_start(start)


@dataclass(frozen=True, eq=False)  # its arrays have no truth value
class StartRun:
    """What one start's splitting run did: its best feasible frame, its stop state and its trace."""

    best_matrix: np.ndarray
    best_objective: float
    iterations: int
    converged: bool
    restarts: int  # restarts from a re-polished best frame
    turns: int  # turns of the whole state by the rotation that polishes P
    trace: np.ndarray  # one row per iteration, one column per ``TRACE_COLUMNS`` name; 0 rows untraced


@dataclass(frozen=True, eq=False)  # its runs hold arrays
class SolverResult:
    """The runs of one solve, one per start in start order, and the winner's frame.

    ``labels[k]`` names start k (``"warm"`` for a frame start), ``runs[k]`` is
    its run, and ``winner`` indexes the first run of the lowest best objective,
    whose best frame is ``modes``; the winner's values are read from its run,
    ``trace`` too: its (iterations, ``len(TRACE_COLUMNS)``) array, 0 rows untraced.
    """

    labels: tuple[str, ...]
    runs: tuple[StartRun, ...]
    winner: int
    modes: ModeSet

    @property
    def objective(self) -> float:
        return self.runs[self.winner].best_objective

    @property
    def iterations(self) -> int:
        return self.runs[self.winner].iterations

    @property
    def converged(self) -> bool:
        return self.runs[self.winner].converged

    @property
    def trace(self) -> np.ndarray:
        return self.runs[self.winner].trace

    @property
    def winner_start(self) -> str:
        return self.labels[self.winner]


def start_fields(result: SolverResult) -> dict:
    """The per-start keys of ``solve.json`` and of each ``sweep.json`` record, in report order."""
    per_run = {  # report key: the ``StartRun`` attribute it lists, one entry per start
        "start_objectives": "best_objective",
        "start_iterations": "iterations",
        "start_converged": "converged",
        "start_restarts": "restarts",
        "start_turns": "turns",
    }
    return {
        "iterations": result.iterations,
        "converged": result.converged,
        "winner_start": result.winner_start,
        "start_labels": list(result.labels),
        **{key: [getattr(run, name) for run in result.runs] for key, name in per_run.items()},
    }


def mode_energies(H: HamiltonianOperator, F: ModeSet) -> np.ndarray:
    """Per-mode Rayleigh quotients <f_i, H f_i> (not normalized).

    One per column, each from its own column: the columns of several frames
    side by side give their energies side by side.
    """
    if F.grid != H.grid:
        raise GridMismatchError("modes live on a different grid than the operator")
    hf = H.apply_array(F.matrix)
    return H.grid.cell_volume * (F.matrix * hf).sum(axis=0)


def objective(H: HamiltonianOperator, J: Regularizer, mu: float, F: ModeSet) -> float:
    """sum_i (1/mu) J(f_i) + <f_i, H f_i>, evaluated from scratch."""
    if not (math.isfinite(mu) and mu > 0):
        raise ValueError("mu must be positive and finite")
    energies = mode_energies(H, F)
    jvals = J.evaluate_columns(F.matrix, H.grid.cell_volume)
    return float(energies.sum() + jvals.sum() / mu)


def rotation_polish(matrix: np.ndarray, w: float, J: Regularizer) -> np.ndarray:
    """Rotate a frame within its own span to minimize the regularizer sum.

    In-span rotations leave every Rayleigh quotient sum invariant, so this
    never increases the objective; it jump-starts the splitting iteration at
    the well-localized rotation instead of leaving that (energy-neutral,
    hence weakly forced) direction to the slow shrinkage dynamics.  Every
    start is polished once before it runs, and its best frame (then, maybe,
    its current iterate) again whenever its run drifts inside its span (see
    ``_lockstep``).  Up to ``POLISH_SWEEPS`` greedy sweeps of pairwise Givens
    rotations: the L1 sum of a turned pair is concave in the angle between the
    breakpoints where one of its rows turns onto an axis, so its exact minimum
    is at one of them (``_pair_angle``), and the pair turns there if that saves
    over 1e-13.
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
    unit = np.exp(1j * b)
    z = np.hypot(x, y)[order] * unit
    total, turn = z.sum(), unit.conj()  # e^{-i b}, from the one exponential
    costs = (turn * total).real + (turn * (total - 2.0 * np.cumsum(z))).imag
    k = int(np.argmin(costs))
    return float(b[k]), float(costs[k])


def solve_cm(
    H: HamiltonianOperator,
    J: Regularizer,
    N: int,
    config: SolverConfig,
    eigs: EigenSystem | None = None,
    trace: bool = False,
) -> SolverResult:
    """Best feasible frame over all configured starts.

    Returns a result even when the iteration cap is hit (``converged`` is
    False then); rank collapse inside the orthonormal projection raises, and
    so does a fixed penalty that leaves H + penalty I indefinite, and a
    ``mu * penalty`` whose shrinkage step is not a positive finite number.
    ``eigs`` can carry precomputed reference eigenpairs to avoid a redundant
    eigensolve when the caller already has them.  ``trace`` records each
    start's ``TRACE_COLUMNS`` per iteration; untraced, a run's trace has 0
    rows and the orthonormality defect is never computed.  Nothing
    else depends on it.  This is the one-mu sweep.
    """
    return solve_sweep(H, J, N, (config.mu,), config, eigs, trace)[0]


def solve_sweep(
    H: HamiltonianOperator,
    J: Regularizer,
    N: int,
    schedule,
    config: SolverConfig,
    eigs: EigenSystem | None = None,
    trace: bool = False,
) -> list[SolverResult]:
    """One result per mu of ``schedule``, each warm-started from the previous winner.

    The results equal those of the chain ``solve_cm(H, J, N, replace(config,
    mu=mu, starts=config.starts + (warm,)), eigs, trace)``, where ``warm`` is
    ``warm_start(previous, (mu_prev, mu), limit, configured)`` (no warm start
    at the first mu): ``previous`` is the modes of the result at mu_prev,
    ``configured`` those of ``solve_cm(H, J, N, replace(config, mu=mu),
    eigs)``, the winner of the configured starts at mu, and ``limit`` is
    ``limit_frame(H, J, N, eigs)``, built once for a schedule that makes a
    warm start.  Every mu is validated before any factorization.  Then
    the configured starts of all mu values run as one lockstep block (each
    start rotation-polished once, as the polish does not depend on mu), which
    gives every mu's configured winner before any warm start is made.  Last,
    in schedule order, each later mu's warm start is polished from its frame
    and runs alone, under the drift rule of every start.  A run is bitwise the
    same in any block, so these are the chain's results.
    """
    n = H.node_count
    if not 1 <= N <= n:
        raise ValueError(f"N must be in [1, {n}], got {N}")
    configs = [replace(config, mu=mu) for mu in schedule]
    if not configs:
        return []

    if eigs is None or eigs.count < N:
        eigs = reference_eigenpairs(H, N)
    penalties = [_penalty(cfg, N, eigs) for cfg in configs]  # fail before any factorization
    solvers = {r: _build_shifted_solver(H, r) for r in dict.fromkeys(penalties)}
    w = H.grid.cell_volume

    polished = [rotation_polish(_start_matrix(s, H, N, eigs), w, J) for s in config.starts]
    S = len(polished)
    # mu-major: every start at the first mu, then every start at the next one
    block_starts = [(x, cfg.mu, r) for cfg, r in zip(configs, penalties) for x in polished]
    block = _lockstep(H, J, w, block_starts, solvers, config.max_iters, config.tol, trace)

    limit = limit_frame(H, J, N, eigs) if len(configs) > 1 else None
    configured_labels = tuple("warm" if isinstance(start, ModeSet) else start for start in config.starts)
    results = []
    for i, (cfg, r) in enumerate(zip(configs, penalties)):
        runs, labels = block[i * S : (i + 1) * S], configured_labels
        if results:
            configured = ModeSet(H.grid, runs[_winner(runs)].best_matrix)
            warm = warm_start(results[-1].modes, (configs[i - 1].mu, cfg.mu), limit, configured)
            x = rotation_polish(_start_matrix(warm, H, N, eigs), w, J)
            runs += _lockstep(H, J, w, [(x, cfg.mu, r)], solvers, config.max_iters, config.tol, trace)
            labels += ("warm",)
        winner = _winner(runs)
        results.append(SolverResult(labels, tuple(runs), winner, ModeSet(H.grid, runs[winner].best_matrix)))
    return results


def limit_frame(H: HamiltonianOperator, J: Regularizer, N: int, eigs: EigenSystem) -> ModeSet:
    """W1, the rotation-polished eigen frame: the L1-minimal rotation the minimizers tend to as mu grows."""
    return ModeSet(H.grid, rotation_polish(_start_matrix("eigen", H, N, eigs), H.grid.cell_volume, J))


def _aligned(limit: ModeSet, F: ModeSet) -> np.ndarray:
    """The columns of ``limit`` signed and permuted to match those of ``F``.

    Greedy: the mode pair of largest |overlap| is matched first, then the
    largest among the pairs left, and so on.
    """
    overlap = F.grid.cell_volume * (F.matrix.T @ limit.matrix)  # F's modes by the limit's
    free = np.abs(overlap)
    aligned = np.empty_like(F.matrix)
    for _ in range(F.count):
        i, j = np.unravel_index(np.argmax(free), free.shape)
        aligned[:, i] = math.copysign(1.0, overlap[i, j]) * limit.matrix[:, j]
        free[i, :] = free[:, j] = -1.0
    return aligned


def limit_distance(F: ModeSet, limit: ModeSet) -> float:
    """d: the largest w-norm of a mode of ``F`` minus its mode of ``limit``, aligned to ``F``."""
    off = F.matrix - _aligned(limit, F)
    return float(np.sqrt(F.grid.cell_volume * (off * off).sum(axis=0)).max())


def limit_order(distances, mus) -> float | None:
    """log(d_2 / d_1) / log(mu_2 / mu_1): the order in mu at which frames at ``mus`` approach the limit.

    ``distances`` are the frames' d (``limit_distance``).  None unless both are
    positive numbers and the two mu values differ.
    """
    (d1, d2), (mu1, mu2) = distances, mus
    if d1 is None or d2 is None or min(d1, d2) <= 0.0 or mu1 == mu2:
        return None
    return math.log(d2 / d1) / math.log(mu2 / mu1)


def warm_start(previous: ModeSet, mus, limit: ModeSet, configured: ModeSet) -> ModeSet:
    """The warm start of a sweep at ``mus[1]``, from ``previous``, its winner at ``mus[0]``.

    ``previous`` (F) as it stands, unless F and ``configured``, the winner of
    the configured starts at ``mus[1]``, approach ``limit`` at order
    (``limit_order``) within ``LIMIT_ORDER_TOL`` of -1: then the frame
    A + (F - A) mu_0 / mu_1, where A is ``limit`` aligned to F, on which a
    distance to the limit falling as 1/mu puts the next winner.  Its largest
    w-norm of a mode minus its mode of A is (mu_0 / mu_1) d, with d F's
    ``limit_distance``; times sqrt(N), that bounds its spectral-norm distance
    from the orthonormal A, and must be below 1, so that the predicted frame
    has full rank.
    """
    d = limit_distance(previous, limit)
    order = limit_order([d, limit_distance(configured, limit)], mus)
    step = mus[0] / mus[1]
    on_path = order is not None and abs(order + 1.0) <= LIMIT_ORDER_TOL
    if not (on_path and step * d * math.sqrt(previous.count) < 1.0):  # NaN never predicts
        return previous
    aligned = _aligned(limit, previous)
    return ModeSet(previous.grid, aligned + (previous.matrix - aligned) * step)


def _winner(runs) -> int:
    """The index of the run of the lowest best objective, the first of a tie."""
    return min(range(len(runs)), key=lambda k: runs[k].best_objective)


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
    L D L^T factor, read from the diagonals of ``H.matrix``, whose solve
    overwrites an F-ordered right-hand side with the solution and returns it;
    any other gets a sparse LU factor that pivots on the diagonal under a
    symmetric fill-reducing ordering, whose solve returns a new array.  The
    shifted matrix must be positive definite; the tridiagonal factor raises
    ``IndefinitePenaltyError`` when it is not.
    """
    matrix = H.matrix
    rows = np.repeat(np.arange(H.node_count), np.diff(matrix.indptr))
    if np.all(np.abs(rows - matrix.indices) <= 1):
        d, e, info = lapack.dpttrf(matrix.diagonal() + penalty, matrix.diagonal(1))
        if info:
            raise IndefinitePenaltyError(f"penalty {penalty:g} leaves H + penalty I indefinite")
        return lambda rhs: lapack.dpttrs(d, e, rhs, overwrite_b=1)[0]
    factor = scipy.sparse.linalg.splu(
        scipy.sparse.csc_array(matrix + penalty * scipy.sparse.eye_array(H.node_count)),
        permc_spec="MMD_AT_PLUS_A",
        diag_pivot_thresh=0.0,
        options={"SymmetricMode": True},
    )
    return factor.solve


def _penalty(config: SolverConfig, N: int, eigs: EigenSystem) -> float:
    """The penalty of a solve at ``config.mu``: the configured one or the rule ``SolverConfig`` states, validated.

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
        penalty = max(10.0 * (1.0 / config.mu + max(float(eigs.eigenvalues[N - 1]), 0.0)), 1e-6)
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


def _off_span(moved: np.ndarray, frame: np.ndarray, w: float) -> float:
    """The largest w-norm of a mode's step outside span(frame); both stored by rows, frame orthonormal."""
    off = moved - (w * (moved @ frame.T)) @ frame
    return float(np.sqrt(w * np.vecdot(off, off)).max())


def _splitting_run(H, J, config, penalty, shifted_solve, w, x0) -> StartRun:
    """One traced splitting iteration chain from one (node_count, N) start: ``_lockstep`` of that start alone."""
    _shrink_step(config.mu, penalty)
    solvers = {penalty: shifted_solve}
    return _lockstep(H, J, w, [(x0, config.mu, penalty)], solvers, config.max_iters, config.tol, True)[0]


def _lockstep(H, J, w, starts, solvers, max_iters, tol, trace) -> list[StartRun]:
    """Splitting iteration chains from (start (node_count, N), mu, penalty) tuples, in lockstep.

    ``solvers`` maps each penalty to the shifted solve of H + penalty I.  The
    block holds one (N, node_count) slab per running start, one mode per row,
    in the order of ``starts``: each run of adjacent slabs of equal penalty is
    a contiguous slice whose transpose, a view, is the node_count x (slabs N)
    right-hand side of one shifted solve, so the callers give the starts of one
    penalty next to each other.  The block's starts start together, so one
    iteration count k (at most ``max_iters``) is every running start's; each
    start keeps its own mu, penalty, stop rule, best feasible iterate and,
    when ``trace`` is set, its trace, one row of ``TRACE_COLUMNS`` per
    iteration, and leaves the block when it stops.  The runs come back in the
    order of ``starts``.  The stop rule's objective change is read only at an
    iteration where some start has its step at most ``tol`` for
    ``STREAK_REQUIRED`` iterations in a row, or at ``max_iters``: no start
    can stop at any other.

    When k is a multiple of ``REPOLISH_EVERY``, every running start whose step
    P_k - P_{k-1} is above ``tol`` is due for a drift check: if the largest
    w-norm of a mode's step outside span(P_{k-1}) is at most ``REPOLISH_SPAN``
    of it, its best frame is rotation-polished, and if that lowers its best
    objective by more than ``REPOLISH_GAIN`` (relative), the start restarts
    from the polished frame as if it started there (Q = P = best = polished,
    zero multipliers, that objective).  Otherwise P_k is polished to P', and
    if that lowers its objective, the start turns by R = w P' P_k^T (rows
    storage): Q, b, B become R Q, R b, R B, P_k becomes P', and P' becomes its
    best if it is below the best.  Either way the start keeps its count, trace
    and streak.

    A running start's state is one entry of each array in one fixed-order
    list, all aligned with the block: its slabs of Q, P, b, B and of its best
    iterate, then its index in ``starts``, mu, penalty, restart and turn
    counts, objective, best objective and convergence streak, then its slab
    of the trace buffer, one column per ``TRACE_COLUMNS`` name, whose rows
    grow geometrically with the iterations run (none untraced).  The list is
    built once, and whenever a start leaves, one mask drops it from every
    array.  While the block runs, only the iteration's own names hold its
    arrays, which are updated in place where that keeps the order of
    operations; while a mask drops a start, only the list holds them, and
    each array is freed as its masked copy replaces it.  So few copies of the
    block are alive at once.
    """
    n, N = starts[0][0].shape
    eye = np.eye(N)

    def feasible_objectives(rows, mu):
        # the product is laid out like ``rows``, so each start's energy is a sum
        # over its own contiguous slab, in the same order whatever else is running
        hx = H.apply_array(rows.reshape(-1, n).T).T.reshape(rows.shape)
        energy = w * np.multiply(rows, hx, order="C").sum(axis=(1, 2))
        return energy + J.evaluate_columns(rows.mT, w).sum(axis=1) / mu

    def polished(rows, mu):
        # a slab's frame rotation-polished, stored by rows, and its objective
        rows = np.ascontiguousarray(rotation_polish(rows.T, w, J).T)
        return rows, feasible_objectives(rows[None], mu)[0]

    def coefficients(mu, penalty):
        # 0.5 r and the shrinkage step per slab, and (lo, hi, solve) per run
        # of adjacent equal penalties in the block
        edges = [0, *(np.flatnonzero(penalty[1:] != penalty[:-1]) + 1).tolist(), len(penalty)]
        slabs = [(lo, hi, solvers[penalty[lo]]) for lo, hi in zip(edges, edges[1:]) if lo < hi]
        return (0.5 * penalty)[:, None, None], (1.0 / (mu * penalty))[:, None, None], slabs

    # stored by rows, as every later iterate is: a block with the strides of
    # the transposed frames (as np.stack keeps them) rounds differently
    P = np.array([s[0].T for s in starts])
    mu, penalty = (np.array([s[j] for s in starts], dtype=float) for j in (1, 2))
    obj = feasible_objectives(P, mu)
    zeros = np.zeros(len(starts), dtype=int)
    trace_rows = np.empty((len(starts), min(max_iters, 64) if trace else 0, len(TRACE_COLUMNS)))
    # Q, P, b, B, best; index, mu, penalty, restarts, turns; obj, best_obj, streak; the trace buffer
    state = [P.copy(), P, np.zeros_like(P), np.zeros_like(P), P.copy()]
    state += [np.arange(len(starts)), mu, penalty, zeros, zeros.copy()]
    state += [obj, obj.copy(), zeros.copy(), trace_rows]
    runs = [None] * len(starts)  # each set when its start leaves
    k = 0  # the iterations run by every start in the block

    while True:  # once per change to the block
        Q, P, b, B, best, index, mu, penalty, restarts, turns = state[:10]
        obj, best_obj, streak, trace_rows = state[10:]
        del state  # the iteration's names alone hold the block while it runs
        if not index.size:
            return runs
        half_r, shrink_step, slabs = coefficients(mu, penalty)

        while True:  # until some start stops
            k += 1
            if trace and k > trace_rows.shape[1]:
                more = min(max_iters, 2 * trace_rows.shape[1]) - trace_rows.shape[1]
                trace_rows = np.concatenate((trace_rows, np.empty((index.size, more, len(TRACE_COLUMNS)))), axis=1)
            # the right-hand side 0.5 r (Q - b + P - B), built in the memory of Q
            # (which the prox recomputes), then the solution in its place
            F = Q
            F -= b
            F += P
            F -= B
            F *= half_r
            for lo, hi, solve in slabs:
                rhs = F[lo:hi].reshape(-1, n).T
                solution = solve(rhs)
                if solution is not rhs:  # the LU factor's solve returns a new array
                    rhs[...] = solution
            if trace:
                gram = np.vecdot(F[:, :, None, :], F[:, None, :, :])  # mode pairs, one dot each
                trace_rows[:, k - 1, TRACE_COLUMNS.index("ortho_defect")] = np.abs(w * gram - eye).max(axis=(1, 2))
            # the multiplier updates b + F - Q and B + F - P, with b + F and B + F
            # formed in place as the arguments of the prox and the projection
            b += F
            B += F
            del F, rhs, solution  # freed before the prox and the projection allocate
            Q = J.prox_array(b, shrink_step)
            b -= Q
            # the projection of the row-stored B comes back stored by rows: no copy
            next_P = np.ascontiguousarray(orthonormal_columns(B.mT, w).mT)
            moved = next_P - P
            change = np.sqrt(w * np.vecdot(moved, moved)).max(axis=1)
            drifting = []
            if k % REPOLISH_EVERY == 0:
                # the starts whose step, above tol, lies within the span they
                # left: they drift in it
                due = np.flatnonzero(change > tol).tolist()
                drifting = [i for i in due if _off_span(moved[i], P[i], w) <= REPOLISH_SPAN * change[i]]
            del moved
            P = next_P
            B -= P

            prev_obj, obj = obj, feasible_objectives(P, mu)
            if trace:
                trace_rows[:, k - 1, TRACE_COLUMNS.index("objective")] = obj
            better = obj < best_obj
            if better.all():
                best, best_obj = P, obj  # shared: where a drift check writes P[i], it is the best
            elif better.any():
                best[better] = P[better]  # an earlier P, which nothing reads any more
                best_obj = np.where(better, obj, best_obj)

            # in-span rotations cost no energy, so the polish skips the drift;
            # either way the slab keeps its count and trace (and its streak is
            # already 0, as change > tol)
            for i in drifting:
                rows, value = polished(best[i], mu[i])
                if value < best_obj[i] - REPOLISH_GAIN * abs(best_obj[i]):
                    # restart from the polished best frame, as if it started there
                    Q[i] = P[i] = best[i] = rows
                    b[i] = B[i] = 0.0
                    obj[i] = best_obj[i] = value
                    restarts[i] += 1
                    continue
                # or turn the whole state by the rotation R that polishes P:
                # the solve acts on nodes and the projection is equivariant, so
                # only the prox tells the turned state apart from R times the old
                rows, value = polished(P[i], mu[i])
                if value < obj[i]:
                    R = w * (rows @ P[i].T)
                    Q[i], b[i], B[i] = R @ Q[i], R @ b[i], R @ B[i]
                    P[i], obj[i] = rows, value  # also the best's, if best is P
                    if value < best_obj[i]:
                        best[i], best_obj[i] = rows, value
                    turns[i] += 1

            streak = np.where(change <= tol, streak + 1, 0)
            settled = streak >= STREAK_REQUIRED
            if k == max_iters or settled.any():
                rel_obj = np.abs(obj - prev_obj) / np.maximum(1.0, np.abs(obj))
                converged = settled & (rel_obj <= OBJECTIVE_REL_TOL)
                done = converged | (k == max_iters)  # at the cap a start leaves with its best
                if done.any():
                    break

        for i in np.flatnonzero(done).tolist():
            runs[index[i]] = StartRun(
                best_matrix=np.ascontiguousarray(best[i].T),
                best_objective=float(best_obj[i]),
                iterations=k,
                converged=bool(converged[i]),
                restarts=int(restarts[i]),
                turns=int(turns[i]),
                trace=trace_rows[i, :k].copy(),  # a copy, so that no run keeps the whole buffer alive
            )
        keep = ~done
        state = [Q, P, b, B, best, index, mu, penalty, restarts, turns]
        state += [obj, best_obj, streak, trace_rows]
        del Q, P, b, B, best  # the list alone holds the block while the mask drops
        for i in range(len(state)):
            state[i] = state[i][keep]
