"""Quantities and experiments for the spectral-consistency checks.

Everything the convergence claims talk about lives here: the N x N energy
matrix and its spectrum, alignment of a frame to the eigenfunction frame by
the best orthogonal rotation, expansion coefficients in the eigenbasis, the
energy-gap lower bound their per-eigenfunction captured masses induce, and
the mu-sweep experiment that records how all of it trends as the
regularization weight fades; the sweep's report is the ``sweep.json``
document itself, a plain dict.  The sweep's solves come from
``solver.solve_sweep``, which runs the configured starts of every mu as one
lockstep block, then the warm-start chain one start at a time.

The two property suites of ``cmlab verify`` (column masses, gap bound) run
through one seeded-case loop: case s draws only from the Philox stream keyed
by s, and the check arithmetic runs once per chunk of cases, on the cases'
draws joined into one stack, with the bits each case gets alone.
"""

from __future__ import annotations

import operator

import numpy as np
from scipy.linalg import lapack

from .eigensolver import EigenSystem, reference_eigenpairs, spectral_gap
from .grid import GridMismatchError
from .hamiltonian import HamiltonianOperator
from .modes import ModeSet
from .regularizer import Regularizer
from .solver import (
    SolverConfig,
    limit_distance,
    limit_frame,
    limit_order,
    mode_energies,
    solve_sweep,
    start_fields,
)

ORTHO_PRECONDITION = 1e-6
ENERGY_TREND_SLACK = 1e-6
RESIDUAL_TREND_SLACK = 1e-4
COLUMN_MASS_TOL = 1e-10
COLUMN_MASS_MAX_ROWS = 8
COLUMN_MASS_MAX_COLS = 64
GAP_BOUND_SLACK_LIMIT = 1e-8
CASE_SEED_LIMIT = 2**128  # a case seed is a Philox key, two 64-bit words
# cases per stacked pass of each verify suite.  Against these sizes, the peak
# RSS of ``cmlab verify --cases 2500`` rose by about 0.6 MB with 64-frame
# gap-bound chunks, and by about 4 MB with all 2,500 column-mass cases in one
COLUMN_MASS_CHUNK = 256
GAP_BOUND_CHUNK = 16


class AlignmentError(RuntimeError):
    """The overlap between the two frames is too small to define a rotation."""


def _require_orthonormal(F: ModeSet, what: str) -> None:
    if F.ortho_defect > ORTHO_PRECONDITION:
        raise ValueError(f"{what} must be orthonormal (defect {F.ortho_defect:.2e} > 1e-6)")


def interaction_matrix(H: HamiltonianOperator, F: ModeSet) -> np.ndarray:
    """Symmetric N x N matrix with entries <f_j, H f_k>."""
    if F.grid != H.grid:
        raise GridMismatchError("modes live on a different grid than the operator")
    _require_orthonormal(F, "mode set")
    hf = H.apply_array(F.matrix)
    m = H.grid.cell_volume * (F.matrix.T @ hf)
    return 0.5 * (m + m.T)


def nu_spectrum(M: np.ndarray) -> np.ndarray:
    """Eigenvalues of a symmetric matrix in nondecreasing order."""
    M = np.asarray(M, dtype=float)
    scale = max(1.0, float(np.abs(M).max()))
    if np.abs(M - M.T).max() > 1e-8 * scale:
        raise ValueError("matrix is not symmetric")
    return np.linalg.eigvalsh(0.5 * (M + M.T))


def procrustes_align(F: ModeSet, Phi: ModeSet) -> tuple[np.ndarray, float, ModeSet]:
    """Best orthogonal rotation of ``Phi`` onto ``F``.

    Returns ``(rotation, residual, aligned)`` where ``rotation`` minimizes
    sum_i ||f_i - (Phi R)_i||^2 over orthogonal R (polar factor of the
    weighted overlap matrix), ``aligned = Phi @ rotation`` and ``residual``
    is the worst per-mode weighted L2 distance.
    """
    if F.grid != Phi.grid:
        raise GridMismatchError("frames live on different grids")
    if F.count != Phi.count:
        raise ValueError("frames must have the same number of modes")
    _require_orthonormal(F, "first frame")
    _require_orthonormal(Phi, "second frame")
    w = F.grid.cell_volume
    overlap = w * (Phi.matrix.T @ F.matrix)
    u, s, vt = np.linalg.svd(overlap)
    if s[0] < 1e-12:
        raise AlignmentError("no meaningful alignment: frames span orthogonal subspaces")
    rotation = u @ vt
    aligned_matrix = Phi.matrix @ rotation
    residual = float(np.sqrt(w * ((F.matrix - aligned_matrix) ** 2).sum(axis=0)).max())
    return rotation, residual, ModeSet(F.grid, aligned_matrix)


def coefficients(F: ModeSet, eigs: EigenSystem, K: int) -> np.ndarray:
    """The (N, K) coefficients a_ik = <f_i, phi_k> up to expansion depth K.

    One row per column of ``F``: the columns of several frames side by side
    give their coefficient rows stacked.
    """
    if K < 1 or K > eigs.count:
        raise ValueError(f"depth K must be in [1, {eigs.count}], got {K}")
    if F.grid != eigs.modes.grid:
        raise GridMismatchError("modes and eigensystem live on different grids")
    w = F.grid.cell_volume
    return w * (F.matrix.T @ eigs.modes.matrix[:, :K])


def gap_lower_bound(coeffs: np.ndarray, eigs: EigenSystem, N: int) -> float | np.ndarray:
    """sum_{l<=N} (1 - b_l)(lambda_{N+1} - lambda_l), from the (N, K) ``coefficients``.

    ``b_l``, the sum over modes of the squared coefficients of eigenfunction
    l, is the mass the frame captures from it.  Each summand is nonnegative
    by the ordering of the eigenvalues and the column-mass bound b_l <= 1;
    tiny negative excursions (roundoff) are clamped, anything beyond 1e-10 is
    an error.  ``coeffs`` may be a stack (..., N, K) of frames' coefficients:
    each frame is bounded on its own, with the same bits as alone, and the
    bounds come back as an array of shape (...); one frame gives a float.
    """
    if eigs.count < N + 1:
        raise ValueError(f"need at least {N + 1} eigenpairs, have {eigs.count}")
    if coeffs.shape[-1] < N:
        raise ValueError("coefficient depth is smaller than N")
    col_mass = (coeffs**2).sum(axis=-2)[..., :N]
    lam = eigs.eigenvalues
    deficit = 1.0 - col_mass
    gap = lam[N] - lam[:N]
    if (deficit < -COLUMN_MASS_TOL).any():
        raise ValueError(f"column mass {col_mass[deficit < -COLUMN_MASS_TOL][0]} exceeds 1 beyond tolerance")
    if (gap < -COLUMN_MASS_TOL).any():
        raise ValueError("eigenvalues are not sorted nondecreasing")
    terms = np.maximum(deficit, 0.0) * np.maximum(gap, 0.0)
    total = np.zeros(terms.shape[:-1])
    for l in range(N):  # summed in mode order
        total += terms[..., l]
    return float(total) if total.ndim == 0 else total


def _haar_rows(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    """The first ``rows`` rows of a Haar-random ``cols x cols`` orthogonal Q, as columns.

    Only those rows are drawn: Q^T is Haar too, so they have the law of the
    first ``rows`` columns of a Haar Q, and those are the orthonormal factor
    of a thin ``cols x rows`` Gaussian draw (Stewart 1980; Mezzadri 2007).
    The draw is taken as the transpose of a C-ordered ``(rows, cols)``
    block, an F-ordered ``(cols, rows)`` array that ``dgeqrf`` factors in
    place, and ``dorgqr`` forms its ``rows`` orthonormal columns.  The sign
    fix that makes the factor exactly Haar flips whole columns, so it leaves
    every q_ik^2 as it is; it is skipped.  Column masses, and the energy and
    gap bound of a frame whose eigen-coefficients are these columns, depend
    only on those squares.
    """
    g = rng.standard_normal((rows, cols)).T
    qr, tau, _, _ = lapack.dgeqrf(g, overwrite_a=1)
    q, _, _ = lapack.dorgqr(qr, tau, overwrite_a=1)
    return q


# the one generator every case re-keys (``_case_rng``): a Generator built per
# case (a SeedSequence hash, a new bit generator) took about 40% of a
# column-mass case's time.  A re-key sets its whole state, so no case sees
# another's draws; no two threads run cases at once in cmlab.
_CASE_RNG = np.random.Generator(np.random.Philox(0))  # seeded: no OS entropy at import
_ZERO_WORDS = (0, 0, 0, 0)


def _case_rng(seed: int) -> np.random.Generator:
    """The module's one Generator, re-keyed to case ``seed``: bitwise ``Generator(Philox(key=seed))``.

    The key words are (seed mod 2^64, seed >> 64), the counter is 0, and the
    output buffer is empty, so nothing an earlier case drew is left in it.
    """
    seed = operator.index(seed)  # numpy integers too, never a float
    if not 0 <= seed < CASE_SEED_LIMIT:
        raise ValueError(f"case seed must be in [0, 2**128), got {seed}")
    _CASE_RNG.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": _ZERO_WORDS, "key": (seed & 0xFFFFFFFFFFFFFFFF, seed >> 64)},
        "buffer": _ZERO_WORDS,
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return _CASE_RNG


def _seeded_cases(cases: int, seed: int, values, limit: float, chunk: int):
    """(worst, violating seeds) of the cases ``seed`` to ``seed + cases - 1``.

    ``values`` takes a range of at most ``chunk`` consecutive case seeds and
    returns their values in order, so each suite checks a chunk of cases in
    one stacked pass.  A case still draws only from its seed, which keys
    ``_case_rng``: no case sees another's draws, and any case replays alone,
    as a range of one, with the same bits.  Only the running worst value and
    the violating seeds are kept, not a value per case.  A case violates
    unless its value is ``<= limit``, so a NaN case violates, and the worst
    value is NaN whenever any case is NaN.
    """
    if cases < 1:
        raise ValueError("cases must be at least 1")
    worst, violations = -np.inf, []
    end = seed + cases
    for start in range(seed, end, chunk):
        seeds = range(start, min(start + chunk, end))
        batch = values(seeds)
        worst = np.maximum(worst, batch.max())  # a NaN stays the worst
        violations += [seeds[i] for i in np.flatnonzero(~(batch <= limit))]
    return float(worst), violations


def column_mass_case_sizes(seed: int) -> tuple[int, int]:
    """(rows, cols) of column-mass case ``seed``, uniform over runs of seeds (37 is prime to each 65 - rows)."""
    rows = 1 + seed % COLUMN_MASS_MAX_ROWS
    return rows, rows + (seed // COLUMN_MASS_MAX_ROWS) * 37 % (COLUMN_MASS_MAX_COLS + 1 - rows)


def _column_masses(cases) -> np.ndarray:
    """Max column mass of each ``(rows, cols, seed)`` case, one stacked pass per rows value.

    Each case draws its rows alone (``_haar_rows`` on ``_case_rng(seed)``).
    The cases of one rows value are joined side by side, as the rows x cols
    blocks of one C-ordered rows x total array, whose column sums run down
    the rows in order, as they do for a case alone: a pairwise sum along
    the rows would move the bits.  A case's mass is the exact maximum of its
    own column sums, so it has the same bits in any batch.
    """
    blocks = [_haar_rows(rows, cols, _case_rng(seed)).T for rows, cols, seed in cases]
    groups = {}
    for i, block in enumerate(blocks):
        groups.setdefault(block.shape[0], []).append(i)
    masses = np.empty(len(blocks))
    for members in groups.values():
        sums = (np.concatenate([blocks[i] for i in members], axis=1) ** 2).sum(axis=0)
        starts = np.cumsum([0] + [blocks[i].shape[1] for i in members[:-1]])
        masses[members] = np.maximum.reduceat(sums, starts)
    return masses


def column_mass_lemma_check(rows: int, cols: int, seed: int) -> float:
    """Max column mass of a random matrix with orthonormal rows.

    Takes the first ``rows`` rows of a Haar-random ``cols x cols`` orthogonal
    matrix Q and returns max_k sum_i q_ik^2, which must never exceed 1.  The
    rows come from ``_haar_rows`` on the Philox stream keyed by ``seed``
    (``_case_rng``; bitwise ``Generator(Philox(key=seed))``): the orthonormal
    factor of a thin ``cols x rows`` Gaussian, which has their law; Q itself
    is never drawn.  ``seed`` must be in [0, 2**128); anything else raises
    ``ValueError``.  It is the suite's stacked check on a batch of one, so
    ``column_mass_lemma_check(*column_mass_case_sizes(s), s)`` replays case
    s of ``column_mass_suite`` bit for bit.
    """
    if rows < 1 or cols < rows:
        raise ValueError("need 1 <= rows <= cols")
    return float(_column_masses([(rows, cols, seed)])[0])


def column_mass_suite(cases: int, seed: int):
    """Seeded sweep of column-mass draws; returns (max_mass, violating_seeds).

    Case s, for s from ``seed`` to ``seed + cases - 1``, is exactly
    ``column_mass_lemma_check(*column_mass_case_sizes(s), s)``: no draw decides its sizes.
    ``COLUMN_MASS_CHUNK`` cases are checked per stacked pass.
    """
    masses = lambda seeds: _column_masses([(*column_mass_case_sizes(s), s) for s in seeds])
    return _seeded_cases(cases, seed, masses, 1.0 + COLUMN_MASS_TOL, COLUMN_MASS_CHUNK)


def _gap_bound_slacks(H: HamiltonianOperator, eigs: EigenSystem, N: int, seeds) -> np.ndarray:
    """bound - |E(F) - E0| of the frame of each case seed, in one stacked pass.

    Frame s is the first K = ``eigs.count`` eigenfunctions times
    ``_haar_rows(N, K, _case_rng(s))``, drawn alone.  The frames are joined
    as the columns of one ``ModeSet``, so one product forms them all, one
    ``coefficients`` product and one ``H.apply_array`` serve them all, and
    ``gap_lower_bound`` bounds their stack.  No column's arithmetic reads
    another frame's, and a batch of one is the frame alone, which the tests
    compare bit for bit across a chunk boundary.
    """
    K = eigs.count
    rotations = np.concatenate([_haar_rows(N, K, _case_rng(s)) for s in seeds], axis=1)
    frames = ModeSet(H.grid, eigs.modes.matrix @ rotations)
    bounds = gap_lower_bound(coefficients(frames, eigs, K).reshape(-1, N, K), eigs, N)
    energies = mode_energies(H, frames).reshape(-1, N).sum(axis=1)
    return bounds - np.abs(energies - float(eigs.eigenvalues[:N].sum()))


def gap_bound_suite(H: HamiltonianOperator, N: int, cases: int, seed: int):
    """Check the gap lower bound against |E(F) - E0| on random orthonormal frames.

    Frames are drawn inside the span of the first 4N eigenfunctions, where
    the bound must sit below the energy excess up to roundoff; case s draws
    from the Philox stream keyed by s (``_case_rng``), as a column-mass case
    does, and ``GAP_BOUND_CHUNK`` frames are checked per stacked pass.
    Returns (max_slack, violating_seeds) with slack defined as
    bound - |E(F) - E0| (positive slack is a violation).
    """
    eigs = reference_eigenpairs(H, 4 * N)
    slacks = lambda seeds: _gap_bound_slacks(H, eigs, N, seeds)
    return _seeded_cases(cases, seed, slacks, GAP_BOUND_SLACK_LIMIT, GAP_BOUND_CHUNK)


def localization(F: ModeSet) -> np.ndarray:
    """Per-mode inverse-participation-ratio width (length^dim units)."""
    w = F.grid.cell_volume
    second = w * (F.matrix**2).sum(axis=0)
    fourth = w * (F.matrix**4).sum(axis=0)
    if np.any(fourth <= 0.0):
        raise ValueError("localization width is undefined for a zero mode")
    return second**2 / fourth


def default_gap_threshold(eigs: EigenSystem, N: int) -> float:
    return 1e-6 * abs(float(eigs.eigenvalues[N])) + 1e-8


def _trend_verdict(records: list[dict], key: str, slack: float) -> str:
    vals = [r[key] for r in records]
    if len(vals) < 2:
        return "n/a"
    if any(not np.isfinite(v) for v in vals):
        return "fail"
    ok = all(vals[i + 1] <= vals[i] + slack for i in range(len(vals) - 1))
    return "pass" if ok else "fail"


def mu_sweep(
    H: HamiltonianOperator,
    J: Regularizer,
    N: int,
    mu_schedule,
    config: SolverConfig,
) -> dict:
    """Solve along an ascending mu schedule, warm-starting each step.

    Returns the ``sweep.json`` document less its config echo; each record
    holds its mu's measures followed by the solve's ``start_fields``.  One
    measure, ``limit_distance``, is the winner's ``solver.limit_distance`` to
    the limit frame W1 (``solver.limit_frame``), the distance from which the
    sweep's warm starts read their order; it is None on a degenerate box,
    where the eigen frame, and so W1, is not determined by the operator.
    The next, ``limit_order``, is that order between the previous mu's
    winner and this one's (``solver.limit_order``): reported, not judged.
    It is None at the first mu and wherever either distance is None or 0.

    The solves are ``solve_sweep``'s: the configured starts of every mu run
    as one block, then each mu's warm start runs alone from the previous
    winner.

    When the spectral gap above mode N sits below ``default_gap_threshold``,
    the sweep still runs but is flagged degenerate and the convergence
    verdicts are suppressed: without the gap, mode-level convergence claims
    are void.
    """
    schedule = tuple(float(m) for m in mu_schedule)
    if not schedule:
        raise ValueError("mu schedule is empty")
    if any(m <= 0 for m in schedule):
        raise ValueError("mu values must be positive")
    if any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise ValueError("mu schedule must be strictly ascending")

    eigs = reference_eigenpairs(H, N + 1)
    gap = spectral_gap(eigs, N)
    threshold = default_gap_threshold(eigs, N)
    degenerate = gap < threshold
    e0 = float(eigs.eigenvalues[:N].sum())
    phi = eigs.modes.take(N)

    results = solve_sweep(H, J, N, schedule, config, eigs=eigs)  # validates every mu first
    limit = None if degenerate else limit_frame(H, J, N, eigs)
    records = []
    for mu, result in zip(schedule, results):
        m = interaction_matrix(H, result.modes)
        nu = nu_spectrum(m)
        energy = float(np.trace(m))
        dev = float(np.abs(nu - eigs.eigenvalues[:N]).max())
        try:
            _, residual, _ = procrustes_align(result.modes, phi)
        except AlignmentError:
            residual = float("nan")
        distance = None if limit is None else limit_distance(result.modes, limit)
        order = None
        if records:
            order = limit_order((records[-1]["limit_distance"], distance), (records[-1]["mu"], mu))
        records.append(
            {
                "mu": mu,
                "E": energy,
                "E0": e0,
                "energy_gap": energy - e0,
                "nu": [float(v) for v in nu],
                "max_eig_dev": dev,
                "procrustes_residual": residual,
                "ortho_defect": result.modes.ortho_defect,
                "limit_distance": distance,
                "limit_order": order,
                **start_fields(result),
            }
        )

    verdicts = {
        "monotone_energy": _trend_verdict(records, "energy_gap", ENERGY_TREND_SLACK),
        "eig_convergence": _trend_verdict(records, "max_eig_dev", RESIDUAL_TREND_SLACK),
        "l2_convergence": _trend_verdict(records, "procrustes_residual", RESIDUAL_TREND_SLACK),
    }
    if degenerate:
        verdicts = dict.fromkeys(verdicts, "degenerate")

    return {
        "N": N,
        "mu_schedule": list(schedule),
        "eigenvalues": [float(v) for v in eigs.eigenvalues],
        "E0": e0,
        "spectral_gap": gap,
        "gap_threshold": threshold,
        "degenerate": degenerate,
        "verdicts": verdicts,
        "records": records,
    }
