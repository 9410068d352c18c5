"""Quantities and experiments for the spectral-consistency checks.

Everything the convergence claims talk about lives here: the N x N energy
matrix and its spectrum, alignment of a frame to the eigenfunction frame by
the best orthogonal rotation, expansion coefficients in the eigenbasis with
their per-eigenfunction captured masses, the induced energy-gap lower bound,
and the mu-sweep experiment that records how all of it trends as the
regularization weight fades; the sweep's report is the ``sweep.json``
document itself, a plain dict.  The sweep's solves come from
``solver.solve_sweep``, which runs the configured starts of every mu and the
warm-start chain as one lockstep block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .eigensolver import EigenSystem, reference_eigenpairs, spectral_gap
from .grid import GridMismatchError
from .hamiltonian import HamiltonianOperator
from .modes import ModeSet
from .regularizer import Regularizer
from .solver import SolverConfig, mode_energies, solve_sweep, start_fields

ORTHO_PRECONDITION = 1e-6
ENERGY_TREND_SLACK = 1e-6
RESIDUAL_TREND_SLACK = 1e-4
COLUMN_MASS_TOL = 1e-10
COLUMN_MASS_MAX_ROWS = 8
COLUMN_MASS_MAX_COLS = 64


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


@dataclass(frozen=True)
class CoeffMatrix:
    """Expansion coefficients of modes in the eigenbasis, with column masses.

    ``entries[i, k] = <f_i, phi_k>`` for the first K eigenfunctions;
    ``col_mass[l] = sum_i entries[i, l]**2`` is the mass the frame captures
    from eigenfunction l; ``tail_mass[i]`` is the per-mode mass beyond depth
    K, inferred from unit normalization.
    """

    entries: np.ndarray
    col_mass: np.ndarray
    tail_mass: np.ndarray

    def __post_init__(self):
        for name in ("entries", "col_mass", "tail_mass"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def depth(self) -> int:
        return self.entries.shape[1]


def coefficients(F: ModeSet, eigs: EigenSystem, K: int) -> CoeffMatrix:
    """Coefficients a_ik = <f_i, phi_k> up to expansion depth K."""
    if K < 1 or K > eigs.count:
        raise ValueError(f"depth K must be in [1, {eigs.count}], got {K}")
    if F.grid != eigs.modes.grid:
        raise GridMismatchError("modes and eigensystem live on different grids")
    w = F.grid.cell_volume
    entries = w * (F.matrix.T @ eigs.modes.matrix[:, :K])
    col_mass = (entries**2).sum(axis=0)
    tail_mass = 1.0 - (entries**2).sum(axis=1)
    return CoeffMatrix(entries, col_mass, tail_mass)


def gap_lower_bound(coeffs: CoeffMatrix, eigs: EigenSystem, N: int) -> float:
    """sum_{l<=N} (1 - b_l)(lambda_{N+1} - lambda_l).

    Each summand is nonnegative by the ordering of the eigenvalues and the
    column-mass bound b_l <= 1; tiny negative excursions (roundoff) are
    clamped, anything beyond 1e-10 is an error.
    """
    if eigs.count < N + 1:
        raise ValueError(f"need at least {N + 1} eigenpairs, have {eigs.count}")
    if coeffs.depth < N:
        raise ValueError("coefficient depth is smaller than N")
    lam = eigs.eigenvalues
    total = 0.0
    for l in range(N):
        deficit = 1.0 - float(coeffs.col_mass[l])
        gap_l = float(lam[N] - lam[l])
        if deficit < -COLUMN_MASS_TOL:
            raise ValueError(f"column mass {coeffs.col_mass[l]} exceeds 1 beyond tolerance")
        if gap_l < -COLUMN_MASS_TOL:
            raise ValueError("eigenvalues are not sorted nondecreasing")
        total += max(deficit, 0.0) * max(gap_l, 0.0)
    return total


def _haar_orthogonal(k: int, rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((k, k)))
    return q * np.sign(np.diag(r))


def column_mass_lemma_check(rows: int, cols: int, seed: int) -> float:
    """Max column mass of a random matrix with orthonormal rows.

    Draws the first ``rows`` rows of a Haar-random ``cols x cols`` orthogonal
    matrix and returns max_k sum_i a_ik^2, which must never exceed 1.
    """
    if rows < 1 or cols < rows:
        raise ValueError("need 1 <= rows <= cols")
    a = _haar_orthogonal(cols, np.random.default_rng(seed))[:rows, :]
    return float((a**2).sum(axis=0).max())


def column_mass_suite(cases: int, seed: int):
    """Seeded sweep of column-mass draws; returns (max_mass, violating_seeds)."""
    if cases < 1:
        raise ValueError("cases must be at least 1")
    worst = 0.0
    violations = []
    for i in range(cases):
        case_seed = seed + i
        rng = np.random.default_rng(case_seed)
        rows = int(rng.integers(1, COLUMN_MASS_MAX_ROWS + 1))
        cols = int(rng.integers(rows, COLUMN_MASS_MAX_COLS + 1))
        mass = column_mass_lemma_check(rows, cols, case_seed)
        worst = max(worst, mass)
        if mass > 1.0 + COLUMN_MASS_TOL:
            violations.append(case_seed)
    return worst, violations


def gap_bound_suite(H: HamiltonianOperator, N: int, cases: int, seed: int):
    """Check the gap lower bound against |E(F) - E0| on random orthonormal frames.

    Frames are drawn inside the span of the first 4N eigenfunctions, where
    the bound must sit below the energy excess up to roundoff.  Returns
    (max_slack, violating_seeds) with slack defined as bound - |E(F) - E0|
    (positive slack is a violation).
    """
    if cases < 1:
        raise ValueError("cases must be at least 1")
    K = 4 * N
    eigs = reference_eigenpairs(H, K)
    basis = eigs.modes.matrix[:, :K]
    e0 = float(eigs.eigenvalues[:N].sum())
    max_slack = -np.inf
    violations = []
    for i in range(cases):
        case_seed = seed + i
        rows = _haar_orthogonal(K, np.random.default_rng(case_seed))[:N, :]
        frame = ModeSet(H.grid, basis @ rows.T)
        coeffs = coefficients(frame, eigs, K)
        bound = gap_lower_bound(coeffs, eigs, N)
        energy = float(mode_energies(H, frame).sum())
        slack = bound - abs(energy - e0)
        max_slack = max(max_slack, slack)
        if slack > 1e-8:
            violations.append(case_seed)
    return float(max_slack), violations


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
    holds its mu's measures followed by the solve's ``start_fields``.

    The solves are ``solve_sweep``'s: the configured starts of every mu and
    the warm start of each mu from the previous winner run as one block.

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

    records = []
    for mu, result in zip(schedule, solve_sweep(H, J, N, schedule, config, eigs=eigs)):
        m = interaction_matrix(H, result.modes)
        nu = nu_spectrum(m)
        energy = float(np.trace(m))
        dev = float(np.abs(nu - eigs.eigenvalues[:N]).max())
        try:
            _, residual, _ = procrustes_align(result.modes, phi)
        except AlignmentError:
            residual = float("nan")
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
