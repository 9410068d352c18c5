"""Reference eigenpairs of the discretized Hamiltonian and the spectral gap.

The lowest eigenpairs come from shift-invert Lanczos (ARPACK ``eigsh``) on
the operator's sparse matrix, from a fixed-seed start vector; requests for
all or all but one eigenpair use a dense decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse.linalg

from .hamiltonian import HamiltonianOperator
from .modes import ModeSet

_ARPACK_SEED = 0


class EigensolverError(RuntimeError):
    """Iterative eigensolver failed to converge."""


@dataclass(frozen=True)
class EigenSystem:
    """Lowest eigenpairs, nondecreasing, orthonormal under the grid inner product."""

    eigenvalues: np.ndarray
    modes: ModeSet
    residual_norms: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.eigenvalues, dtype=float)
        vals.setflags(write=False)
        object.__setattr__(self, "eigenvalues", vals)
        res = np.asarray(self.residual_norms, dtype=float)
        res.setflags(write=False)
        object.__setattr__(self, "residual_norms", res)

    @property
    def count(self) -> int:
        return self.eigenvalues.size


def reference_eigenpairs(H: HamiltonianOperator, count: int) -> EigenSystem:
    """First ``count`` eigenpairs of H, sorted nondecreasing.

    Eigenvectors are normalized in the weighted inner product and sign-fixed
    so the entry of largest magnitude is positive.
    """
    n = H.node_count
    if not 1 <= count <= n:
        raise ValueError(f"count must be in [1, {n}], got {count}")
    if count >= n - 1:
        # the Krylov space would be the whole space: a dense solve is simpler
        vals, vecs = scipy.linalg.eigh(H.materialize_dense())
        vals, vecs = vals[:count], vecs[:, :count]
    else:
        # -1/2 Laplacian is positive semidefinite, so the spectrum starts at or
        # above min V: shift one box-scale kinetic energy below that
        sigma = float(H.potential_values.min()) - 0.5 * sum((np.pi / e) ** 2 for e in H.grid.extent)
        # Seeded start and restarts, never OS entropy, so reruns are bitwise
        # equal; a constant start is orthogonal to a symmetric box's odd modes
        rng = np.random.default_rng(_ARPACK_SEED)
        try:
            vals, vecs = scipy.sparse.linalg.eigsh(
                H.matrix, k=count, sigma=sigma, v0=rng.standard_normal(n), rng=rng
            )
        except scipy.sparse.linalg.ArpackNoConvergence as exc:
            got = 0 if exc.eigenvalues is None else len(exc.eigenvalues)
            raise EigensolverError(
                f"iterative eigensolver converged only {got}/{count} pairs"
            ) from exc
        order = np.argsort(vals)
        vals, vecs = vals[order], vecs[:, order]

    w = H.grid.cell_volume
    vecs = vecs / np.sqrt(w)
    peaks = vecs[np.argmax(np.abs(vecs), axis=0), np.arange(vecs.shape[1])]
    vecs *= np.where(peaks < 0, -1.0, 1.0)

    residuals = H.apply_array(vecs) - vecs * vals[None, :]
    res_norms = np.sqrt(w * (residuals**2).sum(axis=0))
    return EigenSystem(vals, ModeSet(H.grid, vecs), res_norms)


def spectral_gap(eigs: EigenSystem, N: int) -> float:
    """lambda_{N+1} - lambda_N, the gap both convergence claims assume positive."""
    if N < 1:
        raise ValueError("N must be positive")
    if eigs.count < N + 1:
        raise ValueError(f"need at least {N + 1} eigenpairs, have {eigs.count}")
    return float(eigs.eigenvalues[N] - eigs.eigenvalues[N - 1])
