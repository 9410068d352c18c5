"""Stacks of discrete functions stored column-wise, with orthonormality metadata."""

from __future__ import annotations

import numpy as np

from .grid import Grid


class RankDeficientError(ValueError):
    """Mode stack columns are (numerically) linearly dependent."""


class ModeSet:
    """N discrete functions on one grid, stored as an (node_count, N) matrix.

    Construction does not require orthonormality; ``ortho_defect`` reports
    the worst deviation of the weighted Gram matrix from the identity so
    callers can enforce their own feasibility contracts.
    """

    def __init__(self, grid: Grid, matrix: np.ndarray):
        mat = np.array(matrix, dtype=float)
        if mat.ndim == 1:
            mat = mat[:, None]
        if mat.ndim != 2 or mat.shape[0] != grid.node_count:
            raise ValueError(
                f"mode matrix must be (node_count, N); got {mat.shape} for "
                f"{grid.node_count} nodes"
            )
        mat.setflags(write=False)
        self.grid = grid
        self.matrix = mat
        self._gram: np.ndarray | None = None

    @property
    def count(self) -> int:
        return self.matrix.shape[1]

    def gram(self) -> np.ndarray:
        """Weighted Gram matrix of the columns."""
        if self._gram is None:
            g = self.grid.cell_volume * (self.matrix.T @ self.matrix)
            g.setflags(write=False)
            self._gram = g
        return self._gram

    @property
    def ortho_defect(self) -> float:
        """max |<f_i, f_j> - delta_ij| over all column pairs."""
        return float(np.abs(self.gram() - np.eye(self.count)).max())

    def take(self, count: int) -> "ModeSet":
        """First ``count`` columns as a new set."""
        if not 1 <= count <= self.count:
            raise ValueError(f"cannot take {count} of {self.count} modes")
        return ModeSet(self.grid, self.matrix[:, :count])


def orthonormal_columns(matrix: np.ndarray, cell_volume: float) -> np.ndarray:
    """Closest weighted-orthonormal frame to ``matrix`` (polar factor).

    Output spans the same subspace and minimizes the weighted Frobenius
    distance to the input among all orthonormal frames.  ``matrix`` may be a
    stack (..., node_count, N) of frames, each projected on its own; one
    rank-deficient frame raises for the whole stack.
    """
    u, s, vt = np.linalg.svd(np.sqrt(cell_volume) * matrix, full_matrices=False)
    # Gram condition (s_max / s_min)^2 >= 1e12, without dividing by s_min = 0
    if (s[..., 0] >= 1e6 * s[..., -1]).any():
        raise RankDeficientError(
            "mode stack is numerically rank deficient (Gram condition >= 1e12)"
        )
    return (u @ vt) / np.sqrt(cell_volume)
