"""Discretized Schrodinger operator: -1/2 Laplacian + pointwise potential.

The Laplacian is the second-order central stencil (3-point in 1D, 5-point
in 2D).  The operator is assembled once as a sparse CSR matrix, which backs
the operator apply, the solver's shifted linear solve and the eigensolver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse

from .grid import PERIODIC, Grid, GridMismatchError


@dataclass(frozen=True)
class FreeParticle:
    """V = 0 everywhere."""

    def values_on(self, grid: Grid) -> np.ndarray:
        return np.zeros(grid.node_count)


@dataclass(frozen=True)
class HarmonicWell:
    """V(x) = 1/2 * omega^2 * |x - center|^2, centered at the box midpoint by default."""

    omega: float = 1.0
    center: tuple[float, ...] | None = None

    def values_on(self, grid: Grid) -> np.ndarray:
        if self.omega <= 0:
            raise ValueError("omega must be positive")
        center = self.center
        if center is None:
            center = tuple(e / 2 for e in grid.extent)
        if len(center) != grid.dim:
            raise ValueError("center dimension does not match grid")
        d2 = ((grid.coordinates() - np.asarray(center)) ** 2).sum(axis=1)
        return 0.5 * self.omega**2 * d2


@dataclass(frozen=True)
class MultiWell:
    """Negative Gaussian bumps of equal depth and width at the given centers.

    V(x) = -depth * sum_c exp(-|x - c|^2 / (2 width^2)).  Spatially separated
    wells give the localized low-energy structure the sparse modes latch onto.
    """

    centers: tuple[tuple[float, ...], ...]
    depth: float
    width: float

    def values_on(self, grid: Grid) -> np.ndarray:
        if self.depth <= 0 or self.width <= 0:
            raise ValueError("depth and width must be positive")
        coords = grid.coordinates()
        v = np.zeros(grid.node_count)
        for c in self.centers:
            if len(c) != grid.dim:
                raise ValueError("well center dimension does not match grid")
            d2 = ((coords - np.asarray(c)) ** 2).sum(axis=1)
            v -= self.depth * np.exp(-d2 / (2.0 * self.width**2))
        return v


@dataclass(frozen=True)
class Tabulated:
    """Potential given by one value per node (e.g. loaded from a CSV column)."""

    values: tuple[float, ...]

    def values_on(self, grid: Grid) -> np.ndarray:
        v = np.asarray(self.values, dtype=float)
        if v.size != grid.node_count:
            raise ValueError(
                f"tabulated potential has {v.size} values, grid has {grid.node_count} nodes"
            )
        return v


Potential = FreeParticle | HarmonicWell | MultiWell | Tabulated


class HamiltonianOperator:
    """Symmetric operator -1/2 Laplacian + V on one grid.

    The operator is assembled once, at construction, as a read-only CSR
    matrix (``matrix``); applying it is a sparse matrix product, which is
    reentrant.
    """

    def __init__(self, grid: Grid, potential: Potential):
        self.grid = grid
        self.potential = potential
        self.potential_values = potential.values_on(grid)
        self.potential_values.setflags(write=False)
        periodic = grid.boundary == PERIODIC
        kinetic = [_kinetic_1d(n, h, periodic) for n, h in zip(grid.shape, grid.spacing)]
        if grid.dim == 1:
            lap = kinetic[0]
        else:
            # C-order nodes (i, j) -> i * ny + j: axis 0 is the outer Kronecker factor
            lap = scipy.sparse.kronsum(kinetic[1], kinetic[0])
        matrix = scipy.sparse.csr_array(lap + scipy.sparse.diags_array(self.potential_values))
        if not np.all(np.isfinite(matrix.data)):
            raise ValueError("operator has non-finite entries (potential or grid spacing)")
        for part in (matrix.data, matrix.indices, matrix.indptr):
            part.setflags(write=False)
        self.matrix = matrix

    @property
    def node_count(self) -> int:
        return self.grid.node_count

    def apply_array(self, x: np.ndarray) -> np.ndarray:
        """Apply the operator to node values, one column per function."""
        x = np.asarray(x, dtype=float)
        if x.shape[0] != self.matrix.shape[0]:
            raise GridMismatchError("input length does not match grid node count")
        return self.matrix @ x

    def materialize_dense(self) -> np.ndarray:
        """Dense copy of ``matrix``: the oracle in tests and the input of full-spectrum solves."""
        return self.matrix.toarray()


def _kinetic_1d(n: int, h: float, periodic: bool) -> scipy.sparse.sparray:
    """-1/2 times the 3-point second difference on n nodes of spacing h."""
    off = np.full(n - 1, -0.5 / h**2)
    a = scipy.sparse.diags_array([off, np.full(n, 1.0 / h**2), off], offsets=[-1, 0, 1])
    if periodic:
        # wrap-around neighbours; on two nodes they add onto the off-diagonals
        corners = scipy.sparse.coo_array(([off[0], off[0]], ([0, n - 1], [n - 1, 0])), shape=(n, n))
        a = a + corners
    return a
