"""Discretized Schrodinger operator: -1/2 Laplacian + pointwise potential.

The Laplacian is the second-order central stencil (3-point in 1D, 5-point
in 2D).  The operator is assembled once as a sparse CSR matrix, which backs
the operator apply, the solver's shifted linear solve and the eigensolver.
V enters only through its node values (None for V = 0); ``harmonic_well`` and
``multiwell`` compute them, and each of their errors begins with the parameter it is about.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse
from scipy.sparse import _sparsetools  # private: tests pin that its kernel is the one ``@`` calls

from .grid import PERIODIC, Grid, GridMismatchError


def _offsets(grid: Grid, coords: np.ndarray, c) -> np.ndarray:
    """x - c at every node x of ``coords`` (the grid's), to c's nearest periodic image on a periodic box.

    There c is first reduced into the box, which ``np.mod`` does exactly, so
    a center far outside it keeps its place in the lattice instead of
    swallowing x.
    """
    if grid.boundary != PERIODIC:
        return coords - np.asarray(c)
    period = np.asarray(grid.extent)
    d = coords - np.mod(c, period)
    d -= period * np.round(d / period)
    return d


def harmonic_well(grid: Grid, omega: float, center=None) -> np.ndarray:
    """V(x) = 1/2 * omega^2 * |x - center|^2, centered at the box midpoint by default.

    On a periodic box x - center is taken to the nearest periodic image of the
    center, as in ``multiwell``, so V is periodic.
    """
    if omega <= 0:
        raise ValueError("omega must be positive")
    if center is None:
        center = tuple(e / 2 for e in grid.extent)
    if len(center) != grid.dim:
        raise ValueError("center dimension does not match grid")
    with np.errstate(over="ignore", invalid="ignore"):  # np.float64 overflows to inf, named below
        d2 = (_offsets(grid, grid.coordinates(), center) ** 2).sum(axis=1)
        values = 0.5 * np.float64(omega) ** 2 * d2
    if not within_scale(values, grid.cell_volume):
        name = "center" if not within_scale(d2, grid.cell_volume) else "omega"
        raise ValueError(f"{name} puts 1/2 omega^2 |x - center|^2 out of floating-point range")
    return values


def multiwell(grid: Grid, centers, depth: float, width: float) -> np.ndarray:
    """Negative Gaussian bumps of equal depth and width at the given centers.

    V(x) = -depth * sum_c exp(-|x - c|^2 / (2 width^2)).  Spatially separated
    wells give the localized low-energy structure the sparse modes latch onto.
    On a periodic box x - c is taken to the nearest periodic image of c, so V
    is periodic: a well near one end of an axis reaches across to the other.
    A well too far out for |x - c|^2 to be a double adds its exp(-inf) = 0.
    """
    if depth <= 0 or width <= 0:
        raise ValueError("depth and width must be positive")
    coords = grid.coordinates()
    v = np.zeros(grid.node_count)
    with np.errstate(over="ignore"):  # as in harmonic_well
        spread = 2.0 * np.float64(width) ** 2
        if not 0.0 < spread < math.inf:
            raise ValueError(f"width {width:g} is out of range: 2 * width**2 = {spread:g}")
        for c in centers:
            if len(c) != grid.dim:
                raise ValueError("centers must each have one coordinate per grid axis")
            d2 = (_offsets(grid, coords, c) ** 2).sum(axis=1)
            v -= depth * np.exp(-d2 / spread)
    if not within_scale(v, grid.cell_volume):
        raise ValueError(f"depth {depth:g} puts the sum of the wells out of floating-point range")
    return v


class HamiltonianOperator:
    """Symmetric operator -1/2 Laplacian + V on one grid, V given by its node values.

    The operator is assembled once, at construction, as a read-only CSR
    matrix (``matrix``); applying it is a sparse matrix product, which is
    reentrant.
    """

    def __init__(self, grid: Grid, potential: np.ndarray | None = None):
        self.grid = grid
        n = grid.node_count
        # a copy, so that freezing it leaves the caller's array alone
        values = np.zeros(n) if potential is None else np.array(potential, dtype=float)
        if values.shape != (n,):
            raise ValueError(f"potential has shape {values.shape}; the grid has {n} nodes")
        values.setflags(write=False)
        self.potential_values = values
        periodic = grid.boundary == PERIODIC
        kinetic = [_kinetic_1d(n, h, periodic) for n, h in zip(grid.points_per_axis, grid.spacing)]
        if grid.dim == 1:
            lap = kinetic[0]
        else:
            # C-order nodes (i, j) -> i * ny + j: axis 0 is the outer Kronecker factor
            lap = scipy.sparse.kronsum(kinetic[1], kinetic[0])
        matrix = scipy.sparse.csr_array(lap + scipy.sparse.diags_array(self.potential_values))
        if not np.all(np.isfinite(matrix.data)):
            raise ValueError("operator has non-finite entries (potential or grid spacing)")
        _check_scale(float(np.abs(matrix.data).max()), grid.cell_volume)
        for part in (matrix.data, matrix.indices, matrix.indptr):
            part.setflags(write=False)
        self.matrix = matrix

    @property
    def node_count(self) -> int:
        return self.grid.node_count

    def apply_array(self, x: np.ndarray) -> np.ndarray:
        """Apply the operator to node values, one column per function.

        The product is scipy's CSR kernel, the one ``matrix @ x`` calls, called
        directly on the same inputs: a node-major copy of ``x`` (one row per
        node) and a zeroed output it adds into.  So it is bitwise ``matrix @
        x`` without scipy's per-call dispatch.
        """
        matrix = self.matrix
        n = matrix.shape[0]
        x = np.ascontiguousarray(x, dtype=float)
        if x.shape[0] != n:
            raise GridMismatchError("input length does not match grid node count")
        out = np.zeros(x.shape)
        _sparsetools.csr_matvecs(n, n, x.size // n, matrix.indptr, matrix.indices, matrix.data, x, out)
        return out

    def materialize_dense(self) -> np.ndarray:
        """Dense copy of ``matrix``: the oracle in tests and the input of full-spectrum solves."""
        return self.matrix.toarray()


def _check_scale(largest_entry: float, cell_volume: float) -> None:
    """Reject a domain whose scale puts the solvers' arithmetic out of floating-point range.

    A unit-norm function has node values up to ``cell_volume**-0.5``, which
    the operator maps to values up to about ``largest_entry *
    cell_volume**-0.5``; the eigensolver and the splitting solver square
    values of that size.  So the square, ``largest_entry**2 / cell_volume``,
    must be a normal double.  It is compared in logarithms, which cannot
    overflow; both arguments are finite and positive once the operator's
    entries are.
    """
    finfo = np.finfo(float)
    exponent = 2.0 * math.log10(largest_entry) - math.log10(cell_volume)
    if not math.log10(finfo.tiny) <= exponent <= math.log10(finfo.max):
        raise ValueError(
            f"domain scale is out of floating-point range: the operator's largest entry "
            f"{largest_entry:.3g} squared over the cell volume {cell_volume:.3g} is "
            f"1e{exponent:.0f}, outside the normal double range, so the solvers would "
            "overflow or underflow"
        )


def within_scale(values: np.ndarray, cell_volume: float) -> bool:
    """Whether node values of V are finite and below ``_check_scale``'s upper bound.

    Each potential checks its values by this bound, so that a potential too
    large for the solvers is named by its key, not blamed on the domain.
    """
    largest = float(np.abs(values).max())
    return largest == 0.0 or (  # a NaN or an inf fails ``isfinite``
        math.isfinite(largest)
        and 2.0 * math.log10(largest) - math.log10(cell_volume) <= math.log10(np.finfo(float).max)
    )


def _kinetic_1d(n: int, h: float, periodic: bool) -> scipy.sparse.sparray:
    """-1/2 times the 3-point second difference on n nodes of spacing h."""
    off = np.full(n - 1, -0.5 / h**2)
    a = scipy.sparse.diags_array([off, np.full(n, 1.0 / h**2), off], offsets=[-1, 0, 1])
    if periodic:
        # wrap-around neighbours; on two nodes they add onto the off-diagonals
        corners = scipy.sparse.coo_array(([off[0], off[0]], ([0, n - 1], [n - 1, 0])), shape=(n, n))
        a = a + corners
    return a
