"""Uniform tensor grids on a bounded box, with the quadrature everything else uses.

A :class:`Grid` discretizes a box of given side lengths in 1D or 2D with
uniform spacing and uniform quadrature weights (rectangle rule).  Dirichlet
grids keep interior nodes only; the boundary values are implicitly zero,
which keeps the finite-difference Laplacian symmetric.  Periodic grids wrap.

Every node carries the same weight, :attr:`Grid.cell_volume`, so the weighted
discrete inner products and norms used across the package are ``cell_volume``
times plain sums over node-value arrays, e.g. ``w * (u @ v)`` for an inner
product and ``w * np.abs(u).sum()`` for an L1 norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

DIRICHLET = "dirichlet"
PERIODIC = "periodic"
_BOUNDARIES = (DIRICHLET, PERIODIC)


class GridMismatchError(ValueError):
    """Two functions that must live on the same grid do not."""


@dataclass(frozen=True)
class Grid:
    """Uniform grid on a box [0, L1] x ... with rectangle-rule weights.

    Parameters
    ----------
    dim : int
        1 or 2.
    extent : tuple of float
        Physical side length per axis, strictly positive.
    points_per_axis : tuple of int
        Node count per axis (interior nodes for Dirichlet).
    boundary : str
        ``"dirichlet"`` or ``"periodic"``.

    Node layout: Dirichlet nodes sit at x_i = (i+1)*h with h = L/(n+1) so
    the implicit boundary rows vanish; periodic nodes at x_i = i*h with
    h = L/n.  Every node carries the same weight prod(spacing), so the
    quadrature measure is n*h per axis: exactly |box| for periodic grids
    and |box|*n/(n+1) for Dirichlet ones (the half-cells hugging the
    boundary, where Dirichlet functions vanish, carry no node).
    """

    dim: int
    extent: tuple[float, ...]
    points_per_axis: tuple[int, ...]
    boundary: str = DIRICHLET
    spacing: tuple[float, ...] = field(init=False, compare=False)

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {self.dim}")
        object.__setattr__(self, "extent", tuple(float(e) for e in self.extent))
        object.__setattr__(self, "points_per_axis", tuple(int(p) for p in self.points_per_axis))
        if len(self.extent) != self.dim or len(self.points_per_axis) != self.dim:
            raise ValueError("extent and points_per_axis must have one entry per axis")
        if any(e <= 0 for e in self.extent):
            raise ValueError("extent entries must be positive")
        if any(p < 2 for p in self.points_per_axis):
            raise ValueError("need at least 2 points per axis")
        if self.boundary not in _BOUNDARIES:
            raise ValueError(f"boundary must be one of {_BOUNDARIES}, got {self.boundary!r}")
        if self.boundary == DIRICHLET:
            spacing = tuple(e / (p + 1) for e, p in zip(self.extent, self.points_per_axis))
        else:
            spacing = tuple(e / p for e, p in zip(self.extent, self.points_per_axis))
        object.__setattr__(self, "spacing", spacing)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.points_per_axis

    @property
    def node_count(self) -> int:
        return math.prod(self.points_per_axis)

    @property
    def cell_volume(self) -> float:
        """Quadrature weight shared by every node."""
        return math.prod(self.spacing)

    @property
    def volume(self) -> float:
        """Sum of quadrature weights, i.e. the discrete measure of the domain."""
        return self.node_count * self.cell_volume

    def axis_coordinates(self, axis: int) -> np.ndarray:
        """Node coordinates along one axis."""
        h = self.spacing[axis]
        n = self.points_per_axis[axis]
        if self.boundary == DIRICHLET:
            return h * np.arange(1, n + 1)
        return h * np.arange(n)

    def coordinates(self) -> np.ndarray:
        """Node coordinates, shape (node_count, dim), C-order flattening."""
        axes = [self.axis_coordinates(a) for a in range(self.dim)]
        if self.dim == 1:
            return axes[0][:, None]
        xx, yy = np.meshgrid(axes[0], axes[1], indexing="ij")
        return np.column_stack([xx.ravel(), yy.ravel()])
