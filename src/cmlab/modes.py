"""Stacks of discrete functions stored column-wise, with orthonormality metadata.

``orthonormal_columns`` projects a frame, or a stack of frames, onto its
weighted polar factor X G^{-1/2}, where G is the N x N weighted Gram matrix:
one stacked eigendecomposition of the Gram matrices, a second pass for the
frames whose Gram condition is above 1e3, and a rank check read off the
Gram eigenvalues.
"""

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

    @property
    def count(self) -> int:
        return self.matrix.shape[1]

    def gram(self) -> np.ndarray:
        """Weighted Gram matrix of the columns."""
        return self.grid.cell_volume * (self.matrix.T @ self.matrix)

    @property
    def ortho_defect(self) -> float:
        """max |<f_i, f_j> - delta_ij| over all column pairs."""
        return float(np.abs(self.gram() - np.eye(self.count)).max())

    def take(self, count: int) -> "ModeSet":
        """First ``count`` columns as a new set."""
        if not 1 <= count <= self.count:
            raise ValueError(f"cannot take {count} of {self.count} modes")
        return ModeSet(self.grid, self.matrix[:, :count])


# One pass leaves an orthonormality defect of about 4e-16 times the Gram
# condition: at most ~4e-13 below this threshold.  Above it, a second pass
# brings the defect down to ~4e-15.
SECOND_PASS_CONDITION = 1e3
RANK_CONDITION = 1e12


def orthonormal_columns(matrix: np.ndarray, cell_volume: float) -> np.ndarray:
    """Closest weighted-orthonormal frame to ``matrix`` (polar factor).

    Output spans the same subspace and minimizes the weighted Frobenius
    distance to the input among all orthonormal frames.  ``matrix`` may be a
    stack (..., node_count, N) of frames, each projected on its own.  The
    polar factor is X G^{-1/2}, with G = cell_volume X^T X the N x N Gram
    matrix, from one stacked symmetric eigendecomposition.  A pass leaves an
    orthonormality defect of about eps * cond(G), so a frame whose Gram
    condition exceeds ``SECOND_PASS_CONDITION`` is projected a second time;
    this is decided frame by frame, and no frame's result depends on the
    others in the stack.  The product is laid out like the input: a stack
    stored one mode per row in memory gives one mode per row back.  A frame
    with a Gram condition at or above 1e12 raises ``RankDeficientError``, and
    one with non-finite entries raises ``ValueError``; either fails the whole
    stack.
    """
    x = np.asarray(matrix, dtype=float)
    rows = x.mT.flags.c_contiguous
    frame, redo = _polar_pass(x.mT if rows else x, cell_volume, rows)
    if redo.any():
        frame[redo] = _polar_pass(frame[redo], cell_volume, rows)[0]
    return frame.mT if rows else frame


def _polar_pass(a: np.ndarray, w: float, rows: bool) -> tuple[np.ndarray, np.ndarray]:
    """One pass X G^{-1/2} on frames ``a`` stored as (..., N, n) if ``rows``, else (..., n, N).

    Returns the frames, laid out like ``a``, and which of them need another pass.
    """
    # X^T X one mode pair at a time: a dot product of two node vectors each,
    # laid out the same whatever else is in the stack
    modes = a if rows else a.mT
    gram = np.vecdot(modes[..., :, None, :], modes[..., None, :, :])
    # a non-finite entry reaches the diagonal of the Gram matrix, and eigh
    # would turn it into a NaN frame without a word
    if not np.isfinite(gram).all():
        raise ValueError("mode stack has non-finite entries (or its Gram matrix overflows)")
    lam, vecs = np.linalg.eigh(gram)
    low, top = lam[..., 0], lam[..., -1]
    if (top >= RANK_CONDITION * low).any():
        raise RankDeficientError(
            "mode stack is numerically rank deficient (Gram condition >= 1e12)"
        )
    # (w X^T X)^{-1/2}
    inv_sqrt = (vecs / np.sqrt(w * lam)[..., None, :]) @ vecs.mT
    frame = inv_sqrt @ a if rows else a @ inv_sqrt
    return frame, top > SECOND_PASS_CONDITION * low
