"""Regularization functionals with the boundedness contract 0 <= J(g) <= C ||g||_2.

Two instances ship: the weighted discrete L1 norm (the interesting one, with
C the square root of the domain measure ``Grid.volume``) and the zero
functional (C = 0; turns the solver into a plain variational minimizer).
Both work on (node_count, N) arrays of node values, or on stacks
(..., node_count, N) of them: ``evaluate_columns`` gives J per column as
``cell_volume`` times a plain sum, and ``prox_array`` is the proximal map the
splitting solver needs.  The prox is taken with respect to the weighted L2
metric, so the node weight cancels and the threshold is resolution
independent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class L1Regularizer:
    """J(u) = sum_n w_n |u_n|."""

    def evaluate_columns(self, matrix: np.ndarray, cell_volume: float) -> np.ndarray:
        """Per-column value on raw node values."""
        return cell_volume * np.abs(matrix).sum(axis=-2)

    def prox_array(self, values: np.ndarray, step) -> np.ndarray:
        """Nodewise soft threshold at level ``step``: sign(v) max(|v| - step, 0).

        ``step`` is a number or an array that broadcasts against ``values``,
        such as one step per frame of a stack.
        """
        if not np.greater(step, 0).all():  # NaN is not positive either
            raise ValueError("prox step must be positive")
        out = np.abs(values)
        out -= step
        np.maximum(out, 0.0, out=out)
        return np.copysign(out, values, out=out)


@dataclass(frozen=True)
class ZeroRegularizer:
    """J = 0; prox is the identity."""

    def evaluate_columns(self, matrix: np.ndarray, cell_volume: float) -> np.ndarray:
        return np.zeros(matrix.shape[:-2] + matrix.shape[-1:])

    def prox_array(self, values: np.ndarray, step) -> np.ndarray:
        """A copy of ``values``: callers may update either one in place."""
        if not np.greater(step, 0).all():  # NaN is not positive either
            raise ValueError("prox step must be positive")
        return values.copy()


Regularizer = L1Regularizer | ZeroRegularizer

_KINDS = {"l1": L1Regularizer, "zero": ZeroRegularizer}


def make_regularizer(kind: str) -> Regularizer:
    try:
        return _KINDS[kind]()
    except KeyError:
        raise ValueError(f"unknown regularizer {kind!r}; expected one of {sorted(_KINDS)}")
