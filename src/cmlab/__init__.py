"""cmlab: compressed-mode laboratory for Schrodinger operators.

Computes sparsity-localized orthonormal modes of -1/2 Laplacian + V on a
bounded box and verifies, numerically, that their energies, induced matrix
spectra and spans converge to the low-energy eigenstructure as the
regularization weight fades.
"""

from .consistency import (
    AlignmentError,
    CoeffMatrix,
    coefficients,
    column_mass_lemma_check,
    column_mass_suite,
    gap_bound_suite,
    gap_lower_bound,
    interaction_matrix,
    localization,
    mu_sweep,
    nu_spectrum,
    procrustes_align,
)
from .eigensolver import EigenSystem, EigensolverError, reference_eigenpairs, spectral_gap
from .grid import DIRICHLET, PERIODIC, Grid, GridMismatchError
from .hamiltonian import HamiltonianOperator, harmonic_well, multiwell
from .modes import ModeSet, RankDeficientError, orthonormal_columns
from .regularizer import L1Regularizer, Regularizer, ZeroRegularizer, make_regularizer
from .solver import (
    SolverConfig,
    SolverResult,
    mode_energies,
    objective,
    solve_cm,
    solve_sweep,
)

__version__ = "0.1.0"

__all__ = [
    "AlignmentError",
    "CoeffMatrix",
    "DIRICHLET",
    "EigenSystem",
    "EigensolverError",
    "Grid",
    "GridMismatchError",
    "HamiltonianOperator",
    "L1Regularizer",
    "ModeSet",
    "PERIODIC",
    "RankDeficientError",
    "Regularizer",
    "SolverConfig",
    "SolverResult",
    "ZeroRegularizer",
    "coefficients",
    "column_mass_lemma_check",
    "column_mass_suite",
    "gap_bound_suite",
    "gap_lower_bound",
    "harmonic_well",
    "interaction_matrix",
    "localization",
    "make_regularizer",
    "mode_energies",
    "mu_sweep",
    "multiwell",
    "nu_spectrum",
    "objective",
    "orthonormal_columns",
    "procrustes_align",
    "reference_eigenpairs",
    "solve_cm",
    "solve_sweep",
    "spectral_gap",
]
