import numpy as np
import pytest
import scipy.linalg

from cmlab import (
    FreeParticle,
    Grid,
    HamiltonianOperator,
    HarmonicWell,
    mode_energies,
    orthonormal_columns,
    reference_eigenpairs,
    spectral_gap,
)
from cmlab.modes import ModeSet


def test_box_spectrum_matches_analytic(box_eigs, box_grid):
    analytic = np.array([np.pi**2 / 2, 2 * np.pi**2, 9 * np.pi**2 / 2])
    np.testing.assert_allclose(box_eigs.eigenvalues[:3], analytic, rtol=5e-3)
    # the discrete operator's exact eigenvalues
    h = box_grid.spacing[0]
    discrete = (1.0 - np.cos(np.arange(1, 4) * np.pi * h)) / h**2
    np.testing.assert_allclose(box_eigs.eigenvalues[:3], discrete, rtol=1e-9)


def test_harmonic_spectrum_matches_analytic():
    g = Grid(1, (16.0,), (1024,), "dirichlet")
    H = HamiltonianOperator(g, HarmonicWell(omega=1.0))
    eigs = reference_eigenpairs(H, 4)
    np.testing.assert_allclose(eigs.eigenvalues, [0.5, 1.5, 2.5, 3.5], rtol=1e-2)


def test_full_spectrum_trace_identity():
    g = Grid(1, (1.0,), (8,), "dirichlet")
    H = HamiltonianOperator(g, HarmonicWell(omega=3.0))
    eigs = reference_eigenpairs(H, 8)
    trace = float(np.trace(H.materialize_dense()))
    assert eigs.eigenvalues.sum() == pytest.approx(trace, rel=1e-10)


def test_eigenpairs_sorted_orthonormal_small_residual(box_eigs):
    vals = box_eigs.eigenvalues
    assert np.all(np.diff(vals) >= 0)
    assert box_eigs.modes.ortho_defect <= 1e-10
    limit = 1e-8 * np.maximum(1.0, np.abs(vals))
    assert np.all(box_eigs.residual_norms <= limit)


def test_sign_convention_and_determinism(box_H, box_eigs):
    for j in range(box_eigs.count):
        col = box_eigs.modes.matrix[:, j]
        assert col[np.argmax(np.abs(col))] > 0
    again = reference_eigenpairs(box_H, box_eigs.count)
    np.testing.assert_array_equal(again.modes.matrix, box_eigs.modes.matrix)


def test_spectral_gap_box(box_eigs):
    gap = spectral_gap(box_eigs, 2)
    assert gap == pytest.approx(5 * np.pi**2 / 2, rel=5e-3)
    assert spectral_gap(box_eigs, 1) > 0
    with pytest.raises(ValueError):
        spectral_gap(box_eigs, 4)


def test_spectral_gap_periodic_degenerate(periodic_eigs):
    # lambda_2 = lambda_3 is an exactly degenerate pair of the periodic box
    assert abs(spectral_gap(periodic_eigs, 2)) <= 1e-8
    np.testing.assert_allclose(
        periodic_eigs.eigenvalues,
        [0.0, 2 * np.pi**2, 2 * np.pi**2, 8 * np.pi**2],
        rtol=5e-3,
        atol=1e-8,
    )


def test_variational_floor_random_frames(box_H, box_eigs, rng):
    e0 = box_eigs.eigenvalues[:3].sum()
    for _ in range(100):
        raw = rng.standard_normal((512, 3))
        frame = ModeSet(box_H.grid, orthonormal_columns(raw, box_H.grid.cell_volume))
        assert mode_energies(box_H, frame).sum() >= e0 - 1e-8


def test_shift_invert_matches_dense():
    g = Grid(1, (1.0,), (300,), "dirichlet")
    H = HamiltonianOperator(g, FreeParticle())
    dense_vals = scipy.linalg.eigh(H.materialize_dense(), eigvals_only=True)[:3]
    eigs = reference_eigenpairs(H, 3)
    np.testing.assert_allclose(eigs.eigenvalues, dense_vals, rtol=1e-8)
    assert eigs.modes.ortho_defect <= 1e-10
    limit = 1e-8 * np.maximum(1.0, np.abs(eigs.eigenvalues))
    assert np.all(eigs.residual_norms <= limit)


@pytest.mark.parametrize(
    "grid, count",
    [
        # 0, then pairs: counts end on a cluster boundary so the span is defined
        (Grid(1, (1.0,), (256,), "periodic"), 5),
        # (1,1), (1,2) and (2,1), (2,2), (1,3) and (3,1)
        (Grid(2, (1.0, 1.0), (32, 32), "dirichlet"), 6),
    ],
)
def test_shift_invert_degenerate_spans_match_dense(grid, count, rng):
    # inside a degenerate eigenspace the basis is arbitrary: compare the
    # spectral projectors Phi Phi^T w, not the eigenvectors
    H = HamiltonianOperator(grid, FreeParticle())
    dense_vals, dense_vecs = scipy.linalg.eigh(H.materialize_dense())
    eigs = reference_eigenpairs(H, count)
    np.testing.assert_allclose(eigs.eigenvalues, dense_vals[:count], rtol=1e-8, atol=1e-8)
    w = grid.cell_volume
    phi = eigs.modes.matrix
    dense_phi = dense_vecs[:, :count] / np.sqrt(w)
    probes = rng.standard_normal((grid.node_count, 4))
    projected = phi @ (w * (phi.T @ probes))
    dense_projected = dense_phi @ (w * (dense_phi.T @ probes))
    scale = np.abs(dense_projected).max()
    np.testing.assert_allclose(projected, dense_projected, rtol=0, atol=1e-8 * scale)
    assert eigs.modes.ortho_defect <= 1e-10
    limit = 1e-8 * np.maximum(1.0, np.abs(eigs.eigenvalues))
    assert np.all(eigs.residual_norms <= limit)


TINY_SHAPES = [(n,) for n in range(2, 12)] + [(a, b) for a in range(2, 6) for b in (2, 3)]


@pytest.mark.parametrize("boundary", ["dirichlet", "periodic"])
@pytest.mark.parametrize("shape", TINY_SHAPES, ids=lambda s: "x".join(map(str, s)))
def test_tiny_grids_every_count_matches_eigvalsh(shape, boundary):
    g = Grid(len(shape), (1.0,) * len(shape), shape, boundary)
    H = HamiltonianOperator(g, FreeParticle())
    exact = np.linalg.eigvalsh(H.materialize_dense())
    for count in range(1, g.node_count + 1):
        eigs = reference_eigenpairs(H, count)
        np.testing.assert_allclose(eigs.eigenvalues, exact[:count], rtol=0, atol=1e-9)


def test_count_validation(box_H):
    with pytest.raises(ValueError):
        reference_eigenpairs(box_H, 0)
    with pytest.raises(ValueError):
        reference_eigenpairs(box_H, 513)
