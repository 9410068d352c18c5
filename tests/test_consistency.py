import numpy as np
import pytest

from cmlab import (
    AlignmentError,
    GridMismatchError,
    Grid,
    ModeSet,
    SolverConfig,
    coefficients,
    column_mass_lemma_check,
    column_mass_suite,
    gap_bound_suite,
    gap_lower_bound,
    interaction_matrix,
    localization,
    make_regularizer,
    mode_energies,
    mu_sweep,
    nu_spectrum,
    orthonormal_columns,
    procrustes_align,
)
from cmlab.consistency import _haar_orthogonal, default_gap_threshold
from conftest import l1_total

L1 = make_regularizer("l1")
ZERO = make_regularizer("zero")


def _rotated(frame, rot):
    return ModeSet(frame.grid, frame.matrix @ rot)


def _random_frame(grid, rng, count):
    raw = rng.standard_normal((grid.node_count, count))
    return ModeSet(grid, orthonormal_columns(raw, grid.cell_volume))


# --- interaction matrix and its spectrum ------------------------------------


def test_interaction_matrix_diagonal_on_eigenfunctions(box_H, box_eigs):
    m = interaction_matrix(box_H, box_eigs.modes.take(3))
    np.testing.assert_allclose(m, np.diag(box_eigs.eigenvalues[:3]), atol=1e-8)
    assert np.trace(m) == pytest.approx(mode_energies(box_H, box_eigs.modes.take(3)).sum(), abs=1e-12)


def test_interaction_matrix_similarity_invariance(box_H, box_eigs, rng):
    rot = _haar_orthogonal(3, rng)
    m = interaction_matrix(box_H, _rotated(box_eigs.modes.take(3), rot))
    np.testing.assert_allclose(nu_spectrum(m), box_eigs.eigenvalues[:3], atol=1e-8)


def test_interaction_matrix_rayleigh_bound(box_H, box_eigs, rng):
    frame = _random_frame(box_H.grid, rng, 1)
    m = interaction_matrix(box_H, frame)
    assert m.shape == (1, 1)
    assert m[0, 0] >= box_eigs.eigenvalues[0] - 1e-8


def test_interaction_matrix_requires_orthonormal(box_H, box_eigs):
    skew = ModeSet(box_H.grid, 1.5 * box_eigs.modes.matrix[:, :2])
    with pytest.raises(ValueError, match="orthonormal"):
        interaction_matrix(box_H, skew)


def test_nu_spectrum_sorting_and_trace(rng):
    np.testing.assert_allclose(nu_spectrum(np.diag([3.0, 1.0, 2.0])), [1.0, 2.0, 3.0])
    for _ in range(20):
        raw = rng.standard_normal((5, 5))
        m = 0.5 * (raw + raw.T)
        nu = nu_spectrum(m)
        assert np.all(np.diff(nu) >= 0)
        assert nu.sum() == pytest.approx(np.trace(m), abs=1e-10)
    with pytest.raises(ValueError):
        nu_spectrum(np.array([[0.0, 1.0], [0.0, 0.0]]))


# --- Procrustes alignment ----------------------------------------------------


def test_procrustes_identity(box_eigs):
    phi = box_eigs.modes.take(2)
    rot, residual, aligned = procrustes_align(phi, phi)
    np.testing.assert_allclose(rot, np.eye(2), atol=1e-10)
    assert residual <= 1e-10
    np.testing.assert_allclose(aligned.matrix, phi.matrix, atol=1e-10)


def test_procrustes_recovers_planted_rotation(box_eigs, rng):
    phi = box_eigs.modes.take(3)
    planted = _haar_orthogonal(3, rng)
    rot, residual, _ = procrustes_align(_rotated(phi, planted), phi)
    np.testing.assert_allclose(rot, planted, atol=1e-8)
    assert residual <= 1e-8


def test_procrustes_detects_replaced_mode(box_eigs):
    # second mode swapped for the next eigenfunction: orthogonal to the target
    # span, so ||f - phi'||^2 = 2 - 2<f, phi'> = 2 for any rotation
    phi = box_eigs.modes.take(2)
    swapped = ModeSet(phi.grid, box_eigs.modes.matrix[:, [0, 2]])
    _, residual, _ = procrustes_align(swapped, phi)
    assert residual >= 1.0 - 1e-6
    assert residual == pytest.approx(np.sqrt(2.0), abs=1e-6)


def test_procrustes_orthogonal_subspaces_error(box_eigs):
    phi = box_eigs.modes.take(2)
    other = ModeSet(phi.grid, box_eigs.modes.matrix[:, [2, 3]])
    with pytest.raises(AlignmentError):
        procrustes_align(other, phi)


def test_procrustes_beats_random_rotations(box_H, box_eigs, rng):
    cfg = SolverConfig(mu=8.0, max_iters=600)
    from cmlab import solve_cm

    modes = solve_cm(box_H, L1, 2, cfg, eigs=box_eigs).modes
    phi = box_eigs.modes.take(2)
    _, residual, _ = procrustes_align(modes, phi)
    w = phi.grid.cell_volume
    for _ in range(50):
        rot = _haar_orthogonal(2, rng)
        dist = np.sqrt(w * ((modes.matrix - phi.matrix @ rot) ** 2).sum(axis=0)).max()
        assert residual <= dist + 1e-12


def test_procrustes_count_mismatch(box_eigs):
    with pytest.raises(ValueError):
        procrustes_align(box_eigs.modes.take(2), box_eigs.modes.take(3))


def test_procrustes_grid_mismatch_raises(box_eigs, rng):
    other = _random_frame(Grid(1, (1.0,), (33,), "dirichlet"), rng, 2)
    with pytest.raises(GridMismatchError):
        procrustes_align(box_eigs.modes.take(2), other)


# --- eigenbasis coefficients and the gap bound -------------------------------


def test_coefficients_identity_case(box_eigs):
    phi = box_eigs.modes.take(2)
    coeffs = coefficients(phi, box_eigs, 2)
    np.testing.assert_allclose(coeffs.entries, np.eye(2), atol=1e-10)
    np.testing.assert_allclose(coeffs.col_mass, [1.0, 1.0], atol=1e-10)
    np.testing.assert_allclose(coeffs.tail_mass, [0.0, 0.0], atol=1e-10)


def test_coefficients_rotation_keeps_column_masses(box_eigs, rng):
    rot = _haar_orthogonal(3, rng)
    coeffs = coefficients(_rotated(box_eigs.modes.take(3), rot), box_eigs, 3)
    np.testing.assert_allclose(coeffs.col_mass, np.ones(3), atol=1e-10)


def test_coefficients_full_depth_total_mass(small_box_H, small_box_full_eigs, rng):
    frame = _random_frame(small_box_H.grid, rng, 3)
    coeffs = coefficients(frame, small_box_full_eigs, 64)
    assert coeffs.col_mass.sum() == pytest.approx(3.0, abs=1e-10)
    assert np.abs(coeffs.tail_mass).max() <= 1e-10
    assert np.all(coeffs.col_mass <= 1.0 + 1e-10)
    assert np.all(coeffs.col_mass >= -1e-12)


def test_coefficients_partial_depth_mass_bounded(small_box_H, small_box_full_eigs, rng):
    # Bessel: captured mass can only grow toward N with the depth
    frame = _random_frame(small_box_H.grid, rng, 3)
    previous = 0.0
    for depth in (3, 6, 12, 64):
        coeffs = coefficients(frame, small_box_full_eigs, depth)
        total = float(coeffs.col_mass.sum())
        assert total <= 3.0 + 1e-10
        assert total >= previous - 1e-12
        assert np.all(coeffs.tail_mass >= -1e-10)
        previous = total


def test_coefficients_depth_validation(box_eigs):
    with pytest.raises(ValueError):
        coefficients(box_eigs.modes.take(2), box_eigs, 5)


def test_coefficients_grid_mismatch_raises(box_eigs, rng):
    other = _random_frame(Grid(1, (1.0,), (17,), "dirichlet"), rng, 2)
    with pytest.raises(GridMismatchError):
        coefficients(other, box_eigs, 2)


def test_gap_lower_bound_zero_at_eigenfunctions(box_eigs):
    coeffs = coefficients(box_eigs.modes.take(2), box_eigs, 3)
    assert gap_lower_bound(coeffs, box_eigs, 2) <= 1e-10


def test_gap_lower_bound_random_frames(box_H):
    max_slack, violations = gap_bound_suite(box_H, 2, cases=100, seed=0)
    assert violations == []
    assert max_slack <= 1e-8


def test_gap_lower_bound_degenerate_pair_contributes_nothing(periodic_H, periodic_eigs):
    # lambda_2 = lambda_3: replacing the second mode by the third eigenfunction
    # costs the bound nothing even though the frame is far from the target one
    frame = ModeSet(periodic_H.grid, periodic_eigs.modes.matrix[:, [0, 2]])
    coeffs = coefficients(frame, periodic_eigs, 3)
    bound = gap_lower_bound(coeffs, periodic_eigs, 2)
    assert bound <= 1e-6
    _, residual, _ = procrustes_align(frame, periodic_eigs.modes.take(2))
    assert residual >= 1.0 - 1e-6


def test_gap_lower_bound_needs_enough_pairs(box_eigs):
    coeffs = coefficients(box_eigs.modes.take(2), box_eigs, 4)
    with pytest.raises(ValueError):
        gap_lower_bound(coeffs, box_eigs, 4)


# --- column-mass draws --------------------------------------------------------


def test_column_mass_square_case_exact():
    for seed in range(5):
        assert column_mass_lemma_check(6, 6, seed) == pytest.approx(1.0, abs=1e-12)


def test_column_mass_single_row():
    for seed in range(5):
        assert column_mass_lemma_check(1, 17, seed) <= 1.0 + 1e-12


def test_column_mass_suite_holds():
    worst, violations = column_mass_suite(cases=300, seed=7)
    assert violations == []
    assert worst <= 1.0 + 1e-10


def test_column_mass_validation():
    with pytest.raises(ValueError):
        column_mass_lemma_check(5, 4, 0)
    with pytest.raises(ValueError):
        column_mass_suite(0, 0)


# --- localization -------------------------------------------------------------


def test_localization_flat_profile_width():
    g = Grid(1, (1.0,), (100,), "dirichlet")
    w = g.cell_volume
    m = 10
    values = np.zeros(100)
    values[40:50] = 1.0 / np.sqrt(m * w)
    width = localization(ModeSet(g, values[:, None]))[0]
    assert width == pytest.approx(m * w, rel=1e-12)


def test_localization_sine_width(box_eigs):
    width = localization(box_eigs.modes.take(1))[0]
    assert width == pytest.approx(2.0 / 3.0, rel=1e-2)


def test_localization_zero_mode_error(box_grid):
    with pytest.raises(ValueError):
        localization(ModeSet(box_grid, np.zeros((512, 1))))


def test_localization_compressed_vs_delocalized(multiwell_H, multiwell_eigs):
    from cmlab import solve_cm

    res = solve_cm(multiwell_H, L1, 4, SolverConfig(mu=10.0, max_iters=2000), eigs=multiwell_eigs)
    assert localization(res.modes).max() < localization(multiwell_eigs.modes.take(4)).min()


# --- the sweep -----------------------------------------------------------------


def test_mu_sweep_zero_regularizer_trivial(box_H):
    cfg = SolverConfig(mu=5.0, max_iters=400)
    report = mu_sweep(box_H, ZERO, 2, (5.0, 20.0, 80.0), cfg)
    assert not report["degenerate"]
    for r in report["records"]:
        assert abs(r["energy_gap"]) <= 1e-8
        assert r["procrustes_residual"] <= 1e-6
        assert r["converged"]
    assert report["verdicts"]["monotone_energy"] == "pass"


def test_mu_sweep_reference_record_invariants(reference_sweep):
    report = reference_sweep
    lam = np.asarray(report["eigenvalues"])
    for r in report["records"]:
        assert r["energy_gap"] >= -1e-8
        assert sum(r["nu"]) == pytest.approx(r["E"], abs=1e-10)
        assert r["E"] >= r["E0"] - 1e-8
        assert min(r["nu"]) >= lam[0] - 1e-8
        assert r["ortho_defect"] <= 1e-8


def test_mu_sweep_reference_caps(reference_sweep, box_eigs):
    cap_total = l1_total(box_eigs.modes.take(2))
    for r in reference_sweep["records"]:
        assert r["energy_gap"] <= cap_total / r["mu"] + 1e-8


def test_mu_sweep_degenerate_flagged(periodic_H):
    cfg = SolverConfig(mu=5.0, max_iters=300)
    report = mu_sweep(periodic_H, L1, 2, (5.0, 20.0), cfg)
    assert report["degenerate"]
    assert set(report["verdicts"].values()) == {"degenerate"}
    assert len(report["records"]) == 2


def test_mu_sweep_single_point_verdicts_na(box_H):
    cfg = SolverConfig(mu=5.0, max_iters=300)
    report = mu_sweep(box_H, ZERO, 2, (7.0,), cfg)
    assert report["verdicts"]["monotone_energy"] == "n/a"
    assert report["verdicts"]["l2_convergence"] == "n/a"
    assert len(report["records"]) == 1


def test_mu_sweep_schedule_validation(box_H):
    cfg = SolverConfig(mu=5.0, max_iters=10)
    with pytest.raises(ValueError):
        mu_sweep(box_H, ZERO, 2, (), cfg)
    with pytest.raises(ValueError):
        mu_sweep(box_H, ZERO, 2, (5.0, 5.0), cfg)
    with pytest.raises(ValueError):
        mu_sweep(box_H, ZERO, 2, (5.0, -1.0), cfg)


def test_default_gap_threshold_scales(box_eigs):
    thr = default_gap_threshold(box_eigs, 2)
    assert thr == pytest.approx(1e-6 * abs(box_eigs.eigenvalues[2]) + 1e-8, rel=1e-12)
