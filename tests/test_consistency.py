import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import ks_2samp

from cmlab import (
    AlignmentError,
    GridMismatchError,
    Grid,
    ModeSet,
    SolverConfig,
    coefficients,
    column_mass_case_sizes,
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
    reference_eigenpairs,
)
from cmlab.consistency import (
    COLUMN_MASS_CHUNK,
    COLUMN_MASS_MAX_COLS,
    COLUMN_MASS_MAX_ROWS,
    GAP_BOUND_CHUNK,
    _case_rng,
    _gap_bound_slacks,
    _haar_rows,
    _seeded_cases,
    default_gap_threshold,
)
from conftest import l1_total

L1 = make_regularizer("l1")
ZERO = make_regularizer("zero")


def _keyed(seed):
    """A fresh Generator on the Philox stream keyed by ``seed``: what case ``seed`` of a suite draws from."""
    return np.random.Generator(np.random.Philox(key=seed))


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
    rot = _haar_rows(3, 3, rng)
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
    planted = _haar_rows(3, 3, rng)
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
        rot = _haar_rows(2, 2, rng)
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


def _col_mass(coeffs):
    # the mass the frame captures from each eigenfunction
    return (coeffs**2).sum(axis=0)


def _tail_mass(coeffs):
    # each mode's mass beyond the expansion depth, from its unit norm
    return 1.0 - (coeffs**2).sum(axis=1)


def test_coefficients_identity_case(box_eigs):
    phi = box_eigs.modes.take(2)
    coeffs = coefficients(phi, box_eigs, 2)
    np.testing.assert_allclose(coeffs, np.eye(2), atol=1e-10)
    np.testing.assert_allclose(_col_mass(coeffs), [1.0, 1.0], atol=1e-10)
    np.testing.assert_allclose(_tail_mass(coeffs), [0.0, 0.0], atol=1e-10)


def test_coefficients_rotation_keeps_column_masses(box_eigs, rng):
    rot = _haar_rows(3, 3, rng)
    coeffs = coefficients(_rotated(box_eigs.modes.take(3), rot), box_eigs, 3)
    np.testing.assert_allclose(_col_mass(coeffs), np.ones(3), atol=1e-10)


def test_coefficients_full_depth_total_mass(small_box_H, small_box_full_eigs, rng):
    frame = _random_frame(small_box_H.grid, rng, 3)
    coeffs = coefficients(frame, small_box_full_eigs, 64)
    assert _col_mass(coeffs).sum() == pytest.approx(3.0, abs=1e-10)
    assert np.abs(_tail_mass(coeffs)).max() <= 1e-10
    assert np.all(_col_mass(coeffs) <= 1.0 + 1e-10)
    assert np.all(_col_mass(coeffs) >= -1e-12)


def test_coefficients_partial_depth_mass_bounded(small_box_H, small_box_full_eigs, rng):
    # Bessel: captured mass can only grow toward N with the depth
    frame = _random_frame(small_box_H.grid, rng, 3)
    previous = 0.0
    for depth in (3, 6, 12, 64):
        coeffs = coefficients(frame, small_box_full_eigs, depth)
        total = float(_col_mass(coeffs).sum())
        assert total <= 3.0 + 1e-10
        assert total >= previous - 1e-12
        assert np.all(_tail_mass(coeffs) >= -1e-10)
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


def test_gap_bound_suite_worst_and_violations_are_its_case_draws(box_H, monkeypatch):
    # the cases end 3 past a chunk boundary; each frame, formed and bounded
    # alone by the public per-frame functions, is its batch-of-one replay
    N, seed, cases = 2, 30, GAP_BOUND_CHUNK + 3
    K = 4 * N
    eigs = reference_eigenpairs(box_H, K)
    e0 = float(eigs.eigenvalues[:N].sum())
    slacks = {}
    for case_seed in range(seed, seed + cases):
        rot = _haar_rows(N, K, _keyed(case_seed))
        frame = ModeSet(box_H.grid, eigs.modes.matrix[:, :K] @ rot)
        bound = gap_lower_bound(coefficients(frame, eigs, K), eigs, N)
        slacks[case_seed] = bound - abs(float(mode_energies(box_H, frame).sum()) - e0)
        assert _gap_bound_slacks(box_H, eigs, N, [case_seed]).tolist() == [slacks[case_seed]]
    worst, violations = gap_bound_suite(box_H, N, cases, seed)
    assert worst == max(slacks.values())
    assert violations == []

    # a limit at the median slack makes every draw above it a violation
    cut = float(np.median(list(slacks.values())))
    monkeypatch.setattr("cmlab.consistency.GAP_BOUND_SLACK_LIMIT", cut)
    above = [s for s, slack in slacks.items() if slack > cut]
    assert 0 < len(above) < cases
    assert any(s >= seed + GAP_BOUND_CHUNK for s in above)
    assert gap_bound_suite(box_H, N, cases, seed)[1] == above


def test_gap_lower_bound_of_a_stack_is_each_frames_bound(box_eigs, rng):
    basis = box_eigs.modes.matrix[:, :4]
    frames = [ModeSet(box_eigs.modes.grid, basis @ _haar_rows(2, 4, rng)) for _ in range(5)]
    coeffs = np.stack([coefficients(f, box_eigs, 4) for f in frames])
    bounds = gap_lower_bound(coeffs, box_eigs, 2)
    assert bounds.shape == (5,)
    assert bounds.tolist() == [gap_lower_bound(c, box_eigs, 2) for c in coeffs]
    assert isinstance(gap_lower_bound(coeffs[0], box_eigs, 2), float)


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
    for n in range(1, COLUMN_MASS_MAX_ROWS + 1):
        for seed in range(5):
            masses = (_haar_rows(n, n, np.random.default_rng(seed)) ** 2).sum(axis=1)
            assert masses.shape == (n,)
            assert np.abs(masses - 1.0).max() <= 1e-14


@st.composite
def _column_mass_cases(draw):
    cols = draw(st.integers(1, COLUMN_MASS_MAX_COLS))
    rows = draw(st.integers(1, min(cols, COLUMN_MASS_MAX_ROWS)))
    return rows, cols, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_column_mass_cases())
@example((1, 1, 0))
@example((8, 8, 5))
@example((8, 64, 9))
def test_column_mass_matches_the_explicit_haar_rows(case):
    rows, cols, seed = case
    q, r = np.linalg.qr(_keyed(seed).standard_normal((rows, cols)).T)
    a = q * np.sign(np.diag(r))
    expected = float((a**2).sum(axis=1).max())
    assert abs(column_mass_lemma_check(rows, cols, seed) - expected) <= 1e-14


def _explicit_max_column_mass(rows, cols, rng):
    """Max column mass of the first ``rows`` rows of a sign-fixed Haar Q, formed whole."""
    q, r = np.linalg.qr(rng.standard_normal((cols, cols)))
    a = (q * np.sign(np.diag(r)))[:rows, :]
    return float((a**2).sum(axis=0).max())


@pytest.mark.parametrize("rows, cols", [(8, 64), (2, 8)])
def test_haar_rows_max_column_mass_has_the_law_of_the_explicit_draw(rows, cols):
    # two-sample Kolmogorov-Smirnov at alpha = 1e-3, from disjoint seeds
    draws = 2000
    thin = [column_mass_lemma_check(rows, cols, seed) for seed in range(draws)]
    explicit = [
        _explicit_max_column_mass(rows, cols, np.random.default_rng(seed))
        for seed in range(draws, 2 * draws)
    ]
    assert ks_2samp(thin, explicit).statistic < 1.95 * np.sqrt(2 / draws)


@pytest.mark.parametrize(
    "values, worst, violations",
    [([1.0, np.nan, 0.5], np.nan, [1]), ([np.nan, 1.0, 0.5], np.nan, [0]), ([0.5, 2.0, 1.0], 2.0, [1])],
)
def test_seeded_cases_nan_case_violates_and_is_the_worst(values, worst, violations):
    # chunks of two: the last case is checked in a chunk of its own
    stub = iter(values)
    batch = lambda seeds: np.array([next(stub) for _ in seeds])
    got_worst, got_violations = _seeded_cases(len(values), 0, batch, 1.0, 2)
    np.testing.assert_equal(got_worst, worst)
    assert got_violations == violations


def test_seeded_cases_hands_out_consecutive_chunks():
    seen = []
    values = lambda seeds: seen.append(seeds) or np.array([s - 5.0 for s in seeds])
    assert _seeded_cases(10, 5, values, 6.5, 4) == (9.0, [12, 13, 14])
    assert seen == [range(5, 9), range(9, 13), range(13, 15)]


def test_column_mass_suite_worst_and_violations_are_its_case_draws(monkeypatch):
    # the cases end 9 past a chunk boundary, so both chunks take all 8 row counts
    seed, cases = 40, COLUMN_MASS_CHUNK + 9
    assert {column_mass_case_sizes(s)[0] for s in range(seed + COLUMN_MASS_CHUNK, seed + cases)} == set(
        range(1, COLUMN_MASS_MAX_ROWS + 1)
    )
    masses = {}
    for case_seed in range(seed, seed + cases):
        rows, cols = column_mass_case_sizes(case_seed)
        masses[case_seed] = column_mass_lemma_check(rows, cols, case_seed)
        alone = float((_haar_rows(rows, cols, _keyed(case_seed)) ** 2).sum(axis=1).max())
        assert masses[case_seed] == alone
    worst, violations = column_mass_suite(cases, seed)
    assert worst == max(masses.values())
    assert violations == []

    # a tolerance of -0.5 makes every draw above mass 0.5 a violation
    monkeypatch.setattr("cmlab.consistency.COLUMN_MASS_TOL", -0.5)
    above = [s for s, mass in masses.items() if mass > 0.5]
    assert 0 < len(above) < cases
    assert any(s >= seed + COLUMN_MASS_CHUNK for s in above)
    assert column_mass_suite(cases, seed)[1] == above


def test_column_mass_case_sizes_cover_every_pair_evenly():
    max_rows, max_cols = COLUMN_MASS_MAX_ROWS, COLUMN_MASS_MAX_COLS
    windows = np.lib.stride_tricks.sliding_window_view
    for start in (0, 10, 2**31 - 5):
        rows, cols = np.array([column_mass_case_sizes(s) for s in range(start, start + 3199)]).T
        assert rows.min() >= 1 and rows.max() <= max_rows
        assert (cols >= rows).all() and cols.max() <= max_cols
        assert (np.sort(windows(rows, max_rows), axis=1) == np.arange(1, max_rows + 1)).all()

        # 2,500 cases (the longest CI run) take all 484 pairs, at the mean work
        # of independent uniform draws, E[rows * cols] = 156.75
        pairs = set(zip(rows[:2500].tolist(), cols[:2500].tolist()))
        assert len(pairs) == sum(max_cols - r + 1 for r in range(1, max_rows + 1)) == 484
        assert np.mean(rows[:2500] * cols[:2500]) == pytest.approx(156.75, rel=0.01)

        # every 200 cases (the shortest CI run) come near the widest matrix of
        # each rows value; these 3,000 windows take every phase of the schedule
        for r in range(1, max_rows + 1):
            widest = windows(np.where(rows == r, cols, 0), 200).max(axis=1)
            assert widest.min() >= r + 0.85 * (max_cols - r)


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


@pytest.mark.parametrize("seed", [0, 1, 2**31 - 5, 2**64 + 3, 2**128 - 1])
def test_case_rng_is_the_fresh_keyed_philox_stream(seed):
    # an odd count of 32-bit draws, then normals, leaves a half-used word and
    # buffered output behind: the re-key must drop both
    earlier = _case_rng(7)
    earlier.integers(2**32, size=3, dtype=np.uint32)
    earlier.standard_normal(5)
    left = earlier.bit_generator.state
    assert left["has_uint32"] == 1 and left["buffer_pos"] < 4
    got, fresh = _case_rng(seed), _keyed(seed)
    words = [rng.integers(2**32, size=5, dtype=np.uint32) for rng in (got, fresh)]
    np.testing.assert_array_equal(*words)
    np.testing.assert_array_equal(got.standard_normal(64), fresh.standard_normal(64))
    np.testing.assert_array_equal(got.random(7), fresh.random(7))


def test_case_seeds_are_philox_keys_never_wrapped():
    for seed in (-1, 2**128, 2**128 + 3):
        with pytest.raises(ValueError, match="2\\*\\*128"):
            column_mass_lemma_check(2, 8, seed)
    with pytest.raises(ValueError):
        column_mass_suite(2, 2**128 - 1)
    # the high key word counts: seed 2^64 + 3 is not case 3
    assert column_mass_lemma_check(2, 8, 2**64 + 3) != column_mass_lemma_check(2, 8, 3)
    assert column_mass_lemma_check(2, 8, np.int64(3)) == column_mass_lemma_check(2, 8, 3)


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
