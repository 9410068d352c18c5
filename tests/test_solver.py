import dataclasses
import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from cmlab import (
    Grid,
    GridMismatchError,
    HamiltonianOperator,
    ModeSet,
    RankDeficientError,
    SolverConfig,
    harmonic_well,
    localization,
    make_regularizer,
    mode_energies,
    mu_sweep,
    objective,
    orthonormal_columns,
    procrustes_align,
    reference_eigenpairs,
    solve_cm,
    solve_sweep,
)
from cmlab import consistency, solver
from cmlab.cli import build_operator, build_solver_config, load_config
from cmlab.solver import (
    LIMIT_ORDER_TOL,
    IndefinitePenaltyError,
    ShrinkStepError,
    StartRun,
    _aligned,
    _build_shifted_solver,
    _lockstep,
    _pair_angle,
    _splitting_run,
    _start_matrix,
    default_penalty,
    limit_distance,
    limit_frame,
    rotation_polish,
    warm_start,
)
from conftest import config_path, l1_total

L1 = make_regularizer("l1")
ZERO = make_regularizer("zero")


# --- mode sets and the orthonormal projection ------------------------------


def test_modeset_shape_validation():
    g = Grid(1, (1.0,), (16,), "dirichlet")
    with pytest.raises(ValueError):
        ModeSet(g, np.zeros((15, 2)))


def test_modeset_take_and_columns(box_eigs):
    two = box_eigs.modes.take(2)
    assert two.count == 2
    np.testing.assert_array_equal(two.matrix, box_eigs.modes.matrix[:, :2])
    with pytest.raises(ValueError):
        box_eigs.modes.take(9)


def _orthonormal_frame(grid: Grid, raw: np.ndarray) -> ModeSet:
    return ModeSet(grid, orthonormal_columns(raw, grid.cell_volume))


def test_orthonormalize_leaves_orthonormal_frames_alone(box_eigs):
    frame = box_eigs.modes.take(3)
    out = _orthonormal_frame(frame.grid, frame.matrix)
    assert np.abs(out.matrix - frame.matrix).max() <= 1e-12


def test_orthonormalize_discards_scaling(box_eigs):
    frame = box_eigs.modes.take(2)
    out = _orthonormal_frame(frame.grid, 2.0 * frame.matrix)
    assert np.abs(out.matrix - frame.matrix).max() <= 1e-12


def test_orthonormalize_random_stack_gram_and_span(rng):
    g = Grid(1, (1.0,), (96,), "dirichlet")
    raw = rng.standard_normal((96, 4))
    out = _orthonormal_frame(g, raw)
    assert out.ortho_defect <= 1e-10
    # same subspace: principal angles between spans vanish
    angles = scipy.linalg.subspace_angles(raw, out.matrix)
    assert np.max(angles) <= 1e-10


def test_orthonormalize_rank_deficient_raises():
    g = Grid(1, (1.0,), (32,), "dirichlet")
    col = np.ones((32, 1))
    with pytest.raises(RankDeficientError):
        _orthonormal_frame(g, np.hstack([col, col]))


def test_orthonormalize_rejects_non_finite_frames(rng):
    frames = rng.standard_normal((3, 40, 2))
    for bad in (np.nan, np.inf, -np.inf):
        broken = frames.copy()
        broken[1, 7, 0] = bad
        for x in (broken, broken[1], np.ascontiguousarray(broken.mT).mT):
            with pytest.raises(ValueError, match="non-finite"):
                orthonormal_columns(x, 0.1)


@st.composite
def _frames(draw):
    """A frame, or a stack of frames, each with its own singular-value ratio up to 1e5."""
    n = draw(st.integers(2, 200))
    N = draw(st.integers(1, min(5, n)))
    count = draw(st.sampled_from([None, 1, 2, 3, 4]))  # None: one frame, not a stack
    w = draw(st.floats(1e-3, 10.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    frames, ratios = [], []
    for _ in range(count or 1):
        # half the draws near the second-pass threshold, ratio^2 = 1e3
        ratio = 10.0 ** draw(st.floats(0.0, 5.0) | st.floats(1.0, 2.0))
        u, _ = np.linalg.qr(rng.standard_normal((n, N)))
        v, _ = np.linalg.qr(rng.standard_normal((N, N)))
        # sqrt(w) X has singular values from 1 to ratio
        frames.append((u * np.geomspace(1.0, ratio, N)) @ v.T / np.sqrt(w))
        ratios.append(ratio if N > 1 else 1.0)
    stack = np.stack(frames)
    if draw(st.booleans()):
        stack = np.ascontiguousarray(stack.mT).mT  # one mode per row, as the solver stores them
    return (stack[0] if count is None else stack), np.array(ratios), w


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_frames())
def test_orthonormal_columns_is_the_polar_factor(case):
    x, ratios, w = case
    out = orthonormal_columns(x, w)
    frames, outs = (x[None], out[None]) if x.ndim == 2 else (x, out)
    N = x.shape[-1]
    for frame, result, ratio in zip(frames, outs, ratios):
        u, _, vt = np.linalg.svd(np.sqrt(w) * frame, full_matrices=False)
        # the Gram matrix squares the condition number: the forward error
        # grows like eps * cond(G) = eps * ratio^2
        tol = 8 * N * np.finfo(float).eps * ratio**2
        assert np.abs(np.sqrt(w) * result - u @ vt).max() <= tol
        assert np.abs(w * (result.T @ result) - np.eye(N)).max() <= 1e-12
    if x.ndim == 3:
        for frame, result in zip(x, out):
            np.testing.assert_array_equal(orthonormal_columns(frame, w), result)
    broken = frames[0].copy()
    if N > 1:
        broken[:, -1] = broken[:, 0]
    else:
        broken[:] = 0.0
    with pytest.raises(RankDeficientError):
        orthonormal_columns(broken, w)
    with pytest.raises(RankDeficientError):
        orthonormal_columns(np.stack([frames[-1], broken]), w)


# --- objective --------------------------------------------------------------


def test_objective_zero_regularizer_is_eigen_energy(box_H, box_eigs):
    phi = box_eigs.modes.take(3)
    e0 = box_eigs.eigenvalues[:3].sum()
    assert objective(box_H, ZERO, 7.0, phi) == pytest.approx(e0, abs=1e-8)


def test_objective_l1_single_mode_analytic(box_H, box_eigs):
    phi1 = box_eigs.modes.take(1)
    val = objective(box_H, L1, 10.0, phi1)
    exact = mode_energies(box_H, phi1).sum() + l1_total(phi1) / 10.0
    assert val == pytest.approx(exact, rel=1e-12)
    assert val == pytest.approx(box_eigs.eigenvalues[0] + l1_total(phi1) / 10.0, abs=1e-8)
    # analytic: pi^2/2 + (1/10) * 2*sqrt(2)/pi
    assert val == pytest.approx(np.pi**2 / 2 + 0.2 * np.sqrt(2) / np.pi, rel=1e-3)


def test_objective_approaches_energy_as_mu_grows(box_H, box_eigs):
    phi = box_eigs.modes.take(2)
    energy = mode_energies(box_H, phi).sum()
    prev = None
    for mu in (1.0, 10.0, 100.0, 1e6):
        val = objective(box_H, L1, mu, phi)
        assert val >= energy
        if prev is not None:
            assert val <= prev
        prev = val
    assert prev == pytest.approx(energy, rel=1e-6)


def test_objective_grid_mismatch(box_H):
    other = Grid(1, (1.0,), (100,), "dirichlet")
    frame = _orthonormal_frame(other, np.random.default_rng(0).standard_normal((100, 2)))
    with pytest.raises(GridMismatchError):
        objective(box_H, L1, 1.0, frame)


@pytest.mark.parametrize("mu", [0.0, -1.0, math.nan, math.inf])
def test_objective_rejects_a_mu_that_is_not_positive_and_finite(box_H, box_eigs, mu):
    with pytest.raises(ValueError, match="mu must be positive and finite"):
        objective(box_H, L1, mu, box_eigs.modes.take(2))


# --- rotation polish ----------------------------------------------------------


def _turned_l1(x, y, theta):
    """sum_i |x_i'| + |y_i'| of the pair (x, y) turned by ``theta``, rotated directly."""
    c, s = np.cos(theta), np.sin(theta)
    return float(np.abs(c * x + s * y).sum() + np.abs(c * y - s * x).sum())


# the 60 angles of the grid search that the closed form replaced
GRID_ANGLES = np.linspace(0.0, np.pi / 2, 61)[:-1]


@st.composite
def _pairs(draw):
    """A column pair with zero rows, rows of tied angle mod pi/2 and rows at the pi/2 wrap."""
    kind = st.sampled_from(["free", "zero", "axis", "wrap", "tie"])
    kinds = draw(st.lists(kind, min_size=1, max_size=40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    angles = []
    for kind in kinds:
        quarter = rng.integers(-2, 3) * np.pi / 2
        if kind == "axis":
            angles.append(quarter)
        elif kind == "wrap":  # just either side of an axis: a breakpoint near 0 or near pi/2
            angles.append(quarter + rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-17, -6))
        elif kind == "tie" and angles:  # an earlier row's breakpoint, in any quadrant
            angles.append(angles[rng.integers(len(angles))] + quarter)
        else:
            angles.append(rng.uniform(-np.pi, np.pi))
    radii = rng.exponential(size=len(kinds)) * [kind != "zero" for kind in kinds]
    return radii * np.cos(angles), radii * np.sin(angles)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_pairs())
def test_exact_pair_angle_never_loses_to_the_angle_grid(pair):
    x, y = pair
    theta, cost = _pair_angle(x, y)
    assert 0.0 <= theta <= np.pi / 2
    exact = _turned_l1(x, y, theta)
    assert cost == pytest.approx(exact, rel=1e-12, abs=1e-12)
    for t in GRID_ANGLES:
        assert exact <= _turned_l1(x, y, t) * (1.0 + 1e-12)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    n=st.integers(2, 80),
    N=st.integers(2, 5),
    w=st.floats(1e-3, 10.0),
    seed=st.integers(0, 2**32 - 1),
    localized=st.booleans(),
)
def test_rotation_polish_lowers_l1_within_the_span(n, N, w, seed, localized):
    N = min(N, n)
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((n, N))
    if localized:  # a near-sparse frame mixed by a random rotation: much to recover
        raw = np.eye(n, N) + 1e-3 * raw
        raw = raw @ np.linalg.qr(rng.standard_normal((N, N)))[0]
    frame = orthonormal_columns(raw, w)
    before = frame.copy()
    out = rotation_polish(frame, w, L1)
    np.testing.assert_array_equal(frame, before)
    assert L1.evaluate_columns(out, w).sum() <= L1.evaluate_columns(frame, w).sum()
    assert np.abs(w * (out.T @ out) - np.eye(N)).max() <= 1e-12
    assert scipy.linalg.subspace_angles(frame, out).max() <= 1e-10
    np.testing.assert_array_equal(rotation_polish(frame, w, ZERO), frame)
    np.testing.assert_array_equal(rotation_polish(frame[:, :1], w, L1), frame[:, :1])


def test_rotation_polish_localizes_box_eigenfunctions(box_H, box_eigs):
    w = box_H.grid.cell_volume
    frame = box_eigs.modes.matrix[:, :4]
    out = rotation_polish(frame, w, L1)
    assert L1.evaluate_columns(out, w).sum() < 0.9 * L1.evaluate_columns(frame, w).sum()
    assert scipy.linalg.subspace_angles(frame, out).max() <= 1e-10


# --- solve_cm ---------------------------------------------------------------


def test_zero_regularizer_reproduces_eigenfunctions(box_H, box_eigs):
    cfg = SolverConfig(mu=3.0, max_iters=500)
    res = solve_cm(box_H, ZERO, 2, cfg, eigs=box_eigs)
    e0 = box_eigs.eigenvalues[:2].sum()
    assert res.objective == pytest.approx(e0, abs=1e-8)
    assert res.converged
    _, residual, _ = procrustes_align(res.modes, box_eigs.modes.take(2))
    assert residual <= 1e-6


def test_l1_objective_bracket_mu100(box_H, box_eigs):
    cfg = SolverConfig(mu=100.0, max_iters=1200)
    res = solve_cm(box_H, L1, 3, cfg, eigs=box_eigs)
    e0 = box_eigs.eigenvalues[:3].sum()
    cap = l1_total(box_eigs.modes.take(3)) / 100.0
    assert e0 - 1e-8 <= res.objective <= e0 + cap + 1e-8


def test_feasibility_and_best_of_starts_bound(box_H, box_eigs):
    cfg = SolverConfig(mu=5.0, max_iters=1200)
    res = solve_cm(box_H, L1, 2, cfg, eigs=box_eigs)
    assert res.modes.ortho_defect <= 1e-8
    phi = box_eigs.modes.take(2)
    assert res.objective <= objective(box_H, L1, 5.0, phi) + 1e-8


def test_energy_sandwich(box_H, box_eigs):
    cfg = SolverConfig(mu=20.0, max_iters=1200)
    res = solve_cm(box_H, L1, 2, cfg, eigs=box_eigs)
    energy = mode_energies(box_H, res.modes).sum()
    e0 = box_eigs.eigenvalues[:2].sum()
    assert energy >= e0 - 1e-8
    assert energy <= res.objective + 1e-12


def test_objective_recomputation_matches(box_H, box_eigs):
    cfg = SolverConfig(mu=40.0, max_iters=1200)
    res = solve_cm(box_H, L1, 2, cfg, eigs=box_eigs)
    assert res.objective == pytest.approx(objective(box_H, L1, 40.0, res.modes), abs=1e-10)


def test_solver_is_deterministic(box_H, box_eigs):
    cfg = SolverConfig(mu=15.0, max_iters=400)
    a = solve_cm(box_H, L1, 2, cfg, eigs=box_eigs, trace=True)
    b = solve_cm(box_H, L1, 2, cfg, eigs=box_eigs, trace=True)
    np.testing.assert_array_equal(a.modes.matrix, b.modes.matrix)
    assert a.objective == b.objective
    assert a.trace == b.trace


def test_non_convergence_reported_not_raised(box_H, box_eigs):
    cfg = SolverConfig(mu=5.0, max_iters=1, starts=("random:3",))
    res = solve_cm(box_H, L1, 2, cfg, eigs=box_eigs)
    assert not res.converged
    assert res.iterations == 1
    assert res.modes.ortho_defect <= 1e-8


def test_trace_records_objective_and_defect(box_H, box_eigs):
    cfg = SolverConfig(mu=10.0, max_iters=50, starts=("eigen",))
    res = solve_cm(box_H, L1, 2, cfg, eigs=box_eigs, trace=True)
    assert len(res.trace) == res.iterations
    objs = [t[0] for t in res.trace]
    defects = [t[1] for t in res.trace]
    assert min(objs) >= res.objective - 1e-10
    assert all(d >= 0 for d in defects)


def test_tracing_changes_only_the_trace(box_H, box_eigs):
    # an untraced solve is the traced one less its trace arrays, which are
    # empty; the eigen start converges, the random ones cap
    cfg = SolverConfig(mu=5.0, max_iters=100)
    traced = solve_cm(box_H, L1, 2, cfg, eigs=box_eigs, trace=True)
    untraced = solve_cm(box_H, L1, 2, cfg, eigs=box_eigs)
    assert (untraced.labels, untraced.winner) == (traced.labels, traced.winner)
    assert untraced.trace == () and len(traced.trace) == traced.iterations
    empty = np.empty(0)
    for run, full in zip(untraced.runs, traced.runs, strict=True):
        assert len(full.objectives) == len(full.defects) == full.iterations
        _assert_runs_equal(run, replace(full, objectives=empty, defects=empty))


def test_mu_sweep_runs_untraced(monkeypatch, small_box_H):
    # the sweep report reads no trace, so its solves build none
    sweeps, solve_sweep = [], consistency.solve_sweep

    def recorded(*args, **kwargs):
        sweeps.append(solve_sweep(*args, **kwargs))
        return sweeps[-1]

    monkeypatch.setattr(consistency, "solve_sweep", recorded)
    mu_sweep(small_box_H, L1, 2, [5.0, 10.0], SolverConfig(mu=5.0, max_iters=300))
    (results,) = sweeps
    assert [len(result.runs) for result in results] == [3, 4]
    for run in (run for result in results for run in result.runs):
        assert run.iterations > 0 and run.objectives.size == run.defects.size == 0


def test_stop_rule_reads_the_objective_only_once_a_streak_is_long_enough(box_H, box_eigs):
    # the eigen start at mu = 5 on the reference box converges at iteration
    # 43, where its streak first reaches STREAK_REQUIRED: a cap there stops it
    # converged, a cap one iteration earlier stops it unconverged
    for cap, converged in ((43, True), (42, False)):
        cfg = SolverConfig(mu=5.0, max_iters=cap, starts=("eigen",))
        res = solve_cm(box_H, L1, 2, cfg, eigs=box_eigs)
        assert (res.iterations, res.converged) == (cap, converged)


def test_multiwell_modes_localize(multiwell_H, multiwell_eigs):
    cfg = SolverConfig(mu=10.0, max_iters=2000)
    res = solve_cm(multiwell_H, L1, 4, cfg, eigs=multiwell_eigs)
    cm_widths = localization(res.modes)
    eig_widths = localization(multiwell_eigs.modes.take(4))
    assert cm_widths.max() < eig_widths.min()
    # one mode per well
    coords = multiwell_H.grid.coordinates()[:, 0]
    centers = []
    for i in range(4):
        density = res.modes.matrix[:, i] ** 2
        centers.append(float((coords * density).sum() / density.sum()))
    wells = [8.0, 16.0, 24.0, 32.0]
    matched = {min(range(4), key=lambda k: abs(c - wells[k])) for c in centers}
    assert matched == {0, 1, 2, 3}


def test_warm_start_config_and_run(box_H, box_eigs):
    cfg = SolverConfig(mu=10.0, max_iters=800, starts=("eigen",))
    first = solve_cm(box_H, L1, 2, cfg, eigs=box_eigs)
    warm_cfg = SolverConfig(mu=20.0, max_iters=800, starts=("eigen", first.modes))
    second = solve_cm(box_H, L1, 2, warm_cfg, eigs=box_eigs)
    assert second.labels == ("eigen", "warm")
    assert second.converged
    assert second.objective <= objective(box_H, L1, 20.0, first.modes) + 1e-8


def test_warm_start_validation(box_H, box_eigs):
    other = Grid(1, (1.0,), (100,), "dirichlet")
    frame = _orthonormal_frame(other, np.random.default_rng(0).standard_normal((100, 2)))
    cfg = SolverConfig(mu=5.0, max_iters=10, starts=(frame,))
    with pytest.raises(GridMismatchError):
        solve_cm(box_H, L1, 2, cfg, eigs=box_eigs)


def test_rank_collapse_raises(box_H, box_eigs):
    col = np.ones((512, 1))
    bad = ModeSet(box_H.grid, np.hstack([col, col]))
    cfg = SolverConfig(mu=5.0, max_iters=10, starts=(bad,))
    with pytest.raises(RankDeficientError):
        solve_cm(box_H, L1, 2, cfg, eigs=box_eigs)


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(mu=0.0)
    with pytest.raises(ValueError):
        SolverConfig(mu=1.0, penalty=-1.0)
    with pytest.raises(ValueError):
        SolverConfig(mu=1.0, max_iters=0)
    with pytest.raises(ValueError):
        SolverConfig(mu=1.0, tol=0.0)
    with pytest.raises(ValueError):
        SolverConfig(mu=1.0, starts=())
    # non-finite numbers, which would otherwise run every start to the cap
    # (tol) or fail inside the run, after the eigensolve (mu, penalty)
    for field in ("mu", "penalty", "tol"):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=f"{field} must be positive and finite"):
                SolverConfig(**{"mu": 1.0, field: bad})
    # an iteration cap is an integer: not a float, even a whole one, nor a bool
    for bad in (100.0, True, False, "100", None, np.float64(5.0)):
        with pytest.raises(ValueError, match="max_iters must be an integer >= 1"):
            SolverConfig(mu=1.0, max_iters=bad)
    for count in (np.int64(5), np.uint8(5)):
        cap = SolverConfig(mu=1.0, max_iters=count).max_iters
        assert cap == 5 and type(cap) is int
    # the one statement of the start syntax: the config parser reports the same text
    for start in ("random:-1", "warm", 3, "random:", "eigen "):
        for starts in ((start,), ("eigen", start)):
            with pytest.raises(ValueError) as info:
                SolverConfig(mu=1.0, starts=starts)
            assert str(info.value) == (
                f"bad start spec {start!r}; expected 'eigen' or 'random:<seed>' with seed >= 0"
            )


def test_indefinite_penalty_raises(multiwell_H, multiwell_eigs):
    lam_min = float(multiwell_eigs.eigenvalues[0])
    assert lam_min < -0.1
    # with reference eigenpairs at hand, and with none (an N-pair eigensolve)
    for starts, eigs in ((("eigen",), multiwell_eigs), (("random:1",), None)):
        cfg = SolverConfig(mu=10.0, penalty=0.1, max_iters=5, starts=starts)
        with pytest.raises(IndefinitePenaltyError, match="indefinite"):
            solve_cm(multiwell_H, L1, 4, cfg, eigs=eigs)
    cfg = SolverConfig(mu=10.0, penalty=0.5 - lam_min, max_iters=5, starts=("random:1",))
    assert solve_cm(multiwell_H, L1, 4, cfg).modes.ortho_defect <= 1e-8


def test_start_labels_and_winner(box_H, box_eigs):
    cfg = SolverConfig(mu=10.0, max_iters=300)
    res = solve_cm(box_H, L1, 2, cfg, eigs=box_eigs)
    assert res.labels == ("eigen", "random:1", "random:2")
    assert res.winner_start in res.labels
    assert len(res.runs) == 3
    assert res.objective == pytest.approx(min(run.best_objective for run in res.runs), abs=1e-10)


def test_starts_match_solo_runs(box_H, box_eigs):
    # each start's run is independent of the others: a multi-start solve
    # reports, per start, exactly what that start gives when run alone
    cfg = SolverConfig(mu=10.0, max_iters=200)
    together = solve_cm(box_H, L1, 2, cfg, eigs=box_eigs, trace=True)
    assert len(cfg.starts) == 3
    for start, run in zip(cfg.starts, together.runs, strict=True):
        solo = solve_cm(box_H, L1, 2, replace(cfg, starts=(start,)), eigs=box_eigs, trace=True)
        assert len(solo.runs) == 1
        _assert_runs_equal(solo.runs[0], run)
        if start == together.winner_start:
            np.testing.assert_array_equal(solo.modes.matrix, together.modes.matrix)


def test_solve_2d_box_bracket():
    g = Grid(2, (1.0, 1.0), (16, 16), "dirichlet")
    H = HamiltonianOperator(g)
    eigs = reference_eigenpairs(H, 3)
    cfg = SolverConfig(mu=50.0, max_iters=800)
    res = solve_cm(H, L1, 3, cfg, eigs=eigs)
    assert res.modes.ortho_defect <= 1e-8
    e0 = eigs.eigenvalues[:3].sum()
    cap = l1_total(eigs.modes.take(3)) / 50.0
    assert e0 - 1e-8 <= res.objective <= e0 + cap + 1e-8


def test_huge_mu_or_penalty_raises_shrink_step_error(box_H, box_eigs):
    for cfg in (
        SolverConfig(mu=1e308, max_iters=5),
        SolverConfig(mu=5.0, penalty=1e308, max_iters=5),
        SolverConfig(mu=1e-200, penalty=1e-200, max_iters=5, starts=("random:1",)),
    ):
        with pytest.raises(ShrinkStepError, match="shrinkage step"):
            solve_cm(box_H, L1, 2, cfg, eigs=box_eigs)


def test_start_record_eigen_converges_randoms_cap(box_H, box_eigs):
    cfg = SolverConfig(mu=5.0, max_iters=100)
    res = solve_cm(box_H, L1, 2, cfg, eigs=box_eigs)
    assert res.labels == ("eigen", "random:1", "random:2")
    assert [run.converged for run in res.runs] == [True, False, False]
    assert [run.iterations for run in res.runs[1:]] == [100, 100]
    assert res.runs[0].iterations == res.iterations < 100
    assert res.winner_start == "eigen"
    for start, run in zip(cfg.starts, res.runs, strict=True):
        solo = solve_cm(box_H, L1, 2, replace(cfg, starts=(start,)), eigs=box_eigs)
        assert (solo.iterations, solo.converged) == (run.iterations, run.converged)


# --- the shifted solve: a tridiagonal factor where the matrix allows one ----------


def _superlu_solve(H, penalty, rhs):
    shifted = H.matrix + penalty * scipy.sparse.eye_array(H.node_count)
    return scipy.sparse.linalg.splu(scipy.sparse.csc_array(shifted)).solve(rhs)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    n=st.integers(2, 64),
    omega=st.one_of(st.none(), st.floats(1.0, 30.0)),
    margin=st.floats(-2.0, 3.0),
    k=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
)
def test_tridiagonal_shifted_solve_matches_superlu(n, omega, margin, k, seed):
    grid = Grid(1, (1.0,), (n,), "dirichlet")
    H = HamiltonianOperator(grid, None if omega is None else harmonic_well(grid, omega=omega))
    spectrum = np.linalg.eigvalsh(H.materialize_dense())
    penalty = -spectrum[0] + 10.0**margin  # H + penalty I is positive definite
    rhs = np.random.default_rng(seed).standard_normal((n, k))
    x = _build_shifted_solver(H, penalty)(rhs.copy(order="F"))  # solved in place
    norm = spectrum[-1] + penalty  # the 2-norm of H + penalty I
    residual = H.apply_array(x) + penalty * x - rhs
    assert np.linalg.norm(residual) <= 1e-12 * (norm * np.linalg.norm(x) + np.linalg.norm(rhs))
    condition = norm / (spectrum[0] + penalty)
    reference = _superlu_solve(H, penalty, rhs)
    assert np.abs(x - reference).max() <= 1e-13 * condition * np.abs(reference).max()


def test_tridiagonal_factor_follows_the_matrix_structure():
    # the tridiagonal factor solves an F-ordered right-hand side in place;
    # SuperLU returns a new array
    boxes = [(Grid(1, (1.0,), (40,), "dirichlet"), True), (Grid(1, (1.0,), (2,), "periodic"), True)]
    boxes += [(Grid(1, (1.0,), (points,), "periodic"), False) for points in (3, 4, 40)]
    boxes += [(Grid(2, (1.0, 1.0), (2, 3), boundary), False) for boundary in ("dirichlet", "periodic")]
    for grid, tridiagonal in boxes:
        H = HamiltonianOperator(grid, harmonic_well(grid, omega=3.0))
        rhs = np.random.default_rng(5).standard_normal((grid.node_count, 3))
        solved = rhs.copy(order="F")
        x = _build_shifted_solver(H, 2.0)(solved)
        assert np.shares_memory(x, solved) == tridiagonal
        reference = _superlu_solve(H, 2.0, rhs)
        assert np.abs(x - reference).max() <= 1e-12 * np.abs(reference).max()


def test_tridiagonal_factor_of_an_indefinite_shift_raises(box_H, box_eigs):
    penalty = -2.0 * float(box_eigs.eigenvalues[0])
    with pytest.raises(IndefinitePenaltyError, match=f"penalty {penalty:g} "):
        _build_shifted_solver(box_H, penalty)


# --- lockstep engine: every start of a block runs as it would alone ------------


@st.composite
def _lockstep_cases(draw):
    dim = draw(st.sampled_from([1, 2]))
    points = tuple(draw(st.integers(6, 40) if dim == 1 else st.integers(3, 7)) for _ in range(dim))
    boundary = draw(st.sampled_from(["dirichlet", "periodic"]))
    grid = Grid(dim, (1.0,) * dim, points, boundary)
    if draw(st.booleans()):
        potential = None
    else:
        potential = harmonic_well(grid, omega=draw(st.floats(1.0, 30.0)), center=(0.5,) * dim)
    N = draw(st.integers(1, min(3, grid.node_count - 1)))
    start = st.one_of(st.just("eigen"), st.integers(0, 3).map("random:{}".format))
    starts = tuple(draw(st.lists(start, min_size=3, max_size=4)))
    cfg = SolverConfig(
        mu=draw(st.floats(0.5, 200.0)),
        # enough for one start to leave while others run, and for two to
        # eight drift checks, one every 25 iterations
        max_iters=draw(st.integers(60, 200)),
        starts=starts,
    )
    J = draw(st.sampled_from([L1, ZERO]))
    return HamiltonianOperator(grid, potential), J, N, cfg


def _solo(H, J, cfg, start, solve):
    """The run of one (frame, mu, penalty) start alone: ``_splitting_run``, the form the tracer wraps."""
    frame, mu, penalty = start
    return _splitting_run(H, J, replace(cfg, mu=mu), penalty, solve, H.grid.cell_volume, frame)


def _assert_runs_equal(run, other):
    """Every field of two ``StartRun`` records equal, bit for bit: ``==`` for scalars, arrays entry by entry."""
    for field in dataclasses.fields(StartRun):
        value, expected = getattr(run, field.name), getattr(other, field.name)
        if isinstance(value, np.ndarray):
            np.testing.assert_array_equal(value, expected, strict=True, err_msg=field.name)
        else:
            assert value == expected, field.name


def _assert_results_equal(result, other):
    """Two ``SolverResult``s equal, bit for bit: labels, winner, frame and every run."""
    assert (result.labels, result.winner) == (other.labels, other.winner)
    np.testing.assert_array_equal(result.modes.matrix, other.modes.matrix, strict=True)
    assert len(result.runs) == len(other.runs)
    for run, again in zip(result.runs, other.runs):
        _assert_runs_equal(run, again)


def _lockstep_matches_solo_runs(H, J, cfg, starts):
    """The runs of one block of ``starts``.

    Each (frame, mu, penalty) start's run must be bitwise its solo run.
    """
    solvers = {r: _build_shifted_solver(H, r) for _, _, r in starts}
    runs = _lockstep(H, J, H.grid.cell_volume, starts, solvers, cfg.max_iters, cfg.tol, True)
    assert len(runs) == len(starts)
    for run, start in zip(runs, starts):
        _assert_runs_equal(run, _solo(H, J, cfg, start, solvers[start[2]]))
    return runs


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_lockstep_cases(), st.data())
def test_lockstep_runs_match_solo_runs(case, data):
    H, J, N, cfg = case
    eigs = reference_eigenpairs(H, N)
    # fixed, so that solve_cm below runs with the same one
    penalty = default_penalty(cfg.mu, float(eigs.eigenvalues[N - 1])) - 2.0 * min(eigs.eigenvalues[0], 0.0)
    cfg = replace(cfg, penalty=penalty)
    w = H.grid.cell_volume
    x0 = [rotation_polish(_start_matrix(s, H, N, eigs), w, J) for s in cfg.starts]
    # one to three multiples of the default penalty, taken by the starts in
    # turn, so that the block must group interleaved penalties; and a distinct
    # mu per start, so that a slab that took another's mu shows
    factors = data.draw(st.permutations([1.0, 2.0, 0.5]), label="factors")[: data.draw(st.integers(1, 3))]
    mus = [cfg.mu * f for f in data.draw(st.permutations([1.0, 3.0, 0.3, 10.0]), label="mu factors")]
    starts = [(x, mus[i], penalty * factors[i % len(factors)]) for i, x in enumerate(x0)]
    runs = _lockstep_matches_solo_runs(H, J, cfg, starts)

    # each start's run at the configured mu and the default penalty, which
    # solve_cm gives them all
    solve = _build_shifted_solver(H, penalty)
    at_default = [
        run if (m, r) == (cfg.mu, penalty) else _solo(H, J, cfg, (x, cfg.mu, penalty), solve)
        for run, (x, m, r) in zip(runs, starts)
    ]
    res = solve_cm(H, J, N, cfg, eigs=eigs, trace=True)
    assert len(res.runs) == len(at_default)
    for run, expected in zip(res.runs, at_default):
        _assert_runs_equal(run, expected)
    assert res.objective == min(run.best_objective for run in res.runs)
    assert res.modes.ortho_defect <= 1e-8
    if "eigen" in cfg.starts:
        eigen = objective(H, J, cfg.mu, eigs.modes.take(N))
        assert res.objective <= eigen + 1e-12 * max(1.0, abs(eigen))
    _assert_results_equal(solve_cm(H, J, N, cfg, eigs=eigs, trace=True), res)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("boundary", ["dirichlet", "periodic"])
def test_lockstep_groups_interleaved_penalties_at_block_build(dim, boundary):
    # three penalties over five starts, given interleaved: the block keeps
    # their order, makes one solve per run of adjacent equal penalties and
    # iteration, and returns the runs in the order of the starts; the eigen
    # start converges first and leaves while the others run
    # (an oblong 2D box, so that the eigen frame's span is not degenerate)
    grid = Grid(dim, (1.0, 1.4)[:dim], (24,) if dim == 1 else (5, 7), boundary)
    H = HamiltonianOperator(grid, harmonic_well(grid, omega=10.0, center=(0.5, 0.7)[:dim]))
    eigs = reference_eigenpairs(H, 2)
    cfg = SolverConfig(mu=80.0, max_iters=120)
    penalty = default_penalty(cfg.mu, float(eigs.eigenvalues[1]))
    names = ("eigen", "random:1", "random:2", "random:3", "random:4")
    x0 = [_start_matrix(s, H, 2, eigs) for s in names]
    penalties = [penalty * f for f in (1.0, 2.0, 0.5, 2.0, 0.5)]
    starts = [(x, cfg.mu, r) for x, r in zip(x0, penalties)]
    runs = _lockstep_matches_solo_runs(H, L1, cfg, starts)
    assert runs[0].converged and runs[0].iterations < min(run.iterations for run in runs[1:])

    calls = []

    def counted(r):
        solve = _build_shifted_solver(H, r)

        def call(rhs):
            calls.append((r, rhs.shape[1]))
            return solve(rhs)

        return call

    solvers = {r: counted(r) for r in penalties}
    _lockstep(H, L1, H.grid.cell_volume, starts, solvers, 1, cfg.tol, False)
    assert calls == [(r, 2) for r in penalties]


def test_trace_buffers_grow_past_first_block(small_box_H):
    # tol so small that no start converges: every run goes to the cap
    H = small_box_H
    eigs = reference_eigenpairs(H, 1)
    cfg = SolverConfig(mu=10.0, max_iters=2100, tol=1e-300, starts=("random:4",))
    res = solve_cm(H, L1, 1, cfg, eigs=eigs, trace=True)
    assert res.iterations == len(res.trace) == 2100
    short = solve_cm(H, L1, 1, replace(cfg, max_iters=1024), eigs=eigs, trace=True)
    assert res.trace[:1024] == short.trace
    # ``_splitting_run``, the one-start run that perfbench's tracer wraps, runs it alike
    penalty = default_penalty(cfg.mu, float(eigs.eigenvalues[0]))
    solve, w = _build_shifted_solver(H, penalty), H.grid.cell_volume
    solo = _splitting_run(H, L1, cfg, penalty, solve, w, _start_matrix("random:4", H, 1, eigs))
    _assert_runs_equal(solo, res.runs[0])


# --- drift: a start re-polished inside its span ----------------------------------------


def test_repolished_slabs_restart_mid_run_as_they_would_alone():
    # random starts on a 64-node box each restart once from their re-polished
    # best frame while the others run, at three penalties and five mu values;
    # the eigen start leaves first
    H = HamiltonianOperator(Grid(1, (1.0,), (64,), "dirichlet"))
    eigs = reference_eigenpairs(H, 3)
    cfg = SolverConfig(mu=10.0, max_iters=800)
    w = H.grid.cell_volume
    penalty = default_penalty(cfg.mu, float(eigs.eigenvalues[2]))
    names = ("eigen", "random:1", "random:2", "random:5", "random:1", "random:2")
    x0 = [rotation_polish(_start_matrix(s, H, 3, eigs), w, L1) for s in names]
    mus = (10.0, 5.0, 20.0, 40.0, 10.0, 7.0)
    factors = (1.0, 2.0, 0.5, 1.0, 2.0, 0.5)
    starts = [(x, mu, penalty * f) for x, mu, f in zip(x0, mus, factors)]
    runs = _lockstep_matches_solo_runs(H, L1, cfg, starts)
    assert [run.restarts for run in runs] == [0, 1, 1, 1, 1, 1]
    assert all(run.converged for run in runs)
    assert runs[0].iterations < min(run.iterations for run in runs[1:])


def test_reference_start_alone_is_its_sweep_run(box_H, box_eigs):
    # random:11 at mu = 5 on the reference box, run alone, is the sweep's
    # run: it drifts inside the eigen span, restarts twice from its
    # re-polished best frame, turns once and converges
    cfg = SolverConfig(mu=5.0, max_iters=1500)
    w = box_H.grid.cell_volume
    penalty = default_penalty(cfg.mu, float(box_eigs.eigenvalues[1]))
    x = rotation_polish(_start_matrix("random:11", box_H, 2, box_eigs), w, L1)
    run = _solo(box_H, L1, cfg, (x, cfg.mu, penalty), _build_shifted_solver(box_H, penalty))
    assert (run.iterations, run.restarts, run.turns, run.converged) == (298, 2, 1, True)
    assert run.best_objective == pytest.approx(24.991966531897788, rel=1e-12, abs=0)


def test_eigen_start_restarts_from_its_repolished_best_frame():
    # the drift check takes every start: on a 128-node box with N = 3 the
    # eigen start at mu = 5 drifts, restarts once from its re-polished best
    # frame, converges in 161 iterations and still wins
    H = HamiltonianOperator(Grid(1, (1.0,), (128,), "dirichlet"))
    eigs = reference_eigenpairs(H, 3)
    schedule = [5.0, 10.0]
    cfg = SolverConfig(mu=schedule[0], max_iters=1500, starts=("eigen", "random:1"))
    swept = solve_sweep(H, L1, 3, schedule, cfg, eigs=eigs, trace=True)
    _assert_sweep_is_chain(swept, H, L1, 3, schedule, cfg, eigs)
    first = swept[0]
    assert (first.runs[0].restarts, first.runs[0].iterations) == (1, 161)
    assert first.winner_start == "eigen" and first.converged


def test_warm_start_restarts_from_its_repolished_best_frame():
    # the warm starts too: on a 64-node box with N = 2 the predicted warm
    # start restarts once at mu = 10 and once at mu = 20
    H = HamiltonianOperator(Grid(1, (1.0,), (64,), "dirichlet"))
    eigs = reference_eigenpairs(H, 2)
    schedule = [5.0, 10.0, 20.0, 40.0]
    cfg = SolverConfig(mu=schedule[0], max_iters=1500, starts=("eigen", "random:1", "random:2"))
    swept = solve_sweep(H, L1, 2, schedule, cfg, eigs=eigs, trace=True)
    _assert_sweep_is_chain(swept, H, L1, 2, schedule, cfg, eigs)
    assert [r.labels[3] for r in swept[1:]] == ["warm"] * 3
    assert [r.runs[3].restarts for r in swept[1:]] == [1, 1, 0]
    assert all(r.runs[3].converged for r in swept[1:])


def _turning_box():
    # a 96-node box with N = 2, on which random starts drift after their
    # restart, and most of them turn
    H = HamiltonianOperator(Grid(1, (1.0,), (96,), "dirichlet"))
    eigs = reference_eigenpairs(H, 2)
    return H, eigs, default_penalty(10.0, float(eigs.eigenvalues[1]))


def test_a_turn_rotates_the_iterate_within_its_span(monkeypatch):
    # a drift check's polish of the current iterate P, which follows the
    # polish of the best frame when that does not restart the start: the run
    # turns where it lowers the objective, and the turned frame has P's energy
    # sum and orthonormality defect
    H, eigs, penalty = _turning_box()
    w, cfg = H.grid.cell_volume, SolverConfig(mu=10.0, max_iters=800)
    x = rotation_polish(_start_matrix("random:11", H, 2, eigs), w, L1)
    checks, polish, off_span = [], solver.rotation_polish, solver._off_span

    def polished(matrix, w, J):
        out = polish(matrix, w, J)
        checks[-1].append((matrix.copy(), out))
        return out

    def checked(*args):
        checks.append([])  # a start due at a drift check, then its polishes
        return off_span(*args)

    monkeypatch.setattr(solver, "rotation_polish", polished)
    monkeypatch.setattr(solver, "_off_span", checked)
    run = _solo(H, L1, cfg, (x, cfg.mu, penalty), _build_shifted_solver(H, penalty))
    assert (run.restarts, run.turns, run.converged) == (1, 1, True)

    def gain(frame, rotated):
        before = objective(H, L1, cfg.mu, ModeSet(H.grid, frame))
        return (before - objective(H, L1, cfg.mu, ModeSet(H.grid, rotated))) / abs(before)

    # the last polish of a check is P's, unless the best frame's restarted the start
    restarted = [len(c) == 1 and gain(*c[0]) > solver.REPOLISH_GAIN for c in checks]
    kept = [c for c, r in zip(checks, restarted) if c and not r]
    polishes = [c[-1] for c in kept]
    assert sum(restarted) == run.restarts
    # every best frame's gain is at least 25% from the restart threshold, so
    # no rounding of the objective or the polish can swap a turn for a restart
    gains = [gain(*c[0]) for c in checks if c]
    assert all(g <= solver.REPOLISH_GAIN / 1.25 or g >= 1.25 * solver.REPOLISH_GAIN for g in gains)
    turned = 0
    for frame, rotated in polishes:
        before, after = ModeSet(H.grid, frame), ModeSet(H.grid, rotated)
        lower = objective(H, L1, cfg.mu, after) < objective(H, L1, cfg.mu, before)
        turned += lower
        energy = mode_energies(H, before).sum()
        assert abs(mode_energies(H, after).sum() - energy) <= 1e-12 * energy
        assert abs(after.ortho_defect - before.ortho_defect) <= 1e-12
    assert turned == run.turns


def test_turning_slabs_match_their_solo_runs():
    # five random starts that turn while the others run, at three penalties
    # and six mu values, next to an eigen start that leaves first
    H, eigs, penalty = _turning_box()
    w, cfg = H.grid.cell_volume, SolverConfig(mu=10.0, max_iters=800)
    names = ("eigen", "random:1", "random:2", "random:3", "random:4", "random:5")
    x0 = [rotation_polish(_start_matrix(s, H, 2, eigs), w, L1) for s in names]
    mus = (10.0, 5.0, 10.0, 20.0, 40.0, 80.0)
    factors = (1.0, 2.0, 1.0, 0.5, 1.0, 2.0)
    starts = [(x, mu, penalty * f) for x, mu, f in zip(x0, mus, factors)]
    runs = _lockstep_matches_solo_runs(H, L1, cfg, starts)
    assert runs[0].turns == 0 and sum(run.turns > 0 for run in runs) >= 3
    assert all(run.converged for run in runs)


# --- sweeps: one block for the configured starts of every mu, then the warm chain ----


def test_sweep_of_empty_schedule_is_empty(box_H, box_eigs):
    assert solve_sweep(box_H, L1, 2, [], SolverConfig(mu=5.0), eigs=box_eigs) == []


@st.composite
def _sweep_cases(draw):
    H, J, N, cfg = draw(_lockstep_cases())
    schedule = sorted(draw(st.lists(st.floats(0.5, 200.0), min_size=2, max_size=4, unique=True)))
    cfg = replace(cfg, mu=schedule[0], penalty=draw(st.one_of(st.none(), st.floats(1.0, 500.0))))
    return H, J, N, schedule, cfg


def _assert_sweep_is_chain(swept, H, J, N, schedule, cfg, eigs=None):
    """``swept`` must equal, bit for bit, a chain of ``solve_cm`` calls warm-started by ``warm_start``.

    Both are traced, so their traces are compared too.  Returns the chain's
    winners and its warm frames (one per mu after the first).
    """
    assert len(swept) == len(schedule)
    limit = limit_frame(H, J, N, reference_eigenpairs(H, N) if eigs is None else eigs)
    winners, warm = [], []
    for i, (mu, result) in enumerate(zip(schedule, swept)):
        starts = cfg.starts
        if winners:
            # the order's second point is the configured starts' winner at mu
            configured = solve_cm(H, J, N, replace(cfg, mu=mu), eigs=eigs).modes
            warm.append(warm_start(winners[-1], schedule[i - 1 : i + 1], limit, configured))
            starts += (warm[-1],)
        chained = solve_cm(H, J, N, replace(cfg, mu=mu, starts=starts), eigs=eigs, trace=True)
        _assert_results_equal(result, chained)
        winners.append(chained.modes)
    return winners, warm


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_sweep_cases())
def test_sweep_matches_solve_cm_chain(case):
    H, J, N, schedule, cfg = case
    eigs = reference_eigenpairs(H, N)
    swept = solve_sweep(H, J, N, schedule, cfg, eigs=eigs, trace=True)
    _assert_sweep_is_chain(swept, H, J, N, schedule, cfg, eigs)


def test_sweep_predicts_warm_starts_from_the_limit_as_its_chain_does():
    # on a 64-node box the winners approach the limit frame at order -1 from
    # the start, so every warm start is predicted: the one at mu = 10 from the
    # order of the eigen start's results at mu = 5 and 10
    H = HamiltonianOperator(Grid(1, (1.0,), (64,), "dirichlet"))
    eigs = reference_eigenpairs(H, 2)
    schedule = [5.0, 10.0, 20.0, 40.0]
    cfg = SolverConfig(mu=schedule[0], max_iters=800, starts=("eigen",))
    swept = solve_sweep(H, L1, 2, schedule, cfg, eigs=eigs, trace=True)
    winners, warm = _assert_sweep_is_chain(swept, H, L1, 2, schedule, cfg, eigs)
    assert [frame is winner for frame, winner in zip(warm, winners)] == [False, False, False]
    assert [r.winner_start for r in swept] == ["eigen", "warm", "warm", "warm"]


def test_alignment_recovers_a_signed_column_permutation_of_the_limit(small_box_H):
    eigs = reference_eigenpairs(small_box_H, 3)
    limit = limit_frame(small_box_H, L1, 3, eigs)
    other = eigs.modes.matrix[:, [1, 2, 0]]
    for perm in itertools.permutations(range(3)):
        for signs in itertools.product((1.0, -1.0), repeat=3):
            target = limit.matrix[:, perm] * signs
            # a frame near, not at, the limit: the alignment is still exact
            near = ModeSet(small_box_H.grid, target + 1e-3 * other)
            np.testing.assert_array_equal(_aligned(limit, near), target)
            assert limit_distance(ModeSet(small_box_H.grid, target), limit) == 0.0


_GUARD_GRID = Grid(1, (1.0,), (16,), "dirichlet")


def _offset_frame(d, N=2):
    # mode k is the limit's plus d times a unit vector outside its span
    return ModeSet(_GUARD_GRID, (np.eye(16)[:, :N] + d * np.eye(16)[:, 8 : 8 + N]) / np.sqrt(_GUARD_GRID.cell_volume))


def _predicted(d0, d1, mus=(5.0, 10.0), N=2):
    # the warm start from the previous winner at distance d0 (at mus[0]) and
    # the configured starts' winner at d1 (at mus[1]); None when it is the
    # previous winner as it stands
    first = _offset_frame(d0, N)
    warm = warm_start(first, mus, _offset_frame(0.0, N), _offset_frame(d1, N))
    return None if warm is first else warm


def test_limit_path_guard_accepts_order_minus_one_only():
    def at_order(order, mus=(5.0, 10.0)):
        return _predicted(1e-3, 1e-3 * (mus[1] / mus[0]) ** order, mus)

    for order in (-1.0, -1.0 - 0.9 * LIMIT_ORDER_TOL, -1.0 + 0.9 * LIMIT_ORDER_TOL):
        assert at_order(order) is not None
        assert at_order(order, (20.0, 60.0)) is not None
    for order in (-0.75, -0.2, 0.0):  # -0.2 is the long box's order
        assert at_order(order) is None
        assert at_order(order, (20.0, 60.0)) is None
    # a zero distance on either side gives no order, and a NaN one a NaN order
    assert _predicted(1e-3, 0.0) is None
    assert _predicted(0.0, 1e-3) is None
    assert _predicted(0.0, 0.0) is None
    assert _predicted(1e-3, math.nan) is None
    # order -1, but (5 / 10) d0 sqrt(N) >= 1: the predicted frame could lose rank
    assert _predicted(1.0, 0.5) is not None
    assert _predicted(2.0, 1.0) is None
    assert _predicted(1.0, 0.5, N=5) is None


def test_second_mu_guard_reads_the_order_from_the_configured_winner():
    # the order runs from the previous winner (d0, at mus[0]) to the
    # configured starts' winner at mus[1] (d1), at the second mu and at every
    # later one, and the predicted frame, A + (F - A) mus[0] / mus[1], lies
    # (mus[0] / mus[1]) d0 from the limit
    np.testing.assert_allclose(_predicted(1e-3, 5e-4).matrix, _offset_frame(5e-4).matrix, rtol=0, atol=1e-15)
    # a later mu pair, whose step is 20 / 60
    later = _predicted(1e-3, 1e-3 / 3.0, (20.0, 60.0))
    np.testing.assert_allclose(later.matrix, _offset_frame(1e-3 / 3.0).matrix, rtol=0, atol=1e-15)


def test_two_mu_sweep_predicts_its_warm_start_as_its_chain_does():
    # the box of the predicting sweep above: two mu values are enough for the
    # limit frame, so the warm start at mu = 10 is predicted, not the winner
    # at mu = 5 as it stands
    H = HamiltonianOperator(Grid(1, (1.0,), (64,), "dirichlet"))
    eigs = reference_eigenpairs(H, 2)
    schedule = [5.0, 10.0]
    cfg = SolverConfig(mu=schedule[0], max_iters=800, starts=("eigen",))
    swept = solve_sweep(H, L1, 2, schedule, cfg, eigs=eigs, trace=True)
    winners, warm = _assert_sweep_is_chain(swept, H, L1, 2, schedule, cfg, eigs)
    assert warm[0] is not winners[0]
    assert [r.winner_start for r in swept] == ["eigen", "warm"]


def test_degenerate_sweep_keeps_the_plain_warm_chain():
    # the shipped periodic box: its winners do not approach the limit frame at
    # order -1, so each warm start is the previous winner as it stands
    cfg = load_config(config_path("periodic_degenerate.json"))
    problem = cfg["problem"]
    H, J = build_operator(cfg), make_regularizer(problem["regularizer"])
    N, schedule = problem["N"], problem["mu_schedule"]
    solver_cfg = build_solver_config(cfg, schedule[0])
    eigs = reference_eigenpairs(H, N + 1)  # as ``mu_sweep`` gives them
    swept = solve_sweep(H, J, N, schedule, solver_cfg, eigs=eigs, trace=True)
    previous = None
    for mu, result in zip(schedule, swept):
        starts = solver_cfg.starts if previous is None else solver_cfg.starts + (previous,)
        chained = solve_cm(H, J, N, replace(solver_cfg, mu=mu, starts=starts), eigs=eigs, trace=True)
        _assert_results_equal(result, chained)
        previous = chained.modes


def _count_lockstep_starts(monkeypatch) -> list[int]:
    """The number of starts of each later ``solver._lockstep`` call, appended as it is made."""
    lockstep, calls = solver._lockstep, []

    def counted(*args):
        calls.append(len(args[3]))
        return lockstep(*args)

    monkeypatch.setattr(solver, "_lockstep", counted)
    return calls


def test_sweep_warm_start_comes_from_a_late_winner(monkeypatch):
    # on this long box random:1 wins the first mu, but the eigen start
    # finishes first, below random:1's best at that point: the warm start of
    # the second mu must still come from random:1's frame
    H = HamiltonianOperator(Grid(1, (20.0,), (20,), "dirichlet"))
    schedule = [120.4, 125.9, 199.9]
    cfg = SolverConfig(mu=schedule[0], max_iters=194, starts=("eigen", "random:1"))
    calls = _count_lockstep_starts(monkeypatch)
    swept = solve_sweep(H, L1, 2, schedule, cfg, trace=True)
    assert calls == [6, 1, 1]  # the block, then each later mu's warm start alone
    assert swept[0].winner_start == "random:1"
    monkeypatch.undo()
    _assert_sweep_is_chain(swept, H, L1, 2, schedule, cfg)


def test_reference_sweep_runs_its_warm_chain_one_start_at_a_time(monkeypatch, reference_config):
    # the three configured starts of all six mu values in one block, then
    # each later mu's warm start alone
    cfg, problem = reference_config, reference_config["problem"]
    H, J = build_operator(cfg), make_regularizer(problem["regularizer"])
    solver_cfg = build_solver_config(cfg, problem["mu_schedule"][0])
    calls = _count_lockstep_starts(monkeypatch)
    solve_sweep(H, J, problem["N"], problem["mu_schedule"], solver_cfg)
    assert calls == [18, 1, 1, 1, 1, 1]


def test_reference_sweep_winners_and_iterations(reference_sweep):
    # the shipped sweep's behaviour, which no speedup may change unnoticed.  At
    # mu = 5, random:11 and random:12 each restart twice and turn once, and
    # end about 7e-14 apart, below the objective's own summation rounding, so
    # either may win: the test pins the pair and the best objective, not the
    # label.  From mu = 10 on, the warm start is predicted from the limit frame
    # and wins by 8e-12 to 1.5e-10 in 35, 27, 27, 14 and 13 iterations
    records = reference_sweep["records"]
    first = records[0]
    best = min(first["start_objectives"])
    objectives = dict(zip(first["start_labels"], first["start_objectives"]))
    tied = {label for label, objective in objectives.items() if objective - best <= 1e-12 * best}
    assert tied == {"random:11", "random:12"}
    assert first["winner_start"] in tied
    assert best == pytest.approx(24.99196653189772, rel=1e-12, abs=0)
    assert [r["winner_start"] for r in records[1:]] == ["warm"] * 5
    assert [r["start_iterations"] for r in records] == [
        [43, 298, 298],
        [39, 266, 241, 35],
        [35, 242, 242, 27],
        [31, 258, 233, 27],
        [27, 212, 212, 14],
        [24, 148, 139, 13],
    ]
    assert [r["start_restarts"] for r in records] == [
        [0, 2, 2],
        [0, 2, 2, 0],
        [0, 1, 1, 0],
        [0, 1, 1, 0],
        [0, 1, 1, 0],
        [0, 1, 1, 0],
    ]
    assert [r["start_turns"] for r in records] == [
        [0, 1, 1],
        [0, 0, 0, 0],
        [0, 1, 1, 0],
        [0, 1, 1, 0],
        [0, 1, 1, 0],
        [0, 0, 0, 0],
    ]
