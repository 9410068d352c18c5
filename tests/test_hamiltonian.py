import numpy as np
import pytest

from cmlab import (
    Grid,
    GridMismatchError,
    HamiltonianOperator,
    harmonic_well,
    multiwell,
    reference_eigenpairs,
)
from cmlab.solver import _build_shifted_solver


def test_dense_free_particle_dirichlet_stencil():
    g = Grid(1, (1.0,), (4,), "dirichlet")
    h = g.spacing[0]
    a = HamiltonianOperator(g).materialize_dense()
    expected = np.diag(np.full(4, 1.0 / h**2))
    expected += np.diag(np.full(3, -0.5 / h**2), 1) + np.diag(np.full(3, -0.5 / h**2), -1)
    np.testing.assert_array_equal(a, expected)


def test_dense_free_particle_periodic_corners():
    g = Grid(1, (1.0,), (6,), "periodic")
    h = g.spacing[0]
    a = HamiltonianOperator(g).materialize_dense()
    assert a[0, 5] == pytest.approx(-0.5 / h**2)
    assert a[5, 0] == pytest.approx(-0.5 / h**2)
    assert a[0, 1] == pytest.approx(-0.5 / h**2)
    assert a[0, 2] == 0.0


def test_harmonic_well_adds_to_diagonal():
    g = Grid(1, (1.0,), (8,), "dirichlet")
    free = HamiltonianOperator(g).materialize_dense()
    well = HamiltonianOperator(g, harmonic_well(g, omega=1.0)).materialize_dense()
    x = g.coordinates()[:, 0]
    np.testing.assert_allclose(np.diag(well) - np.diag(free), 0.5 * (x - 0.5) ** 2, atol=1e-15)
    np.testing.assert_array_equal(well - np.diag(np.diag(well)), free - np.diag(np.diag(free)))


def test_apply_zero_is_zero():
    g = Grid(2, (1.0, 1.0), (8, 8), "dirichlet")
    H = HamiltonianOperator(g, harmonic_well(g, omega=2.0))
    out = H.apply_array(np.zeros(g.node_count))
    assert np.all(out == 0.0)


def test_apply_matches_discrete_sine_eigenrelation():
    g = Grid(1, (1.0,), (64,), "dirichlet")
    H = HamiltonianOperator(g)
    h = g.spacing[0]
    x = g.coordinates()[:, 0]
    for k in (1, 2, 5):
        u = np.sin(k * np.pi * x)
        lam = (1.0 - np.cos(k * np.pi * h)) / h**2
        np.testing.assert_allclose(H.apply_array(u), lam * u, atol=1e-10 * lam)


def test_quadratic_form_matches_dense(rng):
    g = Grid(1, (2.0,), (60,), "periodic")
    H = HamiltonianOperator(g, harmonic_well(g, omega=1.5))
    a = H.materialize_dense()
    w = g.cell_volume
    for _ in range(20):
        u = rng.standard_normal(60)
        direct = w * float(u @ H.apply_array(u))
        dense = w * float(u @ (a @ u))
        assert direct == pytest.approx(dense, rel=1e-12, abs=1e-12)


def test_dense_exactly_symmetric(rng):
    vals = rng.standard_normal(48)
    g = Grid(2, (1.0, 1.5), (6, 8), "periodic")
    a = HamiltonianOperator(g, vals).materialize_dense()
    assert np.abs(a - a.T).max() == 0.0


def test_dense_matches_apply_on_random_vectors(rng):
    for boundary in ("dirichlet", "periodic"):
        g = Grid(2, (1.0, 1.0), (7, 5), boundary)
        H = HamiltonianOperator(g, multiwell(g, centers=((0.3, 0.4),), depth=2.0, width=0.2))
        a = H.materialize_dense()
        for _ in range(20):
            u = rng.standard_normal(35)
            scale = max(1.0, np.abs(a @ u).max())
            np.testing.assert_allclose(H.apply_array(u), a @ u, atol=1e-12 * scale)


def test_apply_is_linear(rng):
    g = Grid(1, (3.0,), (80,), "dirichlet")
    H = HamiltonianOperator(g, harmonic_well(g, omega=0.7))
    u = rng.standard_normal(80)
    v = rng.standard_normal(80)
    alpha, beta = 1.7, -0.3
    lhs = H.apply_array(alpha * u + beta * v)
    rhs = alpha * H.apply_array(u) + beta * H.apply_array(v)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12 * max(1.0, np.abs(rhs).max()))


def test_symmetry_of_quadratic_form(rng):
    g = Grid(2, (1.0, 1.0), (9, 9), "dirichlet")
    H = HamiltonianOperator(g, harmonic_well(g, omega=1.0))
    for _ in range(100):
        u = rng.standard_normal(81)
        v = rng.standard_normal(81)
        a = g.cell_volume * float(u @ H.apply_array(v))
        b = g.cell_volume * float(H.apply_array(u) @ v)
        assert a == pytest.approx(b, rel=1e-10, abs=1e-10)


def test_second_order_consistency():
    lam_exact = np.pi**2 / 2

    def lowest(n):
        g = Grid(1, (1.0,), (n,), "dirichlet")
        H = HamiltonianOperator(g)
        return reference_eigenpairs(H, 1).eigenvalues[0]

    err_coarse = abs(lowest(64) - lam_exact)
    err_fine = abs(lowest(128) - lam_exact)
    assert 3.5 <= err_coarse / err_fine <= 4.5


def test_free_particle_dirichlet_positive_definite():
    g = Grid(1, (1.0,), (32,), "dirichlet")
    H = HamiltonianOperator(g)
    ritz = np.linalg.eigvalsh(H.materialize_dense())
    assert np.all(ritz > 0)


def test_2d_dirichlet_ground_state():
    g = Grid(2, (1.0, 1.0), (24, 24), "dirichlet")
    H = HamiltonianOperator(g)
    lam1 = reference_eigenpairs(H, 1).eigenvalues[0]
    assert lam1 == pytest.approx(np.pi**2, rel=5e-3)


def test_potential_values_are_a_frozen_copy(rng):
    g = Grid(1, (1.0,), (16,), "dirichlet")
    values = rng.standard_normal(16)
    H = HamiltonianOperator(g, values)
    frozen, matrix = H.potential_values.copy(), H.matrix.toarray()
    assert values.flags.writeable
    values[:] = 7.0
    np.testing.assert_array_equal(H.potential_values, frozen)
    np.testing.assert_array_equal(H.matrix.toarray(), matrix)
    assert not H.potential_values.flags.writeable


@pytest.mark.filterwarnings("error")
def test_far_well_adds_nothing_and_warns_nothing():
    # |x - c|^2 overflows to inf for the far well, whose exp(-inf) = 0 is its exact value
    g = Grid(1, (1.0,), (32,), "dirichlet")
    near = multiwell(g, centers=((0.3,),), depth=2.0, width=0.1)
    both = multiwell(g, centers=((0.3,), (1e200,)), depth=2.0, width=0.1)
    np.testing.assert_array_equal(both, near)


def test_tabulated_size_mismatch_raises():
    g = Grid(1, (1.0,), (16,), "dirichlet")
    for values in (np.arange(15.0), np.zeros((16, 1))):
        with pytest.raises(ValueError, match="16 nodes"):
            HamiltonianOperator(g, values)
    with pytest.raises(ValueError):
        HamiltonianOperator(g, np.full(16, np.nan))


def test_past_old_dense_cliff():
    # 6400 nodes: beyond the former 4096-node switch to CG and unseeded ARPACK
    g = Grid(2, (16.0, 16.0), (80, 80), "dirichlet")
    centers = ((4.0, 4.0), (4.0, 12.0), (12.0, 4.0), (12.0, 12.0))
    wells = multiwell(g, centers=centers, depth=3.0, width=1.2)
    H = HamiltonianOperator(g, wells)
    penalty = 10.0
    rhs = np.random.default_rng(7).standard_normal((g.node_count, 4))
    x = _build_shifted_solver(H, penalty)(rhs)
    residual = H.apply_array(x) + penalty * x - rhs
    assert np.linalg.norm(residual) <= 1e-10 * np.linalg.norm(rhs)
    first = reference_eigenpairs(H, 5)
    second = reference_eigenpairs(H, 5)
    assert first.eigenvalues.tobytes() == second.eigenvalues.tobytes()
    assert first.modes.matrix.tobytes() == second.modes.matrix.tobytes()
    assert first.residual_norms.tobytes() == second.residual_norms.tobytes()


def test_sparse_matrix_is_read_only():
    g = Grid(2, (1.0, 1.0), (6, 5), "periodic")
    H = HamiltonianOperator(g, harmonic_well(g, omega=1.0))
    for part in (H.matrix.data, H.matrix.indices, H.matrix.indptr):
        with pytest.raises(ValueError, match="read-only"):
            part[0] = part[0]


def test_apply_grid_mismatch_raises():
    g = Grid(1, (1.0,), (16,), "dirichlet")
    other = Grid(1, (1.0,), (17,), "dirichlet")
    H = HamiltonianOperator(g)
    with pytest.raises(GridMismatchError):
        H.apply_array(np.zeros(other.node_count))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_domain_scale_out_of_range_raises():
    # (largest entry)^2 / cell volume must be a normal double: it overflows in
    # a tiny box and underflows in a huge one, before anything is computed
    for extent in ((1e-150,), (1e150,), (1e-62,)):
        with pytest.raises(ValueError, match="floating-point range"):
            HamiltonianOperator(Grid(1, extent, (512,), "dirichlet"))
    with pytest.raises(ValueError, match="floating-point range"):
        HamiltonianOperator(Grid(2, (1e-80, 1e-80), (8, 8), "dirichlet"))
    for extent in ((1e-50,), (1e50,)):
        HamiltonianOperator(Grid(1, extent, (512,), "dirichlet"))
