import math

import numpy as np
import pytest

from cmlab import Grid, L1Regularizer, ModeSet, orthonormal_columns


def test_spacing_dirichlet_and_periodic():
    gd = Grid(1, (1.0,), (255,), "dirichlet")
    assert gd.spacing == (1.0 / 256,)
    gp = Grid(1, (1.0,), (256,), "periodic")
    assert gp.spacing == (1.0 / 256,)
    g2 = Grid(2, (2.0, 3.0), (9, 5), "dirichlet")
    assert g2.spacing == (0.2, 0.5)


def test_weights_positive_and_sum_to_discrete_measure():
    for boundary in ("dirichlet", "periodic"):
        g = Grid(1, (1.0,), (200,), boundary)
        w = np.full(g.node_count, g.cell_volume)
        assert np.all(w > 0)
        assert abs(w.sum() - g.volume) <= 1e-12 * g.volume
    # periodic quadrature reproduces the box measure exactly
    gp = Grid(2, (1.0, 2.0), (16, 8), "periodic")
    assert abs(gp.volume - 2.0) <= 1e-12 * 2.0
    # Dirichlet covers the interior cells: |box| * n/(n+1) per axis
    gd = Grid(1, (1.0,), (256,), "dirichlet")
    assert abs(gd.volume - 256 / 257) <= 1e-12


def test_weighted_dot_of_constants_measures_domain():
    gp = Grid(1, (1.0,), (300,), "periodic")
    one = np.ones(gp.node_count)
    assert abs(gp.cell_volume * (one @ one) - 1.0) <= 1e-12
    gd = Grid(1, (1.0,), (256,), "dirichlet")
    oned = np.ones(gd.node_count)
    val = gd.cell_volume * (oned @ oned)
    assert abs(val - gd.volume) <= 1e-12
    assert abs(val - 1.0) <= 1.0 / 256  # quadrature tolerance at this resolution


def test_orthonormal_columns_pair_vanishes(rng):
    g = Grid(1, (1.0,), (128,), "dirichlet")
    stack = ModeSet(g, orthonormal_columns(rng.standard_normal((128, 2)), g.cell_volume))
    assert abs(stack.gram()[0, 1]) <= 1e-12


def test_weighted_sine_orthogonality():
    g = Grid(1, (1.0,), (256,), "dirichlet")
    x = g.coordinates()[:, 0]
    u = np.sin(np.pi * x)
    v = np.sin(2 * np.pi * x)
    assert abs(g.cell_volume * (u @ v)) <= 1e-10


def test_weighted_gram_symmetric_bilinear(rng):
    g = Grid(1, (2.0,), (97,), "periodic")
    for _ in range(100):
        u, v, t = rng.standard_normal((3, 97))
        a, b = rng.standard_normal(2)
        gram = ModeSet(g, np.column_stack([u, v, t, a * u + b * v])).gram()
        assert gram[0, 1] == pytest.approx(gram[1, 0], abs=1e-12)
        lhs = gram[3, 2]
        rhs = a * gram[0, 2] + b * gram[1, 2]
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_cauchy_schwarz(rng):
    g = Grid(1, (1.0,), (64,), "dirichlet")
    for _ in range(100):
        gram = ModeSet(g, rng.standard_normal((64, 2))).gram()
        assert abs(gram[0, 1]) <= math.sqrt(gram[0, 0]) * math.sqrt(gram[1, 1]) + 1e-12


def _weighted_norms(modes: ModeSet) -> np.ndarray:
    return np.sqrt(np.maximum(np.diag(modes.gram()), 0.0))


def test_weighted_l2_cases(box_eigs):
    g = Grid(1, (1.0,), (50,), "periodic")
    assert _weighted_norms(ModeSet(g, np.zeros(50)))[0] == 0.0
    c = -3.0
    const = ModeSet(g, np.full(50, c))
    assert _weighted_norms(const)[0] == pytest.approx(abs(c) * math.sqrt(g.volume), rel=1e-12)
    for norm in _weighted_norms(box_eigs.modes):
        assert norm == pytest.approx(1.0, abs=1e-10)


def test_weighted_l1_cases(rng):
    g = Grid(1, (1.0,), (512,), "periodic")
    w = g.cell_volume
    l1 = L1Regularizer()
    assert l1.evaluate_columns(np.zeros((512, 1)), w)[0] == 0.0
    assert l1.evaluate_columns(np.ones((512, 1)), w)[0] == pytest.approx(1.0, abs=1e-12)
    omega = 1.0
    us = rng.standard_normal((512, 100))
    l2 = _weighted_norms(ModeSet(g, us))
    assert np.all(l1.evaluate_columns(us, w) <= math.sqrt(omega) * l2 + 1e-12)


def test_discrete_function_size_mismatch():
    g = Grid(1, (1.0,), (10,), "dirichlet")
    with pytest.raises(ValueError):
        ModeSet(g, np.zeros(11))


def test_values_are_read_only():
    g = Grid(1, (1.0,), (10,), "dirichlet")
    f = ModeSet(g, np.arange(10.0))
    with pytest.raises(ValueError):
        f.matrix[0, 0] = 7.0


def test_grid_validation_errors():
    with pytest.raises(ValueError):
        Grid(3, (1.0, 1.0, 1.0), (4, 4, 4))
    with pytest.raises(ValueError):
        Grid(1, (0.0,), (4,))
    with pytest.raises(ValueError):
        Grid(1, (1.0,), (1,))
    with pytest.raises(ValueError):
        Grid(1, (1.0,), (8,), "absorbing")
    with pytest.raises(ValueError):
        Grid(2, (1.0,), (8, 8))


def test_coordinates_layout():
    g = Grid(2, (1.0, 1.0), (3, 4), "periodic")
    coords = g.coordinates()
    assert coords.shape == (12, 2)
    # C-order: second axis varies fastest
    assert coords[0, 1] != coords[1, 1]
    assert coords[0, 0] == coords[1, 0]
