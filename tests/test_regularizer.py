import math

import numpy as np
import pytest

from cmlab import Grid, make_regularizer
from cmlab.regularizer import L1Regularizer, ZeroRegularizer


def test_make_regularizer():
    assert isinstance(make_regularizer("l1"), L1Regularizer)
    assert isinstance(make_regularizer("zero"), ZeroRegularizer)
    with pytest.raises(ValueError):
        make_regularizer("tv")


def _weighted_norm(g: Grid, u: np.ndarray) -> float:
    return math.sqrt(g.cell_volume * float(u @ u))


def test_evaluate_zero_everywhere(rng):
    g = Grid(1, (1.0,), (100,), "dirichlet")
    J = make_regularizer("zero")
    u = rng.standard_normal((100, 1))
    assert J.evaluate_columns(u, g.cell_volume)[0] == 0.0


def test_evaluate_l1_constant_and_delegation(rng):
    g = Grid(1, (1.0,), (400,), "periodic")
    w = g.cell_volume
    J = make_regularizer("l1")
    assert J.evaluate_columns(np.ones((400, 1)), w)[0] == pytest.approx(1.0, abs=1e-12)
    u = rng.standard_normal(400)
    assert J.evaluate_columns(u[:, None], w)[0] == w * float(np.abs(u).sum())


def test_prox_soft_threshold_arithmetic():
    J = make_regularizer("l1")
    out = J.prox_array(np.array([1.5, -0.3, 0.0]), 1.0)
    np.testing.assert_allclose(out, [0.5, 0.0, 0.0])


def test_prox_zero_is_identity(rng):
    J = make_regularizer("zero")
    u = rng.standard_normal(50)
    for step in (0.1, 1.0, 37.0):
        np.testing.assert_array_equal(J.prox_array(u, step), u)
    with pytest.raises(ValueError):
        J.prox_array(u, 0.0)


@pytest.mark.parametrize("kind", ["l1", "zero"])
@pytest.mark.parametrize("step", [0.0, -1.0, math.nan, np.array([[0.5], [math.nan]])])
def test_prox_rejects_a_step_that_is_not_positive(kind, step):
    with pytest.raises(ValueError, match="prox step must be positive"):
        make_regularizer(kind).prox_array(np.ones((2, 3)), step)


def test_prox_nodewise_optimality_against_scan(rng):
    # the prox output must minimize step*|v| + 0.5*(v - u)^2 at every node
    J = make_regularizer("l1")
    for _ in range(20):
        u = float(rng.uniform(-3, 3))
        step = float(rng.uniform(0.05, 2.0))
        v_star = float(J.prox_array(np.array([u]), step)[0])
        best = v_star
        obj_star = step * abs(v_star) + 0.5 * (v_star - u) ** 2
        for v in np.linspace(u - 4, u + 4, 20001):
            obj = step * abs(v) + 0.5 * (v - u) ** 2
            if obj < obj_star - 1e-8:
                best = v
        assert best == v_star


def test_prox_nonexpansive(rng):
    g = Grid(1, (1.0,), (200,), "dirichlet")
    J = make_regularizer("l1")
    for _ in range(100):
        u = rng.standard_normal(200)
        v = rng.standard_normal(200)
        lhs = _weighted_norm(g, J.prox_array(u, 0.3) - J.prox_array(v, 0.3))
        rhs = _weighted_norm(g, u - v)
        assert lhs <= rhs + 1e-12


def test_boundedness_contract(rng):
    g = Grid(1, (2.0,), (333,), "dirichlet")
    # bound constants: sqrt of the domain measure for L1, zero for J = 0
    for kind, c in (("l1", math.sqrt(g.volume)), ("zero", 0.0)):
        J = make_regularizer(kind)
        assert c <= math.sqrt(2.0) + 1e-12
        for _ in range(100):
            u = rng.standard_normal(333)
            val = J.evaluate_columns(u[:, None], g.cell_volume)[0]
            assert val >= 0.0
            assert val <= c * _weighted_norm(g, u) + 1e-12
