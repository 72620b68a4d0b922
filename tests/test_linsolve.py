"""Pivoted solver against numpy.linalg and crafted singular systems."""

import numpy as np
import pytest

from dqdyn.errors import SingularMatrixError
from dqdyn.linsolve import solve_full_pivot, solve_linear


def test_matches_numpy_on_random_systems(rng):
    for _ in range(200):
        n = int(rng.integers(1, 9))
        A = rng.normal(size=(n, n))
        b = rng.normal(size=n)
        if abs(np.linalg.det(A)) < 1e-6:
            continue
        x = solve_linear(A, b)
        np.testing.assert_allclose(x, np.linalg.solve(A, b), rtol=1e-9, atol=1e-12)


def test_residual_is_small(rng):
    for _ in range(100):
        A = rng.normal(size=(6, 6))
        b = rng.normal(size=6)
        x = solve_linear(A, b)
        assert np.linalg.norm(A @ x - b) < 1e-11 * max(1.0, np.linalg.norm(b))


def test_permutation_matrix():
    P = np.zeros((6, 6))
    order = [2, 0, 5, 1, 4, 3]
    for i, j in enumerate(order):
        P[i, j] = 1.0
    b = np.arange(6.0)
    x = solve_linear(P, b)
    np.testing.assert_allclose(P @ x, b, atol=1e-15)


def test_singular_matrix_raises():
    A = np.zeros((6, 6))
    with pytest.raises(SingularMatrixError):
        solve_linear(A, np.ones(6))
    A = np.ones((3, 3))  # rank one
    with pytest.raises(SingularMatrixError):
        solve_linear(A, np.ones(3))


def test_condition_limit_enforced():
    A = np.diag([1.0, 1.0, 1.0, 1.0, 1.0, 1e-13])
    with pytest.raises(SingularMatrixError):
        solve_linear(A, np.ones(6))
    # explicit looser limit allows it through
    x = solve_linear(A, np.ones(6), cond_limit=1e14)
    assert abs(x[5] - 1e13) < 1.0


def test_kernel_flags():
    x, cond, ok = solve_full_pivot(np.zeros((4, 4)), np.ones(4))
    assert not ok
    x, cond, ok = solve_full_pivot(np.eye(6), np.arange(6.0))
    assert ok and cond == 1.0
    np.testing.assert_array_equal(x, np.arange(6.0))
    # diag(1..6) with its rows reversed: full pivoting takes 6, 5, ..., 1 off
    # the anti-diagonal, so the estimate (first over last pivot) is exactly 6
    d = np.arange(1.0, 7.0)
    x, cond, ok = solve_full_pivot(np.diag(d)[::-1], np.ones(6))
    assert ok and cond == 6.0
    np.testing.assert_array_equal(x, 1.0 / d)


def test_shape_validation():
    with pytest.raises(SingularMatrixError):
        solve_linear(np.zeros((2, 3)), np.ones(2))
    with pytest.raises(SingularMatrixError):
        solve_linear(np.eye(3), np.ones(4))
