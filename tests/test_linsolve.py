"""Pivoted solver against numpy.linalg and crafted singular systems."""

import math

import numpy as np
import pytest

from dqdyn.linsolve import COND_LIMIT, solve_full_pivot, solve_ordered, solve_rows

IDENTITY_ORDER = (tuple(range(6)), tuple(range(6)))


def test_matches_numpy_on_random_systems(rng):
    for _ in range(200):
        n = int(rng.integers(1, 9))
        A = rng.normal(size=(n, n))
        b = rng.normal(size=n)
        if abs(np.linalg.det(A)) < 1e-6:
            continue
        x, cond, ok = solve_full_pivot(A, b)
        assert ok and 0.0 < cond <= COND_LIMIT
        np.testing.assert_allclose(x, np.linalg.solve(A, b), rtol=1e-9, atol=1e-12)


def test_residual_is_small(rng):
    for _ in range(100):
        A = rng.normal(size=(6, 6))
        b = rng.normal(size=6)
        x, cond, ok = solve_full_pivot(A, b)
        assert ok and 0.0 < cond <= COND_LIMIT
        assert np.linalg.norm(A @ x - b) < 1e-11 * max(1.0, np.linalg.norm(b))


def test_permutation_matrix():
    P = np.zeros((6, 6))
    order = [2, 0, 5, 1, 4, 3]
    for i, j in enumerate(order):
        P[i, j] = 1.0
    b = np.arange(6.0)
    x, cond, ok = solve_full_pivot(P, b)
    assert ok and cond == 1.0
    np.testing.assert_allclose(P @ x, b, atol=1e-15)


def test_singular_matrix_is_flagged():
    for A in (np.zeros((6, 6)), np.ones((3, 3))):  # zero, then rank one
        x, cond, ok = solve_full_pivot(A, np.ones(A.shape[0]))
        assert not ok and cond == math.inf


def test_condition_estimate_exceeds_limit():
    # the estimate the step loop holds against COND_LIMIT
    x, cond, ok = solve_full_pivot(np.diag([1.0, 1.0, 1.0, 1.0, 1.0, 1e-13]), np.ones(6))
    assert ok and cond == 1e13 and cond > COND_LIMIT
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


def _searched(A, b):
    """solve_rows on copies of A and b: (x, cond, ok, order)."""
    return solve_rows([list(r) for r in A], list(b))


def _signed_zeros(rng, v):
    """v with about half its off-diagonal entries set to +0.0 or -0.0."""
    v = v.copy()
    mask = rng.random(v.shape) < 0.5
    if v.ndim == 2:
        np.fill_diagonal(mask, False)
    v[mask] = np.copysign(0.0, rng.normal(size=v.shape))[mask]
    return v


@pytest.mark.parametrize("noise, sparse", [(1e-3, False), (1.0, False), (1e-3, True)])
def test_ordered_solve_is_bitwise_the_searched_solve(rng, noise, sparse):
    # given the order the search picked, the straight-line elimination does
    # the same float operations in the same order, so x and the estimate
    # agree to the last bit; with exact zeros (as in the free-body
    # Jacobians) that includes skipping rows whose multiplier is zero, or
    # the sign of a zero in x would differ
    for _ in range(200):
        A = np.diag([1.0, 2.0, 3.0, 1.0, 1.0, 1.0]) + noise * rng.normal(size=(6, 6))
        b = rng.normal(size=6)
        if sparse:
            A, b = _signed_zeros(rng, A), _signed_zeros(rng, b)
        A, b = A.tolist(), b.tolist()
        x_ref, cond_ref, ok, order = _searched(A, b)
        assert ok and cond_ref <= COND_LIMIT
        # the search's own order keeps every |multiplier| <= 1, so no check refuses it
        x, cond = solve_ordered(A, b, order)
        assert np.array(x).tobytes() == np.array(x_ref).tobytes()
        assert cond == cond_ref


def test_ordered_solve_leaves_inputs_unchanged(rng):
    A = (np.eye(6) + 0.1 * rng.normal(size=(6, 6))).tolist()
    b = rng.normal(size=6).tolist()
    A0, b0 = [r[:] for r in A], b[:]
    assert solve_ordered(A, b, _searched(A, b)[3]) is not None
    assert A == A0 and b == b0


def test_searched_order_is_in_original_indices():
    # diag(1..6) with its rows reversed: the k-th pivot is 6 - k, on row k
    # and column 5 - k
    d = np.arange(1.0, 7.0)
    A = np.diag(d)[::-1].tolist()
    _, _, ok, (rows, cols) = _searched(A, [1.0] * 6)
    assert ok and rows == (0, 1, 2, 3, 4, 5) and cols == (5, 4, 3, 2, 1, 0)
    x, cond = solve_ordered(A, [1.0] * 6, (rows, cols))
    assert cond == 6.0
    np.testing.assert_array_equal(x, 1.0 / d)


def _with(A, i, j, v):
    A = np.array(A, dtype=float)
    A[i, j] = v
    return A


@pytest.mark.parametrize(
    "A",
    [
        np.diag(np.arange(1.0, 7.0))[::-1],  # zero first pivot (test_kernel_flags' matrix)
        _with(np.eye(6), 3, 0, 20.0),  # multiplier 20 > MULTIPLIER_LIMIT
        _with(np.eye(6), 5, 5, 0.0),  # zero last pivot
        _with(np.eye(6), 3, 0, np.nan),  # NaN entry: a NaN multiplier fails the bound check
        np.diag([1.0, 1.0, 1.0, 1.0, 1.0, 1e-13]),  # estimate 1e13 > COND_LIMIT
    ],
    ids=["reversed-diagonal", "multiplier-20", "zero-last-pivot", "nan-entry", "ill-conditioned"],
)
def test_ordered_solve_refuses(A):
    assert solve_ordered(A.tolist(), [1.0] * 6, IDENTITY_ORDER) is None
