"""Quaternion / dual quaternion algebra against independent matrix oracles."""

import numpy as np
import pytest
from conftest import random_pose, random_unit_quaternion

from _oracles import dq_mul_oracle, dq_series_exp_oracle, quat_mul_oracle
from dqdyn import (
    ValidationError,
    dq_dual_transpose,
    dq_exp,
    dq_identity,
    dq_log,
    dq_mul,
    dq_quat_conjugate,
    pure_dual_quaternion,
    pure_quaternion,
    quat_conjugate,
    quat_exp,
    quat_identity,
    quat_mul,
    quat_norm,
    quaternion,
    unit_quaternion,
)
from dqdyn.quat import SMALL_ANGLE, dq_log_parts


def test_quat_mul_unit_elements():
    i = quaternion(0, 1, 0, 0)
    j = quaternion(0, 0, 1, 0)
    k = quaternion(0, 0, 0, 1)
    assert np.array_equal(quat_mul(i, j), k)
    assert np.array_equal(quat_mul(j, k), i)
    assert np.array_equal(quat_mul(k, i), j)
    assert np.array_equal(quat_mul(i, i), quaternion(-1, 0, 0, 0))
    q = quaternion(0.5, -1.5, 2.0, 0.25)
    assert np.array_equal(quat_mul(quat_identity(), q), q)
    assert np.array_equal(quat_mul(q, quat_identity()), q)


def test_quat_mul_matches_matrix_oracle(rng):
    for _ in range(300):
        q1 = rng.normal(size=4)
        q2 = rng.normal(size=4)
        np.testing.assert_allclose(quat_mul(q1, q2), quat_mul_oracle(q1, q2), atol=1e-13)


def test_quat_mul_associative(rng):
    for _ in range(200):
        a, b, c = rng.normal(size=(3, 4))
        np.testing.assert_allclose(
            quat_mul(quat_mul(a, b), c), quat_mul(a, quat_mul(b, c)), atol=1e-12
        )


def test_quat_conjugate():
    q = quaternion(1.0, 2.0, -3.0, 0.5)
    assert np.array_equal(quat_conjugate(q), quaternion(1.0, -2.0, 3.0, -0.5))
    assert np.array_equal(quat_conjugate(quat_conjugate(q)), q)
    # q * conj(q) = |q|^2 * identity
    prod = quat_mul(q, quat_conjugate(q))
    np.testing.assert_allclose(prod, quat_norm(q) ** 2 * quat_identity(), atol=1e-12)


def test_quat_conjugate_reverses_products(rng):
    for _ in range(100):
        a, b = rng.normal(size=(2, 4))
        np.testing.assert_allclose(
            quat_conjugate(quat_mul(a, b)),
            quat_mul(quat_conjugate(b), quat_conjugate(a)),
            atol=1e-13,
        )


def test_quat_dot_product_identities(rng):
    # (q1*q2).q3 == (conj(q1)*q3).q2 == (q3*conj(q2)).q1
    for _ in range(1000):
        q1, q2, q3 = rng.normal(size=(3, 4))
        lhs = quat_mul(q1, q2) @ q3
        mid = quat_mul(quat_conjugate(q1), q3) @ q2
        rhs = quat_mul(q3, quat_conjugate(q2)) @ q1
        assert abs(lhs - mid) < 1e-12
        assert abs(lhs - rhs) < 1e-12


def test_quat_exp_basic():
    np.testing.assert_array_equal(quat_exp(np.zeros(4)), quat_identity())
    got = quat_exp(quaternion(0, 0, 0, np.pi / 2))
    np.testing.assert_allclose(got, quaternion(0, 0, 0, 1), atol=1e-15)
    # scalar part scales the whole result by e^w
    got = quat_exp(quaternion(0.3, 0.1, -0.2, 0.4))
    np.testing.assert_allclose(got, np.exp(0.3) * quat_exp(quaternion(0, 0.1, -0.2, 0.4)), rtol=1e-14)


def test_quat_exp_tiny_argument_is_finite():
    got = quat_exp(quaternion(0, 1e-12, 0, 0))
    assert np.all(np.isfinite(got))
    np.testing.assert_allclose(got, quaternion(1, 1e-12, 0, 0), atol=1e-20)


def test_quat_exp_unit_norm_for_pure_inputs(rng):
    for _ in range(200):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        theta = rng.uniform(0, np.pi)
        q = quat_exp(pure_quaternion(theta * axis))
        assert abs(quat_norm(q) - 1.0) < 1e-14


def test_unit_quaternion_validator():
    unit_quaternion([1.0, 0.0, 0.0, 0.0])
    with pytest.raises(ValidationError):
        unit_quaternion([1.0, 1.0, 0.0, 0.0])


def test_dq_mul_matches_eps_expansion_oracle(rng):
    for _ in range(300):
        p1 = rng.normal(size=8)
        p2 = rng.normal(size=8)
        np.testing.assert_allclose(dq_mul(p1, p2), dq_mul_oracle(p1, p2), atol=1e-13)


def test_dq_identity_element(rng):
    p = rng.normal(size=8)
    np.testing.assert_array_equal(dq_mul(dq_identity(), p), p)
    np.testing.assert_array_equal(dq_mul(p, dq_identity()), p)


def test_dq_unit_group_closure(rng):
    for _ in range(100):
        p1 = random_pose(rng)
        p2 = random_pose(rng)
        prod = dq_mul(p1, p2)
        assert abs(np.linalg.norm(prod[:4]) - 1.0) < 1e-13
        assert abs(prod[:4] @ prod[4:]) < 1e-13
        # p * conj(p) = identity for unit dual quaternions
        np.testing.assert_allclose(dq_mul(p1, dq_quat_conjugate(p1)), dq_identity(), atol=1e-13)


def test_dq_quat_conjugate_reverses_products(rng):
    p1, p2 = rng.normal(size=(2, 8))
    np.testing.assert_allclose(
        dq_quat_conjugate(dq_mul(p1, p2)),
        dq_mul(dq_quat_conjugate(p2), dq_quat_conjugate(p1)),
        atol=1e-13,
    )


def test_dq_dual_transpose(rng):
    p = rng.normal(size=8)
    swapped = dq_dual_transpose(p)
    np.testing.assert_array_equal(swapped[:4], p[4:])
    np.testing.assert_array_equal(swapped[4:], p[:4])
    np.testing.assert_array_equal(dq_dual_transpose(swapped), p)
    # epsilon-grading: the real part of (p*q)^* collects the cross terms
    q = rng.normal(size=8)
    lhs = dq_dual_transpose(dq_mul(p, q))[:4]
    rhs = dq_mul(p, dq_dual_transpose(q))[:4] + dq_mul(dq_dual_transpose(p), q)[:4]
    np.testing.assert_allclose(lhs, rhs, atol=1e-13)


def test_dq_dot_product_identities(rng):
    # 8-vector dot analogue of the quaternion identities:
    # (p1*p2).p3 == ((conj(p1) * p3^T)^T).p2 == ((p3^T * conj(p2))^T).p1
    # where ^T is the dual transpose.
    for _ in range(1000):
        p1, p2, p3 = rng.normal(size=(3, 8))
        lhs = dq_mul(p1, p2) @ p3
        mid = dq_dual_transpose(dq_mul(dq_quat_conjugate(p1), dq_dual_transpose(p3))) @ p2
        rhs = dq_dual_transpose(dq_mul(dq_dual_transpose(p3), dq_quat_conjugate(p2))) @ p1
        assert abs(lhs - mid) < 1e-12
        assert abs(lhs - rhs) < 1e-12


def test_dq_exp_identity_and_rotation():
    np.testing.assert_array_equal(dq_exp(np.zeros(8)), dq_identity())
    # pure rotation: real part is the quaternion exponential, dual part zero
    a = np.array([0.3, -0.1, 0.2])
    got = dq_exp(pure_dual_quaternion(a, np.zeros(3)))
    np.testing.assert_allclose(got[:4], quat_exp(pure_quaternion(a)), atol=1e-15)
    np.testing.assert_array_equal(got[4:], np.zeros(4))


def test_dq_exp_pure_translation():
    # screw with zero rotation: exp([0; d/2 zhat]) = identity + eps*(0, 0, 0, d/2)
    d = 0.7
    got = dq_exp(pure_dual_quaternion(np.zeros(3), [0, 0, d / 2]))
    expected = np.array([1, 0, 0, 0, 0, 0, 0, d / 2])
    np.testing.assert_allclose(got, expected, atol=1e-16)


def test_dq_exp_matches_series_oracle(rng):
    for _ in range(200):
        a = rng.normal(size=3)
        b = rng.normal(size=3)
        eta = pure_dual_quaternion(a, b)
        np.testing.assert_allclose(dq_exp(eta), dq_series_exp_oracle(eta), atol=1e-12)


def test_dq_exp_lands_on_unit_group(rng):
    for _ in range(1000):
        scale = rng.uniform(0, np.pi)
        a = rng.normal(size=3)
        norm_a = np.linalg.norm(a)
        if norm_a > 0:
            a *= scale / norm_a
        p = dq_exp(pure_dual_quaternion(a, rng.normal(size=3)))
        assert abs(np.linalg.norm(p[:4]) - 1.0) < 1e-12
        assert abs(p[:4] @ p[4:]) < 1e-12


def test_dq_exp_small_angle_branch(rng):
    for mag in [0.0, 1e-12, 1e-9, 5e-9, 2e-8, 1e-6]:
        a = mag * np.array([1.0, 0.0, 0.0])
        b = np.array([0.2, -0.1, 0.4])
        eta = pure_dual_quaternion(a, b)
        p = dq_exp(eta)
        assert np.all(np.isfinite(p))
        np.testing.assert_allclose(p, dq_series_exp_oracle(eta), atol=1e-14)


def test_dq_exp_rejects_non_pure_input():
    bad = np.ones(8)
    with pytest.raises(ValidationError):
        dq_exp(bad)


def test_dq_log_round_trips(rng):
    for _ in range(200):
        eta = pure_dual_quaternion(rng.normal(size=3) * 0.4, rng.normal(size=3))
        np.testing.assert_allclose(dq_log(dq_exp(eta)), eta, atol=1e-13)
    for _ in range(200):
        p = random_pose(rng)
        back = dq_exp(dq_log(p))
        if p[0] >= 0:
            np.testing.assert_allclose(back, p, atol=1e-13)
        else:
            np.testing.assert_allclose(back, -p, atol=1e-13)


def test_dq_log_pure_translation():
    p = np.array([1, 0, 0, 0, 0, 0.1, -0.2, 0.3])
    eta = dq_log(p)
    np.testing.assert_allclose(eta, pure_dual_quaternion(np.zeros(3), [0.1, -0.2, 0.3]), atol=1e-16)


def test_dq_log_is_the_float_kernel(rng):
    def check(p):
        a0, a1, a2, b0, b1, b2 = dq_log_parts(p.tolist())
        np.testing.assert_array_equal(dq_log(p), [0.0, a0, a1, a2, 0.0, b0, b1, b2])

    for _ in range(100):
        check(random_pose(rng))
    # rotation angle below SMALL_ANGLE: the Taylor branches
    for _ in range(20):
        eta = pure_dual_quaternion(rng.normal(size=3) * 0.1 * SMALL_ANGLE, rng.normal(size=3))
        p = dq_exp(eta)
        assert np.linalg.norm(dq_log(p)[1:4]) < SMALL_ANGLE
        check(p)
    # negative scalar part: canonicalised to the same logarithm as -p
    for _ in range(20):
        p = random_pose(rng)
        if p[0] > 0.0:
            p = -p
        check(p)
        assert dq_log_parts(p.tolist()) == dq_log_parts((-p).tolist())
