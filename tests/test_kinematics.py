"""Poses, twists, wrenches, and screws against the homogeneous-matrix oracle."""

import numpy as np
import pytest
from conftest import random_pose, random_twist, random_unit_quaternion

from _oracles import (
    make_pose_oracle,
    pose_to_homogeneous_oracle,
    pose_translation_oracle,
    quat_to_matrix_oracle,
)
from dqdyn import (
    ValidationError,
    dq_exp,
    dq_mul,
    dq_quat_conjugate,
    unit_quaternion,
)
from dqdyn.kinematics import (
    ScrewParameters,
    Wrench,
    body_wrench,
    check_pose,
    dual_force_to_body_wrench,
    pose_constraint_errors,
    pose_difference_magnitude,
    pose_from_rotation_translation,
    pose_identity,
    pose_rate_from_body_twist,
    pose_to_rotation_translation,
    rotate_vector,
    screw_compose,
    transform_point,
    twist_world_from_body,
    world_wrench,
    wrench_body_from_world,
    wrench_to_dual_force,
)

SQ2 = np.sqrt(0.5)
ROT90Z = np.array([SQ2, 0.0, 0.0, SQ2])


def test_pose_construction_basic():
    np.testing.assert_array_equal(
        pose_from_rotation_translation([1, 0, 0, 0], [0, 0, 0]), pose_identity()
    )
    d = 1.25
    np.testing.assert_array_equal(
        pose_from_rotation_translation([1, 0, 0, 0], [0, 0, d]),
        np.array([1, 0, 0, 0, 0, 0, 0, d / 2]),
    )
    # quarter turn about z with the reference point at (1, 0, 0)
    p = pose_from_rotation_translation(ROT90Z, [1, 0, 0])
    np.testing.assert_allclose(
        p, np.array([SQ2, 0, 0, SQ2, 0, SQ2 / 2, -SQ2 / 2, 0]), atol=1e-15
    )


def test_pose_construction_rejects_bad_inputs():
    with pytest.raises(ValidationError):
        pose_from_rotation_translation([1, 1, 0, 0], [0, 0, 0])
    with pytest.raises(ValidationError):
        pose_from_rotation_translation([1, 0, 0, 0], [0, 0])


def test_pose_round_trip(rng):
    for _ in range(200):
        q = random_unit_quaternion(rng)
        l = rng.normal(size=3) * 2.0
        p = pose_from_rotation_translation(q, l)
        q2, l2 = pose_to_rotation_translation(p)
        np.testing.assert_allclose(q2, q, atol=1e-14)
        np.testing.assert_allclose(l2, l, atol=1e-13)


def test_pose_split_rejects_drifted_pose(rng):
    p = random_pose(rng)
    with pytest.raises(ValidationError):
        pose_to_rotation_translation(1.001 * p)
    # orthogonality violation with the real norm intact
    bad = p.copy()
    bad[4:] += 1e-6 * p[:4]
    with pytest.raises(ValidationError):
        pose_to_rotation_translation(bad)
    unit_err, orth_err = pose_constraint_errors(bad)
    assert unit_err < 1e-12 and orth_err > 1e-7


def test_transform_point_examples():
    r = np.array([0.3, -0.5, 0.8])
    np.testing.assert_array_equal(transform_point(pose_identity(), r), r)
    p = pose_from_rotation_translation(ROT90Z, [1, 0, 0])
    np.testing.assert_allclose(transform_point(p, [1, 0, 0]), [1, 1, 0], atol=1e-15)


def test_transform_point_matches_homogeneous_oracle(rng):
    for _ in range(200):
        p = random_pose(rng, translation_scale=2.0)
        r = rng.normal(size=3)
        T = pose_to_homogeneous_oracle(p)
        np.testing.assert_allclose(transform_point(p, r), T[:3, :3] @ r + T[:3, 3], atol=1e-12)


def test_transform_point_composition(rng):
    p1 = random_pose(rng)
    p2 = random_pose(rng)
    r = rng.normal(size=3)
    np.testing.assert_allclose(
        transform_point(dq_mul(p1, p2), r),
        transform_point(p1, transform_point(p2, r)),
        atol=1e-12,
    )


def test_transform_point_is_rigid(rng):
    p = random_pose(rng)
    r1, r2 = rng.normal(size=(2, 3))
    d_body = np.linalg.norm(r1 - r2)
    d_world = np.linalg.norm(transform_point(p, r1) - transform_point(p, r2))
    assert abs(d_body - d_world) < 1e-12


def test_transform_point_sign_cover(rng):
    p = random_pose(rng)
    r = rng.normal(size=3)
    np.testing.assert_array_equal(transform_point(p, r), transform_point(-p, r))


def test_rotate_vector(rng):
    v = np.array([1.0, 2.0, 3.0])
    np.testing.assert_array_equal(rotate_vector(np.array([1.0, 0, 0, 0]), v), v)
    np.testing.assert_allclose(rotate_vector(ROT90Z, [1, 0, 0]), [0, 1, 0], atol=1e-15)
    for _ in range(100):
        q = random_unit_quaternion(rng)
        u = rng.normal(size=3)
        np.testing.assert_allclose(rotate_vector(q, u), quat_to_matrix_oracle(q) @ u, atol=1e-13)
        assert abs(np.linalg.norm(rotate_vector(q, u)) - np.linalg.norm(u)) < 1e-13
        np.testing.assert_array_equal(rotate_vector(q, u), rotate_vector(-q, u))


def test_sandwiches_extend_off_the_group(rng):
    # the float kernels keep the operation order of the explicit products, so
    # non-unit quaternions and off-group poses give the same polynomial
    from dqdyn.quat import quat_conjugate, quat_mul

    for _ in range(100):
        q = 1.7 * random_unit_quaternion(rng)
        v = rng.normal(size=3)
        explicit = quat_mul(quat_mul(q, np.concatenate([[0.0], v])), quat_conjugate(q))[1:]
        np.testing.assert_allclose(rotate_vector(q, v), explicit, rtol=0.0, atol=1e-15)
        p = random_pose(rng) + 0.05 * rng.normal(size=8)
        assert abs(np.linalg.norm(p[:4]) - 1.0) > 1e-6 and abs(p[:4] @ p[4:]) > 1e-6
        r = rng.normal(size=3)
        pbar = np.concatenate([quat_conjugate(p[:4]), -quat_conjugate(p[4:])])
        explicit = dq_mul(dq_mul(p, np.concatenate([[1.0, 0.0, 0.0, 0.0, 0.0], r])), pbar)[5:]
        np.testing.assert_allclose(transform_point(p, r), explicit, rtol=0.0, atol=1e-15)


def test_point_map_is_the_two_product_sandwich(rng):
    # rotate-plus-translate, vec(a r a†) + 2 vec(b a†), is the same polynomial
    # as the sandwich p (1 + eps r) p_bar for any ambient 8-vector p = a + eps b
    for _ in range(2000):
        p = rng.uniform(0.2, 3.0) * rng.normal(size=8)
        r = rng.uniform(0.1, 3.0) * rng.normal(size=3)
        assert abs(np.linalg.norm(p[:4]) - 1.0) > 1e-6
        pbar = np.concatenate([dq_quat_conjugate(p)[:4], -dq_quat_conjugate(p)[4:]])
        explicit = dq_mul(dq_mul(p, np.concatenate([[1.0, 0.0, 0.0, 0.0, 0.0], r])), pbar)[5:]
        got = transform_point(p, r)
        assert np.max(np.abs(got - explicit)) <= 1e-14 * np.max(np.abs(explicit))


def test_twist_world_from_body(rng):
    chi = random_twist(rng)
    np.testing.assert_array_equal(twist_world_from_body(pose_identity(), chi), chi)
    for _ in range(50):
        p = random_pose(rng)
        chi = random_twist(rng)
        R = quat_to_matrix_oracle(p[:4])
        got = twist_world_from_body(p, chi)
        np.testing.assert_allclose(got[:3], R @ chi[:3], atol=1e-13)
        np.testing.assert_allclose(got[3:], R @ chi[3:], atol=1e-13)


def test_twist_world_energy_pairing(rng):
    # matched wrenches: world wrench = body wrench rotated (same reference
    # point). Power computed in either frame agrees.
    for _ in range(100):
        p = random_pose(rng)
        chi_b = random_twist(rng)
        tau_b = body_wrench(rng.normal(size=3), rng.normal(size=3))
        R = quat_to_matrix_oracle(p[:4])
        tau_w = world_wrench(R @ tau_b.torque, R @ tau_b.force)
        chi_w = twist_world_from_body(p, chi_b)
        assert abs(tau_w.vector6 @ chi_w - tau_b.vector6 @ chi_b) < 1e-12


def test_world_product_form_carries_origin_moment(rng):
    # 2 pdot * conj(p) is pure, its real slot is omega_W, and its dual slot is
    # l_dot - omega_W x l (the world-origin moment), not the translation rate.
    p = random_pose(rng, translation_scale=2.0)
    chi = random_twist(rng)
    pdot = pose_rate_from_body_twist(p, chi)
    wd = 2.0 * dq_mul(pdot, dq_quat_conjugate(p))
    assert abs(wd[0]) < 1e-12 and abs(wd[4]) < 1e-12
    w_chi = twist_world_from_body(p, chi)
    l = pose_translation_oracle(p)
    np.testing.assert_allclose(wd[1:4], w_chi[:3], atol=1e-12)
    np.testing.assert_allclose(wd[5:8], w_chi[3:] - np.cross(w_chi[:3], l), atol=1e-12)
    # and it genuinely differs from the translation rate when l, omega != 0
    assert np.linalg.norm(wd[5:8] - w_chi[3:]) > 1e-3


def test_wrench_frame_tag_validation():
    with pytest.raises(ValidationError):
        Wrench(torque=np.zeros(3), force=np.zeros(3), frame="spatial")
    with pytest.raises(ValidationError):
        body_wrench(np.zeros(2), np.zeros(3))


def test_wrench_body_from_world(rng):
    p = random_pose(rng)
    R = quat_to_matrix_oracle(p[:4])
    tau_b = body_wrench(rng.normal(size=3), rng.normal(size=3))
    tau_w = world_wrench(R @ tau_b.torque, R @ tau_b.force)
    back = wrench_body_from_world(p, tau_w)
    assert back.frame == "body"
    np.testing.assert_allclose(back.torque, tau_b.torque, atol=1e-13)
    np.testing.assert_allclose(back.force, tau_b.force, atol=1e-13)
    # body input passes through untouched
    assert wrench_body_from_world(p, tau_b) is tau_b


def test_dual_force_identity_pose():
    w = body_wrench([1.0, 2.0, 3.0], [4.0, 5.0, 6.0])
    F = wrench_to_dual_force(pose_identity(), w)
    np.testing.assert_array_equal(F, np.array([0, 2, 4, 6, 0, 8, 10, 12.0]))


def test_dual_force_work_identity(rng):
    # F . pdot = tau . omega + f . v for any pose and twist, both frames.
    for _ in range(1000):
        p = random_pose(rng)
        chi = random_twist(rng)
        torque, force = rng.normal(size=(2, 3))
        w = body_wrench(torque, force)
        pdot = pose_rate_from_body_twist(p, chi)
        F = wrench_to_dual_force(p, w)
        assert abs(F @ pdot - w.vector6 @ chi) < 1e-12
    for _ in range(200):
        p = random_pose(rng)
        chi = random_twist(rng)
        R = quat_to_matrix_oracle(p[:4])
        torque, force = rng.normal(size=(2, 3))
        w_world = world_wrench(R @ torque, R @ force)
        pdot = pose_rate_from_body_twist(p, chi)
        F = wrench_to_dual_force(p, w_world)
        assert abs(F @ pdot - (torque @ chi[:3] + force @ chi[3:])) < 1e-12


def test_dual_force_two_routes_agree(rng):
    # the body-frame and world-frame formulas produce the same 8-vector for
    # the same physical wrench
    for _ in range(100):
        p = random_pose(rng, translation_scale=2.0)
        R = quat_to_matrix_oracle(p[:4])
        tau_b = body_wrench(rng.normal(size=3), rng.normal(size=3))
        tau_w = world_wrench(R @ tau_b.torque, R @ tau_b.force)
        F_body = wrench_to_dual_force(p, tau_b)
        F_world = wrench_to_dual_force(p, tau_w)
        np.testing.assert_allclose(F_body, F_world, atol=1e-12)


def test_dual_force_round_trip(rng):
    for _ in range(100):
        p = random_pose(rng)
        w = body_wrench(rng.normal(size=3), rng.normal(size=3))
        back = dual_force_to_body_wrench(p, wrench_to_dual_force(p, w))
        np.testing.assert_allclose(back.torque, w.torque, atol=1e-12)
        np.testing.assert_allclose(back.force, w.force, atol=1e-12)


def test_dual_force_round_trip_world(rng):
    p = random_pose(rng, translation_scale=2.0)
    w_world = world_wrench(rng.normal(size=3), rng.normal(size=3))
    back = dual_force_to_body_wrench(p, wrench_to_dual_force(p, w_world))
    expected = wrench_body_from_world(p, w_world)
    np.testing.assert_allclose(back.torque, expected.torque, atol=1e-12)
    np.testing.assert_allclose(back.force, expected.force, atol=1e-12)


def test_screw_identity():
    s = ScrewParameters(axis=[0.0, 0.0, 1.0], moment=np.zeros(3), angle=0.0, slide=0.0)
    np.testing.assert_allclose(screw_compose(s), pose_identity(), atol=1e-16)


def test_screw_pure_rotation():
    s = ScrewParameters(axis=[0.0, 1.0, 0.0], moment=np.zeros(3), angle=0.3, slide=0.0)
    expected = pose_from_rotation_translation(np.array([np.cos(0.15), 0.0, np.sin(0.15), 0.0]), np.zeros(3))
    np.testing.assert_allclose(screw_compose(s), expected, atol=1e-16)


def test_screw_pure_translation():
    s = ScrewParameters(axis=[0.6, 0.0, -0.8], moment=np.zeros(3), angle=0.0, slide=0.5)
    p = pose_from_rotation_translation([1, 0, 0, 0], [0.3, 0.0, -0.4])
    np.testing.assert_allclose(screw_compose(s), p, atol=1e-15)


def test_screw_compose_turns_about_and_slides_along_its_axis(rng):
    # the pose rotates by the angle about the axis, and moves the axis'
    # point nearest the origin, axis x moment, along the axis by the slide
    for _ in range(200):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        moment = rng.normal(size=3)
        moment -= (moment @ axis) * axis
        angle, slide = rng.uniform(0.1, 3.0), rng.normal()
        p = screw_compose(ScrewParameters(axis=axis, moment=moment, angle=angle, slide=slide))
        np.testing.assert_allclose(p[:4], [np.cos(0.5 * angle), *(np.sin(0.5 * angle) * axis)], atol=1e-14)
        point = np.cross(axis, moment)
        np.testing.assert_allclose(transform_point(p, point), point + slide * axis, atol=1e-12)


def test_screw_parameter_validation():
    with pytest.raises(ValidationError):
        ScrewParameters(axis=[0, 0, 2.0], moment=np.zeros(3), angle=0.1, slide=0.0)
    with pytest.raises(ValidationError):
        ScrewParameters(axis=[0, 0, 1.0], moment=[0, 0, 0.5], angle=0.1, slide=0.0)


def test_pose_difference_magnitude(rng):
    p = random_pose(rng)
    assert pose_difference_magnitude(p, p) < 1e-14
    assert pose_difference_magnitude(p, -p) < 1e-14
    # small rotation offset: magnitude equals the rotation angle
    q = np.array([np.cos(0.01), np.sin(0.01), 0.0, 0.0])
    offset = pose_from_rotation_translation(q, np.zeros(3))
    assert abs(pose_difference_magnitude(p, dq_mul(p, offset)) - 0.02) < 1e-12
    # translation offset: magnitude equals the displacement length
    shift = pose_from_rotation_translation([1, 0, 0, 0], [0.3, 0.0, 0.4])
    assert abs(pose_difference_magnitude(p, dq_mul(p, shift)) - 0.5) < 1e-12


def test_validators_reject_nan():
    # NaN fails every comparison, so a check must not pass it by default
    nan = float("nan")
    with pytest.raises(ValidationError, match="norm off unity"):
        check_pose(np.full(8, nan))
    with pytest.raises(ValidationError, match="orthogonality"):
        check_pose(np.array([1.0, 0.0, 0.0, 0.0, nan, 0.0, 0.0, 0.0]))
    with pytest.raises(ValidationError):
        pose_to_rotation_translation(np.full(8, nan))
    with pytest.raises(ValidationError):
        unit_quaternion([nan, 0.0, 0.0, 0.0])
    with pytest.raises(ValidationError):
        pose_from_rotation_translation([nan, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0])
    with pytest.raises(ValidationError):
        dq_exp([nan, 0.0, 0.0, 0.0, nan, 0.0, 0.0, 0.0])


def test_check_pose_accepts_valid(rng):
    check_pose(random_pose(rng))
    with pytest.raises(ValidationError):
        check_pose(np.zeros(8))
