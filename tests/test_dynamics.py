"""Inertia assembly, potentials, and force models against physical oracles."""

from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from conftest import random_pose, random_twist

from _oracles import cloud_kinetic_energy, point_cloud, quat_to_matrix_oracle
from dqdyn import dq_exp, dq_mul, pure_dual_quaternion
from dqdyn.dynamics import (
    ForceModel,
    PotentialField,
    build_inertia,
    build_inertia_raw,
    constant_wrench_model,
    damping_model,
    force_model_from_potential,
    gravity_potential,
    kinetic_energy,
    momentum,
    numeric_conservative_wrench,
    potential_energy,
    skew,
    spring_potential,
    total_wrench,
    world_momentum,
    wrench_sum,
)
from dqdyn.errors import SingularMatrixError, ValidationError
from dqdyn.kinematics import (
    body_wrench,
    pose_from_rotation_translation,
    pose_identity,
    transform_point,
    world_wrench,
)


def test_skew():
    v = np.array([1.0, 2.0, 3.0])
    u = np.array([-0.5, 0.25, 2.0])
    np.testing.assert_allclose(skew(v) @ u, np.cross(v, u), atol=1e-15)
    np.testing.assert_array_equal(skew(v).T, -skew(v))


def test_build_inertia_com_reference():
    M = build_inertia(2.0, np.diag([1.0, 2.0, 3.0]))
    assert not M.coupled
    np.testing.assert_array_equal(M.m11, np.diag([1.0, 2.0, 3.0]))
    np.testing.assert_array_equal(M.m12, np.zeros((3, 3)))
    np.testing.assert_array_equal(M.m21, np.zeros((3, 3)))
    np.testing.assert_array_equal(M.m22, 2.0 * np.eye(3))
    np.testing.assert_allclose(
        M.inverse, np.diag([1.0, 0.5, 1.0 / 3.0, 0.5, 0.5, 0.5]), atol=1e-14
    )


def test_build_inertia_offset_blocks():
    r = np.array([0.0, 0.0, 1.0])
    M = build_inertia(2.0, np.diag([3.0, 3.0, 1.0]), r)
    assert M.coupled
    np.testing.assert_array_equal(M.m12, 2.0 * skew(r))
    np.testing.assert_array_equal(M.m21, -2.0 * skew(r))
    np.testing.assert_allclose(M.matrix @ M.inverse, np.eye(6), atol=1e-12)


def test_build_inertia_inverse_vs_lu_oracle(rng):
    for _ in range(20):
        r = rng.normal(size=3) * 0.3
        J = np.diag(rng.uniform(1.0, 3.0, size=3)) + 2.0 * np.eye(3)
        mass = rng.uniform(0.5, 4.0)
        M = build_inertia(mass, J, r)
        lu, piv = scipy.linalg.lu_factor(M.matrix)
        oracle_inv = scipy.linalg.lu_solve((lu, piv), np.eye(6))
        np.testing.assert_allclose(M.inverse, oracle_inv, atol=1e-12)


def test_build_inertia_rejects_bad_inputs():
    with pytest.raises(ValidationError):
        build_inertia(0.0, np.eye(3))
    with pytest.raises(ValidationError):
        build_inertia(-1.0, np.eye(3))
    J = np.eye(3)
    J[0, 1] = 0.5  # not symmetric
    with pytest.raises(ValidationError):
        build_inertia(1.0, J)
    with pytest.raises(ValidationError):
        build_inertia(1.0, np.diag([1.0, 1.0, -0.1]))
    with pytest.raises(ValidationError):
        build_inertia(1.0, np.diag([1.0, 1.0, 0.0]))


def test_build_inertia_detects_degenerate_offset():
    # J equal to the point-mass bound m*S(r)^T S(r): the center-of-mass
    # Schur complement is singular even though J itself is positive definite
    with pytest.raises(SingularMatrixError):
        build_inertia(1.0, np.eye(3), (0.0, 0.0, 1.0))


def test_build_inertia_raw(rng):
    A = rng.normal(size=(6, 6))
    M6 = A @ A.T + 6.0 * np.eye(6)
    M = build_inertia_raw(M6)
    np.testing.assert_array_equal(M.matrix, M6)
    np.testing.assert_array_equal(M.m12, M6[:3, 3:])
    np.testing.assert_allclose(M.matrix @ M.inverse, np.eye(6), atol=1e-11)
    assert M.coupled
    with pytest.raises(ValidationError):
        build_inertia_raw(np.zeros((3, 3)))
    with pytest.raises(ValidationError):
        build_inertia_raw(np.full((6, 6), np.nan))
    with pytest.raises(SingularMatrixError):
        build_inertia_raw(np.zeros((6, 6)))


def test_kinetic_energy_basics():
    M = build_inertia(1.0, np.eye(3))
    assert kinetic_energy(M, np.zeros(6)) == 0.0
    chi = np.array([1.0, 0.0, 0.0, 2.0, 0.0, 0.0])
    assert abs(kinetic_energy(M, chi) - 2.5) < 1e-15


def test_kinetic_energy_matches_point_cloud(rng):
    mass = 2.0
    J_cm = np.diag([2.0, 3.0, 4.0])
    r = np.array([0.1, -0.2, 0.3])
    # inertia about the reference point, parallel-axis shifted
    J_ref = J_cm - mass * skew(r) @ skew(r)
    M = build_inertia(mass, J_ref, r)
    masses, points = point_cloud(mass, J_cm, r)
    assert abs(masses.sum() - mass) < 1e-12
    np.testing.assert_allclose(masses @ points / mass, r, atol=1e-12)
    for _ in range(50):
        chi = random_twist(rng)
        oracle = cloud_kinetic_energy(masses, points, chi[:3], chi[3:])
        assert abs(kinetic_energy(M, chi) - oracle) < 1e-10


def test_kinetic_energy_reference_point_invariance(rng):
    mass = 2.0
    J_cm = np.diag([2.0, 3.0, 4.0])
    r = np.array([0.3, -0.1, 0.2])
    M_cm = build_inertia(mass, J_cm)
    M_ref = build_inertia(mass, J_cm - mass * skew(r) @ skew(r), r)
    for _ in range(100):
        omega = rng.normal(size=3)
        v_ref = rng.normal(size=3)
        v_cm = v_ref + np.cross(omega, r)
        T_ref = kinetic_energy(M_ref, np.concatenate([omega, v_ref]))
        T_cm = kinetic_energy(M_cm, np.concatenate([omega, v_cm]))
        assert abs(T_ref - T_cm) < 1e-9


def test_world_momentum(rng):
    M = build_inertia(2.0, np.diag([1.0, 2.0, 3.0]))
    chi = np.array([1.0, -1.0, 0.5, 0.3, 0.0, -0.2])
    L, P = world_momentum(pose_identity(), M, chi)
    np.testing.assert_allclose(P, 2.0 * chi[3:], atol=1e-15)
    np.testing.assert_allclose(L, np.diag([1.0, 2.0, 3.0]) @ chi[:3], atol=1e-15)
    # translated pose adds the orbital term l x P
    l = np.array([1.0, 2.0, -0.5])
    p = pose_from_rotation_translation([1, 0, 0, 0], l)
    L2, P2 = world_momentum(p, M, chi)
    np.testing.assert_allclose(P2, P, atol=1e-14)
    np.testing.assert_allclose(L2, L + np.cross(l, P), atol=1e-13)
    # rotated pose rotates both
    p = random_pose(rng, translation_scale=0.0)
    R = quat_to_matrix_oracle(p[:4])
    L3, P3 = world_momentum(p, M, chi)
    np.testing.assert_allclose(P3, R @ P, atol=1e-12)
    np.testing.assert_allclose(L3, R @ L, atol=1e-12)


def test_world_momentum_rejects_one_off_group_pose():
    # a stack is taken as it is (a trajectory's drifted rows still report);
    # one pose must lie on the unit group
    M = build_inertia(1.0, np.diag([1.0, 2.0, 3.0]))
    pose = pose_identity()
    pose[0] = 1.0 + 1e-6
    with pytest.raises(ValidationError):
        world_momentum(pose, M, np.ones(6))


def test_momentum_vector():
    M = build_inertia(2.0, np.diag([1.0, 2.0, 3.0]))
    chi = np.arange(1.0, 7.0)
    np.testing.assert_allclose(momentum(M, chi), M.matrix @ chi, atol=1e-15)


def test_gravity_potential_values():
    field = gravity_potential(2.0, [0.0, 0.0, -9.81])
    assert abs(field.evaluate(pose_identity())) < 1e-15
    p = pose_from_rotation_translation([1, 0, 0, 0], [0.0, 0.0, 3.0])
    assert abs(field.evaluate(p) - 2.0 * 9.81 * 3.0) < 1e-12
    w = field.body_wrench(pose_identity())
    np.testing.assert_allclose(w.force, [0.0, 0.0, -19.62], atol=1e-14)
    np.testing.assert_allclose(w.torque, np.zeros(3), atol=1e-15)


def test_gravity_wrench_rotated_pose(rng):
    field = gravity_potential(1.5, [0.0, 0.0, -9.81], com_offset=[0.2, 0.0, -0.1])
    for _ in range(100):
        p = random_pose(rng)
        analytic = field.body_wrench(p)
        numeric = numeric_conservative_wrench(field, p)
        np.testing.assert_allclose(analytic.force, numeric.force, atol=1e-6)
        np.testing.assert_allclose(analytic.torque, numeric.torque, atol=1e-6)
        R = quat_to_matrix_oracle(p[:4])
        np.testing.assert_allclose(analytic.force, R.T @ np.array([0, 0, -1.5 * 9.81]), atol=1e-12)


def test_spring_potential(rng):
    anchor = np.array([0.0, 0.0, 1.0])
    attach = np.array([0.1, 0.0, 0.0])
    field = spring_potential(anchor, attach, stiffness=50.0, rest_length=0.5)
    # reference placed so the attachment sits at rest distance: zero wrench
    p = pose_from_rotation_translation([1, 0, 0, 0], [-0.1, 0.0, 0.5])
    assert abs(field.evaluate(p)) < 1e-12
    w = field.body_wrench(p)
    np.testing.assert_allclose(w.force, np.zeros(3), atol=1e-10)
    # axial stretch by s: force k*s toward the anchor
    p = pose_from_rotation_translation([1, 0, 0, 0], [-0.1, 0.0, 0.3])
    w = field.body_wrench(p)
    np.testing.assert_allclose(w.force, [0.0, 0.0, 50.0 * 0.2], atol=1e-10)
    for _ in range(100):
        pr = random_pose(rng)
        analytic = field.body_wrench(pr)
        numeric = numeric_conservative_wrench(field, pr)
        np.testing.assert_allclose(analytic.force, numeric.force, atol=1e-6)
        np.testing.assert_allclose(analytic.torque, numeric.torque, atol=1e-6)


def test_spring_rejects_bad_inputs():
    with pytest.raises(ValidationError):
        spring_potential([0, 0, 1], [0, 0], 10.0)
    with pytest.raises(ValidationError):
        spring_potential([0, 0, 1], [0, 0, 0], -1.0)


def test_numeric_wrench_constant_potential(rng):
    field = PotentialField(evaluate=lambda pose: 42.0)
    w = numeric_conservative_wrench(field, random_pose(rng))
    np.testing.assert_allclose(w.torque, np.zeros(3), atol=1e-9)
    np.testing.assert_allclose(w.force, np.zeros(3), atol=1e-9)


def test_conservative_wrench_matches_power_balance(rng):
    # dU/dt along any twist equals minus the wrench power: checks the sign
    # and the contraction of the gradient pipeline independently
    field = spring_potential([0.3, -0.2, 0.8], [0.15, 0.05, 0.0], 12.0, 0.25)
    for _ in range(50):
        p = random_pose(rng)
        chi = random_twist(rng)
        w = field.body_wrench(p)
        dt = 1e-6

        def at(t):
            step = dq_exp(pure_dual_quaternion(0.5 * t * chi[:3], 0.5 * t * chi[3:]))
            return field.evaluate(dq_mul(p, step))

        dU = (at(dt) - at(-dt)) / (2.0 * dt)
        power = float(w.vector6 @ chi)
        assert abs(dU + power) < 1e-5 * max(1.0, abs(power))


def test_force_model_from_potential(rng):
    # the spring has an off-centre attachment and a positive rest length
    for field in (
        gravity_potential(1.0, [0, 0, -9.81], com_offset=[0.1, 0.0, 0.0]),
        spring_potential([0.2, -0.3, 1.0], [0.3, -0.1, 0.2], stiffness=25.0, rest_length=0.4),
    ):
        analytic = force_model_from_potential(field)
        numeric = force_model_from_potential(field, numeric=True)
        assert analytic.conservative and numeric.conservative
        assert analytic.energy is field.evaluate
        for _ in range(20):
            p = random_pose(rng)
            wa = analytic.evaluate(p, np.zeros(6), 0.0)
            wn = numeric.evaluate(p, np.zeros(6), 0.0)
            np.testing.assert_allclose(wa.torque, wn.torque, atol=1e-6)
            np.testing.assert_allclose(wa.force, wn.force, atol=1e-6)


def test_spring_wrench_zero_at_anchor(rng):
    # attachment exactly on the anchor: the direction is undefined and the
    # wrench is exactly zero, whatever the rest length
    anchor = np.array([0.0, 0.0, 1.0])
    attach = np.array([0.5, 0.0, 0.0])
    field = spring_potential(anchor, attach, stiffness=40.0, rest_length=0.3)
    p = pose_from_rotation_translation([1, 0, 0, 0], anchor - attach)
    np.testing.assert_array_equal(transform_point(p, attach), anchor)
    w = field.body_wrench(p)
    assert np.array_equal(w.torque, np.zeros(3)) and np.array_equal(w.force, np.zeros(3))
    assert field.evaluate(p) == 0.5 * 40.0 * 0.3**2


def test_constant_wrench_model():
    w = body_wrench([1.0, 0.0, 0.0], [0.0, 2.0, 0.0])
    model = constant_wrench_model(w)
    assert model.evaluate(pose_identity(), np.zeros(6), 10.0) is w
    assert not model.conservative
    with pytest.raises(ValidationError):
        constant_wrench_model(np.zeros(6))


def test_damping_model():
    model = damping_model(0.5, [1.0, 2.0, 3.0])
    chi = np.array([1.0, -2.0, 0.5, 2.0, 1.0, -1.0])
    w = model.evaluate(pose_identity(), chi, 0.0)
    np.testing.assert_allclose(w.torque, [-0.5, 1.0, -0.25], atol=1e-15)
    np.testing.assert_allclose(w.force, [-2.0, -2.0, 3.0], atol=1e-15)
    with pytest.raises(ValidationError):
        damping_model(-0.1, 0.0)


def test_damping_model_rejects_bad_coefficients():
    with pytest.raises(ValidationError, match="angular damping coefficient"):
        damping_model([1.0, 2.0], 0.0)
    with pytest.raises(ValidationError, match="linear damping coefficient"):
        damping_model(0.0, np.ones((2, 3)))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValidationError, match="finite and non-negative"):
            damping_model([0.1, bad, 0.1], 0.0)


def test_total_wrench(rng):
    assert np.array_equal(total_wrench([], pose_identity(), np.zeros(6), 0.0), np.zeros(6))
    # gravity balanced by an equal and opposite constant world force
    field = gravity_potential(2.0, [0.0, 0.0, -9.81])
    models = [
        force_model_from_potential(field),
        constant_wrench_model(world_wrench([0, 0, 0], [0.0, 0.0, 2.0 * 9.81])),
    ]
    for _ in range(20):
        p = random_pose(rng)
        out = total_wrench(models, p, np.zeros(6), 0.0)
        np.testing.assert_allclose(out, np.zeros(6), atol=1e-12)


def test_total_wrench_frame_conversion(rng):
    p = random_pose(rng)
    R = quat_to_matrix_oracle(p[:4])
    torque, force = rng.normal(size=(2, 3))
    models = [constant_wrench_model(world_wrench(R @ torque, R @ force))]
    out = total_wrench(models, p, np.zeros(6), 0.0)
    np.testing.assert_allclose(out, np.concatenate([torque, force]), atol=1e-12)


def test_total_wrench_rejects_bad_model(rng):
    bad = ForceModel(evaluate=lambda pose, chi, t: np.zeros(6))
    with pytest.raises(ValidationError):
        total_wrench([bad], random_pose(rng), np.zeros(6), 0.0)


def test_total_wrench_rejects_non_finite_model(rng):
    good = constant_wrench_model(body_wrench(np.ones(3), np.ones(3)))
    for bad_value in (np.nan, np.inf, -np.inf):
        bad = ForceModel(evaluate=lambda pose, chi, t, v=bad_value: world_wrench([0.0, 0.0, 0.0], [0.0, v, 0.0]))
        with pytest.raises(ValidationError, match="force model 1 returned a non-finite wrench"):
            total_wrench([good, bad], random_pose(rng), np.zeros(6), 0.0)


NON_FINITE_PARAMETER = {
    "mass": lambda bad: gravity_potential(bad, [0.0, 0.0, -9.81]),
    "g_world": lambda bad: gravity_potential(1.0, [0.0, bad, -9.81]),
    "com_offset": lambda bad: gravity_potential(1.0, [0.0, 0.0, -9.81], [bad, 0.0, 0.0]),
    "anchor_world": lambda bad: spring_potential([bad, 0.0, 1.0], [0.1, 0.0, 0.0], 10.0),
    "attachment_body": lambda bad: spring_potential([0.0, 0.0, 1.0], [0.1, bad, 0.0], 10.0),
    "stiffness": lambda bad: spring_potential([0.0, 0.0, 1.0], [0.1, 0.0, 0.0], bad),
    "rest_length": lambda bad: spring_potential([0.0, 0.0, 1.0], [0.1, 0.0, 0.0], 10.0, bad),
    "constant wrench torque": lambda bad: constant_wrench_model(body_wrench([bad, 0.0, 0.0], np.zeros(3))),
    "constant wrench force": lambda bad: constant_wrench_model(world_wrench(np.zeros(3), [0.0, 0.0, bad])),
}


@pytest.mark.parametrize("what", list(NON_FINITE_PARAMETER))
def test_library_constructors_reject_non_finite_parameters(what):
    # rejected where the parameter is given, not at the first evaluation
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValidationError, match=f"^{what} must be finite"):
            NON_FINITE_PARAMETER[what](bad)


SPRING_ANCHOR = np.array([0.2, -0.3, 1.0])
SPRING_ATTACHMENT = np.array([0.3, -0.1, 0.2])


def _library_models() -> dict:
    spring = force_model_from_potential(spring_potential(SPRING_ANCHOR, SPRING_ATTACHMENT, 25.0, 0.4))
    return {
        "gravity": force_model_from_potential(gravity_potential(1.3, [0.1, -0.2, -9.81], [0.2, -0.1, 0.3])),
        "spring": spring,
        "spring_at_anchor": spring,
        "damping": damping_model([0.2, 0.3, 0.4], 0.5),
        "constant_body": constant_wrench_model(body_wrench([0.3, -0.2, 0.1], [1.0, 2.0, -3.0])),
        "constant_world": constant_wrench_model(world_wrench([0.3, -0.2, 0.1], [1.0, 2.0, -3.0])),
    }


@pytest.mark.parametrize("name", list(_library_models()))
def test_float_kernel_is_bitwise_the_wrench_edge(rng, name):
    # the float kernel the loops call, total_wrench, and the model's
    # ndarray/Wrench edge behind a plain callable (the adapter route) agree
    # bit for bit; so do the potentials
    model = _library_models()[name]
    edge = replace(
        model,
        evaluate=lambda p, c, t, e=model.evaluate: e(p, c, t),
        energy=None if model.energy is None else (lambda p, e=model.energy: e(p)),
    )
    for _ in range(50):
        pose, chi, t = random_pose(rng), random_twist(rng), float(rng.uniform(0.0, 10.0))
        if name == "spring_at_anchor":
            q = pose[:4]
            R = quat_to_matrix_oracle(q)
            pose = pose_from_rotation_translation(q, SPRING_ANCHOR - R @ SPRING_ATTACHMENT)
        kernel = model.evaluate.floats(pose.tolist(), chi.tolist(), t)
        if name == "spring_at_anchor":
            assert kernel == (0.0,) * 6  # the dist < 1e-12 branch
        np.testing.assert_array_equal(wrench_sum([model], pose.tolist(), chi.tolist(), t), kernel)
        np.testing.assert_array_equal(total_wrench([model], pose, chi, t), kernel)
        np.testing.assert_array_equal(total_wrench([edge], pose, chi, t), kernel)
        energy = potential_energy([model], pose[np.newaxis])[0]
        assert potential_energy([model], pose) == energy == potential_energy([edge], pose)
        if model.energy is not None:
            assert energy == model.energy(pose)


def test_potential_energy_sums_conservative_only():
    field = gravity_potential(1.0, [0, 0, -9.81])
    models = [
        force_model_from_potential(field),
        damping_model(1.0, 1.0),
        constant_wrench_model(body_wrench(np.zeros(3), np.ones(3))),
    ]
    p = pose_from_rotation_translation([1, 0, 0, 0], [0, 0, 2.0])
    assert abs(potential_energy(models, p) - field.evaluate(p)) < 1e-15


def _stack_potentials() -> dict:
    spring = spring_potential(SPRING_ANCHOR, SPRING_ATTACHMENT, 25.0, 0.4)
    return {
        "gravity_com_offset": gravity_potential(1.3, [0.1, -0.2, -9.81], [0.2, -0.1, 0.3]),
        "spring_rest_length": spring,
        "spring_at_anchor": spring,
        "plain_callable": PotentialField(evaluate=lambda pose: float(np.sin(pose) @ np.arange(1.0, 9.0))),
    }


@pytest.mark.parametrize("name", list(_stack_potentials()))
def test_stacked_potential_energy_is_bitwise_per_pose(rng, name):
    # a stack goes through a built-in kernel as eight pose columns in one
    # call, a plain callable once per pose; each row must carry the bits of
    # the single-pose call, on and off the group
    model = force_model_from_potential(_stack_potentials()[name])
    poses = np.array([random_pose(rng, translation_scale=2.0) for _ in range(60)])
    if name == "spring_at_anchor":
        for k, pose in enumerate(poses):
            R = quat_to_matrix_oracle(pose[:4])
            poses[k] = pose_from_rotation_translation(pose[:4], SPRING_ANCHOR - R @ SPRING_ATTACHMENT)
    else:
        poses[::3] += 0.05 * rng.normal(size=poses[::3].shape)
    models = [model, damping_model(1.0, 1.0)]
    stacked = potential_energy(models, poses)
    assert stacked.shape == (60,)
    np.testing.assert_array_equal(stacked, [potential_energy(models, pose) for pose in poses])
    np.testing.assert_array_equal(stacked, [model.energy(pose) for pose in poses])
    np.testing.assert_array_equal(potential_energy(models, poses.reshape(3, 20, 8)), stacked.reshape(3, 20))


def test_potential_energy_rejects_a_pose_without_eight_entries():
    models = [force_model_from_potential(gravity_potential(1.0, [0, 0, -9.81]))]
    for shape in ((7,), (8, 7), ()):
        with pytest.raises(ValidationError, match="8 entries"):
            potential_energy(models, np.zeros(shape))
