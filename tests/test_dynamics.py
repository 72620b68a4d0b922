"""Inertia assembly, potentials, and force models against physical oracles."""

import re
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from conftest import random_pose, random_twist

from _oracles import cloud_kinetic_energy, point_cloud, quat_to_matrix_oracle
from test_scenario import SCENARIO_DIR
from dqdyn import dq_exp, dq_mul, dynamics, pure_dual_quaternion
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
    numeric_conservative_wrench,
    potential_energy,
    skew,
    spring_potential,
    total_wrench,
    world_momentum,
    wrench_sum_kernel,
)
from dqdyn.errors import SingularMatrixError, ValidationError
from dqdyn.integrator import SolverSettings, simulate
from dqdyn.linsolve import COND_LIMIT, solve_rows
from dqdyn.scenario import load_run
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
    np.testing.assert_array_equal(M.matrix[:3, :3], np.diag([1.0, 2.0, 3.0]))
    np.testing.assert_array_equal(M.matrix[:3, 3:], np.zeros((3, 3)))
    np.testing.assert_array_equal(M.matrix[3:, :3], np.zeros((3, 3)))
    np.testing.assert_array_equal(M.matrix[3:, 3:], 2.0 * np.eye(3))
    np.testing.assert_allclose(
        M.inverse, np.diag([1.0, 0.5, 1.0 / 3.0, 0.5, 0.5, 0.5]), atol=1e-14
    )


def test_build_inertia_offset_blocks():
    r = np.array([0.0, 0.0, 1.0])
    M = build_inertia(2.0, np.diag([3.0, 3.0, 1.0]), r)
    np.testing.assert_array_equal(M.matrix[:3, 3:], 2.0 * skew(r))
    np.testing.assert_array_equal(M.matrix[3:, :3], -2.0 * skew(r))
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
    with pytest.raises(SingularMatrixError, match="condition estimate inf"):
        build_inertia(1.0, np.eye(3), (0.0, 0.0, 1.0))


def test_inverse_is_solve_rows_on_the_unit_vectors(rng):
    # column k of M^-1 is solve_rows' solution of M x = e_k, bit for bit, so
    # M^-1 has the pivots of every other solve on M and no LAPACK rounding
    A = rng.normal(size=(6, 6))
    inertias = [build_inertia_raw(A @ A.T + 6.0 * np.eye(6))]
    inertias += [load_run(path)[1].inertia for path in sorted(SCENARIO_DIR.glob("*.yaml"))]
    assert len(inertias) == 7
    for M in inertias:
        columns = [solve_rows(M.matrix.tolist(), [float(i == k) for i in range(6)])[0] for k in range(6)]
        assert M.inverse.dtype == np.float64 and M.inverse.flags.c_contiguous
        assert M.inverse.tobytes() == np.array(columns).T.tobytes()


def test_inertia_is_judged_on_the_pivot_ratio():
    # the estimate is |first pivot| / |last pivot| of the full-pivot
    # elimination, the one every Newton step holds against COND_LIMIT: a
    # nearly dependent pair of rows reads about 1/eps there and 4/eps as a
    # 2-norm condition number, so it decides between 1e12 and 4e12
    for eps, accepted in ((1e-12, True), (5e-13, False)):
        matrix = np.eye(6)
        matrix[:2, :2] = [[1.0, 1.0], [1.0, 1.0 + eps]]
        cond = solve_rows(matrix.tolist(), [0.0] * 6)[1]
        assert (cond <= COND_LIMIT) == accepted and np.linalg.cond(matrix) > COND_LIMIT
        if accepted:
            build_inertia_raw(matrix)
        else:
            with pytest.raises(SingularMatrixError, match=re.escape(f"condition estimate {cond:.3e}")):
                build_inertia_raw(matrix)


def test_build_inertia_raw(rng):
    A = rng.normal(size=(6, 6))
    M6 = A @ A.T + 6.0 * np.eye(6)
    M = build_inertia_raw(M6)
    np.testing.assert_array_equal(M.matrix, M6)
    np.testing.assert_allclose(M.matrix @ M.inverse, np.eye(6), atol=1e-11)
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


def test_world_momentum_of_stack_with_two_leading_axes(rng):
    # each row of a (2, 3) stack carries the bits of its single-pose call
    M = build_inertia(1.5, np.diag([1.0, 2.0, 3.0]), (0.1, -0.2, 0.05))
    poses = np.array([[random_pose(rng) for _ in range(3)] for _ in range(2)])
    twists = np.array([[random_twist(rng) for _ in range(3)] for _ in range(2)])
    L, P = world_momentum(poses, M, twists)
    assert L.shape == P.shape == (2, 3, 3)
    for i in range(2):
        for j in range(3):
            L1, P1 = world_momentum(poses[i, j], M, twists[i, j])
            assert L[i, j].tobytes() == L1.tobytes() and P[i, j].tobytes() == P1.tobytes()


def test_world_momentum_rejects_one_off_group_pose():
    # a stack is taken as it is (a trajectory's drifted rows still report);
    # one pose must lie on the unit group
    M = build_inertia(1.0, np.diag([1.0, 2.0, 3.0]))
    pose = pose_identity()
    pose[0] = 1.0 + 1e-6
    with pytest.raises(ValidationError):
        world_momentum(pose, M, np.ones(6))


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
        # a field without a body_wrench takes the finite-difference route
        numeric = force_model_from_potential(PotentialField(evaluate=field.evaluate))
        assert analytic.conservative and numeric.conservative
        assert analytic.energy is field.evaluate
        for _ in range(20):
            p = random_pose(rng)
            wa = analytic.evaluate(p, np.zeros(6), 0.0)
            wn = numeric.evaluate(p, np.zeros(6), 0.0)
            np.testing.assert_allclose(wa.torque, wn.torque, atol=1e-6)
            np.testing.assert_allclose(wa.force, wn.force, atol=1e-6)


def test_potential_model_sums_the_potentials_own_kernel(rng):
    # a potential's model is the potential's own wrench kernel, whose
    # source the sum writes out with no call, and both public edges,
    # body_wrench(pose) and evaluate(pose, chi, t), keep its bits
    for field in (
        gravity_potential(1.0, [0, 0, -9.81], com_offset=[0.1, 0.0, 0.0]),
        spring_potential([0.2, -0.3, 1.0], [0.3, -0.1, 0.2], stiffness=25.0, rest_length=0.4),
    ):
        model = force_model_from_potential(field)
        assert model.evaluate is field.body_wrench
        assert "_calls" not in wrench_sum_kernel([model]).source
        for _ in range(20):
            p, chi, t = random_pose(rng), random_twist(rng), float(rng.uniform(0.0, 10.0))
            kernel = field.body_wrench.floats(p.tolist())
            np.testing.assert_array_equal(field.body_wrench(p).vector6, kernel)
            np.testing.assert_array_equal(model.evaluate(p, chi, t).vector6, kernel)
            assert wrench_sum_kernel([model])(p.tolist(), chi.tolist(), t) == kernel


def test_user_potential_with_a_gradient_runs_like_the_builtin():
    # a user's PotentialField with a plain-callable body_wrench goes through
    # the model's gradient wrapper and the sum's adapter, and its energy
    # through the per-pose call; wrapping the built-in gravity potential
    # must give the built-in run's bits
    r = np.array([0.2, -0.1, 0.15])
    M = build_inertia(1.3, np.diag([1.0, 2.0, 3.0]) - 1.3 * skew(r) @ skew(r), r)
    builtin = gravity_potential(1.3, [0.0, 0.0, -9.81], com_offset=r)
    user = PotentialField(
        evaluate=lambda pose: builtin.evaluate(pose), body_wrench=lambda pose: builtin.body_wrench(pose)
    )
    chi0 = [0.8, -0.3, 0.5, 0.1, 0.2, 0.3]
    a, b = (
        simulate(pose_identity(), chi0, M, [force_model_from_potential(field)], SolverSettings(h=1e-3), 300)
        for field in (builtin, user)
    )
    for name in ("poses", "twists", "steps", "kinetic", "potential"):
        np.testing.assert_array_equal(getattr(b, name), getattr(a, name))


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


@pytest.mark.parametrize("make", [body_wrench, world_wrench], ids=["body", "world"])
def test_constant_wrench_edge_compiles_nothing(monkeypatch, make):
    # the ndarray edge returns the Wrench it was given, so it neither runs
    # nor compiles the kernel; the wrench sum still writes out its source
    w = make([0.3, -0.2, 0.1], [1.0, 2.0, -3.0])
    model = constant_wrench_model(w)
    compiled = []
    real = dynamics._compiled_sum

    def counted(source):
        compiled.append(source)
        return real(source)

    monkeypatch.setattr(dynamics, "_compiled_sum", counted)
    assert model.evaluate(pose_identity(), np.zeros(6), 10.0) is w
    assert compiled == []
    source = wrench_sum_kernel([model]).source
    assert len(compiled) == 1  # the sum itself
    lines, _ = model.evaluate.source
    assert "_calls" not in source and all(line in source for line in lines)


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
        # zero parameters, whose terms the generated sum leaves out
        "gravity_centred_along_z": force_model_from_potential(gravity_potential(1.3, [0.0, 0.0, -9.81])),
        "spring_on_an_axis": force_model_from_potential(spring_potential([0.0, 0.0, 1.0], [0.3, 0.0, 0.0], 25.0)),
        "damping_zero_axes": damping_model([0.2, 0.0, 0.4], 0.0),
        "constant_world_zeros": constant_wrench_model(world_wrench([0.0, 0.0, 0.1], [1.0, 0.0, 0.0])),
    }


def test_wrench_sum_adds_in_model_order(rng):
    # every library model, every other one behind a plain callable (the
    # adapter route): each component is summed from 0.0 in model order
    models = [
        m if i % 2 else replace(m, evaluate=lambda p, c, t, e=m.evaluate: e(p, c, t))
        for i, m in enumerate(_library_models().values())
    ]
    for _ in range(50):
        pose, chi, t = random_pose(rng).tolist(), random_twist(rng).tolist(), float(rng.uniform(0.0, 10.0))
        expected = [0.0] * 6
        for model in models:
            w = total_wrench([model], pose, chi, t).tolist()
            expected = [a + b for a, b in zip(expected, w)]
        assert np.array(wrench_sum_kernel(models)(pose, chi, t)).tobytes() == np.array(expected).tobytes()


@pytest.mark.parametrize("name", list(_library_models()))
def test_float_kernel_is_bitwise_the_wrench_edge(rng, name):
    # the kernel compiled from the model's source, the sum that writes the
    # source out (total_wrench), and the model's ndarray/Wrench edge behind
    # a plain callable (the adapter route) agree bit for bit; so do the
    # potentials
    model = _library_models()[name]
    edge = replace(
        model,
        evaluate=lambda p, c, t, e=model.evaluate: e(p, c, t),
        energy=None if model.energy is None else (lambda p, e=model.energy: e(p)),
    )
    assert model.evaluate.floats is model.evaluate.floats  # compiled once, on first use
    for _ in range(50):
        pose, chi, t = random_pose(rng), random_twist(rng), float(rng.uniform(0.0, 10.0))
        if name == "spring_at_anchor":
            q = pose[:4]
            R = quat_to_matrix_oracle(q)
            pose = pose_from_rotation_translation(q, SPRING_ANCHOR - R @ SPRING_ATTACHMENT)
        kernel = model.evaluate.floats(pose.tolist(), chi.tolist(), t)
        if name == "spring_at_anchor":
            assert kernel == [0.0] * 6  # the dist < 1e-12 branch
        np.testing.assert_array_equal(wrench_sum_kernel([model])(pose.tolist(), chi.tolist(), t), kernel)
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


def test_total_wrench_of_an_overflowing_weight_names_the_model():
    # 1e308 kg under 10 m/s^2 weighs -inf: the generated sum writes the
    # literal so that it compiles, and the check names the model
    models = [force_model_from_potential(gravity_potential(1e308, [0.0, 0.0, -10.0]))]
    with pytest.raises(ValidationError, match="force model 0 returned a non-finite wrench"):
        total_wrench(models, pose_identity(), np.zeros(6), 0.0)


def test_wrench_sum_of_an_unhashable_model():
    # a callable that defines __eq__ without __hash__ cannot key the sum's
    # cache; the sum is then generated for the call
    class Push:
        def __eq__(self, other):
            return isinstance(other, Push)

        def __call__(self, pose, chi, t):
            return body_wrench([0.0, 0.0, 0.5], [1.0, 0.0, 0.0])

    models = [ForceModel(evaluate=Push()), damping_model(0.5, 0.0)]
    total = wrench_sum_kernel(models)
    assert total([1.0] + [0.0] * 7, [0.0, 0.0, 2.0, 0.0, 0.0, 0.0], 0.0) == [0.0, 0.0, -0.5, 1.0, 0.0, 0.0]
    assert wrench_sum_kernel(models) is not total
