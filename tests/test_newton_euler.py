"""Classical RK4 oracle: equations of motion, order, and cross-validation."""

import numpy as np
import pytest

from dqdyn.dynamics import (
    build_inertia,
    constant_wrench_model,
    force_model_from_potential,
    gravity_potential,
    skew,
    wrench_sum_kernel,
)
from dqdyn.errors import ValidationError
from dqdyn.integrator import SolverSettings, simulate
from dqdyn.kinematics import body_wrench, pose_identity
from dqdyn.newton_euler import _deriv, _rk4_step, rk4_simulate
from dqdyn.trajectory import compare_trajectories

# the 13-float state [q; l; chi] of a body at rest at the identity pose
REST = [1.0, 0.0, 0.0, 0.0] + [0.0] * 9


def float_inertia(M):
    """M and M^-1 as the RK4 derivative reads them: row lists of floats."""
    return M.matrix.tolist(), M.inverse.tolist()


def test_zero_state_zero_rates():
    M = build_inertia(1.0, np.diag([1.0, 2.0, 3.0]))
    assert _deriv(REST, float_inertia(M), None, 0.0) == [0.0] * 13


def test_principal_axis_spin_is_steady():
    M = build_inertia(1.0, np.diag([1.0, 2.0, 3.0]))
    y = [1.0, 0.0, 0.0, 0.0] + [0.0] * 3 + [0.0, 0.0, 2.0, 0.0, 0.0, 0.0]
    d = _deriv(y, float_inertia(M), None, 0.0)
    np.testing.assert_allclose(d[7:], np.zeros(6), atol=1e-15)
    np.testing.assert_allclose(d[:4], [0.0, 0.0, 0.0, 1.0], atol=1e-15)


def test_derivative_matches_textbook_euler_equations(rng):
    # r_g = 0: the coupled form must collapse to J omegadot = (J omega) x
    # omega + torque and m vdot = m v x omega + force
    J = np.diag([1.0, 2.0, 3.0])
    m = 2.0
    M = build_inertia(m, J)
    for _ in range(100):
        q = rng.normal(size=4)
        q /= np.linalg.norm(q)
        chi = rng.normal(size=6)
        torque, force = rng.normal(size=(2, 3))
        wrench = wrench_sum_kernel([constant_wrench_model(body_wrench(torque, force))])
        y = q.tolist() + rng.normal(size=3).tolist() + chi.tolist()
        d = _deriv(y, float_inertia(M), wrench, 0.0)
        omega, v = chi[:3], chi[3:]
        expected_omega_dot = np.linalg.solve(J, np.cross(J @ omega, omega) + torque)
        expected_v_dot = np.cross(v, omega) + force / m
        np.testing.assert_allclose(d[7:10], expected_omega_dot, atol=1e-12)
        np.testing.assert_allclose(d[10:], expected_v_dot, atol=1e-12)


def test_rk4_step_rest_is_fixed_point():
    M = build_inertia(1.0, np.eye(3))
    assert _rk4_step(REST, float_inertia(M), None, 0.0, 0.01) == REST


def test_free_translation_exact():
    M = build_inertia(2.0, np.eye(3))
    v = np.array([0.3, -0.1, 0.7])
    traj = rk4_simulate(pose_identity(), np.concatenate([np.zeros(3), v]), M, (), SolverSettings(h=1e-3), 500)
    reals = traj.poses[:, :4]
    np.testing.assert_allclose(reals, np.tile([1.0, 0, 0, 0], (501, 1)), atol=1e-15)
    l_final = 2.0 * traj.poses[-1, 5:]  # dual vector = l/2 for identity rotation
    np.testing.assert_allclose(l_final, 0.5 * v, atol=1e-12)


def test_free_fall_exact():
    # constant acceleration is a degree-2 polynomial: RK4 integrates it
    # without truncation error
    m = 1.5
    g = np.array([0.0, 0.0, -9.81])
    M = build_inertia(m, np.eye(3))
    gravity = force_model_from_potential(gravity_potential(m, g))
    v0 = np.array([0.5, 0.0, 2.0])
    h = 1e-3
    n = 800
    traj = rk4_simulate(pose_identity(), np.concatenate([np.zeros(3), v0]), M, [gravity], SolverSettings(h=h), n)
    T = n * h
    l_final = 2.0 * traj.poses[-1, 5:]
    np.testing.assert_allclose(l_final, v0 * T + 0.5 * g * T**2, atol=1e-11)
    np.testing.assert_allclose(traj.twists[-1, 3:], v0 + g * T, atol=1e-12)


def test_free_body_conserves_energy_and_momentum():
    r = np.array([0.3, -0.1, 0.2])
    J_ref = np.diag([2.0, 3.0, 4.0]) - 2.0 * skew(r) @ skew(r)
    M = build_inertia(2.0, J_ref, r)
    chi0 = np.array([0.9, -0.4, 0.6, 0.1, 0.3, -0.2])
    traj = rk4_simulate(pose_identity(), chi0, M, (), SolverSettings(h=1e-3), 1000)
    E = traj.energies
    assert np.abs(E - E[0]).max() / abs(E[0]) < 1e-10
    L = traj.angular_momentum
    assert np.abs(L - L[0]).max() / np.linalg.norm(L[0]) < 1e-10
    assert traj.unit_norm_errors.max() < 1e-14


def test_rk4_self_convergence_order():
    # steps chosen so truncation stays well above the ~1e-14 roundoff floor
    M = build_inertia(1.0, np.diag([1.0, 2.0, 3.0]))
    chi0 = np.array([1.0, 0.1, 0.0, 0.0, 0.0, 0.0])
    T = 0.48

    def run(h):
        return rk4_simulate(pose_identity(), chi0, M, (), SolverSettings(h=h), int(round(T / h)))

    ref = run(1.25e-4)
    errors = []
    for h in (1.6e-2, 8e-3, 4e-3):
        cmp = compare_trajectories(run(h), ref)
        errors.append(cmp.max_pose_error)
    orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
    assert np.all(orders > 3.5)
    assert np.all(orders < 4.5)


def test_zero_wrench_run_is_bit_identical_to_free_run():
    # one derivative serves free and forced bodies: adding a zero wrench on a
    # coupled (offset-reference) inertia must not change a single bit
    M = build_inertia(1.5, np.diag([1.0, 2.0, 3.0]), (0.2, 0.0, -0.1))
    chi0 = np.array([0.8, -0.3, 0.5, 0.1, 0.2, 0.0])
    zero = constant_wrench_model(body_wrench(np.zeros(3), np.zeros(3)))
    free = rk4_simulate(pose_identity(), chi0, M, (), SolverSettings(h=1e-3), 100)
    forced = rk4_simulate(pose_identity(), chi0, M, [zero], SolverSettings(h=1e-3), 100)
    np.testing.assert_array_equal(forced.poses, free.poses)
    np.testing.assert_array_equal(forced.twists, free.twists)


def test_shared_limit_with_variational_stepper_free_body():
    # both integrators must converge to the same trajectory; at this step
    # size the RK4 error is negligible, so the difference is the variational
    # stepper's own O(h^2) global error
    M = build_inertia(1.0, np.diag([1.0, 2.0, 3.0]))
    chi0 = np.array([1.0, 0.1, 0.0, 0.0, 0.0, 0.0])
    h = 2e-4
    n = 1000
    a = simulate(pose_identity(), chi0, M, (), SolverSettings(h=h), n)
    b = rk4_simulate(pose_identity(), chi0, M, (), SolverSettings(h=h), n)
    cmp = compare_trajectories(a, b)
    assert cmp.max_pose_error < 1e-6


def test_forced_agreement_with_variational_stepper():
    # the variational run's seed step carries the start-up half-kick, so both
    # integrators start from the same continuous state and the two forced
    # trajectories agree to O(h^2)
    r = np.array([0.2, 0.0, 0.1])
    J_ref = np.diag([1.0, 2.0, 3.0]) - 1.0 * skew(r) @ skew(r)
    M = build_inertia(1.0, J_ref, r)
    gravity = force_model_from_potential(gravity_potential(1.0, [0.0, 0.0, -9.81], r))
    chi0 = np.array([0.8, -0.2, 0.5, 0.1, 0.0, 0.2])
    h = 1e-3
    n = 500
    a = simulate(pose_identity(), chi0, M, [gravity], SolverSettings(h=h), n)
    b = rk4_simulate(pose_identity(), chi0, M, [gravity], SolverSettings(h=h), n)
    cmp = compare_trajectories(a, b)
    assert cmp.max_pose_error < 1e-5
    # both integrators store the twist synchronized with the pose
    assert cmp.max_twist_error < 1e-5


def test_rk4_trajectory_schema():
    M = build_inertia(1.0, np.eye(3))
    traj = rk4_simulate(pose_identity(), np.zeros(6), M, (), SolverSettings(h=1e-3), 10)
    assert traj.n_states == 11
    assert traj.iterations is None
    assert traj.residual_norms is None
    assert traj.steps is None
    assert traj.energies is not None
    with pytest.raises(ValidationError):
        rk4_simulate(pose_identity(), np.zeros(5), M, (), SolverSettings(h=1e-3), 10)
