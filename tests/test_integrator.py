"""Variational stepper: parametrization, residuals, Jacobian, Newton, runs."""

import pathlib

import numpy as np
import pytest
from conftest import random_pose

from dqdyn import integrator
from dqdyn.dynamics import (
    build_inertia,
    build_inertia_raw,
    constant_wrench_model,
    skew,
)
from dqdyn.errors import SingularMatrixError, SolverDivergenceError, StepTooLargeError, ValidationError
from dqdyn.integrator import (
    SolverSettings,
    advance_pose,
    initial_guess,
    jacobian,
    residual,
    retrieve_twist,
    rhs,
    simulate,
    solve_step,
    step_to_dual_quaternion,
)
from dqdyn.kinematics import body_wrench, pose_constraint_errors, pose_identity
from dqdyn.quat import dq_identity
from dqdyn.scenario import build_run, load_config

SCENARIO_DIR = pathlib.Path(__file__).resolve().parent.parent / "scenarios"


def random_step(rng, phi_scale=0.5):
    phi = rng.normal(size=3)
    phi *= phi_scale * rng.uniform(0.1, 1.0) / np.linalg.norm(phi)
    psi = rng.normal(size=3)
    return np.concatenate([phi, psi])


def mixed_inertias(rng):
    A = rng.normal(size=(6, 6))
    yield build_inertia(1.0, np.eye(3))
    yield build_inertia(2.0, np.diag([1.0, 2.0, 3.0]))
    yield build_inertia(1.5, np.diag([2.0, 3.0, 4.0]) - 1.5 * skew([0.2, -0.1, 0.3]) @ skew([0.2, -0.1, 0.3]), (0.2, -0.1, 0.3))
    yield build_inertia_raw(A @ A.T + 6.0 * np.eye(6))
    # decoupled blocks but anisotropic mass block: must take the general path
    yield build_inertia_raw(np.diag([1.0, 2.0, 3.0, 2.0, 3.0, 4.0]))


def test_step_dq_identity_cases():
    np.testing.assert_array_equal(step_to_dual_quaternion(np.zeros(6)), dq_identity())
    d = 0.7
    out = step_to_dual_quaternion([0.0, 0.0, 0.0, 0.0, 0.0, d / 2.0])
    np.testing.assert_array_equal(out, [1, 0, 0, 0, 0, 0, 0, d / 2.0])


def test_step_dq_constraints_are_identities(rng):
    # near the |Phi| -> 1 ceiling both group constraints still hold to roundoff
    for _ in range(200):
        f = random_step(rng, phi_scale=0.9)
        f[:3] *= 0.9 / np.linalg.norm(f[:3])
        unit_err, orth_err = pose_constraint_errors(step_to_dual_quaternion(f))
        assert unit_err < 1e-15
        assert orth_err < 1e-15


def test_step_dq_rejects_half_turn():
    with pytest.raises(StepTooLargeError):
        step_to_dual_quaternion([1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    with pytest.raises(StepTooLargeError):
        step_to_dual_quaternion([0.8, 0.8, 0.0, 0.0, 0.0, 0.0])


def test_residual_zero_and_single_axis():
    M = build_inertia(1.0, np.eye(3))
    a, b = residual(np.zeros(6), M)
    np.testing.assert_array_equal(a, np.zeros(3))
    np.testing.assert_array_equal(b, np.zeros(3))
    phi = 0.37
    a, b = residual([phi, 0.0, 0.0, 0.0, 0.0, 0.0], M)
    np.testing.assert_allclose(a, [np.sqrt(1.0 - phi**2) * phi, 0.0, 0.0], atol=1e-16)
    np.testing.assert_array_equal(b, np.zeros(3))


def test_residual_is_scaled_momentum_of_retrieved_twist(rng):
    h = 1e-3
    for M in mixed_inertias(rng):
        for _ in range(50):
            f = random_step(rng)
            chi = retrieve_twist(f, M, h)
            ab = np.concatenate(residual(f, M))
            np.testing.assert_allclose(ab, 0.5 * h * (M.matrix @ chi), atol=1e-13)


def test_rhs_wrench_impulse():
    M = build_inertia(2.0, np.diag([1.0, 2.0, 3.0]))
    h = 0.01
    alpha, beta = rhs(np.zeros(6), M, None, h)
    np.testing.assert_array_equal(alpha, np.zeros(3))
    np.testing.assert_array_equal(beta, np.zeros(3))
    torque = np.array([1.0, -2.0, 0.5])
    force = np.array([0.0, 3.0, -1.0])
    alpha, beta = rhs(np.zeros(6), M, body_wrench(torque, force), h)
    np.testing.assert_allclose(alpha, 0.5 * h * h * torque, atol=1e-18)
    np.testing.assert_allclose(beta, 0.5 * h * h * force, atol=1e-18)


def test_rhs_flips_cross_terms_of_residual(rng):
    # residual and transported momentum share their symmetric terms; the
    # cross-product terms enter with opposite signs (step conjugation)
    for M in mixed_inertias(rng):
        for _ in range(20):
            f = random_step(rng)
            phi, psi = f[:3], f[3:]
            gamma = np.sqrt(1.0 - phi @ phi)
            c = psi @ phi
            u = M.m21 @ phi + M.m22 @ psi
            w = M.m11 @ phi + M.m12 @ psi
            a, b = residual(f, M)
            alpha, beta = rhs(f, M, None, 1.0)
            np.testing.assert_allclose(a + alpha, 2.0 * (gamma * w - (c / gamma) * u), atol=1e-12)
            np.testing.assert_allclose(b + beta, 2.0 * gamma * u, atol=1e-12)


def test_rhs_rejects_world_wrench():
    from dqdyn.kinematics import world_wrench

    M = build_inertia(1.0, np.eye(3))
    with pytest.raises(ValidationError):
        rhs(np.zeros(6), M, world_wrench([1, 0, 0], [0, 0, 0]), 1e-3)


def fd_jacobian(f, M, eps=1e-6):
    out = np.empty((6, 6))
    for j in range(6):
        fp = f.copy()
        fm = f.copy()
        fp[j] += eps
        fm[j] -= eps
        rp = np.concatenate(residual(fp, M))
        rm = np.concatenate(residual(fm, M))
        out[:, j] = (rp - rm) / (2.0 * eps)
    return out


def test_jacobian_at_origin_is_inertia(rng):
    for M in mixed_inertias(rng):
        np.testing.assert_array_equal(jacobian(np.zeros(6), M), M.matrix)


def test_jacobian_matches_finite_differences(rng):
    for M in mixed_inertias(rng):
        for _ in range(20):
            f = random_step(rng, phi_scale=0.5)
            J = jacobian(f, M)
            np.testing.assert_allclose(J, fd_jacobian(f, M), atol=1e-6)


def test_jacobian_general_equals_simplified(rng):
    M = build_inertia(2.0, np.diag([1.0, 2.0, 3.0]))
    for _ in range(50):
        f = random_step(rng)
        Jg = jacobian(f, M, method="general")
        Js = jacobian(f, M, method="simplified")
        np.testing.assert_allclose(Jg, Js, atol=1e-13)
        np.testing.assert_array_equal(jacobian(f, M), Js)


def test_jacobian_method_validation(rng):
    coupled = build_inertia(1.0, np.diag([2.0, 2.0, 2.0]), (0.0, 0.5, 0.0))
    with pytest.raises(ValidationError):
        jacobian(np.zeros(6), coupled, method="simplified")
    with pytest.raises(ValidationError):
        jacobian(np.zeros(6), coupled, method="banana")
    # anisotropic mass block also disqualifies the simplified form
    aniso = build_inertia_raw(np.diag([1.0, 2.0, 3.0, 2.0, 3.0, 4.0]))
    with pytest.raises(ValidationError):
        jacobian(np.zeros(6), aniso, method="simplified")


def test_initial_guess():
    np.testing.assert_array_equal(initial_guess(np.zeros(6), 0.1), np.zeros(6))
    f = initial_guess([0.0, 0.0, 1.0, 0.0, 0.0, 0.0], 0.1)
    np.testing.assert_allclose(f, [0.0, 0.0, 0.05, 0.0, 0.0, 0.0], atol=1e-18)
    with pytest.raises(StepTooLargeError):
        initial_guess([0.0, 0.0, 30.0, 0.0, 0.0, 0.0], 0.1)


def test_solve_step_at_rest_fixed_point():
    M = build_inertia(1.0, np.diag([1.0, 2.0, 3.0]))
    f, iterations, resnorm = solve_step(np.zeros(6), M, None, SolverSettings(h=1e-3))
    np.testing.assert_array_equal(f, np.zeros(6))
    assert iterations == 1
    assert resnorm == 0.0


def test_solve_step_generic_spin_converges_fast(rng):
    M = build_inertia(1.0, np.diag([1.0, 2.0, 3.0]))
    settings = SolverSettings(h=1e-3)
    prev = initial_guess([1.0, 0.1, 0.0, 0.0, 0.0, 0.0], settings.h)
    f, iterations, resnorm = solve_step(prev, M, None, settings)
    assert iterations <= 3
    assert resnorm <= 1e-12
    alpha, beta = rhs(prev, M, None, settings.h)
    ab = np.concatenate(residual(f, M))
    np.testing.assert_allclose(ab, np.concatenate([alpha, beta]), atol=2e-12)


def test_solve_step_divergence_error():
    # a torque impulse far beyond what any |Phi| < 1 step can absorb: the
    # rotational target is unreachable, so Newton must give up
    M = build_inertia(1.0, np.diag([1.0, 2.0, 3.0]))
    settings = SolverSettings(h=1e-3, max_iterations=8)
    huge = body_wrench([2.0e9, 0.0, 0.0], [0.0, 0.0, 0.0])
    with pytest.raises(SolverDivergenceError) as info:
        solve_step(np.zeros(6), M, huge, settings)
    assert info.value.iterations >= 1
    assert info.value.step_index is None


def test_solve_step_ill_conditioned_jacobian_aborts():
    # |Phi|^2 = 1 - 1e-8 puts gamma^3 = 1e-12 under the Psi-dependent terms
    # of the Jacobian: its pivot-ratio estimate (~1e15) exceeds the 1e12
    # limit, so the step aborts instead of taking a meaningless update
    M = build_inertia(1.0, np.diag([1.0, 2.0, 3.0]))
    prev = np.array([np.sqrt(1.0 - 1e-8), 0.0, 0.0, 0.5, 0.5, 0.0])
    with pytest.raises(SingularMatrixError):
        solve_step(prev, M, None, SolverSettings(h=1e-3))


def test_solve_step_rejects_non_finite_wrench():
    # a non-finite wrench is bad input, not a singular Newton system
    M = build_inertia(1.0, np.diag([1.0, 2.0, 3.0]))
    settings = SolverSettings(h=1e-3)
    for wrench in (body_wrench([np.inf, 0.0, 0.0], np.zeros(3)), [0.0, 0.0, 0.0, 0.0, np.nan, 0.0]):
        with pytest.raises(ValidationError, match="non-finite"):
            solve_step(np.zeros(6), M, wrench, settings)
        with pytest.raises(ValidationError, match="non-finite"):
            rhs(np.zeros(6), M, wrench, 1e-3)


def test_solve_step_rejects_infeasible_warm_start():
    M = build_inertia(1.0, np.eye(3))
    with pytest.raises(StepTooLargeError):
        solve_step([1.0, 0.2, 0.0, 0.0, 0.0, 0.0], M, None, SolverSettings(h=1e-3))


def test_solver_settings_validation():
    with pytest.raises(ValidationError):
        SolverSettings(h=0.0)
    with pytest.raises(ValidationError):
        SolverSettings(h=1e-3, tolerance=0.0)
    with pytest.raises(ValidationError):
        SolverSettings(h=1e-3, max_iterations=0)


def test_solver_settings_reject_infinite_step():
    with pytest.raises(ValidationError, match="finite"):
        SolverSettings(h=np.inf)


def test_solver_settings_reject_infinite_tolerance():
    # an infinite tolerance would pass every convergence test vacuously
    with pytest.raises(ValidationError, match="finite"):
        SolverSettings(h=1e-3, tolerance=np.inf)


def test_advance_pose(rng):
    p = random_pose(rng)
    np.testing.assert_array_equal(advance_pose(p, np.zeros(6)), p)
    f = random_step(rng)
    np.testing.assert_array_equal(
        advance_pose(pose_identity(), f), step_to_dual_quaternion(f)
    )
    # long free product of random steps stays on the group without projection
    p = pose_identity()
    for _ in range(1000):
        p = advance_pose(p, random_step(rng, phi_scale=0.3))
    unit_err, orth_err = pose_constraint_errors(p)
    assert unit_err < 1e-12
    assert orth_err < 1e-12


def test_retrieve_twist_consistency(rng):
    M = build_inertia(2.0, np.diag([1.0, 2.0, 3.0]), (0.1, 0.0, -0.2))
    np.testing.assert_array_equal(retrieve_twist(np.zeros(6), M, 1e-3), np.zeros(6))
    chi = np.array([0.7, -0.3, 0.4, 0.2, 0.1, -0.5])
    errors = []
    for h in (1e-2, 5e-3, 2.5e-3):
        err = np.linalg.norm(retrieve_twist(initial_guess(chi, h), M, h) - chi)
        errors.append(err)
    assert errors[1] < 0.75 * errors[0]
    assert errors[2] < 0.75 * errors[1]


def test_simulate_at_rest_holds_pose(rng):
    M = build_inertia(1.0, np.diag([1.0, 2.0, 3.0]))
    p0 = random_pose(rng)
    traj = simulate(p0, np.zeros(6), M, (), SolverSettings(h=1e-3), 50)
    assert traj.n_states == 51
    for k in range(51):
        np.testing.assert_array_equal(traj.poses[k], p0)
        np.testing.assert_array_equal(traj.twists[k], np.zeros(6))
    assert traj.state(0).iterations == 1
    assert traj.final.k == 50


def test_simulate_pure_translation_is_exact():
    # dyadic h makes every float operation in the translation update exact,
    # so the symplectic-Euler character of the map is visible to the last bit
    M = build_inertia(1.0, np.eye(3))
    h = 2.0**-10
    v = np.array([0.5, -0.25, 1.0])
    chi0 = np.concatenate([np.zeros(3), v])
    traj = simulate(pose_identity(), chi0, M, (), SolverSettings(h=h), 512)
    for k in (1, 100, 512):
        expected = pose_identity()
        expected[5:] = 0.5 * (k * h) * v
        np.testing.assert_array_equal(traj.poses[k], expected)
        np.testing.assert_array_equal(traj.twists[k], chi0)


def test_simulate_free_kernel_matches_python_loop():
    # one loop serves both cases: a zero-wrench model adds a zero impulse to
    # every Newton target, so the states must match the force-free run bit
    # for bit
    M = build_inertia(1.5, np.diag([1.0, 2.0, 3.0]), (0.3, 0.0, 0.1))
    chi0 = np.array([1.0, 0.1, -0.3, 0.2, 0.0, 0.1])
    settings = SolverSettings(h=1e-3)
    fast = simulate(pose_identity(), chi0, M, (), settings, 100)
    zero = constant_wrench_model(body_wrench(np.zeros(3), np.zeros(3)))
    slow = simulate(pose_identity(), chi0, M, [zero], settings, 100)
    np.testing.assert_array_equal(fast.poses, slow.poses)
    np.testing.assert_array_equal(fast.twists, slow.twists)
    np.testing.assert_array_equal(fast.iterations, slow.iterations)


def test_simulate_conserves_momentum_coupled_body():
    # drift scales with the Newton residual floor, so demand a tight solve;
    # at the default 1e-12 the one-iteration plateau already accumulates
    J_ref = np.diag([2.0, 3.0, 4.0]) - 2.0 * skew([0.4, 0.1, -0.2]) @ skew([0.4, 0.1, -0.2])
    M = build_inertia(2.0, J_ref, (0.4, 0.1, -0.2))
    chi0 = np.array([0.9, -0.4, 0.6, 0.1, 0.3, -0.2])
    traj = simulate(pose_identity(), chi0, M, (), SolverSettings(h=1e-3, tolerance=1e-14), 2000)
    L = traj.angular_momentum
    P = traj.linear_momentum
    assert np.abs(L - L[0]).max() / np.linalg.norm(L[0]) < 1e-8
    assert np.abs(P - P[0]).max() / np.linalg.norm(P[0]) < 1e-8


def test_simulate_energy_bounded_free_top():
    M = build_inertia(1.0, np.diag([1.0, 2.0, 3.0]))
    chi0 = np.array([1.0, 0.1, 0.0, 0.0, 0.0, 0.0])
    traj = simulate(pose_identity(), chi0, M, (), SolverSettings(h=1e-3), 2000)
    E = traj.energies
    assert np.abs(E - E[0]).max() / abs(E[0]) < 1e-7
    assert traj.unit_norm_errors.max() < 1e-12
    assert traj.orthogonality_errors.max() < 1e-12


def test_simulate_energy_peak_does_not_grow_with_run_length():
    # the energy error is a bounded oscillation: a 10x longer run reaches
    # the same peak deviation instead of 10x more, which is the actual
    # no-secular-drift evidence (a drifting method would scale with T)
    M = build_inertia(1.0, np.diag([1.0, 2.0, 3.0]))
    chi0 = np.array([1.0, 0.1, 0.0, 0.0, 0.0, 0.0])
    peaks = []
    for n in (10_000, 100_000):
        traj = simulate(pose_identity(), chi0, M, (), SolverSettings(h=1e-3), n)
        E = traj.energies
        peaks.append(np.abs(E - E[0]).max())
    assert peaks[1] == pytest.approx(peaks[0], rel=0.05)


def test_simulate_energy_bounded_with_gravity(rng):
    from dqdyn.dynamics import force_model_from_potential, gravity_potential

    r = np.array([0.2, 0.0, 0.1])
    J_ref = np.diag([1.0, 2.0, 3.0]) - 1.0 * skew(r) @ skew(r)
    M = build_inertia(1.0, J_ref, r)
    gravity = force_model_from_potential(gravity_potential(1.0, [0.0, 0.0, -9.81], r))
    chi0 = np.array([0.8, -0.2, 0.5, 0.1, 0.0, 0.2])
    traj = simulate(pose_identity(), chi0, M, [gravity], SolverSettings(h=1e-3), 2000)
    E = traj.energies
    scale = max(abs(E[0]), np.abs(traj.kinetic).max())
    assert np.abs(E - E[0]).max() / scale < 1e-5


def test_simulate_energy_diagnostic_is_synchronized_free_fall():
    from dqdyn.dynamics import force_model_from_potential, gravity_potential

    # translational free fall: the discrete flow follows an exact continuous
    # trajectory, and the seed step carries the start-up half-kick, so the
    # node-synchronized energy must be constant over every state, state 0
    # included
    m = 2.0
    g = np.array([0.0, 0.0, -9.81])
    M = build_inertia(m, np.eye(3))
    gravity = force_model_from_potential(gravity_potential(m, g))
    v0 = np.array([0.3, 0.0, 1.0])
    h = 1e-3
    traj = simulate(
        pose_identity(), np.concatenate([np.zeros(3), v0]), M, [gravity],
        SolverSettings(h=h), 1000,
    )
    E = traj.energies
    assert np.ptp(E) < 1e-10


def test_simulate_momentum_update_with_constant_force():
    # translational momentum follows the explicit Euler update exactly
    # (relative to float roundoff) when no rotation is present
    m = 2.0
    M = build_inertia(m, np.eye(3))
    force = np.array([1.0, -0.5, 2.0])
    model = constant_wrench_model(body_wrench(np.zeros(3), force))
    h = 1e-3
    v0 = np.array([0.3, 0.0, -0.1])
    traj = simulate(pose_identity(), np.concatenate([np.zeros(3), v0]), M, [model], SolverSettings(h=h), 200)
    v = traj.twists[:, 3:]
    for k in range(1, 201):
        expected = v[k - 1] + h * force / m
        np.testing.assert_allclose(v[k], expected, rtol=1e-14, atol=1e-17)
    assert traj.iterations.max() == 1


def test_simulate_annotates_divergence_step():
    from dqdyn.dynamics import ForceModel

    # a torque spike at t = 5h that no feasible step can absorb: the run
    # must fail exactly there and say so
    def spike(pose, chi, t):
        if abs(t - 0.005) < 1e-9:
            return body_wrench([2.0e9, 0.0, 0.0], [0.0, 0.0, 0.0])
        return body_wrench(np.zeros(3), np.zeros(3))

    model = ForceModel(evaluate=spike)
    settings = SolverSettings(h=1e-3, max_iterations=8)
    M = build_inertia(1.0, np.diag([1.0, 2.0, 3.0]))
    with pytest.raises(SolverDivergenceError) as info:
        simulate(pose_identity(), np.zeros(6), M, [model], settings, 10)
    assert info.value.step_index == 5


def test_simulate_rejects_non_finite_model_wrench():
    from dqdyn.dynamics import ForceModel

    # the second model turns NaN at t = 3h: the run stops with a typed
    # validation error naming that model, not a singular-matrix report
    def nan_torque(pose, chi, t):
        torque = [np.nan, 0.0, 0.0] if t > 0.0025 else [0.0, 0.0, 0.0]
        return body_wrench(torque, np.zeros(3))

    models = [constant_wrench_model(body_wrench(np.zeros(3), [0.0, 0.0, -1.0])), ForceModel(evaluate=nan_torque)]
    M = build_inertia(1.0, np.diag([1.0, 2.0, 3.0]))
    with pytest.raises(ValidationError, match="force model 1 returned a non-finite wrench"):
        simulate(pose_identity(), np.zeros(6), M, models, SolverSettings(h=1e-3), 10)


def test_simulate_rejects_bad_inputs():
    M = build_inertia(1.0, np.eye(3))
    with pytest.raises(ValidationError):
        simulate(np.zeros(8), np.zeros(6), M, (), SolverSettings(h=1e-3), 10)
    with pytest.raises(ValidationError):
        simulate(pose_identity(), np.zeros(5), M, (), SolverSettings(h=1e-3), 10)
    with pytest.raises(StepTooLargeError):
        simulate(pose_identity(), [3000.0, 0, 0, 0, 0, 0], M, (), SolverSettings(h=1e-3), 10)
    with pytest.raises(ValidationError):
        simulate(pose_identity(), np.zeros(6), M, (), SolverSettings(h=1e-3), -1)


def test_simulate_zero_steps_retrieves_initial_twist():
    M = build_inertia(2.0, np.diag([1.0, 2.0, 3.0]), (0.1, -0.2, 0.3))
    chi0 = np.array([0.5, -0.2, 0.3, 0.1, 0.4, -0.6])
    traj = simulate(pose_identity(), chi0, M, (), SolverSettings(h=1e-3), 0)
    assert traj.n_states == 1
    np.testing.assert_allclose(traj.twists[0], chi0, rtol=1e-10, atol=1e-12)


def _scenario_run(name, n_steps):
    inputs = build_run(load_config(SCENARIO_DIR / f"{name}.yaml"))
    return simulate(inputs.pose, inputs.twist, inputs.inertia, inputs.forces, inputs.settings, n_steps)


@pytest.mark.parametrize("name", ["free_top", "generic_forced"])
def test_reused_pivot_order_changes_no_state(monkeypatch, name):
    # Newton reuses the last searched pivot order; with the same order the
    # ordered solve returns solve_rows' bits, so the run must equal the one
    # that searches every solve
    searches = []
    search = integrator.solve_rows

    def counted(U, y):
        searches.append(1)
        return search(U, y)

    monkeypatch.setattr(integrator, "solve_rows", counted)
    reused = _scenario_run(name, 2000)
    assert len(searches) == 1  # only the first solve of the run searched
    monkeypatch.setattr(integrator, "solve_ordered", lambda J, y, order: None)
    searched = _scenario_run(name, 2000)
    assert len(searches) == 1 + int(searched.iterations.sum())
    for column in ("poses", "twists", "steps", "iterations", "residual_norms"):
        np.testing.assert_array_equal(getattr(reused, column), getattr(searched, column))


def test_simulate_repeats_bit_for_bit():
    # the reused pivot order lives in one call; nothing carries over, not
    # even from a run of another body in between
    first = _scenario_run("generic_forced", 500)
    _scenario_run("damped_drop", 500)
    second = _scenario_run("generic_forced", 500)
    for column in ("poses", "twists", "steps", "iterations", "residual_norms"):
        np.testing.assert_array_equal(getattr(first, column), getattr(second, column))
