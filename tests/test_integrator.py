"""Variational stepper: parametrization, residuals, Jacobian, Newton, runs."""

import pathlib
import re
from dataclasses import replace

import numpy as np
import pytest
from _oracles import step_jacobian_oracle
from conftest import random_pose

from dqdyn import integrator
from dqdyn.dynamics import (
    ForceModel,
    build_inertia,
    build_inertia_raw,
    constant_wrench_model,
    potential_energy,
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
from dqdyn.kinematics import Wrench, body_wrench, pose_constraint_errors, pose_identity
from dqdyn.linsolve import matvec
from dqdyn.newton_euler import rk4_simulate
from dqdyn.scenario import load_run
from dqdyn.trajectory import Trajectory

SCENARIO_DIR = pathlib.Path(__file__).resolve().parent.parent / "scenarios"


def random_step(rng, phi_scale=0.5):
    phi = rng.normal(size=3)
    phi *= phi_scale * rng.uniform(0.1, 1.0) / np.linalg.norm(phi)
    psi = rng.normal(size=3)
    return np.concatenate([phi, psi])


def mixed_inertias(rng):
    """Inertias whose zero patterns the generated step kernels must all handle."""
    A = rng.normal(size=(6, 6))
    B = rng.normal(size=(3, 3))
    yield build_inertia(1.0, np.eye(3))
    yield build_inertia(2.0, np.diag([1.0, 2.0, 3.0]))
    yield build_inertia(1.5, B @ B.T + np.eye(3))  # center of mass, full M11
    yield build_inertia(1.5, np.diag([2.0, 3.0, 4.0]) - 1.5 * skew([0.2, -0.1, 0.3]) @ skew([0.2, -0.1, 0.3]), (0.2, -0.1, 0.3))
    yield build_inertia_raw(A @ A.T + 6.0 * np.eye(6))
    # decoupled blocks, anisotropic mass block
    yield build_inertia_raw(np.diag([1.0, 2.0, 3.0, 2.0, 3.0, 4.0]))
    # anisotropic mass block and scattered zeros
    scattered = np.diag([3.0, 4.0, 5.0, 2.0, 3.0, 4.0])
    scattered[0, 4] = scattered[4, 0] = 0.5
    scattered[2, 3] = scattered[3, 2] = -0.25
    scattered[3, 5] = scattered[5, 3] = 0.125
    yield build_inertia_raw(scattered)
    # zero entries stored as -0.0
    signed = np.diag([1.0, 2.0, 3.0, 1.5, 1.5, 1.5])
    signed[signed == 0.0] = -0.0
    yield build_inertia_raw(signed)


def test_step_dq_identity_cases():
    np.testing.assert_array_equal(step_to_dual_quaternion(np.zeros(6)), pose_identity())
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
            u = M.matrix[3:, :3] @ phi + M.matrix[3:, 3:] @ psi
            w = M.matrix[:3, :3] @ phi + M.matrix[:3, 3:] @ psi
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


def test_jacobian_matches_closed_form(rng):
    # the numpy block form of J, a tighter check of the generated kernel than
    # finite differences: every zero pattern, then random coupled inertias
    inertias = [(M, 40) for M in mixed_inertias(rng)]
    for _ in range(20):
        A = rng.normal(size=(6, 6))
        r = rng.normal(size=3)
        inertias += [
            (build_inertia_raw(A @ A.T + 6.0 * np.eye(6)), 10),
            (build_inertia(rng.uniform(0.5, 3.0), np.diag(rng.uniform(1.0, 4.0, size=3)) - skew(r) @ skew(r), r), 10),
        ]
    for M, n in inertias:
        for _ in range(n):
            f = random_step(rng, phi_scale=0.9)
            expected = step_jacobian_oracle(f, M.matrix)
            J = jacobian(f, M)
            assert np.max(np.abs(J - expected)) <= 1e-13 * np.max(np.abs(expected))


def test_step_kernel_terms_equal_matvec(rng):
    for M in mixed_inertias(rng):
        K = integrator.step_kernels(M)
        rows = M.matrix.tolist()
        for _ in range(20):
            f = random_step(rng).tolist()
            g, c, u0, u1, u2, w0, w1, w2 = K.terms(f)
            assert [w0, w1, w2, u0, u1, u2] == matvec(rows, f)
            assert g == np.sqrt(1.0 - (f[0] * f[0] + f[1] * f[1] + f[2] * f[2]))
            assert c == f[3] * f[0] + f[4] * f[1] + f[5] * f[2]
            assert K.inverse(f) == matvec(M.inverse.tolist(), f)


def test_step_kernel_source_has_no_zero_products(rng):
    zero_literal = r"-?0\.0(?![0-9e])"
    for M in mixed_inertias(rng):
        source = integrator.step_kernels(M).source
        assert not re.search(r"\* " + zero_literal, source)
        assert not re.search(r"(?<![\w.])" + zero_literal + r" \*", source)
    # a diagonal inertia leaves one product for each entry of M f that is not 1.0
    source = integrator.step_kernels(build_inertia(2.0, np.diag([1.0, 3.0, 4.0]))).source
    assert source.split("def jacobian")[0].count(" * ") == 3 + 3 + 5  # gamma, c, M f


def test_step_kernels_compile_once_per_inertia(rng):
    compiled = integrator._compiled_kernels
    compiled.cache_clear()
    M = build_inertia(1.0, np.diag(rng.uniform(1.0, 4.0, size=3)))
    settings = SolverSettings(h=1e-3)
    twist = [1.0, 0.1, 0.0, 0.0, 0.0, 0.0]
    rk4_simulate(pose_identity(), twist, M, (), settings, 3)
    assert compiled.cache_info().misses == 0  # the RK4 oracle never generates
    for _ in range(3):
        simulate(pose_identity(), twist, M, (), settings, 3)
    assert compiled.cache_info().misses == 1
    bound = compiled.cache_info().maxsize
    for k in range(bound + 4):
        integrator.step_kernels(build_inertia(1.0 + k, np.diag([1.0, 2.0, 3.0])))
    assert compiled.cache_info().currsize <= bound


def test_max_abs_of_opposite_infinities_is_inf():
    assert integrator._max_abs([np.inf, -np.inf, 0.0, 0.0, 0.0, 0.0]) == np.inf
    assert np.isnan(integrator._max_abs([np.inf, 0.0, np.nan, 0.0, 0.0, 0.0]))
    assert integrator._max_abs([0.5, -2.0, 1.0, 0.0, 0.0, 0.0]) == 2.0


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
    with pytest.raises(SingularMatrixError) as info:
        solve_step(prev, M, None, SolverSettings(h=1e-3))
    assert info.value.iterations == 1
    assert info.value.step_index is None


def test_simulate_singular_first_step_names_step_and_iteration():
    # the same ill-conditioned Jacobian as the first step of a run: its
    # warm start (h/2) chi_0 lies next to |Phi| = 1 with a nonzero Psi
    M = build_inertia(1.0, np.diag([1.0, 2.0, 3.0]))
    h = 1e-3
    chi0 = (2.0 / h) * np.array([np.sqrt(1.0 - 1e-8), 0.0, 0.0, 0.5, 0.5, 0.0])
    with pytest.raises(SingularMatrixError, match="at step 0") as info:
        simulate(pose_identity(), chi0, M, (), SolverSettings(h=h), 5)
    assert info.value.step_index == 0
    assert info.value.iterations == 1


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
    # range() would fail on a float deep inside simulate; a bool is no count
    for bad in (2.5, True):
        with pytest.raises(ValidationError, match="^max_iterations"):
            SolverSettings(h=1e-3, max_iterations=bad)


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
    assert traj.iterations[0] == 1


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
    # no-secular-drift evidence (a drifting method would scale with T). The
    # spring pendulum's peak is truncation error (~7e-5); a free top's is
    # round-off, which would compare noise, so there is no absolute floor
    peaks = []
    for n in (10_000, 100_000):
        E = _scenario_run("spring_pendulum", n).energies
        peaks.append(np.abs(E - E[0]).max())
    assert peaks[1] == pytest.approx(peaks[0], rel=0.05, abs=0.0)


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
    # the stored twist itself is synchronized with its pose: v(t) = v0 + g t
    np.testing.assert_allclose(traj.twists[:, 3:], v0 + np.outer(traj.times, g), rtol=0.0, atol=1e-12)
    assert not traj.twists[:, :3].any()


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


def test_simulate_spin_up_fails_at_the_half_turn_step():
    # a steady torque spins the body up until a step nears the half-turn
    # ceiling; the predicted warm start must not move the failing step
    M = build_inertia(1.0, np.eye(3))
    torque = constant_wrench_model(body_wrench([20.0, 0.0, 0.0], np.zeros(3)))
    with pytest.raises(SolverDivergenceError) as info:
        simulate(pose_identity(), [5.0, 0.0, 0.0, 0.0, 0.0, 0.0], M, [torque], SolverSettings(h=0.05), 40)
    assert info.value.step_index == 15


def test_simulate_falls_back_when_the_prediction_leaves_the_chart():
    # a torque impulse at state 2 makes the step jump, so the linear
    # prediction 2 f_2 - f_1 for step 3 has |Phi| >= 1, where the momentum
    # terms are undefined; step 3 must start from f_2 instead, which makes
    # it the single-step solve from f_2
    h = 0.1

    def impulse(pose, chi, t):
        return body_wrench([80.0 if abs(t - 2 * h) < 1e-9 else 0.0, 0.0, 0.0], np.zeros(3))

    M = build_inertia(1.0, np.diag([1.0, 2.0, 3.0]))
    settings = SolverSettings(h=h)
    traj = simulate(pose_identity(), [1.0, 0.1, 0.0, 0.0, 0.0, 0.0], M, [ForceModel(evaluate=impulse)], settings, 8)
    f = traj.steps
    assert np.linalg.norm((2.0 * f[2] - f[1])[:3]) >= 1.0
    assert traj.residual_norms.max() <= settings.tolerance
    single, iterations, _ = solve_step(f[2], M, None, settings)
    np.testing.assert_allclose(f[3], single, rtol=0.0, atol=1e-15)
    assert traj.iterations[3] == iterations


def test_simulate_keeps_the_branch_of_the_previous_step():
    # a torque impulse at state 2 puts the prediction 2 f_2 - f_1 for step 3
    # next to the fold of [A; B] (|Phi|^2 = 1/2 about the principal x axis);
    # Newton from it lands on the mirror root, a 136-degree step, with every
    # residual within tol. Step 3 must be solved again from f_2, whose root
    # is the 44-degree step, and the run must stay on that branch
    h = 0.1

    def impulse(pose, chi, t):
        return body_wrench([60.0 if abs(t - 2 * h) < 1e-9 else 0.0, 0.0, 0.0], np.zeros(3))

    M = build_inertia(1.0, np.diag([1.0, 2.0, 3.0]))
    settings = SolverSettings(h=h)
    traj = simulate(pose_identity(), [1.0, 0.1, 0.0, 0.0, 0.0, 0.0], M, [ForceModel(evaluate=impulse)], settings, 8)
    f = traj.steps
    assert np.linalg.norm((2.0 * f[2] - f[1])[:3]) ** 2 == pytest.approx(0.5, abs=0.01)
    single, iterations, _ = solve_step(f[2], M, None, settings)
    np.testing.assert_allclose(f[3], single, rtol=0.0, atol=1e-15)
    assert traj.iterations[3] == iterations
    assert np.linalg.norm(f[:, :3], axis=1).max() < 0.4


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


def test_simulators_reject_nan_pose():
    M = build_inertia(1.0, np.eye(3))
    pose = np.full(8, np.nan)
    with pytest.raises(ValidationError, match="pose"):
        simulate(pose, [1.0, 0.1, 0.0, 0.0, 0.0, 0.0], M, (), SolverSettings(h=1e-3), 10)
    with pytest.raises(ValidationError, match="pose"):
        rk4_simulate(pose, [1.0, 0.1, 0.0, 0.0, 0.0, 0.0], M, (), SolverSettings(h=1e-3), 10)


def test_simulate_zero_steps_retrieves_initial_twist():
    M = build_inertia(2.0, np.diag([1.0, 2.0, 3.0]), (0.1, -0.2, 0.3))
    chi0 = np.array([0.5, -0.2, 0.3, 0.1, 0.4, -0.6])
    traj = simulate(pose_identity(), chi0, M, (), SolverSettings(h=1e-3), 0)
    assert traj.n_states == 1
    np.testing.assert_allclose(traj.twists[0], chi0, rtol=1e-10, atol=1e-12)


def _scenario_inputs(name):
    return load_run(SCENARIO_DIR / f"{name}.yaml")[1]


def _scenario_run(name, n_steps):
    inputs = _scenario_inputs(name)
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


@pytest.mark.parametrize("name", ["free_top", "offset_reference"])
def test_free_run_twists_are_retrieve_twist(name):
    inputs = _scenario_inputs(name)
    traj = _scenario_run(name, 300)
    for k in range(traj.n_states):
        np.testing.assert_array_equal(retrieve_twist(traj.steps[k], inputs.inertia, inputs.settings.h), traj.twists[k])


def test_simulate_repeats_bit_for_bit():
    # the reused pivot order lives in one call; nothing carries over, not
    # even from a run of another body in between
    first = _scenario_run("generic_forced", 500)
    _scenario_run("damped_drop", 500)
    second = _scenario_run("generic_forced", 500)
    for column in ("poses", "twists", "steps", "iterations", "residual_norms"):
        np.testing.assert_array_equal(getattr(first, column), getattr(second, column))


def _behind_plain_callable(model):
    """The model with its evaluate behind a plain function: the adapter route."""
    return replace(model, evaluate=lambda p, c, t, e=model.evaluate: e(p, c, t))


@pytest.mark.parametrize("run", [simulate, rk4_simulate], ids=["dqvi", "rk4"])
@pytest.mark.parametrize("name", ["generic_forced", "damped_drop"])
def test_float_kernels_run_bit_identical_to_wrench_edge(name, run):
    # the loops call the library models' float kernels; the same models
    # behind plain callables go through their ndarray/Wrench edge and the
    # adapter, and the runs must not differ in a single bit
    inputs = _scenario_inputs(name)
    edge = tuple(map(_behind_plain_callable, inputs.forces))
    kernel_run = run(inputs.pose, inputs.twist, inputs.inertia, inputs.forces, inputs.settings, 300)
    edge_run = run(inputs.pose, inputs.twist, inputs.inertia, edge, inputs.settings, 300)
    for column in ("poses", "twists", "steps", "potential"):
        np.testing.assert_array_equal(getattr(kernel_run, column), getattr(edge_run, column))


def test_simulated_potential_column_is_per_state_potential_energy():
    # from_raw evaluates the potentials once over the pose column; each
    # entry must carry the bits of potential_energy at that state's pose
    inputs = _scenario_inputs("generic_forced")
    traj = _scenario_run("generic_forced", 300)
    assert np.any(traj.potential != 0.0)
    per_state = [potential_energy(inputs.forces, pose) for pose in traj.poses]
    np.testing.assert_array_equal(traj.potential, per_state)


def test_replaced_evaluate_is_called_once_per_state():
    # dataclasses.replace(model, evaluate=...) is honoured: the loop calls
    # the new callable, once per state
    inputs = _scenario_inputs("generic_forced")
    times = []

    def counted(pose, chi, t, inner=inputs.forces[0].evaluate):
        times.append(t)
        return inner(pose, chi, t)

    models = (replace(inputs.forces[0], evaluate=counted), *inputs.forces[1:])
    n_steps = 40
    simulate(inputs.pose, inputs.twist, inputs.inertia, models, inputs.settings, n_steps)
    assert len(times) == n_steps + 1
    np.testing.assert_allclose(times, np.arange(n_steps + 1) * inputs.settings.h, rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("run", [simulate, rk4_simulate], ids=["dqvi", "rk4"])
@pytest.mark.parametrize(
    "bad, message",
    [
        (lambda pose, chi, t: np.zeros(6), "force model 1 returned ndarray, expected Wrench"),
        (lambda pose, chi, t: body_wrench([0.0, np.nan, 0.0], np.zeros(3)), "force model 1 returned a non-finite wrench"),
    ],
    ids=["ndarray", "nan_torque"],
)
def test_user_model_errors_name_the_model(run, bad, message):
    models = [constant_wrench_model(body_wrench(np.zeros(3), [0.0, 0.0, -1.0])), ForceModel(evaluate=bad)]
    M = build_inertia(1.0, np.diag([1.0, 2.0, 3.0]))
    with pytest.raises(ValidationError, match=message):
        run(pose_identity(), np.zeros(6), M, models, SolverSettings(h=1e-3), 5)


def test_forced_runs_build_no_wrench(monkeypatch):
    # the loop, the RK4 oracle and from_raw stay on floats: a Wrench is
    # only built at the API edge, never per step or per state
    runs = [_scenario_inputs(name) for name in ("generic_forced", "damped_drop")]
    built = []
    post_init = Wrench.__post_init__

    def counted(self):
        built.append(self.frame)
        post_init(self)

    monkeypatch.setattr(Wrench, "__post_init__", counted)
    for inputs in runs:
        for integrate in (simulate, rk4_simulate):
            traj = integrate(inputs.pose, inputs.twist, inputs.inertia, inputs.forces, inputs.settings, 100)
            Trajectory.from_raw(traj.times, traj.poses, traj.twists, inputs.inertia, inputs.forces)
    assert built == []
    body_wrench(np.zeros(3), np.zeros(3))  # the count does see a construction
    assert built == ["body"]
