"""Variational stepper: parametrization, residuals, Jacobian, Newton, runs."""

import collections
import contextlib
import dis
import pathlib
import re
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from _oracles import step_jacobian_oracle
from conftest import random_pose

from dqdyn import dynamics, integrator
from dqdyn.cli import main
from dqdyn.dynamics import (
    ForceModel,
    build_inertia,
    build_inertia_raw,
    constant_wrench_model,
    damping_model,
    force_model_from_potential,
    gravity_potential,
    potential_energy,
    skew,
    spring_potential,
    total_wrench,
    wrench_sum_kernel,
)
from dqdyn.errors import SingularMatrixError, SolverDivergenceError, StepTooLargeError, ValidationError
from dqdyn.integrator import (
    SolverSettings,
    initial_guess,
    jacobian,
    residual,
    retrieve_twist,
    rhs,
    simulate,
    solve_step,
    step_to_dual_quaternion,
)
from dqdyn.kinematics import Wrench, body_wrench, pose_constraint_errors, pose_identity, world_wrench
from dqdyn.newton_euler import rk4_simulate
from dqdyn.quat import dq_mul
from dqdyn.scenario import load_run
from dqdyn.trajectory import Trajectory

SCENARIO_DIR = pathlib.Path(__file__).resolve().parent.parent / "scenarios"
SCENARIOS = sorted(path.stem for path in SCENARIO_DIR.glob("*.yaml"))


def random_step(rng, phi_scale=0.5):
    phi = rng.normal(size=3)
    phi *= phi_scale * rng.uniform(0.1, 1.0) / np.linalg.norm(phi)
    psi = rng.normal(size=3)
    return np.concatenate([phi, psi])


def mixed_inertias(rng):
    """Inertias whose zero patterns the generated stepping loop must all handle."""
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


def test_translation_folds_the_step_map_where_m_psi_squared_reaches_j():
    # at Phi = 0 the Jacobian's rotational block is J - m Psi Psi^T for a
    # body referenced at its centre of mass, so det J changes sign where
    # m |Psi|^2 crosses the principal moment along Psi (damped_drop's body)
    M = _scenario_inputs("damped_drop").inertia
    m = M.matrix[3, 3]
    for axis in (2, 0):  # J_zz = 1.6, J_xx = 0.8
        for ratio, sign in ((0.99, 1.0), (1.01, -1.0)):
            f = np.zeros(6)
            f[3 + axis] = np.sqrt(ratio * M.matrix[axis, axis] / m)
            assert sign * np.linalg.det(jacobian(f, M)) > 0.0


@pytest.mark.parametrize("v", [0.0, 5.0, 10.0, 15.0])
def test_translating_screw_spin_error_follows_m_psi_squared(v):
    """ROADMAP item 1, as the scheme stands: a free screw (damped_drop's
    body, spin 0.5 rad/s about z, velocity v along z, h = 0.05, T = 2 s)
    keeps its spin whatever v is, but the discrete rotation per step is
    about (h/2) (J - m Psi Psi^T)^-1 J omega, so the spin angle's relative
    error follows m|Psi|^2 / (J_zz - m|Psi|^2) with Psi = h v / 2. A fix of
    item 1 changes this test on purpose."""
    M = _scenario_inputs("damped_drop").inertia
    m, J_zz = M.matrix[3, 3], M.matrix[2, 2]
    assert (m, J_zz) == (1.5, 1.6)
    h, T, spin = 0.05, 2.0, 0.5
    traj = simulate(pose_identity(), [0.0, 0.0, spin, 0.0, 0.0, v], M, (), SolverSettings(h=h), round(T / h))
    q = traj.poses[-1]
    error = abs(2.0 * np.arctan2(q[3], q[0]) - spin * T) / (spin * T)
    if v == 0.0:
        assert error < 2e-4  # measured 1.04e-4
        return
    psi2 = (0.5 * h * v) ** 2
    predicted = m * psi2 / (J_zz - m * psi2)
    assert abs(error / predicted - 1.0) < 0.05  # measured 1.498e-2, 6.239e-2, 0.1521


def loop_entries(M):
    """The terms and Jacobian entries that the stepping loop writes for M,
    compiled here from its traces: ``entries(f)`` is (terms, J as six row
    lists) at f."""
    mf, lines, rows = integrator._traces(np.asarray(M, dtype=np.float64).tobytes())
    source = "\n".join([
        "def entries(f):",
        f"    {', '.join(integrator._STEP_VARIABLES)} = f",
        "    n = p0 * p0 + p1 * p1 + p2 * p2",
        *integrator._terms_lines(mf),
        "    cg = c / g",
        *integrator._JACOBIAN_LOCALS,
        *(f"    {line}" for line in lines),
        f"    return ({integrator._TERMS}), [{', '.join('[' + ', '.join(row) + ']' for row in rows)}]",
    ]) + "\n"
    return integrator._compile(source, "entries")


def test_generated_kernels_are_their_float_formulas(rng):
    # the loop's terms and Jacobian entries are matvec and _jacobian traced
    # with M's entries as literals; the formulas evaluated on floats with
    # the full M give the same values (== ignores the sign of a zero, which
    # a left-out zero term can change), so the search on the float Jacobian
    # reads the magnitudes of the entries the loop eliminates
    for M in mixed_inertias(rng):
        entries = loop_entries(M.matrix)
        rows = M.matrix.tolist()
        for k in range(20):
            f = random_step(rng, 0.9).tolist()
            f[k % 6] = 0.0
            terms, J = entries(f)
            assert list(terms) == list(integrator._terms(rows, f))
            assert J == integrator._float_jacobian(rows, f) == jacobian(f, M).tolist()


def _searched_order(M, f):
    """The pivot order the search picks for M's Jacobian at f."""
    return integrator._pivot_order(M.matrix.tolist(), f)


def test_stepping_loop_source_has_no_zero_products(rng):
    zero_literal = r"-?0\.0(?![0-9e])"
    damped = wrench_sum_kernel([damping_model(0.2, 0.5)]).source
    for M in mixed_inertias(rng):
        order = _searched_order(M, random_step(rng).tolist())
        for sum_source in (None, damped):
            source = integrator.stepping_loop(M, order, sum_source).source
            assert not re.search(r"\* " + zero_literal, source)
            assert not re.search(r"(?<![\w.])" + zero_literal + r" \*", source)
    # a diagonal inertia leaves one product for each entry of M f that is not 1.0
    M = build_inertia(2.0, np.diag([1.0, 3.0, 4.0]))
    terms = integrator._terms_lines(integrator._traces(M.matrix.tobytes())[0])
    assert "\n".join(terms).count(" * ") == 3 + 5  # c, M f


def test_stepping_loops_compile_once_per_inertia_and_order(rng):
    loops = integrator._compiled_loop
    loops.cache_clear()
    M = build_inertia(1.0, np.diag(rng.uniform(1.0, 4.0, size=3)))
    settings = SolverSettings(h=1e-3)
    twist = [1.0, 0.1, 0.0, 0.0, 0.0, 0.0]
    rk4_simulate(pose_identity(), twist, M, (), settings, 3)
    assert loops.cache_info().misses == 0  # the RK4 oracle never generates
    for _ in range(3):
        simulate(pose_identity(), twist, M, (), settings, 3)
    assert loops.cache_info().misses == 1  # one searched order, one free loop
    # one loop per (M, order, wrench sum), in a bounded cache
    bound = loops.cache_info().maxsize
    orders = set()
    while len(orders) <= bound:
        orders.add(_searched_order(M, random_step(rng, 0.9).tolist()))
    for order in orders:
        integrator.stepping_loop(M, order, None)
        integrator.stepping_loop(M, order, None)
    info = loops.cache_info()
    assert info.misses == 1 + len(orders) and info.hits >= len(orders) and info.currsize <= bound


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


def test_step_products_stay_on_group(rng):
    # p_{k+1} = p_k x f_k, the pose update of the stepping loop
    p = random_pose(rng)
    np.testing.assert_array_equal(dq_mul(p, step_to_dual_quaternion(np.zeros(6))), p)
    f = random_step(rng)
    np.testing.assert_array_equal(
        dq_mul(pose_identity(), step_to_dual_quaternion(f)), step_to_dual_quaternion(f)
    )
    # long free product of random steps stays on the group without projection
    p = pose_identity()
    for _ in range(1000):
        p = dq_mul(p, step_to_dual_quaternion(random_step(rng, phi_scale=0.3)))
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


def test_update_that_no_halving_keeps_inside_the_half_turn_is_a_divergence(monkeypatch, tmp_path, capsys):
    # every update hands its dx back to be halved, with 1e30 in Phi_x: 60
    # halvings leave it near 1e12, so the step cannot keep |Phi| < 1 and
    # the run stops at once
    def far(body, matrix, order, leave):
        def halve_far(handoff):
            return leave(f"[1e30, {handoff.split(', ', 1)[1]}" if handoff.startswith("[") else handoff)

        return ["    if True:" if line == "    if n >= 1.0:" else line for line in body(matrix, order, halve_far)]

    with _patched_updates(monkeypatch, far):
        M = build_inertia(1.0, np.diag([1.0, 2.0, 3.0]))
        with pytest.raises(SolverDivergenceError, match=r"could not keep \|Phi\| < 1 at step 0") as info:
            simulate(pose_identity(), [1.0, 0.1, 0.0, 0.0, 0.0, 0.0], M, (), SolverSettings(h=1e-3), 10)
        assert info.value.step_index == 0
        assert info.value.iterations == 1
        config = tmp_path / "free.yaml"
        config.write_text("body: {mass: 1.0, inertia: [1, 2, 3]}\ninitial: {body_twist: [1.0, 0.1, 0, 0, 0, 0]}\n")
        assert main(["run", "--config", str(config), "--steps", "10"]) == 3
    assert "could not keep |Phi| < 1" in capsys.readouterr().err


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
    # int() would run 2.5 as 2 steps, True as 1 and "3" as 3: each is no count
    for run in (simulate, rk4_simulate):
        for bad in (-1, 2.5, True, "3"):
            with pytest.raises(ValidationError, match="^n_steps"):
                run(pose_identity(), np.zeros(6), M, (), SolverSettings(h=1e-3), bad)


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


@contextlib.contextmanager
def _patched_updates(monkeypatch, patched):
    """Within the block, every loop is generated with the update lines
    ``patched(_update_body, matrix, order, leave)``; the loop cache is
    emptied on entry and exit, so no loop of either kind outlives the
    block."""
    body = integrator._update_body
    with monkeypatch.context() as patch:
        integrator._compiled_loop.cache_clear()
        patch.setattr(integrator, "_update_body", lambda *args: patched(body, *args))
        try:
            yield
        finally:
            integrator._compiled_loop.cache_clear()


def _refusing_updates(monkeypatch):
    """Within the block, every loop is generated with an update that
    refuses each iteration."""
    def refusing(body, matrix, order, leave):
        return [f"    {leave(repr(integrator._REFUSED))}", *body(matrix, order, leave)]

    return _patched_updates(monkeypatch, refusing)


def test_a_search_that_returns_the_refused_order_is_singular(monkeypatch):
    # every update refuses, so the search picks the order whose update has
    # just refused: the same update would refuse again, and the step is
    # singular at its first iteration instead of searching forever
    M = build_inertia(1.0, np.diag([1.0, 2.0, 3.0]))
    settings = SolverSettings(h=1e-3)
    with _refusing_updates(monkeypatch):
        with pytest.raises(SingularMatrixError, match="at step 0") as info:
            simulate(pose_identity(), [1.0, 0.1, 0.0, 0.0, 0.0, 0.0], M, (), settings, 5)
        assert (info.value.step_index, info.value.iterations) == (0, 1)
        with pytest.raises(SingularMatrixError) as info:
            solve_step(initial_guess([1.0, 0.1, 0.0, 0.0, 0.0, 0.0], settings.h), M, None, settings)
        assert (info.value.step_index, info.value.iterations) == (None, 1)


def _calls_recorded(monkeypatch, calls):
    """Wrap every generated loop; ``calls`` collects (k in, k out, handoff)
    of each call."""
    compiled = integrator._compiled_loop

    def loops(*key):
        loop = compiled(*key)

        def recorded(k, *args):
            result = loop(k, *args)
            calls.append((k, result[0], result[-1]))
            return result

        return recorded

    monkeypatch.setattr(integrator, "_compiled_loop", loops)


def _one_step_per_call(monkeypatch, solved):
    """A stand-in for the loop cache whose loops solve one step per call of
    the generated loop: the first call stops after the step it enters, and
    each next call goes on from the state the last one returned, one step
    further. ``solved`` collects (f_k, positive, order) of each solved step:
    the step variables, whether the loop's last elimination gave det J > 0
    and the pivot order of the loop that solved it."""
    compiled = integrator._compiled_loop

    def loops(*key):
        loop = compiled(*key)

        def one_step_per_call(k, stop, *args):
            state, rest = args[:10], args[10:]
            k, *state, handoff = loop(k, k + 1, *state, *rest)
            while handoff is None:
                solved.append((state[1], state[7], key[2]))
                if k == stop - 1:
                    break
                k, *state, handoff = loop(k, k + 2, *state, *rest)
            return (k, *state, handoff)

        return one_step_per_call

    monkeypatch.setattr(integrator, "_compiled_loop", loops)


def _scenario_run(name, n_steps):
    inputs = _scenario_inputs(name)
    return simulate(inputs.pose, inputs.twist, inputs.inertia, inputs.forces, inputs.settings, n_steps)


@pytest.mark.parametrize("h", [1e-3, 1e-2, 0.05])
@pytest.mark.parametrize("name", [name for name in SCENARIOS if name != "damped_drop"])
def test_reused_pivot_order_changes_no_state(monkeypatch, name, h):
    # Newton reuses the pivot order of the last search; the run must equal
    # one whose every update eliminates in the order the search picks at
    # its start: there each loop's update refuses when the search picks
    # another order, so the solver searches again and goes on in the loop
    # of that order. The orders may differ where J's blocks decouple (the
    # free top's), but then the elimination does the same operations. At
    # the larger steps the steps take more than one update and pass the
    # branch guard. damped_drop is left out: its three equal masses tie in
    # the search, which picks another order at step 1 than at step 0, so
    # the searching run eliminates in another order and differs in the last
    # bits
    inputs = _scenario_inputs(name)
    rows = inputs.inertia.matrix.tolist()
    search = integrator._pivot_order
    searches = []

    def counted(M, f):
        searches.append(f)
        return search(M, f)

    def searching(body, matrix, order, leave):
        p = ", ".join(integrator._STEP_VARIABLES)
        refuse = leave(repr(integrator._REFUSED))
        return [f"    if _search([{p}]) != {order!r}:", f"        {refuse}", *body(matrix, order, leave)]

    def run():
        return simulate(inputs.pose, inputs.twist, inputs.inertia, inputs.forces, replace(inputs.settings, h=h), 2000)

    monkeypatch.setattr(integrator, "_pivot_order", counted)
    reused = run()
    # only step 0 searched (at h = 0.05 pure_translation also searches at
    # its two refused updates)
    assert len(searches) == (3 if (name, h) == ("pure_translation", 0.05) else 1)
    monkeypatch.setattr(integrator, "SUM_NAMES", {**integrator.SUM_NAMES, "_search": lambda f: search(rows, f)})
    with _patched_updates(monkeypatch, searching):
        searched = run()
    for column in ("poses", "twists", "steps", "iterations", "residual_norms"):
        np.testing.assert_array_equal(getattr(reused, column), getattr(searched, column))


@pytest.mark.parametrize("h", [1e-3, 1e-2, 0.05])
@pytest.mark.parametrize("name", SCENARIOS)
def test_resuming_the_loop_at_every_step_changes_no_state(monkeypatch, name, h):
    # what the loop returns is the whole state of its step: when every
    # call solves one step and the next call goes on from what it returned
    # (rebinding the momentum and the products from f), the run must equal
    # the one-call run bit for bit
    inputs = _scenario_inputs(name)
    settings = replace(inputs.settings, h=h)

    def run():
        return simulate(inputs.pose, inputs.twist, inputs.inertia, inputs.forces, settings, 2000)

    looped = run()
    solved = []
    _one_step_per_call(monkeypatch, solved)
    resumed = run()
    assert len(solved) == 2001
    for column in ("poses", "twists", "steps", "iterations", "residual_norms"):
        np.testing.assert_array_equal(getattr(looped, column), getattr(resumed, column))


@pytest.mark.parametrize("h", [1e-3, 1e-2, 0.05])
@pytest.mark.parametrize("name", ["free_top", "offset_reference", "pure_translation"])
def test_step_one_starts_from_step_zero(name, h):
    # step 1 has no two earlier steps to predict from, so the loop starts it
    # from f_0 itself (2 f_0 - f_0 would turn a -0.0 into +0.0): it is the
    # single-step solve from f_0, which searches the same pivot order here
    inputs = _scenario_inputs(name)
    settings = replace(inputs.settings, h=h)
    traj = simulate(inputs.pose, inputs.twist, inputs.inertia, (), settings, 2)
    single, iterations, _ = solve_step(traj.steps[0], inputs.inertia, None, settings)
    np.testing.assert_array_equal(traj.steps[1], single)
    assert traj.iterations[1] == iterations


def test_loop_runs_irregular_steps_without_a_handback(monkeypatch):
    # a torque impulse at state 20 throws the predictions of steps 20 and
    # 21 off, so their first update misses tol: the loop runs their further
    # updates itself, and one call takes the run from step 0 to its end
    h = 1e-3

    def impulse(pose, chi, t):
        return body_wrench([1.0e3 if abs(t - 20 * h) < 1e-9 else 0.0, 0.0, 0.0], np.zeros(3))

    calls = []
    _calls_recorded(monkeypatch, calls)
    M = build_inertia(1.0, np.diag([1.0, 2.0, 3.0]))
    model = ForceModel(evaluate=impulse)
    traj = simulate(pose_identity(), [1.0, 0.1, 0.0, 0.0, 0.0, 0.0], M, [model], SolverSettings(h=h), 40)
    assert np.flatnonzero(traj.iterations > 1).tolist() == [20, 21]
    assert calls == [(0, 40, None)]
    assert traj.residual_norms.max() <= SolverSettings(h=h).tolerance


@pytest.mark.parametrize("h", [0.05, 0.1])
@pytest.mark.parametrize("name", SCENARIOS)
def test_loop_hands_back_only_refused_updates(monkeypatch, name, h):
    # at large steps most steps take two or three updates, and the loop
    # runs them all: no scenario hands a step back, except the two refused
    # updates of pure_translation. A restart from f_{k-1} (a predicted
    # start that misses or crosses the fold) is handed back too, so none
    # happens here. damped_drop fails at step 18 at h = 0.1 (ROADMAP item
    # 1), so it runs the 17 steps before
    inputs = _scenario_inputs(name)
    n_steps = 17 if (name, h) == ("damped_drop", 0.1) else 1200
    calls = []
    _calls_recorded(monkeypatch, calls)
    traj = simulate(inputs.pose, inputs.twist, inputs.inertia, inputs.forces, replace(inputs.settings, h=h), n_steps)
    handed = [(k, handoff) for _, k, handoff in calls if handoff is not None]
    if name == "pure_translation":
        assert [handoff for _, handoff in handed] == [integrator._REFUSED] * 2
    else:
        assert handed == [] and traj.iterations.max() > 1


@pytest.mark.parametrize("tol", [1e-12, 1e-6, 1e-4])
@pytest.mark.parametrize("h", [0.05, 0.1])
@pytest.mark.parametrize("name", SCENARIOS)
def test_loop_fold_sign_is_the_sign_of_det_j(monkeypatch, name, h, tol):
    # the side of the fold the loop carries for f_k, from the pivots of the
    # step's last elimination (at the iterate before f_k, within about
    # sqrt(tol) of it), is the sign of det J at f_k on every state, also at
    # the coarse tolerances where that iterate lies about 1e-2 from f_k; on
    # pure_translation det J changes sign along the run (between states
    # 492 and 493 at h = 0.05), with every step one update
    inputs = _scenario_inputs(name)
    solved = []
    _one_step_per_call(monkeypatch, solved)
    try:
        simulate(
            inputs.pose, inputs.twist, inputs.inertia, inputs.forces, replace(inputs.settings, h=h, tolerance=tol), 600
        )
    except SolverDivergenceError as error:  # damped_drop at h = 0.1, ROADMAP item 1
        assert (name, h, error.step_index) == ("damped_drop", 0.1, 18)
    exact = [np.linalg.det(jacobian(f, inputs.inertia)) > 0.0 for f, _, _ in solved]
    assert [positive for _, positive, _ in solved] == exact
    assert len(solved) == (18 if (name, h) == ("damped_drop", 0.1) else 601)
    if name == "pure_translation":
        assert len(set(exact)) == 2


def test_a_run_holds_its_table_and_no_float_per_state(monkeypatch):
    # simulate packs each state straight into its row of one float64 table,
    # and the trajectory's poses, steps and residual norms are views of its
    # columns: while the loop runs, the run holds the table, the iteration
    # counts and a small constant. A Python float kept per state would add
    # 24 bytes and a list pointer per float, 672 bytes a state
    inputs = _scenario_inputs("free_top")
    n = 1000  # tracemalloc costs the loop about 2 ms a step
    run = (inputs.pose, inputs.twist, inputs.inertia, (), inputs.settings, n)
    simulate(*run)  # generating and compiling the loop is not the run's
    compiled = integrator._compiled_loop
    peaks = []

    def loops(*key):
        loop = compiled(*key)

        def traced(*args):
            result = loop(*args)
            peaks.append(tracemalloc.get_traced_memory()[1])
            return result

        return traced

    monkeypatch.setattr(integrator, "_compiled_loop", loops)
    tracemalloc.start()
    try:
        traj = simulate(*run)
    finally:
        tracemalloc.stop()
    table = (n + 1) * integrator._ROW * 8
    assert len(peaks) == 1  # one loop call runs every step
    assert peaks[0] <= table + (n + 1) * 8 + 16_384
    rows = traj.poses.base
    assert rows.shape == (n + 1, integrator._ROW) and traj.steps.base is rows and traj.residual_norms.base is rows


@pytest.mark.parametrize("h", [1e-3, 0.05])
@pytest.mark.parametrize("name", SCENARIOS)
def test_every_row_chains(name, h):
    # each pose is the last one times the unit dual quaternion of the last
    # step, bit for bit: the rows the loop packs and those of the steps it
    # hands back (many at h = 0.05) are one sequence, none left unwritten
    # or shifted
    inputs = _scenario_inputs(name)
    traj = simulate(inputs.pose, inputs.twist, inputs.inertia, inputs.forces, replace(inputs.settings, h=h), 1200)
    for k in range(1, traj.n_states):
        chained = dq_mul(traj.poses[k - 1], step_to_dual_quaternion(traj.steps[k - 1]))
        assert chained.tobytes() == traj.poses[k].tobytes(), k


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
    # a kernel, an adapter and a kernel in one list: each model's route is
    # resolved on its own, and the sum still goes in model order
    three = (*inputs.forces, inputs.forces[0])
    mixed = (three[0], _behind_plain_callable(three[1]), three[2])
    mixed_run = run(inputs.pose, inputs.twist, inputs.inertia, mixed, inputs.settings, 300)
    edge = tuple(map(_behind_plain_callable, three))
    edge_run = run(inputs.pose, inputs.twist, inputs.inertia, edge, inputs.settings, 300)
    for column in ("poses", "twists", "steps", "potential"):
        np.testing.assert_array_equal(getattr(mixed_run, column), getattr(edge_run, column))


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
        # a world wrench is rotated through the pose before the sum checks it
        (lambda pose, chi, t: world_wrench(np.zeros(3), [0.0, np.nan, 0.0]), "force model 1 returned a non-finite wrench"),
        (lambda pose, chi, t: body_wrench([0.0, 0.0, -np.inf], np.zeros(3)), "force model 1 returned a non-finite wrench"),
    ],
    ids=["ndarray", "nan_torque", "nan_world_force", "inf_torque"],
)
def test_user_model_errors_name_the_model(run, bad, message):
    models = [constant_wrench_model(body_wrench(np.zeros(3), [0.0, 0.0, -1.0])), ForceModel(evaluate=bad)]
    M = build_inertia(1.0, np.diag([1.0, 2.0, 3.0]))
    with pytest.raises(ValidationError, match=message):
        run(pose_identity(), np.zeros(6), M, models, SolverSettings(h=1e-3), 5)


FORCED_SCENARIOS = ("damped_drop", "generic_forced", "pure_translation", "spring_pendulum")


def _run_bytes(traj) -> bytes:
    return b"".join(a.tobytes() for a in (traj.poses, traj.twists, traj.steps, traj.iterations, traj.residual_norms))


def _mixed_models():
    """Library models with source and models behind the adapter."""
    gravity = force_model_from_potential(gravity_potential(1.3, [0.1, -0.2, -9.81], [0.2, -0.1, 0.3]))
    return [
        gravity,
        ForceModel(evaluate=lambda pose, chi, t: body_wrench([0.1 * t, 0.0, -0.2 * chi[2]], [0.3, 0.0, pose[0]])),
        damping_model([0.2, 0.0, 0.4], 0.5),
        replace(gravity, evaluate=lambda pose, chi, t, e=gravity.evaluate: e(pose, chi, t)),
        force_model_from_potential(spring_potential([0.2, -0.3, 1.0], [0.3, 0.0, 0.2], 25.0, 0.4)),
        constant_wrench_model(world_wrench([0.3, -0.2, 0.1], [1.0, 0.0, -3.0])),
    ]


@pytest.mark.parametrize("h", [1e-3, 1e-2, 0.05])
@pytest.mark.parametrize("name", [*FORCED_SCENARIOS, "mixed"])
def test_inlined_wrench_sum_runs_like_the_compiled_sum(name, h):
    # the loop inlines the sum's lines; behind a plain callable the loop
    # calls the compiled sum through the adapter instead, and every bit
    # must agree
    if name == "mixed":
        inputs = _scenario_inputs("generic_forced")
        models = _mixed_models()
    else:
        inputs = _scenario_inputs(name)
        models = list(inputs.forces)
    total = wrench_sum_kernel(models)

    def summed(pose, chi, t):
        w = total(pose.tolist(), chi.tolist(), t)
        return body_wrench(w[:3], w[3:])

    through = [ForceModel(evaluate=summed)]
    assert "_calls" not in wrench_sum_kernel(inputs.forces).source  # the library's models are all inlined
    settings = replace(inputs.settings, h=h)
    inlined = simulate(inputs.pose, inputs.twist, inputs.inertia, models, settings, 300)
    called = simulate(inputs.pose, inputs.twist, inputs.inertia, through, settings, 300)
    assert _run_bytes(inlined) == _run_bytes(called)


def test_gravity_and_spring_loop_has_no_twist_product_and_no_zero_product():
    inputs = _scenario_inputs("generic_forced")
    order = _searched_order(inputs.inertia, [0.01, 0.02, -0.01, 0.1, 0.0, 0.2])
    source = integrator.stepping_loop(inputs.inertia, order, wrench_sum_kernel(inputs.forces).source).source
    zero_literal = r"-?0\.0(?![0-9e])"
    assert not re.search(r"\* " + zero_literal, source)
    assert not re.search(r"(?<![\w.])" + zero_literal + r" \*", source)
    # neither model reads the twist or the time: no predicted twist, no M^-1
    for name in ("two_over_h", "chi0", "i0", "time", "_calls"):
        assert not re.search(rf"\b{name}\b", source)
    # damping reads the twist, so its loop predicts it
    damped = integrator.stepping_loop(inputs.inertia, order, wrench_sum_kernel([damping_model(0.2, 0.5)]).source).source
    assert all(re.search(rf"^ +i{i} = ", damped, re.M) for i in range(6)) and "two_over_h * i5" in damped


def _loop_sources():
    """The loop of a free body, of generic_forced (gravity plus spring) and
    of a damped one, for one searched order of generic_forced's inertia."""
    inputs = _scenario_inputs("generic_forced")
    order = _searched_order(inputs.inertia, [0.01, 0.02, -0.01, 0.1, 0.0, 0.2])
    for models in ((), inputs.forces, [damping_model(0.2, 0.5)]):
        sum_source = wrench_sum_kernel(models).source if models else None
        yield integrator.stepping_loop(inputs.inertia, order, sum_source).source


def test_each_loop_hands_a_step_back_from_one_place():
    # every refusal and halving of the inlined update, a failed step and
    # the last step break out of the loop, to its one return
    inputs = _scenario_inputs("generic_forced")
    order = _searched_order(inputs.inertia, [0.01, 0.02, -0.01, 0.1, 0.0, 0.2])
    leaves = integrator._update_body(inputs.inertia.matrix.tobytes(), order, lambda handoff: f"leave({handoff})")
    for source in _loop_sources():
        returns = re.findall(r"^( *)return .*?(\S+)$", source, re.M)
        assert returns == [("    ", "handoff")]
        assert source.count("; break\n") == sum(line.count("leave(") for line in leaves)
        assert f"handoff = {integrator._MISSED!r}\n" in source and "handoff = None\n" in source


def test_each_loop_step_binds_the_shared_products_once():
    # the new iterate's momentum binds the operations its trace shares with
    # the transport (gamma w, Phi x w, (c/gamma) u, Psi x u, gamma u and
    # Phi x u) once, and the next step's transport reads only those names;
    # -c / g is not divided again, and gamma^2 is bound once
    bound = [line.split(" = ")[0] for line in integrator._PRODUCT_LINES]
    assert len(bound) == 18
    for source in _loop_sources():
        body = source[source.index("    while True:\n") : source.index("\n    return ")]
        for name in bound:
            assert len(re.findall(rf"^ +{name} = ", body, re.M)) == 1, name
        for i, entry in enumerate(integrator._SHARED[6:]):
            assert f"        t{i} = {entry}\n" in body
            assert set(re.findall(r"\b[a-z_]\w*", entry)) <= set(bound), entry
        assert "dw = -cg\n" in body and "-c / g" not in body
        assert len(re.findall(r"\bg \* g\b", body)) == 1


def _while_body(loop) -> list:
    """The instructions of the generated loop's while-body: from the target
    of its one backward jump to that jump."""
    instructions = list(dis.get_instructions(loop))
    (back,) = [i for i in instructions if "JUMP" in i.opname and isinstance(i.argval, int) and i.argval < i.offset]
    return [i for i in instructions if back.argval <= i.offset <= back.offset]


# BINARY_OP, UNARY_NEGATIVE and CALL instructions of the generated loop's
# while-body, the float operations and calls of a step (the square roots,
# the residual norm's abs, the row's pack and the wrench sum's error
# calls), with the fold sign's pivot product and the iteration count:
# their counts
LOOP_OPERATIONS = {"free_top": (574, 23, 11), "generic_forced": (1010, 22, 14)}


@pytest.mark.skipif(sys.version_info < (3, 11), reason="one BINARY_OP instruction per binary operator from Python 3.11")
@pytest.mark.parametrize("name", sorted(LOOP_OPERATIONS))
def test_loop_float_operations_do_not_grow(name):
    # a deterministic guard for the loop's cost, independent of timing: a
    # change that adds float operations or a call to a step fails here on
    # every machine
    inputs = _scenario_inputs(name)
    order = _searched_order(inputs.inertia, initial_guess(inputs.twist, inputs.settings.h).tolist())
    sum_source = wrench_sum_kernel(inputs.forces).source if inputs.forces else None
    loop = integrator.stepping_loop(inputs.inertia, order, sum_source)
    counts = collections.Counter(i.opname for i in _while_body(loop))
    binary, negative, calls = LOOP_OPERATIONS[name]
    assert counts["BINARY_OP"] <= binary and counts["UNARY_NEGATIVE"] <= negative, counts
    assert counts["CALL"] <= calls, counts


def test_wrench_sum_compiles_once_per_model_list():
    compiled, generated = dynamics._compiled_sum, dynamics._sum_kernel
    compiled.cache_clear()
    generated.cache_clear()
    inputs = _scenario_inputs("generic_forced")
    total = wrench_sum_kernel(inputs.forces)
    assert wrench_sum_kernel(list(inputs.forces)) is total  # generated once per tuple of models
    for _ in range(3):
        simulate(inputs.pose, inputs.twist, inputs.inertia, inputs.forces, inputs.settings, 3)
        rk4_simulate(inputs.pose, inputs.twist, inputs.inertia, inputs.forces, inputs.settings, 3)
        total_wrench(inputs.forces, inputs.pose, inputs.twist, 0.0)
    assert generated.cache_info().misses == 1
    assert compiled.cache_info().misses == 1
    # the same scenario built again has new models with the same source
    wrench_sum_kernel(_scenario_inputs("generic_forced").forces)
    assert (generated.cache_info().misses, compiled.cache_info().misses) == (2, 1)
    wrench_sum_kernel(inputs.forces[::-1])
    assert compiled.cache_info().misses == 2


@pytest.mark.parametrize("run", [simulate, rk4_simulate], ids=["dqvi", "rk4"])
def test_model_going_non_finite_in_the_loop_names_the_model(run):
    # two opposite world torques cancel; rotated into body axes past about
    # 26 degrees about z, each overflows, model 0 first
    big = 1.5e308
    models = [
        constant_wrench_model(world_wrench([big, big, 0.0], np.zeros(3))),
        constant_wrench_model(world_wrench([-big, -big, 0.0], np.zeros(3))),
    ]
    M = build_inertia(1.0, np.diag([1.0, 2.0, 3.0]))
    with pytest.raises(ValidationError, match=r"force model 0 returned a non-finite wrench \[inf") as excinfo:
        run(pose_identity(), [0.0, 0.0, 1.0, 0.0, 0.0, 0.0], M, models, SolverSettings(h=1e-2), 100)
    if run is simulate:
        assert any(entry.frame.code.name == "loop" for entry in excinfo.traceback)
    # a model without source, called from the loop
    late = ForceModel(evaluate=lambda pose, chi, t: body_wrench([0.0, np.nan if t > 0.025 else 0.0, 0.0], np.zeros(3)))
    with pytest.raises(ValidationError, match="force model 1 returned a non-finite wrench"):
        run(pose_identity(), [0.0, 0.0, 1.0, 0.0, 0.0, 0.0], M, [damping_model(0.1, 0.1), late], SolverSettings(h=1e-2), 10)


@pytest.mark.parametrize("run", [simulate, rk4_simulate], ids=["dqvi", "rk4"])
def test_overflowing_gravity_weight_names_the_model(run):
    # a weight of -inf is written as a literal the compiled sum can read
    models = [force_model_from_potential(gravity_potential(1e308, [0.0, 0.0, -10.0]))]
    M = build_inertia(1.0, np.diag([1.0, 2.0, 3.0]))
    with pytest.raises(ValidationError, match="force model 0 returned a non-finite wrench"):
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
