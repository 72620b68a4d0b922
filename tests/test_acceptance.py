"""End-to-end acceptance gate.

One test per shipped guarantee, in a fixed order, each printing the measured
numbers next to its bar (run with -s to see them on passing tests too):

1. long-run group-constraint preservation without reprojection
2. world angular momentum conservation, with its drift at round-off
3. bounded energy without secular drift
4. Newton convergence effort, one iteration per forced step
5. pure-translation single-iteration exactness
6. convergence order against the RK4 oracle, free and forced
7. analytic Jacobian validity
8. free choice of the body reference point
9. algebra identity suites

The scenarios and tolerances here are frozen; loosening a bar or trimming a
scenario to make a test pass defeats the point of the gate.
"""

import time

import numpy as np
import pytest
from conftest import random_pose, random_unit_quaternion

from dqdyn._compat import NUMBA_AVAILABLE
from dqdyn.dynamics import (
    build_inertia,
    build_inertia_raw,
    damping_model,
    force_model_from_potential,
    gravity_potential,
    skew,
    spring_potential,
)
from dqdyn.integrator import SolverSettings, jacobian, residual, simulate
from dqdyn.kinematics import (
    pose_from_rotation_translation,
    pose_identity,
    pose_rate_from_body_twist,
    pose_to_rotation_translation,
    rotate_vector,
    transform_point,
    twist_world_from_body,
    world_wrench,
    wrench_body_from_world,
    wrench_to_dual_force,
)
from dqdyn.newton_euler import rk4_simulate
from dqdyn.quat import dq_mul, dq_quat_conjugate, dq_dual_transpose, quat_conjugate, quat_mul
from dqdyn.trajectory import compare_trajectories

TOP_INERTIA = np.diag([1.0, 2.0, 3.0])
TOP_TWIST = np.array([1.0, 0.1, 0.0, 0.0, 0.0, 0.0])
SETTINGS = SolverSettings(h=1e-3, tolerance=1e-12)


@pytest.fixture(scope="module")
def free_top_long():
    M = build_inertia(1.0, TOP_INERTIA)
    start = time.perf_counter()
    traj = simulate(pose_identity(), TOP_TWIST, M, (), SETTINGS, 100_000)
    return traj, time.perf_counter() - start


@pytest.fixture(scope="module")
def free_top_10k():
    M = build_inertia(1.0, TOP_INERTIA)
    return simulate(pose_identity(), TOP_TWIST, M, (), SETTINGS, 10_000)


def spring_pendulum():
    # released from rest; the seed step's start-up half-kick puts the
    # node-synchronized discrete energy exactly on the continuous value at
    # state 0
    M = build_inertia(1.0, TOP_INERTIA)
    spring = force_model_from_potential(
        spring_potential([0.0, 0.0, 1.0], [0.3, 0.0, 0.0], 30.0)
    )
    gravity = force_model_from_potential(gravity_potential(1.0, [0.0, 0.0, -9.81]))
    return M, [spring, gravity], np.zeros(6)


def generic_forced():
    # coupled inertia (offset reference), two position-dependent forces,
    # tumbling at |omega| ~ 1: nothing about these steps is special
    r = (0.15, -0.1, 0.2)
    J = np.diag([1.0, 2.0, 3.0]) - 1.2 * skew(r) @ skew(r)
    M = build_inertia(1.2, J, r)
    gravity = force_model_from_potential(gravity_potential(1.2, [0.0, 0.0, -9.81], r))
    spring = force_model_from_potential(
        spring_potential([0.0, 0.0, 1.0], [0.3, 0.0, 0.0], 25.0)
    )
    return M, [gravity, spring], np.array([0.8, -0.4, 0.5, 0.2, -0.1, 0.3])


def damped_drop():
    # the shipped damped_drop scenario's body: gravity plus linear damping,
    # the one force here that reads the twist
    M = build_inertia(1.5, np.diag([0.8, 1.1, 1.6]))
    gravity = force_model_from_potential(gravity_potential(1.5, [0.0, 0.0, -9.81]))
    return M, [gravity, damping_model(0.2, 0.5)], np.array([2.0, -1.0, 0.5, 0.3, 0.0, 0.0])


@pytest.fixture(scope="module")
def spring_pendulum_10k():
    M, forces, chi0 = spring_pendulum()
    return simulate(pose_identity(), chi0, M, forces, SETTINGS, 10_000)


@pytest.fixture(scope="module")
def generic_forced_10k():
    M, forces, chi0 = generic_forced()
    return simulate(pose_identity(), chi0, M, forces, SETTINGS, 10_000)


def test_long_run_preserves_group_constraints(free_top_long):
    traj, seconds = free_top_long
    unit = traj.unit_norm_errors.max()
    orth = traj.orthogonality_errors.max()
    backend = "numba" if NUMBA_AVAILABLE else "plain Python"
    print(f"\nunit-norm error {unit:.3e}, orthogonality {orth:.3e} over 1e5 steps (bar 1e-10); "
          f"runtime {seconds:.2f} s (bar 10 s, {backend} backend)")
    assert unit <= 1e-10
    assert orth <= 1e-10
    assert seconds < 10.0


def test_world_angular_momentum_conserved(free_top_10k):
    L = free_top_10k.angular_momentum
    drift = np.abs(L - L[0]).max() / np.linalg.norm(L[0])
    print(f"\nangular momentum relative drift {drift:.3e} over 1e4 steps (bar 1e-8)")
    assert drift <= 1e-8


def test_world_angular_momentum_drift_is_roundoff(free_top_10k):
    # Newton starts each step from a second-order prediction and stops at
    # round-off, so no one-signed stopping error accumulates in L
    L = free_top_10k.angular_momentum
    drift = np.abs(L - L[0]).max() / np.linalg.norm(L[0])
    print(f"\nangular momentum relative drift {drift:.3e} over 1e4 steps (bar 1e-11)")
    assert drift <= 1e-11


def test_energy_bounded_without_secular_drift(free_top_10k, spring_pendulum_10k):
    results = {}
    for name, traj in (("free top", free_top_10k), ("spring pendulum", spring_pendulum_10k)):
        E = traj.energies
        dev = E - E[0]
        peak = np.abs(dev).max()
        rel = peak / abs(E[0])
        T = float(traj.times[-1])
        slope = np.polyfit(traj.times, E, 1)[0]
        ratio = abs(slope) * T / peak
        results[name] = (rel, ratio)
        print(f"\n{name}: peak relative energy deviation {rel:.3e} (bar 1e-4), "
              f"|linear-fit slope| x T / peak = {ratio:.3e} (bar 1e-3)")
    for name, (rel, ratio) in results.items():
        assert rel <= 1e-4, f"{name}: peak relative deviation {rel:.3e} exceeds 1e-4"
    for name, (rel, ratio) in results.items():
        assert ratio <= 1e-3, (
            f"{name}: |slope| x T = {ratio:.3e} of peak deviation (bar 1e-3). "
            "On the spring pendulum the deviation is a bounded oscillation (its "
            "peak is the same on a 10x longer run and 0.8% higher on a 100x "
            "longer one) whose slowest mode completes about one period in this "
            "window, so a least-squares line reads oscillation phase rather "
            "than a secular trend; no integrator whose energy error oscillates "
            "at the system's own frequencies can meet this bar over this "
            "window. On the free top the deviation is round-off, and the line "
            "fits noise."
        )


def test_newton_convergence_effort(generic_forced_10k):
    iters = generic_forced_10k.iterations
    frac3 = float(np.mean(iters <= 3))
    print(f"\niterations to 1e-12: <=3 on {100.0 * frac3:.2f}% of steps "
          f"(bar 99%), max {iters.max()} (bar 5)")
    assert frac3 >= 0.99
    assert iters.max() <= 5
    assert generic_forced_10k.residual_norms.max() <= 1e-12


def test_forced_steps_solve_in_one_newton_iteration(generic_forced_10k):
    # from step 1 on, the predicted warm start is within O(h^3) of the
    # solution, so one Newton update meets the tolerance
    mean = float(generic_forced_10k.iterations[1:].mean())
    print(f"\nmean Newton iterations over steps >= 1: {mean:.3f} (bar 1.05)")
    assert mean <= 1.05


def test_pure_translation_single_newton_iteration_exact():
    m = 2.0
    M = build_inertia(m, np.eye(3))
    from dqdyn.dynamics import constant_wrench_model
    from dqdyn.kinematics import body_wrench

    force = np.array([1.0, -0.5, 2.0])
    model = constant_wrench_model(body_wrench(np.zeros(3), force))
    worst = 0.0
    for h, n in ((2.0**-10, 512), (1e-3, 1000)):
        traj = simulate(
            pose_identity(),
            np.array([0.0, 0.0, 0.0, 0.3, 0.0, -0.1]),
            M,
            [model],
            SolverSettings(h=h),
            n,
        )
        assert np.all(traj.iterations == 1)
        # stored velocities are node-synchronized, so the explicit update
        # is velocity Verlet: l_{k+1} = l_k + h v_k + (h^2/2) F/m
        v = traj.twists[:, 3:]
        l = np.array([pose_to_rotation_translation(p)[1] for p in traj.poses])
        dv = np.abs(v[1:] - (v[:-1] + h * force / m)) / np.abs(v[1:]).max()
        dl = np.abs(l[1:] - (l[:-1] + h * (v[:-1] + 0.5 * h * force / m))) / np.abs(l[1:]).max()
        worst = max(worst, dv.max(), dl.max())
        assert dv.max() <= 1e-14
        assert dl.max() <= 1e-14
    print(f"\nall steps took exactly 1 iteration; worst relative deviation "
          f"from the explicit momentum/position update {worst:.3e} (bar 1e-14)")


def _check_order_against_rk4(M, forces, chi0, ref_h):
    # the final pose and the final stored twist must both converge at
    # second order: the twist is the one the trajectory reports
    ref = rk4_simulate(pose_identity(), chi0, M, forces, SolverSettings(h=ref_h), int(round(1.0 / ref_h)))
    hs = (4e-3, 2e-3, 1e-3)
    pose_errors, twist_errors = [], []
    for h in hs:
        traj = simulate(pose_identity(), chi0, M, forces, SolverSettings(h=h), int(round(1.0 / h)))
        report = compare_trajectories(traj, ref)
        assert report.times[-1] == 1.0
        pose_errors.append(report.pose_errors[-1])
        twist_errors.append(report.twist_errors[-1])
    for name, errors in (("pose", pose_errors), ("twist", twist_errors)):
        order = float(np.polyfit(np.log(hs), np.log(errors), 1)[0])
        print(f"\n{name} errors at T=1: {errors[0]:.3e}, {errors[1]:.3e}, {errors[2]:.3e}; "
              f"fitted order {order:.3f} (bar 1.5)")
        assert errors[0] > errors[1] > errors[2]
        assert order >= 1.5


def test_convergence_order_against_rk4_reference():
    _check_order_against_rk4(build_inertia(1.0, TOP_INERTIA), (), TOP_TWIST, 1e-5)


@pytest.mark.parametrize("scenario", [spring_pendulum, generic_forced, damped_drop], ids=lambda f: f.__name__)
def test_forced_convergence_order_against_rk4_reference(scenario):
    # second order needs the seed step's start-up half-kick (without it the
    # position-dependent runs fit order 1.0) and forces read at, and twists
    # stored as, the node-synchronized twist (without it damping and every
    # stored twist fit order 1.0)
    _check_order_against_rk4(*scenario(), 1e-4)


def _mixed_inertias(rng):
    A = rng.normal(size=(6, 6))
    return (
        build_inertia(1.0, np.eye(3)),
        build_inertia(2.0, np.diag([1.0, 2.0, 3.0])),
        build_inertia(
            1.5,
            np.diag([2.0, 3.0, 4.0]) - 1.5 * skew([0.2, -0.1, 0.3]) @ skew([0.2, -0.1, 0.3]),
            (0.2, -0.1, 0.3),
        ),
        build_inertia_raw(A @ A.T + 6.0 * np.eye(6)),
        build_inertia_raw(np.diag([1.0, 2.0, 3.0, 2.0, 3.0, 4.0])),
    )


def _fd_jacobian(f, M, eps=1e-6):
    out = np.empty((6, 6))
    for j in range(6):
        fp = f.copy()
        fm = f.copy()
        fp[j] += eps
        fm[j] -= eps
        out[:, j] = (np.concatenate(residual(fp, M)) - np.concatenate(residual(fm, M))) / (2.0 * eps)
    return out


def test_jacobian_validity():
    rng = np.random.default_rng(20240819)
    inertias = _mixed_inertias(rng)
    worst_fd = 0.0
    for i in range(100):
        M = inertias[i % len(inertias)]
        phi = rng.normal(size=3)
        phi *= 0.5 * rng.uniform(0.05, 1.0) / np.linalg.norm(phi)
        f = np.concatenate([phi, rng.normal(size=3)])
        diff = np.abs(jacobian(f, M, method="general") - _fd_jacobian(f, M))
        worst_fd = max(worst_fd, diff.max())
    assert worst_fd <= 1e-6
    worst_paths = 0.0
    M0 = build_inertia(2.0, np.diag([1.0, 2.0, 3.0]))
    for _ in range(100):
        phi = rng.normal(size=3)
        phi *= 0.5 * rng.uniform(0.05, 1.0) / np.linalg.norm(phi)
        f = np.concatenate([phi, rng.normal(size=3)])
        diff = np.abs(jacobian(f, M0, method="general") - jacobian(f, M0, method="simplified"))
        worst_paths = max(worst_paths, diff.max())
    print(f"\nanalytic vs central differences: worst componentwise error {worst_fd:.3e} "
          f"(bar 1e-6); general vs simplified path {worst_paths:.3e} (bar 1e-13)")
    assert worst_paths <= 1e-13


def test_reference_point_free_choice():
    # same physical body and motion, described once from the center of mass
    # and once from a point 1 m away (parallel-axis remapped inertia, shifted
    # initial pose and twist); the center-of-mass world paths must coincide
    r = np.array([1.0, 0.0, 0.0])
    M_com = build_inertia(1.0, TOP_INERTIA)
    M_off = build_inertia(1.0, np.diag([1.0, 3.0, 4.0]), r)
    chi_com = TOP_TWIST
    chi_off = np.concatenate([chi_com[:3], chi_com[3:] - np.cross(chi_com[:3], r)])
    pose_off0 = pose_from_rotation_translation([1.0, 0.0, 0.0, 0.0], -r)
    a = simulate(pose_identity(), chi_com, M_com, (), SETTINGS, 1000)
    b = simulate(pose_off0, chi_off, M_off, (), SETTINGS, 1000)
    com_a = np.array([transform_point(p, np.zeros(3)) for p in a.poses])
    com_b = np.array([transform_point(p, r) for p in b.poses])
    gap = np.linalg.norm(com_a - com_b, axis=1).max()
    print(f"\ncenter-of-mass path disagreement over T=1 s: {gap:.3e} (bar 1e-6)")
    assert gap <= 1e-6


def test_algebra_identity_suites():
    rng = np.random.default_rng(20240821)
    tol = 1e-12

    # quaternion product vs dot product: (q1 q2).q3 = (q1' q3).q2 = (q3 q2').q1
    worst = 0.0
    for _ in range(1000):
        q1, q2, q3 = rng.normal(size=(3, 4))
        lhs = quat_mul(q1, q2) @ q3
        worst = max(
            worst,
            abs(lhs - quat_mul(quat_conjugate(q1), q3) @ q2),
            abs(lhs - quat_mul(q3, quat_conjugate(q2)) @ q1),
        )
    print(f"\nquaternion dot-product identity: worst {worst:.3e}")
    assert worst <= tol

    # dual quaternion version, with the dual transpose in the swapped slots
    worst = 0.0
    for _ in range(1000):
        p1, p2, p3 = rng.normal(size=(3, 8))
        lhs = dq_mul(p1, p2) @ p3
        rhs_a = dq_mul(dq_quat_conjugate(p1), dq_dual_transpose(p3)) @ dq_dual_transpose(p2)
        rhs_b = dq_mul(dq_dual_transpose(p3), dq_quat_conjugate(p2)) @ dq_dual_transpose(p1)
        worst = max(worst, abs(lhs - rhs_a), abs(lhs - rhs_b))
    print(f"dual quaternion dot-product identity: worst {worst:.3e}")
    assert worst <= tol

    # group products act as composed transforms
    worst = 0.0
    for _ in range(1000):
        q1 = random_unit_quaternion(rng)
        q2 = random_unit_quaternion(rng)
        v = rng.normal(size=3)
        err = rotate_vector(quat_mul(q1, q2), v) - rotate_vector(q1, rotate_vector(q2, v))
        worst = max(worst, np.abs(err).max())
        pa = random_pose(rng)
        pb = random_pose(rng)
        x = rng.normal(size=3)
        err = transform_point(dq_mul(pa, pb), x) - transform_point(pa, transform_point(pb, x))
        worst = max(worst, np.abs(err).max())
    print(f"rotation/pose homomorphism: worst {worst:.3e}")
    assert worst <= tol

    # one power, three readings: body pairing, world pairing, dual force
    # against the raw pose rate
    worst = 0.0
    for _ in range(1000):
        p = random_pose(rng)
        chi = rng.normal(size=6)
        w_world = world_wrench(rng.normal(size=3), rng.normal(size=3))
        w_body = wrench_body_from_world(p, w_world)
        work_body = w_body.torque @ chi[:3] + w_body.force @ chi[3:]
        chi_w = twist_world_from_body(p, chi)
        work_world = w_world.torque @ chi_w[:3] + w_world.force @ chi_w[3:]
        F = wrench_to_dual_force(p, w_body)
        work_dual = F @ pose_rate_from_body_twist(p, chi)
        F_w = wrench_to_dual_force(p, w_world)
        work_dual_w = F_w @ pose_rate_from_body_twist(p, chi)
        worst = max(
            worst,
            abs(work_body - work_world),
            abs(work_body - work_dual),
            abs(work_body - work_dual_w),
        )
    print(f"work identity: worst {worst:.3e}")
    assert worst <= tol
