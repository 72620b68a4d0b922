"""Classical Newton-Euler dynamics integrated by fixed-step RK4.

This is the cross-validation oracle for the variational stepper: same
physics, entirely different discretization. The state is the classical
triple (orientation quaternion, translation, body twist) and the equations
of motion are the body-frame momentum balance for the full 6x6 generalized
inertia:

    qdot = 0.5 q x omega_hat
    ldot = R(q) v
    pi = M chi
    pidot_ang = pi_ang x omega + pi_lin x v + torque
    pidot_lin = pi_lin x omega + force

The coupling terms are fixed by requiring the world momentum R pi_lin and
R pi_ang + l x (R pi_lin) to be constant for a free body; for a diagonal
inertia they reduce to the textbook Euler equations J omegadot = (J omega)
x omega + torque.

Unlike the variational stepper, the quaternion is renormalized after every
step: this integrator's only job is trajectory accuracy, not structure
preservation. Intermediate RK4 stages live slightly off the unit sphere
and the vector field is evaluated on its smooth ambient extension.

The state is 13 Python floats [q; l; chi]: numpy's per-call overhead
dominates at these sizes. Free and forced bodies share one derivative.

These are Kirchhoff's equations, which hold for any symmetric positive
definite M, raw 6x6 matrices included: the tier-1 order test fits order
2.00 against this oracle for a center-of-mass top, an offset reference
point, a raw SPD matrix and a raw diagonal with anisotropic mass.
"""

import math
from typing import Sequence

import numpy as np

from .dynamics import InertiaMatrix6, wrench_sum_kernel
from .integrator import SolverSettings
from .kinematics import _pose_floats, pose_to_rotation_translation, vector_sandwich
from .linsolve import matvec
from .quat import as_count, finite_vector6
from .trajectory import Trajectory


def _deriv(y, K, wrench, t: float) -> list:
    """[qdot; ldot; chidot] of the 13-float state y = [q; l; chi] for
    K = (M, M^-1) as row lists of floats, under the resolved wrench sum
    (None: no force models)."""
    rows, inverse = K
    q0, q1, q2, q3 = y[:4]
    w0, w1, w2, v0, v1, v2 = chi = y[7:]
    p0, p1, p2, p3, p4, p5 = matvec(rows, chi)
    pidot = [
        p1 * w2 - p2 * w1 + p4 * v2 - p5 * v1,
        p2 * w0 - p0 * w2 + p5 * v0 - p3 * v2,
        p0 * w1 - p1 * w0 + p3 * v1 - p4 * v0,
        p4 * w2 - p5 * w1,
        p5 * w0 - p3 * w2,
        p3 * w1 - p4 * w0,
    ]
    if wrench is not None:
        tau = wrench(_pose_floats(y[:4], y[4:7]), chi, t)
        pidot = [a + b for a, b in zip(pidot, tau)]
    return [
        0.5 * (-q1 * w0 - q2 * w1 - q3 * w2),
        0.5 * (q0 * w0 + q2 * w2 - q3 * w1),
        0.5 * (q0 * w1 - q1 * w2 + q3 * w0),
        0.5 * (q0 * w2 + q1 * w1 - q2 * w0),
        *vector_sandwich((q0, q1, q2, q3), (v0, v1, v2)),
        *matvec(inverse, pidot),
    ]


def _rk4_step(y, K, wrench, t: float, h: float) -> list:
    half = 0.5 * h
    k1 = _deriv(y, K, wrench, t)
    k2 = _deriv([a + half * b for a, b in zip(y, k1)], K, wrench, t + half)
    k3 = _deriv([a + half * b for a, b in zip(y, k2)], K, wrench, t + half)
    k4 = _deriv([a + h * b for a, b in zip(y, k3)], K, wrench, t + h)
    sixth = h / 6.0
    out = [a + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4) for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)]
    q0, q1, q2, q3 = out[:4]
    n = math.sqrt(q0 * q0 + q1 * q1 + q2 * q2 + q3 * q3)
    out[:4] = q0 / n, q1 / n, q2 / n, q3 / n
    return out


def rk4_simulate(
    pose0,
    twist0,
    M: InertiaMatrix6,
    forces: Sequence = (),
    settings: SolverSettings = SolverSettings(h=1e-3),
    n_steps: int = 1000,
) -> Trajectory:
    """Integrate with classical RK4; same call shape as the variational
    simulate, and the same trajectory less the Newton diagnostics (no
    iterations or residual norms). Only ``settings.h`` is used here.

    Each stored pose is built from the state's (q, l) by the kinematics
    kernel behind ``pose_from_rotation_translation``, the same one the RK4
    stages hand to the force models. The stored twists are the continuous
    state's, synchronous with the poses like the variational integrator's.
    """
    q0, l0 = pose_to_rotation_translation(pose0)
    chi0 = finite_vector6(twist0, "twist")
    n_steps = as_count(n_steps, "n_steps", 0)
    h = settings.h
    K = (M.matrix.tolist(), M.inverse.tolist())
    force_models = list(forces)
    wrench = wrench_sum_kernel(force_models) if force_models else None
    poses = np.empty((n_steps + 1, 8))
    twists = np.empty((n_steps + 1, 6))
    y = q0.tolist() + l0.tolist() + chi0.tolist()
    for k in range(n_steps + 1):
        if k:
            y = _rk4_step(y, K, wrench, (k - 1) * h, h)
        poses[k] = _pose_floats(y[:4], y[4:7])
        twists[k] = y[7:]
    times = np.arange(n_steps + 1) * h
    return Trajectory.from_raw(
        times=times,
        poses=poses,
        twists=twists,
        inertia=M,
        force_models=force_models,
    )
