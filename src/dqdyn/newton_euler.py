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

The continuous coupling term for an arbitrary raw 6x6 matrix (added-mass
models) is model-dependent; cross-validation against this oracle should
stick to inertias built from (mass, inertia tensor, center-of-mass offset).
"""

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dynamics import InertiaMatrix6, wrench_sum
from .errors import ValidationError
from .integrator import SolverSettings, float_inertia
from .kinematics import _pose_floats, check_pose, pose_to_rotation_translation, vector_sandwich
from .linsolve import matvec
from .quat import Array, finite_vector6
from .trajectory import Trajectory


@dataclass(frozen=True)
class ContinuousState:
    """Classical rigid-body state; also used for state rates."""

    orientation: Array  # quaternion (w, x, y, z)
    translation: Array
    twist: Array  # [omega; v], body frame


def _pack(state: ContinuousState) -> list:
    q = np.asarray(state.orientation, dtype=np.float64)
    l = np.asarray(state.translation, dtype=np.float64)
    chi = np.asarray(state.twist, dtype=np.float64)
    if q.shape != (4,) or l.shape != (3,) or chi.shape != (6,):
        raise ValidationError(
            f"state shapes must be (4,), (3,), (6,); got {q.shape}, {l.shape}, {chi.shape}"
        )
    return q.tolist() + l.tolist() + chi.tolist()


def _unpack(y) -> ContinuousState:
    y = np.array(y)
    return ContinuousState(orientation=y[:4], translation=y[4:7], twist=y[7:])


def _deriv(y, K, forces, t: float) -> list:
    """[qdot; ldot; chidot] of the 13-float state y = [q; l; chi]."""
    q0, q1, q2, q3 = y[:4]
    w0, w1, w2, v0, v1, v2 = chi = y[7:]
    p0, p1, p2, p3, p4, p5 = matvec(K.rows, chi)
    pidot = [
        p1 * w2 - p2 * w1 + p4 * v2 - p5 * v1,
        p2 * w0 - p0 * w2 + p5 * v0 - p3 * v2,
        p0 * w1 - p1 * w0 + p3 * v1 - p4 * v0,
        p4 * w2 - p5 * w1,
        p5 * w0 - p3 * w2,
        p3 * w1 - p4 * w0,
    ]
    if forces:
        tau = wrench_sum(forces, _pose_floats(y[:4], y[4:7]), chi, t)
        pidot = [a + b for a, b in zip(pidot, tau)]
    return [
        0.5 * (-q1 * w0 - q2 * w1 - q3 * w2),
        0.5 * (q0 * w0 + q2 * w2 - q3 * w1),
        0.5 * (q0 * w1 - q1 * w2 + q3 * w0),
        0.5 * (q0 * w2 + q1 * w1 - q2 * w0),
        *vector_sandwich((q0, q1, q2, q3), (v0, v1, v2)),
        *matvec(K.inverse, pidot),
    ]


def state_derivative(state: ContinuousState, M: InertiaMatrix6, forces: Sequence = (), t: float = 0.0) -> ContinuousState:
    """Time derivative of the classical state under the given force models."""
    return _unpack(_deriv(_pack(state), float_inertia(M), list(forces), t))


def _rk4_step(y, K, forces, t: float, h: float) -> list:
    half = 0.5 * h
    k1 = _deriv(y, K, forces, t)
    k2 = _deriv([a + half * b for a, b in zip(y, k1)], K, forces, t + half)
    k3 = _deriv([a + half * b for a, b in zip(y, k2)], K, forces, t + half)
    k4 = _deriv([a + h * b for a, b in zip(y, k3)], K, forces, t + h)
    sixth = h / 6.0
    out = [a + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4) for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)]
    q0, q1, q2, q3 = out[:4]
    n = math.sqrt(q0 * q0 + q1 * q1 + q2 * q2 + q3 * q3)
    out[:4] = q0 / n, q1 / n, q2 / n, q3 / n
    return out


def rk4_step(state: ContinuousState, M: InertiaMatrix6, forces: Sequence = (), t: float = 0.0, h: float = 1e-3) -> ContinuousState:
    """One classical RK4 step; the quaternion is renormalized afterwards."""
    return _unpack(_rk4_step(_pack(state), float_inertia(M), list(forces), float(t), float(h)))


def rk4_simulate(
    pose0,
    twist0,
    M: InertiaMatrix6,
    forces: Sequence = (),
    settings: SolverSettings = SolverSettings(h=1e-3),
    n_steps: int = 1000,
) -> Trajectory:
    """Integrate with classical RK4; same call shape and trajectory schema
    as the variational simulate. Only ``settings.h`` is used here.

    Each stored pose is built from the state's (q, l) by the kinematics
    kernel behind ``pose_from_rotation_translation``, the same one the RK4
    stages hand to the force models. The stored twists are the continuous
    state's, synchronous with the poses like the variational integrator's.
    """
    p0 = check_pose(pose0)
    q0, l0 = pose_to_rotation_translation(p0)
    chi0 = finite_vector6(twist0, "twist")
    n_steps = int(n_steps)
    if n_steps < 0:
        raise ValidationError(f"n_steps must be >= 0, got {n_steps}")
    h = settings.h
    K = float_inertia(M)
    force_models = list(forces)
    poses = np.empty((n_steps + 1, 8))
    twists = np.empty((n_steps + 1, 6))
    y = q0.tolist() + l0.tolist() + chi0.tolist()
    for k in range(n_steps + 1):
        if k:
            y = _rk4_step(y, K, force_models, (k - 1) * h, h)
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
