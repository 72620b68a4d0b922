"""Rigid-body kinematics on unit dual quaternions.

Ordering conventions (everywhere in this package):

* twists are 6-vectors ``[omega; v]``, angular part first;
* wrenches are 6-vectors ``[torque; force]``, angular part first;
* a pose ``p = q + eps * 0.5 * l_hat * q`` maps body coordinates to world
  coordinates, where ``q`` rotates body axes into world axes and ``l`` is the
  world-frame position of the body reference point.

The body reference point is wherever the user put it; nothing here assumes it
is the center of mass. Body twists ``[omega_B; v_B]`` hold the angular rate
and the reference-point velocity, both in body axes. A body wrench holds the
torque about the reference point and the force, both in body axes; a world
wrench holds the same two vectors rotated into world axes (torque still about
the body reference point).

Poses are never renormalized here. Constraint drift is reported by
``pose_constraint_errors`` and it is the caller's business to care.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .quat import (
    UNIT_TOL,
    Array,
    as_floats,
    as_vector3,
    dq_exp,
    dq_log_parts,
    dq_mul,
    dq_product,
    dq_quat_conjugate,
    dq_dual_transpose,
    pure_dual_quaternion,
    unit_quaternion,
)

FRAME_BODY = "body"
FRAME_WORLD = "world"


# ---------------------------------------------------------------------------
# poses
# ---------------------------------------------------------------------------

def _pose_floats(q, l) -> tuple:
    """Pose (q, (1/2)(0, l) q) of four and three Python floats, as 8 floats.

    The dual part is quat_mul's product term for term, the 0.0 * q_i terms
    of the zero scalar included, so signs of zero match too. No unit check:
    the RK4 stages call it on off-group quaternions.
    """
    q0, q1, q2, q3 = q
    l0, l1, l2 = l
    return (
        q0, q1, q2, q3,
        0.5 * (0.0 * q0 - l0 * q1 - l1 * q2 - l2 * q3),
        0.5 * (0.0 * q1 + l0 * q0 + l1 * q3 - l2 * q2),
        0.5 * (0.0 * q2 - l0 * q3 + l1 * q0 + l2 * q1),
        0.5 * (0.0 * q3 + l0 * q2 - l1 * q1 + l2 * q0),
    )


def pose_from_rotation_translation(q, l) -> Array:
    """Unit dual quaternion for rotation q and reference-point position l."""
    q = unit_quaternion(q)
    return np.array(_pose_floats(q.tolist(), as_vector3(l, "translation")))


def pose_identity() -> Array:
    out = np.zeros(8)
    out[0] = 1.0
    return out


def pose_constraint_errors(p) -> tuple:
    """(unit-norm error of the real part, |real . dual| orthogonality error).

    ``p`` is one pose or a stack of poses (leading axes); the errors have
    the leading shape.
    """
    p = np.asarray(p, dtype=np.float64)
    reals = p[..., :4]
    unit_err = np.abs(np.sqrt(np.einsum("...i,...i->...", reals, reals)) - 1.0)
    orth_err = np.abs(np.einsum("...i,...i->...", reals, p[..., 4:]))
    return unit_err, orth_err


def check_pose(p) -> Array:
    """Validate the two unit-group constraints of a pose."""
    p = np.asarray(p, dtype=np.float64)
    if p.shape != (8,):
        raise ValidationError(f"pose must have shape (8,), got {p.shape}")
    unit_err, orth_err = pose_constraint_errors(p)
    if not (unit_err <= UNIT_TOL):  # written so that NaN fails
        raise ValidationError(f"pose real part norm off unity by {unit_err:.3e} (tol {UNIT_TOL})")
    if not (orth_err <= UNIT_TOL):
        raise ValidationError(f"pose real/dual orthogonality violated by {orth_err:.3e} (tol {UNIT_TOL})")
    return p


def pose_to_rotation_translation(p) -> tuple[Array, Array]:
    """Split a pose into (q, l); rejects inputs that drifted off the group."""
    p = check_pose(p)
    return p[:4].copy(), np.array(translation(p.tolist()))


def translation(p) -> tuple:
    """Reference-point position l = 2 vec(b a†) of the pose p = a + eps b,
    without unit validation.

    Only + - and * are used, so the entries of p may be Python floats or
    equal-shape arrays (pose columns), with the same bits per element.
    """
    a0, a1, a2, a3, b0, b1, b2, b3 = p
    return (
        2.0 * (a0 * b1 - b0 * a1 + (a2 * b3 - a3 * b2)),
        2.0 * (a0 * b2 - b0 * a2 + (a3 * b1 - a1 * b3)),
        2.0 * (a0 * b3 - b0 * a3 + (a1 * b2 - a2 * b1)),
    )


def vector_sandwich(q, v) -> tuple:
    """Vector part of q (0, v) q† on Python floats. Both products keep quat_mul's
    operation order (minus the terms of the zero scalar of (0, v)), so a
    non-unit q gives the same polynomial as the explicit quat_mul sandwich."""
    a0, a1, a2, a3 = q
    v0, v1, v2 = v
    t0 = -a1 * v0 - a2 * v1 - a3 * v2
    t1 = a0 * v0 + a2 * v2 - a3 * v1
    t2 = a0 * v1 - a1 * v2 + a3 * v0
    t3 = a0 * v2 + a1 * v1 - a2 * v0
    return (
        -t0 * a1 + t1 * a0 - t2 * a3 + t3 * a2,
        -t0 * a2 + t1 * a3 + t2 * a0 - t3 * a1,
        -t0 * a3 - t1 * a2 + t2 * a1 + t3 * a0,
    )


def point_sandwich(p, r) -> tuple:
    """World image R r + l of the body point r under the pose p = a + eps b.

    The sandwich p (1 + eps r_hat) p_bar, p_bar the quaternion-conjugate,
    dual-negated pose, has the dual vector part vec(a r a†) + 2 vec(b a†):
    ``vector_sandwich`` plus ``translation``. That is the same polynomial in
    the 8 pose coordinates as the two products, so it extends smoothly to
    ambient (slightly off-group) poses, which the numeric potential gradient
    and the RK4 stages rely on. The entries of p may be Python floats or
    equal-shape arrays (pose columns), with the same bits per element.
    """
    x0, x1, x2 = vector_sandwich(p[:4], r)
    l0, l1, l2 = translation(p)
    return x0 + l0, x1 + l1, x2 + l2


def rotation_conjugate(p) -> tuple:
    """q† of the rotation (first four floats) of p: it takes world axes to body axes."""
    a0, a1, a2, a3 = p[:4]
    return a0, -a1, -a2, -a3


def rotate_vector(q, v) -> Array:
    """Rotate a 3-vector by a unit quaternion (sandwich product)."""
    return np.array(vector_sandwich(as_floats(q), as_vector3(v)))


def transform_point(p, r) -> Array:
    """Map a body-frame point r to world coordinates: R r + l (see point_sandwich)."""
    return np.array(point_sandwich(as_floats(p), as_vector3(r, "point")))


# ---------------------------------------------------------------------------
# twists
# ---------------------------------------------------------------------------

def twist(omega, v) -> Array:
    """Assemble the 6-vector [omega; v] (angular first)."""
    return np.array(as_vector3(omega, "omega") + as_vector3(v, "v"))


def pose_rate_from_body_twist(p, chi) -> Array:
    """Tangent vector of the pose under a body twist: pdot = 0.5 p * chi_hat."""
    chi = np.asarray(chi, dtype=np.float64)
    return 0.5 * dq_mul(p, pure_dual_quaternion(chi[:3], chi[3:]))


def twist_world_from_body(p, chi_b) -> Array:
    """World twist [omega_W; l_dot]: both body vectors rotated by the pose.

    Note this is the translation-rate convention. The dual quaternion product
    2 pdot * p_conj instead carries l_dot - omega_W x l in its dual slot (the
    world-origin moment); tests pin both facts.
    """
    p = np.asarray(p, dtype=np.float64)
    chi_b = np.asarray(chi_b, dtype=np.float64)
    q = p[:4]
    return np.concatenate([rotate_vector(q, chi_b[:3]), rotate_vector(q, chi_b[3:])])


# ---------------------------------------------------------------------------
# wrenches and dual forces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Wrench:
    """Torque (about the body reference point) and force, with a frame tag."""

    torque: Array
    force: Array
    frame: str = FRAME_BODY

    def __post_init__(self):
        torque = np.asarray(self.torque, dtype=np.float64)
        force = np.asarray(self.force, dtype=np.float64)
        if torque.shape != (3,) or force.shape != (3,):
            raise ValidationError("wrench torque and force must each have shape (3,)")
        if self.frame not in (FRAME_BODY, FRAME_WORLD):
            raise ValidationError(
                f"unknown wrench frame {self.frame!r}; use '{FRAME_BODY}' or '{FRAME_WORLD}'"
            )
        object.__setattr__(self, "torque", torque)
        object.__setattr__(self, "force", force)

    @property
    def vector6(self) -> Array:
        return np.concatenate([self.torque, self.force])


def body_wrench(torque, force) -> Wrench:
    return Wrench(torque=torque, force=force, frame=FRAME_BODY)


def world_wrench(torque, force) -> Wrench:
    return Wrench(torque=torque, force=force, frame=FRAME_WORLD)


def world_wrench_in_body(p, torque, force) -> tuple:
    """Body-frame [torque; force] of a world wrench at the pose p, as six
    Python floats (p, torque and force are float sequences)."""
    qc = rotation_conjugate(p)
    return (*vector_sandwich(qc, torque), *vector_sandwich(qc, force))


def wrench_body_from_world(p, wrench: Wrench) -> Wrench:
    """Rotate a world-frame wrench into body axes (same reference point)."""
    if wrench.frame == FRAME_BODY:
        return wrench
    w = world_wrench_in_body(as_floats(p), wrench.torque.tolist(), wrench.force.tolist())
    return Wrench(torque=w[:3], force=w[3:], frame=FRAME_BODY)


def wrench_to_dual_force(p, wrench: Wrench) -> Array:
    """Dual force 8-vector F of a wrench at pose p.

    Body route: F^T = 2 p * (tau_check)^T. World route: shift the torque to
    the world origin (tau_o = tau_W + l x f_W), then F^T = 2 tau_check_W^T * p.
    The two produce the identical 8-vector; only the 2nd-4th and 6th-8th
    components carry physics (the scalar slots are the undetermined
    multiplier directions of the constrained variational principle).
    """
    if wrench.frame == FRAME_BODY:
        tau_star = pure_dual_quaternion(wrench.force, wrench.torque)
        return dq_dual_transpose(2.0 * dq_mul(p, tau_star))
    if wrench.frame == FRAME_WORLD:
        _, l = pose_to_rotation_translation(p)
        tau_origin = wrench.torque + np.cross(l, wrench.force)
        tau_star = pure_dual_quaternion(wrench.force, tau_origin)
        return dq_dual_transpose(2.0 * dq_mul(tau_star, p))
    raise ValidationError(f"unknown wrench frame {wrench.frame!r}")


def dual_force_to_body_wrench(p, dual_force) -> Wrench:
    """Contract a dual force back to the body wrench: tau_check = 0.5 p_conj * F^T.

    Only the vector slots of the contraction are read; whatever representative
    of the dual force equivalence class comes in, the same body wrench comes
    out.
    """
    p = np.asarray(p, dtype=np.float64)
    F = np.asarray(dual_force, dtype=np.float64)
    if F.shape != (8,):
        raise ValidationError(f"dual force must have shape (8,), got {F.shape}")
    tau_star = 0.5 * dq_mul(dq_quat_conjugate(p), dq_dual_transpose(F))
    return Wrench(torque=tau_star[5:8].copy(), force=tau_star[1:4].copy(), frame=FRAME_BODY)


# ---------------------------------------------------------------------------
# screws
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScrewParameters:
    """Unit axis, orthogonal moment, rotation angle, translation along axis."""

    axis: Array
    moment: Array
    angle: float
    slide: float

    def __post_init__(self):
        axis = np.array(as_vector3(self.axis, "screw axis"))
        moment = np.array(as_vector3(self.moment, "screw moment"))
        if abs(float(np.linalg.norm(axis)) - 1.0) > 1e-12:
            raise ValidationError("screw axis must be a unit vector")
        if abs(float(axis @ moment)) > 1e-12:
            raise ValidationError("screw moment must be orthogonal to the axis")
        object.__setattr__(self, "axis", axis)
        object.__setattr__(self, "moment", moment)
        object.__setattr__(self, "angle", float(self.angle))
        object.__setattr__(self, "slide", float(self.slide))


def screw_compose(screw: ScrewParameters) -> Array:
    """Pose of a screw: exp of 0.5*(angle + eps slide)(axis + eps moment)."""
    a = 0.5 * screw.angle * screw.axis
    b = 0.5 * (screw.angle * screw.moment + screw.slide * screw.axis)
    return dq_exp(pure_dual_quaternion(a, b))


def pose_difference_magnitude(p_a, p_b) -> float:
    """Screw magnitude of the relative pose: 2 |log(conj(p_a) * p_b)|.

    Zero iff the two poses coincide (as transforms; the double cover sign is
    canonicalized away). Mixes radians and length units on purpose: it is the
    single scalar used to report pose discrepancies.
    """
    return pose_distance(as_floats(p_a), as_floats(p_b))


def pose_distance(p_a, p_b) -> float:
    """pose_difference_magnitude of two 8-sequences of Python floats."""
    a0, a1, a2, a3, b0, b1, b2, b3 = p_a
    x0, x1, x2, y0, y1, y2 = dq_log_parts(dq_product((a0, -a1, -a2, -a3, b0, -b1, -b2, -b3), p_b))
    return 2.0 * math.sqrt((x0 * x0 + x1 * x1 + x2 * x2) + (y0 * y0 + y1 * y1 + y2 * y2))
