"""Inertia, potentials, force models, and momentum/energy diagnostics.

The generalized inertia is the full 6x6 matrix about an arbitrary body-fixed
reference point:

    M = [[ J,        m S(r) ],
         [-m S(r),   m I    ]]

with J the rotational inertia about the reference point, r the body-frame
position of the center of mass, and S the skew (cross product) matrix. With
twists ordered [omega; v] this gives the kinetic energy
T = 0.5 [omega; v] . M [omega; v]. The off-diagonal blocks vanish when the
reference point is the center of mass.
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import SingularMatrixError, ValidationError
from .kinematics import (
    FRAME_BODY,
    FRAME_WORLD,
    Wrench,
    _translation,
    body_wrench,
    check_pose,
    point_sandwich,
    rotation_conjugate,
    vector_sandwich,
    world_wrench_in_body,
)
from .linsolve import COND_LIMIT
from .quat import (
    Array,
    as_floats,
    as_vector3,
    dq_mul,
    dq_quat_conjugate,
    dq_dual_transpose,
)


def skew(v) -> Array:
    v = np.asarray(v, dtype=np.float64)
    return np.array(
        [
            [0.0, -v[2], v[1]],
            [v[2], 0.0, -v[0]],
            [-v[1], v[0], 0.0],
        ]
    )


@dataclass(frozen=True)
class InertiaMatrix6:
    """Generalized 6x6 inertia with cached blocks and inverse.

    ``coupled`` is True when the off-diagonal blocks are nonzero (reference
    point away from the center of mass, or a raw matrix with coupling); the
    integrator Jacobian takes a cheaper path when it is False.
    """

    matrix: Array
    inverse: Array
    m11: Array
    m12: Array
    m21: Array
    m22: Array
    coupled: bool


def _assemble(matrix: Array) -> InertiaMatrix6:
    cond = np.linalg.cond(matrix)
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise SingularMatrixError(
            f"inertia matrix is singular or near singular (condition estimate {cond:.3e})"
        )
    inverse = np.linalg.inv(matrix)
    m11 = np.ascontiguousarray(matrix[:3, :3])
    m12 = np.ascontiguousarray(matrix[:3, 3:])
    m21 = np.ascontiguousarray(matrix[3:, :3])
    m22 = np.ascontiguousarray(matrix[3:, 3:])
    coupled = bool(np.any(m12 != 0.0) or np.any(m21 != 0.0))
    return InertiaMatrix6(
        matrix=matrix,
        inverse=inverse,
        m11=m11,
        m12=m12,
        m21=m21,
        m22=m22,
        coupled=coupled,
    )


def build_inertia(mass: float, inertia, com_offset=(0.0, 0.0, 0.0)) -> InertiaMatrix6:
    """Standard rigid-body inertia about an arbitrary reference point.

    ``inertia`` is the 3x3 rotational inertia about that reference point (not
    about the center of mass); ``com_offset`` is the body-frame position of
    the center of mass relative to the reference point.
    """
    mass = float(mass)
    if not mass > 0.0:
        raise ValidationError(f"mass must be positive, got {mass}")
    J = np.asarray(inertia, dtype=np.float64)
    if J.shape != (3, 3):
        raise ValidationError(f"inertia must have shape (3, 3), got {J.shape}")
    if not np.allclose(J, J.T, rtol=0.0, atol=1e-9 * max(1.0, float(np.abs(J).max()))):
        raise ValidationError("inertia tensor must be symmetric")
    if np.any(np.linalg.eigvalsh(J) <= 0.0):
        raise ValidationError("inertia tensor must be positive definite")
    S = skew(as_vector3(com_offset, "com_offset"))
    matrix = np.zeros((6, 6))
    matrix[:3, :3] = J
    matrix[:3, 3:] = mass * S
    matrix[3:, :3] = -mass * S
    matrix[3:, 3:] = mass * np.eye(3)
    return _assemble(matrix)


def build_inertia_raw(matrix) -> InertiaMatrix6:
    """Wrap an arbitrary invertible 6x6 generalized inertia."""
    matrix = np.array(matrix, dtype=np.float64)
    if matrix.shape != (6, 6):
        raise ValidationError(f"generalized inertia must have shape (6, 6), got {matrix.shape}")
    if not np.all(np.isfinite(matrix)):
        raise ValidationError("generalized inertia contains non-finite entries")
    return _assemble(matrix)


def kinetic_energy(M: InertiaMatrix6, chi):
    """0.5 chi . M chi of one twist, or of each twist of a stack (leading axes)."""
    chi = np.asarray(chi, dtype=np.float64)
    return 0.5 * np.einsum("...i,ij,...j->...", chi, M.matrix, chi)


def momentum(M: InertiaMatrix6, chi) -> Array:
    """Body-frame generalized momentum [angular; linear] = M chi, of one twist
    or of each twist of a stack (leading axes)."""
    return np.asarray(chi, dtype=np.float64) @ M.matrix.T


def _rotate(q, v) -> Array:
    """Rotate v by the quaternion q (w, x, y, z), row by row over leading axes."""
    w = q[..., :1]
    qv = q[..., 1:]
    dot = np.einsum("...i,...i->...", qv, qv)[..., None]
    cr = np.cross(qv, v)
    return (w * w - dot) * v + 2.0 * np.einsum("...i,...i->...", qv, v)[..., None] * qv + 2.0 * w * cr


def world_momentum(p, M: InertiaMatrix6, chi) -> tuple[Array, Array]:
    """(angular momentum about the world origin, linear momentum), world frame.

    Both are first integrals of a free body regardless of where the body
    reference point sits. ``p`` and ``chi`` are one pose and twist, or stacks
    of them (leading axes); a single pose must lie on the unit group, a
    stack is taken as it is, so a trajectory's drifted rows still report.
    """
    p = np.asarray(p, dtype=np.float64)
    if p.ndim == 1:
        check_pose(p)
    pi = momentum(M, chi)
    q = p[..., :4]
    P = _rotate(q, pi[..., 3:])
    L = _rotate(q, pi[..., :3]) + np.cross(_translation(p), P)
    return L, P


# ---------------------------------------------------------------------------
# float kernels
# ---------------------------------------------------------------------------

class FloatKernel:
    """A built-in model function carrying its float kernel.

    ``floats`` is the kernel: it reads the pose (and twist) as sequences of
    Python floats and returns Python floats; a wrench comes back as six
    body-frame floats [torque; force]. A potential's kernel also reads the
    pose as eight equal-shape arrays, the pose columns of a stack, and
    returns the energy of each pose. It uses only + - * / and ``np.sqrt``,
    which round correctly, so every element has the bits of the float call.
    ``wrench_sum`` and ``potential_energy`` call the kernel directly.
    Calling the object is the ndarray edge that the public ``ForceModel``
    and ``PotentialField`` fields promise: every argument goes through
    ``as_floats`` and the kernel's result through ``edge``.
    """

    __slots__ = ("floats", "edge")

    def __init__(self, floats, edge):
        self.floats = floats
        self.edge = edge

    def __call__(self, *args):
        return self.edge(self.floats(*map(as_floats, args)))


def _body_wrench6(w) -> Wrench:
    return body_wrench(w[:3], w[3:])


def _finite(value, what: str):
    """value unchanged; a NaN or inf entry raises a ValidationError naming ``what``."""
    if not np.all(np.isfinite(value)):
        raise ValidationError(f"{what} must be finite, got {value}")
    return value


# ---------------------------------------------------------------------------
# potentials
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PotentialField:
    """Scalar potential of the pose, smooth in the 8 ambient coordinates.

    ``body_wrench`` is the analytic gradient route when available; the
    numeric route below works for any field. The library's fields carry both
    as ``FloatKernel`` objects, and their energy kernel evaluates a whole
    stack of poses in one call; any other ``evaluate`` is called once per
    pose with an ndarray.
    """

    evaluate: Callable[[Array], float]
    body_wrench: Optional[Callable[[Array], Wrench]] = None


def _cross(a, b) -> tuple:
    """a x b on 3-sequences of floats, in np.cross's operation order."""
    return a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]


def gravity_potential(mass: float, g_world, com_offset=(0.0, 0.0, 0.0)) -> PotentialField:
    """Uniform gravity acting at the center of mass: U = -m g . x_cm."""
    mass = _finite(float(mass), "mass")
    g0, g1, g2 = _finite(as_vector3(g_world, "g_world"), "g_world")
    r = _finite(as_vector3(com_offset, "com_offset"), "com_offset")
    weight = (mass * g0, mass * g1, mass * g2)

    def energy(pose):
        x0, x1, x2 = point_sandwich(pose, r)
        return -mass * (g0 * x0 + g1 * x1 + g2 * x2)

    def wrench(pose) -> tuple:
        f_body = vector_sandwich(rotation_conjugate(pose), weight)
        return (*_cross(r, f_body), *f_body)

    return PotentialField(evaluate=FloatKernel(energy, float), body_wrench=FloatKernel(wrench, _body_wrench6))


def spring_potential(
    anchor_world, attachment_body, stiffness: float, rest_length: float = 0.0
) -> PotentialField:
    """Linear spring from a world anchor to a body-fixed attachment point."""
    n0, n1, n2 = _finite(as_vector3(anchor_world, "anchor_world"), "anchor_world")
    attach = _finite(as_vector3(attachment_body, "attachment_body"), "attachment_body")
    k = _finite(float(stiffness), "stiffness")
    if k < 0.0:
        raise ValidationError(f"stiffness must be non-negative, got {k}")
    rest = _finite(float(rest_length), "rest_length")

    def offset(pose) -> tuple:  # the anchor-to-attachment world vector d
        x0, x1, x2 = point_sandwich(pose, attach)
        return x0 - n0, x1 - n1, x2 - n2

    def energy(pose):
        d0, d1, d2 = offset(pose)
        e = np.sqrt(d0 * d0 + d1 * d1 + d2 * d2) - rest
        return 0.5 * k * (e * e)

    def wrench(pose) -> tuple:
        d0, d1, d2 = offset(pose)
        dist = math.sqrt(d0 * d0 + d1 * d1 + d2 * d2)
        if dist < 1e-12:
            # force magnitude k*rest with undefined direction; zero is the
            # symmetric choice (matches the subgradient of the potential)
            f_world = (0.0, 0.0, 0.0)
        else:
            s = -k * (dist - rest)
            f_world = (s * (d0 / dist), s * (d1 / dist), s * (d2 / dist))
        f_body = vector_sandwich(rotation_conjugate(pose), f_world)
        return (*_cross(attach, f_body), *f_body)

    return PotentialField(evaluate=FloatKernel(energy, float), body_wrench=FloatKernel(wrench, _body_wrench6))


def numeric_conservative_wrench(field, pose, relative_step: float = 1e-6) -> Wrench:
    """Body wrench of a potential by central differences in the 8 ambient
    pose coordinates, contracted back through the pose.

    The gradient G = dU/dp is an ambient row vector; the wrench readout is
    the vector slots of -0.5 * conj(p) * G^T (dual-transposed product), the
    same contraction the variational force term uses. Scalar slots are
    discarded: they are the constraint-multiplier directions.
    """
    evaluate = field.evaluate if isinstance(field, PotentialField) else field
    p = np.asarray(pose, dtype=np.float64).copy()
    grad = np.empty(8)
    for i in range(8):
        step = relative_step * max(1.0, abs(float(p[i])))
        orig = p[i]
        p[i] = orig + step
        up = float(evaluate(p))
        p[i] = orig - step
        um = float(evaluate(p))
        p[i] = orig
        grad[i] = (up - um) / (2.0 * step)
    tau_star = -0.5 * dq_mul(dq_quat_conjugate(p), dq_dual_transpose(grad))
    return Wrench(torque=tau_star[5:8].copy(), force=tau_star[1:4].copy(), frame=FRAME_BODY)


# ---------------------------------------------------------------------------
# force models
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ForceModel:
    """A wrench source evaluated at (pose, twist, time): by ``simulate`` once
    per step, at the state's pose and a twist O(h^2) from the one it stores;
    by ``rk4_simulate`` at each stage's state.

    ``evaluate(pose, chi, t)`` takes ndarray pose and twist and returns a
    ``Wrench``. The library's models make it a ``FloatKernel``, whose float
    kernel the wrench sum calls without building arrays or a ``Wrench``;
    any other callable, including one set with ``dataclasses.replace``, goes
    through the sum's checked adapter. ``energy`` is the scalar potential for
    conservative models (used by the energy diagnostics); non-conservative
    models leave it None.
    """

    evaluate: Callable[[Array, Array, float], Wrench]
    energy: Optional[Callable[[Array], float]] = None

    @property
    def conservative(self) -> bool:
        """True exactly when the model carries a potential."""
        return self.energy is not None


def force_model_from_potential(field: PotentialField, numeric: bool = False) -> ForceModel:
    """Conservative force model from a potential.

    Uses the analytic wrench when the field carries one (unless ``numeric``
    forces the finite-difference route); a float-kernel wrench keeps its
    kernel.
    """
    gradient = field.body_wrench
    if isinstance(gradient, FloatKernel) and not numeric:
        kernel = gradient.floats
        evaluate = FloatKernel(lambda pose, chi, t: kernel(pose), _body_wrench6)
    elif gradient is not None and not numeric:
        def evaluate(pose, chi, t):
            return gradient(pose)
    else:
        def evaluate(pose, chi, t):
            return numeric_conservative_wrench(field, pose)
    return ForceModel(evaluate=evaluate, energy=field.evaluate)


def constant_wrench_model(wrench: Wrench) -> ForceModel:
    """Constant torque and force in the tagged frame; NaN and inf entries are
    rejected. Called with arrays, the model returns ``wrench`` itself."""
    if not isinstance(wrench, Wrench):
        raise ValidationError("constant_wrench_model needs a Wrench")
    torque = _finite(wrench.torque.tolist(), "constant wrench torque")
    force = _finite(wrench.force.tolist(), "constant wrench force")
    if wrench.frame == FRAME_WORLD:
        def kernel(pose, chi, t):
            return world_wrench_in_body(pose, torque, force)
    else:
        body = (*torque, *force)

        def kernel(pose, chi, t):
            return body
    return ForceModel(evaluate=FloatKernel(kernel, lambda _: wrench))


def _damping_coefficients(value, what: str) -> Array:
    try:
        return np.broadcast_to(np.asarray(value, dtype=np.float64), (3,)).copy()
    except ValueError:
        raise ValidationError(
            f"{what} damping coefficient must be a scalar or a 3-vector, got {value!r}"
        ) from None


def damping_model(angular, linear) -> ForceModel:
    """Linear viscous damping: wrench = [-c_a * omega; -c_l * v], body frame.

    Coefficients may be scalars or per-axis 3-vectors; negative values are
    rejected (that would pump energy in), and so are NaN and inf.
    """
    c_a = _damping_coefficients(angular, "angular")
    c_l = _damping_coefficients(linear, "linear")
    if not all(0.0 <= c < math.inf for c in (*c_a, *c_l)):
        raise ValidationError("damping coefficients must be finite and non-negative")
    a0, a1, a2, l0, l1, l2 = (-c_a).tolist() + (-c_l).tolist()

    def kernel(pose, chi, t):
        w0, w1, w2, v0, v1, v2 = chi
        return a0 * w0, a1 * w1, a2 * w2, l0 * v0, l1 * v1, l2 * v2

    return ForceModel(evaluate=FloatKernel(kernel, _body_wrench6))


def _adapted_wrench(index: int, w, pose) -> tuple:
    """Body-frame six floats of the Wrench a model's ndarray edge returned."""
    if not isinstance(w, Wrench):
        raise ValidationError(f"force model {index} returned {type(w).__name__}, expected Wrench")
    torque, force = w.torque.tolist(), w.force.tolist()
    if w.frame == FRAME_WORLD:
        return world_wrench_in_body(pose, torque, force)
    if w.frame != FRAME_BODY:
        raise ValidationError(f"unknown wrench frame {w.frame!r}")
    return (*torque, *force)


def wrench_sum(models: Sequence[ForceModel], pose, chi, t: float) -> list:
    """``total_wrench`` on Python floats: ``pose`` and ``chi`` are sequences
    of 8 and 6 floats, the sum is a list of six.

    A ``FloatKernel`` model is called on the floats; any other model through
    its ndarray edge and the adapter, which rejects a result that is not a
    Wrench or has an unknown frame tag and rotates a world wrench through
    the pose. A non-finite wrench from any model raises, naming the model.
    """
    out = [0.0] * 6
    for index, model in enumerate(models):
        evaluate = model.evaluate
        if isinstance(evaluate, FloatKernel):
            w = evaluate.floats(pose, chi, t)
        else:
            w = _adapted_wrench(index, evaluate(np.array(pose), np.array(chi), t), pose)
        if not all(map(math.isfinite, w)):
            raise ValidationError(f"force model {index} returned a non-finite wrench {list(w)}")
        out = [a + b for a, b in zip(out, w)]
    return out


def total_wrench(models: Sequence[ForceModel], pose, chi, t: float) -> Array:
    """Sum of all model wrenches as a body-frame 6-vector [torque; force]:
    the ndarray wrapper of ``wrench_sum``, with its checks.

    World-tagged wrenches are rotated through the pose; unknown tags, models
    that return something other than a Wrench, and non-finite wrenches raise.
    """
    return np.array(wrench_sum(models, as_floats(pose), as_floats(chi), t))


def potential_energy(models: Sequence[ForceModel], pose):
    """Sum of the potentials of the conservative models at one pose (a
    float), or at each pose of a stack with leading axes (an array).

    A ``FloatKernel`` energy reads a single pose as floats and a stack as
    its eight pose columns, in one call; any other energy is called once
    per pose with an ndarray. Either way each pose of a stack gets the bits
    of a single-pose call.
    """
    p = np.asarray(pose, dtype=np.float64)
    if p.ndim == 0 or p.shape[-1] != 8:
        raise ValidationError(f"pose must have 8 entries in its last axis, got shape {p.shape}")
    rows = p.reshape(-1, 8)
    stacked = p.ndim > 1
    columns = tuple(rows.T) if stacked else p.tolist()
    total = np.zeros(rows.shape[0]) if stacked else 0.0
    for model in models:
        energy = model.energy
        if isinstance(energy, FloatKernel):
            total = total + energy.floats(columns)
        elif energy is not None:
            values = [float(energy(row.copy())) for row in rows]
            total = total + (np.array(values) if stacked else values[0])
    return total.reshape(p.shape[:-1]) if stacked else float(total)
