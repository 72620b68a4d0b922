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

import functools
import math
import re
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import SingularMatrixError, ValidationError
from .kinematics import (
    FRAME_BODY,
    FRAME_WORLD,
    Wrench,
    body_wrench,
    check_pose,
    dual_force_to_body_wrench,
    point_sandwich,
    rotation_conjugate,
    translation,
    vector_sandwich,
    world_wrench_in_body,
)
from .linsolve import COND_LIMIT, matvec_stack, solve_rows
from .quat import Array, Traced, as_floats, as_vector3, cross, traced_lines


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
    """Generalized 6x6 inertia M and its inverse.

    Its blocks are slices of ``matrix``. The integrator's stepping loop
    reads M through lines generated from M's entries, leaving out every
    zero; its pivot search and its one-step functions read ``matrix`` as
    floats. Column k of ``inverse`` is ``linsolve.solve_rows``' solution of
    M x = e_k: plain float arithmetic, the same bits on every platform. M is
    rejected unless that elimination's pivot-ratio estimate is within
    ``COND_LIMIT``, the rule every Newton step applies to its Jacobian.
    """

    matrix: Array
    inverse: Array


def _assemble(matrix: Array) -> InertiaMatrix6:
    solves = [solve_rows(matrix.tolist(), [float(i == k) for i in range(6)]) for k in range(6)]
    _, cond, ok, _ = solves[0]  # the pivots, and so the estimate, do not depend on the right-hand side
    if not (ok and cond <= COND_LIMIT):
        raise SingularMatrixError(
            f"inertia matrix is singular or near singular (condition estimate {cond:.3e})"
        )
    return InertiaMatrix6(matrix=matrix, inverse=np.array([x for x, *_ in solves]).T.copy())


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
    return _assemble(np.block([[J, mass * S], [-mass * S, mass * np.eye(3)]]))


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


def world_momentum(p, M: InertiaMatrix6, chi) -> tuple[Array, Array]:
    """(angular momentum about the world origin, linear momentum), world frame.

    Both are first integrals of a free body regardless of where the body
    reference point sits. ``p`` and ``chi`` are one pose and twist, or stacks
    of them (leading axes); a single pose must lie on the unit group, a
    stack is taken as it is, so a trajectory's drifted rows still report.
    Stacks run column-wise on the float kernels the potentials use; one
    ``vector_sandwich`` call rotates both momentum parts, the pair of each
    entry broadcast against the pose's rotation columns.
    """
    p = np.asarray(p, dtype=np.float64)
    if p.ndim == 1:
        check_pose(p)
    pose = np.moveaxis(p, -1, 0)
    pi = matvec_stack(M.matrix, chi)
    world = vector_sandwich(pose[:4], pi.reshape(2, 3, *pi.shape[1:]).swapaxes(0, 1))  # entry j: (angular, linear)
    P = [x[1] for x in world]
    L = [x[0] + b for x, b in zip(world, cross(translation(pose), P))]
    return np.stack(L, axis=-1), np.stack(P, axis=-1)


# ---------------------------------------------------------------------------
# float kernels
# ---------------------------------------------------------------------------

class FloatKernel:
    """A built-in model function carrying its float kernel.

    ``floats`` is the kernel: it reads the pose (and twist) as sequences of
    Python floats and returns Python floats. Calling the object is the
    ndarray edge that the public ``ForceModel`` and ``PotentialField``
    fields promise: every argument goes through ``as_floats`` and the
    kernel's result through ``edge``.

    A potential's energy kernel is given as a function. It also reads the
    pose as eight equal-shape arrays, the pose columns of a stack, and
    returns the energy of each pose. It uses only + - * / and ``np.sqrt``,
    which round correctly, so every element has the bits of the float call;
    ``potential_energy`` calls it directly.

    A library wrench is given as its ``source``: (lines, wrench), the
    statements it needs and its six body-frame entries [torque; force],
    each the source of an expression or a float (a folded zero is 0.0), in
    the pose r0..r7, the twist chi0..chi5 and ``time``. The library builds
    it once per model by calling the formula's helpers on ``quat.Traced``
    symbols. The generated wrench sum writes it out, and ``floats`` is the
    same lines compiled on first use as ``kernel(pose, chi=None, time=None)``,
    which returns the six floats as a list and checks nothing, so every
    route runs one definition.
    """

    __slots__ = ("_floats", "edge", "source")

    def __init__(self, floats, edge, source=None):
        self._floats = floats
        self.edge = edge
        self.source = source

    @property
    def floats(self) -> Callable:
        if self._floats is None:
            lines, entries = self.source
            taus = [f"tau{i} = {x if isinstance(x, str) else Traced.of(x).text}" for i, x in enumerate(entries)]
            self._floats = _compiled_sum("\n".join([*lines, *taus]) + "\n")(())
        return self._floats

    def __call__(self, *args):
        return self.edge(self.floats(*map(as_floats, args)))


# The inputs of the wrench sum's source: the pose, the body twist and the time.
_POSE = tuple(Traced(f"r{i}") for i in range(8))
_CHI = tuple(Traced(f"chi{i}") for i in range(6))
_TIME = Traced("time")


def _body_wrench6(w) -> Wrench:
    return body_wrench(w[:3], w[3:])


def _traced(formula) -> FloatKernel:
    """The wrench kernel of a formula that applies only + - * and unary
    minus to its inputs: ``formula`` called on the sum's traced inputs,
    each shared operation bound once to a ``_c`` local."""
    lines, wrench = traced_lines(formula(_POSE, _CHI, _TIME), "_c")
    return FloatKernel(None, _body_wrench6, (tuple(lines), tuple(wrench)))


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
    pose with an ndarray. A ``FloatKernel`` wrench's kernel takes
    (pose, chi=None, t=None) and ignores the twist and time, so
    ``force_model_from_potential`` makes it the model's own ``evaluate``.
    """

    evaluate: Callable[[Array], float]
    body_wrench: Optional[Callable[[Array], Wrench]] = None


def gravity_potential(mass: float, g_world, com_offset=(0.0, 0.0, 0.0)) -> PotentialField:
    """Uniform gravity acting at the center of mass: U = -m g . x_cm."""
    mass = _finite(float(mass), "mass")
    g0, g1, g2 = _finite(as_vector3(g_world, "g_world"), "g_world")
    r = _finite(as_vector3(com_offset, "com_offset"), "com_offset")
    weight = (mass * g0, mass * g1, mass * g2)

    def energy(pose):
        x0, x1, x2 = point_sandwich(pose, r)
        return -mass * (g0 * x0 + g1 * x1 + g2 * x2)

    def wrench(pose, chi=None, t=None) -> tuple:
        f_body = vector_sandwich(rotation_conjugate(pose), weight)
        return (*cross(r, f_body), *f_body)

    return PotentialField(evaluate=FloatKernel(energy, float), body_wrench=_traced(wrench))


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

    def torque_force(pose, f_world) -> tuple:
        f_body = vector_sandwich(rotation_conjugate(pose), f_world)
        return (*cross(attach, f_body), *f_body)

    # the wrench: offset and torque_force traced, the guarded scale between
    # them written out. At the anchor the force has magnitude k*rest and no
    # direction; zero is the symmetric choice (the potential's subgradient).
    lines, d = traced_lines(offset(_POSE), "_o")
    lines += [
        *(f"_d{i} = {x}" for i, x in enumerate(d)),
        "_dist = sqrt(_d0 * _d0 + _d1 * _d1 + _d2 * _d2)",
        "if _dist < 1e-12:",
        "    _f0 = _f1 = _f2 = 0.0",
        "else:",
        f"    _s = {Traced.of(-k * (Traced('_dist') - rest)).text}",
        "    _f0, _f1, _f2 = _s * (_d0 / _dist), _s * (_d1 / _dist), _s * (_d2 / _dist)",
    ]
    tail, entries = traced_lines(torque_force(_POSE, [Traced(f"_f{i}") for i in range(3)]), "_c")
    wrench = FloatKernel(None, _body_wrench6, ((*lines, *tail), tuple(entries)))
    return PotentialField(evaluate=FloatKernel(energy, float), body_wrench=wrench)


def numeric_conservative_wrench(field, pose) -> Wrench:
    """Body wrench of a potential by central differences (relative step 1e-6)
    in the 8 ambient pose coordinates, contracted back through the pose.

    The gradient G = dU/dp is an ambient row vector and -G the dual force;
    ``dual_force_to_body_wrench`` contracts it, the same contraction the
    variational force term uses. Scalar slots are discarded: they are the
    constraint-multiplier directions.
    """
    evaluate = field.evaluate if isinstance(field, PotentialField) else field
    p = np.asarray(pose, dtype=np.float64).copy()
    grad = np.empty(8)
    for i in range(8):
        step = 1e-6 * max(1.0, abs(float(p[i])))
        orig = p[i]
        p[i] = orig + step
        up = float(evaluate(p))
        p[i] = orig - step
        um = float(evaluate(p))
        p[i] = orig
        grad[i] = (up - um) / (2.0 * step)
    return dual_force_to_body_wrench(p, -grad)


# ---------------------------------------------------------------------------
# force models
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ForceModel:
    """A wrench source evaluated at (pose, twist, time): by ``simulate`` once
    per step, at the state's pose and a twist O(h^2) from the one it stores;
    by ``rk4_simulate`` at each stage's state.

    ``evaluate(pose, chi, t)`` takes ndarray pose and twist and returns a
    ``Wrench``. The library's models make it a ``FloatKernel`` that carries
    its kernel's source, which the generated wrench sum writes out, with no
    call, no arrays and no ``Wrench``; any other callable, including one
    set with ``dataclasses.replace``, is called from the sum through its
    checked adapter (see ``wrench_sum_kernel``). ``energy`` is the scalar
    potential for conservative models (used by the energy diagnostics);
    non-conservative models leave it None.
    """

    evaluate: Callable[[Array, Array, float], Wrench]
    energy: Optional[Callable[[Array], float]] = None

    @property
    def conservative(self) -> bool:
        """True exactly when the model carries a potential."""
        return self.energy is not None


def force_model_from_potential(field: PotentialField) -> ForceModel:
    """Conservative force model from a potential.

    Uses the analytic wrench when the field carries one, and the
    finite-difference route otherwise; a ``FloatKernel`` wrench is the
    model's ``evaluate`` itself, so the wrench sum calls its kernel with no
    wrapper in between.
    """
    gradient = field.body_wrench
    if isinstance(gradient, FloatKernel):
        evaluate = gradient  # its kernel takes and ignores the twist and time
    elif gradient is not None:
        def evaluate(pose, chi, t):
            return gradient(pose)
    else:
        def evaluate(pose, chi, t):
            return numeric_conservative_wrench(field, pose)
    return ForceModel(evaluate=evaluate, energy=field.evaluate)


class _ConstantKernel(FloatKernel):
    """A constant wrench's kernel: its ndarray edge returns its ``edge``,
    the model's ``Wrench``, without running or compiling the kernel."""

    __slots__ = ()

    def __call__(self, *args):
        return self.edge


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
    return ForceModel(evaluate=_ConstantKernel(None, wrench, _traced(kernel).source))


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

    return ForceModel(evaluate=_traced(kernel))


def _adapter(index: int, evaluate) -> Callable:
    """Model ``index``'s wrench on Python floats, (pose, chi, t) -> six
    body-frame floats, through its ndarray edge ``evaluate``."""

    def adapted(pose, chi, t):
        w = evaluate(np.array(pose), np.array(chi), t)
        if not isinstance(w, Wrench):
            raise ValidationError(f"force model {index} returned {type(w).__name__}, expected Wrench")
        torque, force = w.torque.tolist(), w.force.tolist()
        if w.frame == FRAME_WORLD:
            return world_wrench_in_body(pose, torque, force)
        if w.frame != FRAME_BODY:
            raise ValidationError(f"unknown wrench frame {w.frame!r}")
        return (*torque, *force)

    return adapted


def _nonfinite(index: int, w) -> None:
    raise ValidationError(f"force model {index} returned a non-finite wrench {list(w)}")


# What the wrench sum's source reads besides its inputs: the names both its
# compiled function and the integrator's loop are compiled with.
SUM_NAMES = {"sqrt": math.sqrt, "inf": math.inf, "nan": math.nan, "_nonfinite": _nonfinite}

_SUM_CACHE_SIZE = 16


def _names(symbols) -> str:
    return ", ".join(x.text for x in symbols)


def reads(source: str, name: str) -> bool:
    """Whether the wrench sum's ``source`` reads the input ``name``: ``r``
    (the pose), ``chi`` (the twist) or ``time``."""
    return re.search(rf"\b{name}\d*\b", source) is not None


def _sum_parts(models: Sequence[ForceModel]) -> tuple:
    """(source, calls) of the wrench sum of ``models``: statements that
    bind tau0..tau5 from the pose r0..r7, the twist chi0..chi5 and
    ``time``, and the kernels they call as ``_calls[i]``.

    Model j's wrench is bound to _wj_0.. _wj_5: from its
    ``FloatKernel.source``, or from a call of the adapter of its ndarray
    edge. Entries that are not finite literals are checked, so a
    non-finite wrench raises naming j. Each component is summed in model
    order, with the zero terms folded.
    """
    lines, calls, total = [], [], [0.0] * 6
    for j, model in enumerate(models):
        evaluate = model.evaluate
        source = evaluate.source if isinstance(evaluate, FloatKernel) else None
        names = [f"_w{j}_{i}" for i in range(6)]
        if source is None:
            lines.append(f"{', '.join(names)} = _calls[{len(calls)}](({_names(_POSE)}), [{_names(_CHI)}], time)")
            calls.append(_adapter(j, evaluate))
            wrench = names
        else:
            body, entries = source
            lines += body
            lines += [f"{name} = {x}" for name, x in zip(names, entries) if isinstance(x, str)]
            wrench = [name if isinstance(x, str) else x for name, x in zip(names, entries)]
        checked = [x for x in wrench if isinstance(x, str) or not math.isfinite(x)]
        if checked:
            # x - x is 0.0 for a finite x and NaN for inf or NaN
            lines += [
                f"if {' + '.join(f'({x} - {x})' for x in checked)} != 0.0:",
                f"    _nonfinite({j}, [{', '.join(map(str, wrench))}])",
            ]
        total = [a + (Traced(x) if isinstance(x, str) else x) for a, x in zip(total, wrench)]
    lines += [f"tau{i} = {Traced.of(x).text}" for i, x in enumerate(total)]
    return "\n".join(lines) + "\n", tuple(calls)


@functools.lru_cache(maxsize=_SUM_CACHE_SIZE)
def _compiled_sum(source: str) -> Callable:
    """``make(calls)``, which returns the sum of ``source`` as
    ``total(pose, chi=None, time=None)`` calling ``calls``; a library
    wrench's own kernel is compiled here too."""
    lines = source.splitlines()
    if reads(source, "chi"):
        lines.insert(0, f"{_names(_CHI)} = chi")
    if reads(source, "r"):
        lines.insert(0, f"{_names(_POSE)} = pose")
    text = "\n".join([
        "def make(_calls):",
        "    def total(pose, chi=None, time=None):",
        *(f"        {line}" for line in lines),
        f"        return [{', '.join(f'tau{i}' for i in range(6))}]",
        "    return total",
    ]) + "\n"
    namespace = dict(SUM_NAMES)
    exec(compile(text, "<dqdyn.dynamics.wrench_sum>", "exec"), namespace)
    return namespace["make"]


def wrench_sum_kernel(models: Sequence[ForceModel]) -> Callable:
    """The wrench sum of ``models`` as ``total(pose, chi, t)`` on Python
    floats (8 and 6 of them; the sum is a list of six): both integrators
    take it once per run, and ``total_wrench`` once per call.

    It is generated: each library model's ``FloatKernel.source`` written
    out in model order, with its zero terms folded. Any other model is a
    call of its ndarray edge through the adapter, which rejects a result
    that is not a Wrench or has an unknown frame tag and rotates a world
    wrench through the pose. Each component is summed in model order, and
    a non-finite wrench from any model raises, naming the model's index. The sum is generated once per
    distinct tuple of models and compiled once per distinct source (two
    small LRU caches), so a repeated call returns the same function;
    ``total.source`` is its source, which ``simulate``'s generated loop
    inlines, and ``total.calls`` the kernels it calls.
    """
    models = tuple(models)
    try:
        hash(models)
    except TypeError:  # a model with a field that cannot be hashed is generated afresh
        return _sum_kernel.__wrapped__(models)
    return _sum_kernel(models)


@functools.lru_cache(maxsize=_SUM_CACHE_SIZE)
def _sum_kernel(models: tuple) -> Callable:
    source, calls = _sum_parts(models)
    total = _compiled_sum(source)(calls)
    total.source, total.calls = source, calls
    return total


def total_wrench(models: Sequence[ForceModel], pose, chi, t: float) -> Array:
    """Sum of all model wrenches as a body-frame 6-vector [torque; force]:
    one call of ``wrench_sum_kernel(models)`` on the pose and twist as
    floats, with its checks.

    World-tagged wrenches are rotated through the pose; unknown tags, models
    that return something other than a Wrench, and non-finite wrenches raise.
    """
    return np.array(wrench_sum_kernel(models)(as_floats(pose), as_floats(chi), t))


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
