"""One-step variational integrator for a rigid body on unit dual quaternions.

The incremental pose over one step is parametrized by six step variables
f = [Phi; Psi]. The corresponding unit dual quaternion is

    real = [sqrt(1 - Phi.Phi); Phi]
    dual = [-(Psi.Phi)/sqrt(1 - Phi.Phi); Psi]

which satisfies both unit-group constraints identically for any |Phi| < 1,
so poses advanced by p_{k+1} = p_k x f_k stay on the group to roundoff and
are never renormalized. |Phi| = 1 is a half-turn in one step, the hard
ceiling of the parametrization.

Each step solves the discrete momentum balance

    A(f_k) = alpha_k,    B(f_k) = beta_k

for f_k by Newton iteration with the analytic 6x6 Jacobian. A and B are the
rotational and translational components of the step momentum; alpha/beta
transport the previous step's momentum into the current frame and add the
wrench impulse (h^2/2) [torque; force]. The body twist is retrieved from
the solved step variables afterwards, chi = (2/h) M^-1 [A; B].

Conventions: twists are [omega; v] body frame, wrenches [torque; force],
M is the 6x6 generalized inertia about the body reference point.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .dynamics import InertiaMatrix6, total_wrench
from .errors import (
    SingularMatrixError,
    SolverDivergenceError,
    StepTooLargeError,
    ValidationError,
)
from .kinematics import FRAME_BODY, Wrench, check_pose
from .linsolve import COND_LIMIT, matvec, solve_ordered, solve_rows
from .quat import Array, dq_mul, dq_product, finite_vector6
from .trajectory import Trajectory

# Newton statuses returned by the kernel
_STATUS_OK = 0
_STATUS_NO_CONVERGENCE = 1
_STATUS_SINGULAR = 2
_STATUS_INFEASIBLE = 3

_MAX_BACKTRACK = 60


@dataclass(frozen=True)
class SolverSettings:
    """Time step and Newton controls for the implicit solve.

    Each error message starts with the setting's name, which
    ``scenario.build_run`` turns into the config key ``run.<name>``.
    """

    h: float
    tolerance: float = 1e-12
    max_iterations: int = 20

    def __post_init__(self):
        if not (self.h > 0.0 and math.isfinite(self.h)):
            raise ValidationError(f"h must be positive and finite, got {self.h}")
        if not (self.tolerance > 0.0 and math.isfinite(self.tolerance)):
            raise ValidationError(f"tolerance must be positive and finite, got {self.tolerance}")
        if self.max_iterations < 1:
            raise ValidationError(f"max_iterations must be >= 1, got {self.max_iterations}")


class _Inertia(NamedTuple):
    """An inertia in the kernels' form: rows and columns of Python floats."""

    rows: list  # M, six rows
    cols: list  # M, six column tuples
    inverse: list  # M^-1, six rows
    simple: bool  # the center-of-mass Jacobian applies
    mass: float  # M22[0][0]: the isotropic mass when simple


def float_inertia(M: InertiaMatrix6) -> _Inertia:
    """Convert M once per call into the form the step kernels (and the RK4
    oracle) read."""
    rows = M.matrix.tolist()
    mass = rows[3][3]
    m22 = [r[3:] for r in rows[3:]]
    simple = not M.coupled and mass > 0.0 and m22 == [[mass, 0.0, 0.0], [0.0, mass, 0.0], [0.0, 0.0, mass]]
    return _Inertia(rows, list(zip(*rows)), M.inverse.tolist(), simple, mass)


def _phi_norm2(f) -> float:
    """Phi . Phi, summed in the order the kernels use."""
    return f[0] * f[0] + f[1] * f[1] + f[2] * f[2]


def _momentum_terms(f, K: _Inertia) -> tuple:
    """(gamma, c, u0, u1, u2, w0, w1, w2) of f = [Phi; Psi]: gamma = sqrt(1 - Phi.Phi),
    c = Psi.Phi, w = M11 Phi + M12 Psi and u = M21 Phi + M22 Psi.

    Everything the step momentum, its transport and the Jacobian share.
    """
    p0, p1, p2, s0, s1, s2 = f
    w0, w1, w2, u0, u1, u2 = matvec(K.rows, f)
    return math.sqrt(1.0 - _phi_norm2(f)), s0 * p0 + s1 * p1 + s2 * p2, u0, u1, u2, w0, w1, w2


def _residual_ab(f, terms) -> tuple:
    """Step momentum [A; B] of the step variables f = [Phi; Psi]:
    A = -(c/gamma) u + Psi x u + gamma w + Phi x w and B = gamma u + Phi x u."""
    p0, p1, p2, s0, s1, s2 = f
    g, c, u0, u1, u2, w0, w1, w2 = terms
    cg = c / g
    return (
        -cg * u0 + (s1 * u2 - s2 * u1) + g * w0 + (p1 * w2 - p2 * w1),
        -cg * u1 + (s2 * u0 - s0 * u2) + g * w1 + (p2 * w0 - p0 * w2),
        -cg * u2 + (s0 * u1 - s1 * u0) + g * w2 + (p0 * w1 - p1 * w0),
        g * u0 + (p1 * u2 - p2 * u1),
        g * u1 + (p2 * u0 - p0 * u2),
        g * u2 + (p0 * u1 - p1 * u0),
    )


def _transported_ab(f, terms) -> tuple:
    """Previous step momentum carried into the next frame.

    Same terms as the residual with the cross-product signs flipped: the
    frame change conjugates by the step, which reverses its vector parts.
    """
    p0, p1, p2, s0, s1, s2 = f
    g, c, u0, u1, u2, w0, w1, w2 = terms
    cg = c / g
    return (
        g * w0 - (p1 * w2 - p2 * w1) - cg * u0 - (s1 * u2 - s2 * u1),
        g * w1 - (p2 * w0 - p0 * w2) - cg * u1 - (s2 * u0 - s0 * u2),
        g * w2 - (p0 * w1 - p1 * w0) - cg * u2 - (s0 * u1 - s1 * u0),
        g * u0 - (p1 * u2 - p2 * u1),
        g * u1 - (p2 * u0 - p0 * u2),
        g * u2 - (p0 * u1 - p1 * u0),
    )


def _target(f, terms, tau, h: float) -> list:
    """Newton target: the transported momentum plus the wrench impulse (h^2/2) tau."""
    impulse = 0.5 * h * h
    return [a + impulse * t for a, t in zip(_transported_ab(f, terms), tau)]


def _jacobian_general(f, terms, K: _Inertia) -> list:
    """d[A; B]/d[Phi; Psi] for an arbitrary 6x6 inertia, as six row lists.

    With R = gamma I + S(Phi), y = Phi / gamma and
    x = (gamma^2 Psi + c Phi) / gamma^3:

        J = [[R, S(Psi) - (c/gamma) I], [0, R]] M
            - [[u x^T + w y^T + S(w), u y^T + S(u)], [u y^T + S(u), 0]]
    """
    p0, p1, p2, s0, s1, s2 = f
    g, c, u0, u1, u2, w0, w1, w2 = terms
    cg = c / g
    cols = K.cols
    J = [
        [g * t0 - p2 * t1 + p1 * t2 - cg * b0 - s2 * b1 + s1 * b2 for t0, t1, t2, b0, b1, b2 in cols],
        [p2 * t0 + g * t1 - p0 * t2 + s2 * b0 - cg * b1 - s0 * b2 for t0, t1, t2, b0, b1, b2 in cols],
        [-p1 * t0 + p0 * t1 + g * t2 - s1 * b0 + s0 * b1 - cg * b2 for t0, t1, t2, b0, b1, b2 in cols],
        [g * b0 - p2 * b1 + p1 * b2 for _, _, _, b0, b1, b2 in cols],
        [p2 * b0 + g * b1 - p0 * b2 for _, _, _, b0, b1, b2 in cols],
        [-p1 * b0 + p0 * b1 + g * b2 for _, _, _, b0, b1, b2 in cols],
    ]
    g3 = g * g * g
    x = ((g * g * s0 + c * p0) / g3, (g * g * s1 + c * p1) / g3, (g * g * s2 + c * p2) / g3)
    y = (p0 / g, p1 / g, p2 / g)
    skew_w = ((0.0, -w2, w1), (w2, 0.0, -w0), (-w1, w0, 0.0))
    skew_u = ((0.0, -u2, u1), (u2, 0.0, -u0), (-u1, u0, 0.0))
    for i, ui, wi in ((0, u0, w0), (1, u1, w1), (2, u2, w2)):
        top, bottom, sw, su = J[i], J[3 + i], skew_w[i], skew_u[i]
        for j in range(3):
            top[j] -= ui * x[j] + wi * y[j] + sw[j]
            k = ui * y[j] + su[j]
            top[3 + j] -= k
            bottom[j] -= k
    return J


def _jacobian_simple(f, terms, K: _Inertia) -> list:
    """Jacobian for the center-of-mass case M12 = M21 = 0, M22 = mass * I.

    Here u = mass * Psi, so S(Psi) M22 - S(u) cancels in the top-right block
    of the general form, and the zero blocks of M drop out of R M.
    """
    p0, p1, p2, s0, s1, s2 = f
    g, c, u0, u1, u2, w0, w1, w2 = terms
    m = K.mass
    mg = m * g
    mcg = m * (c / g)
    g3 = g * g * g
    x0, x1, x2 = (g * g * s0 + c * p0) / g3, (g * g * s1 + c * p1) / g3, (g * g * s2 + c * p2) / g3
    y0, y1, y2 = p0 / g, p1 / g, p2 / g
    r0, r1, r2 = [
        (g * a0 - p2 * a1 + p1 * a2, p2 * a0 + g * a1 - p0 * a2, -p1 * a0 + p0 * a1 + g * a2)
        for a0, a1, a2, _, _, _ in K.cols[:3]
    ]
    uy00, uy01, uy02 = u0 * y0, u0 * y1, u0 * y2
    uy10, uy11, uy12 = u1 * y0, u1 * y1, u1 * y2
    uy20, uy21, uy22 = u2 * y0, u2 * y1, u2 * y2
    return [
        [r0[0] - u0 * x0 - w0 * y0, r1[0] - u0 * x1 - w0 * y1 + w2, r2[0] - u0 * x2 - w0 * y2 - w1,
         -uy00 - mcg, -uy01, -uy02],
        [r0[1] - u1 * x0 - w1 * y0 - w2, r1[1] - u1 * x1 - w1 * y1, r2[1] - u1 * x2 - w1 * y2 + w0,
         -uy10, -uy11 - mcg, -uy12],
        [r0[2] - u2 * x0 - w2 * y0 + w1, r1[2] - u2 * x1 - w2 * y1 - w0, r2[2] - u2 * x2 - w2 * y2,
         -uy20, -uy21, -uy22 - mcg],
        [-uy00, -uy01 + u2, -uy02 - u1, mg, -m * p2, m * p1],
        [-uy10 - u2, -uy11, -uy12 + u0, m * p2, mg, -m * p0],
        [-uy20 + u1, -uy21 - u0, -uy22, -m * p1, m * p0, mg],
    ]


def _max_abs(v) -> float:
    """max |v_i|, NaN when an entry is NaN (the builtin max would skip it)."""
    s = sum(v)
    return max(map(abs, v)) if s == s else math.nan


def _newton(f, terms, target, K: _Inertia, tol: float, max_iterations: int, order):
    """Newton iteration on [A; B](f) = target from the warm start f, whose
    momentum terms are ``terms``.

    Returns (f, terms, [A; B](f), iterations, residual_norm, status, order).
    Each iteration first solves the 6x6 system in ``order``, the pivot order
    of the last searched solve (None: there is none yet). When that is
    missing or fails a check, it solves with full pivoting and keeps the new
    order; only that searched solve can abort the step as singular. The
    update is backtracked (halving) until the iterate keeps |Phi| < 1.
    Convergence is checked after the update, so even a solved warm start
    reports one iteration.
    """
    ab = _residual_ab(f, terms)
    r = [a - t for a, t in zip(ab, target)]
    pre = _max_abs(r)
    jacobian_of = _jacobian_simple if K.simple else _jacobian_general
    for it in range(1, max_iterations + 1):
        J = jacobian_of(f, terms, K)
        y = [-v for v in r]
        solved = None if order is None else solve_ordered(J, y, order)
        if solved is None:
            dx, cond, ok, order = solve_rows(J, y)
            if (not ok) or cond > COND_LIMIT:
                return f, terms, ab, it, pre, _STATUS_SINGULAR, order
        else:
            dx = solved[0]
        scale = 1.0
        trial = [a + b for a, b in zip(f, dx)]
        nphi = _phi_norm2(trial)
        hops = 0
        while nphi >= 1.0 and hops < _MAX_BACKTRACK:
            scale *= 0.5
            hops += 1
            trial = [a + scale * b for a, b in zip(f, dx)]
            nphi = _phi_norm2(trial)
        if nphi >= 1.0:
            return f, terms, ab, it, pre, _STATUS_INFEASIBLE, order
        f = trial
        terms = _momentum_terms(f, K)
        ab = _residual_ab(f, terms)
        r = [a - t for a, t in zip(ab, target)]
        pre = _max_abs(r)
        if pre <= tol:
            return f, terms, ab, it, pre, _STATUS_OK, order
    return f, terms, ab, max_iterations, pre, _STATUS_NO_CONVERGENCE, order


def _step_dq(f) -> tuple:
    """Unit dual quaternion of the step variables."""
    p0, p1, p2, s0, s1, s2 = f
    gamma = math.sqrt(1.0 - _phi_norm2(f))
    return gamma, p0, p1, p2, -(s0 * p0 + s1 * p1 + s2 * p2) / gamma, s0, s1, s2


def _as_step(step) -> Array:
    f = finite_vector6(step, "step variables")
    n2 = _phi_norm2(f.tolist())
    if n2 >= 1.0:
        raise StepTooLargeError(
            f"|Phi| = {np.sqrt(n2):.6g} >= 1: the incremental rotation reaches 180 degrees; "
            "reduce the time step"
        )
    return f


def _wrench_body_vector(wrench) -> Array:
    if wrench is None:
        return np.zeros(6)
    if isinstance(wrench, Wrench):
        if wrench.frame != FRAME_BODY:
            raise ValidationError(
                "wrench must be in the body frame here; rotate a world wrench through the pose first"
            )
        wrench = wrench.vector6
    return finite_vector6(wrench, "wrench")


def step_to_dual_quaternion(step) -> Array:
    """Unit dual quaternion of step variables [Phi; Psi].

    Unit norm and orthogonality hold as algebraic identities of this
    parametrization, not approximately.
    """
    return np.array(_step_dq(_as_step(step).tolist()))


def residual(step, M: InertiaMatrix6) -> tuple[Array, Array]:
    """Step momentum (A, B): rotational and translational components."""
    f = _as_step(step).tolist()
    out = np.array(_residual_ab(f, _momentum_terms(f, float_inertia(M))))
    return out[:3], out[3:]


def rhs(prev_step, M: InertiaMatrix6, wrench, h: float) -> tuple[Array, Array]:
    """Newton target (alpha, beta): transported previous momentum plus the
    wrench impulse (h^2/2) [torque; force], body frame."""
    f = _as_step(prev_step).tolist()
    tau = _wrench_body_vector(wrench).tolist()
    out = np.array(_target(f, _momentum_terms(f, float_inertia(M)), tau, h))
    return out[:3], out[3:]


def jacobian(step, M: InertiaMatrix6, method: str = "auto") -> Array:
    """Analytic d[A; B]/d[Phi; Psi].

    ``method`` picks "general" or "simplified" explicitly; "auto" uses the
    simplified form exactly when the inertia qualifies (center-of-mass
    reference, isotropic mass block). Both forms agree there.
    """
    f = _as_step(step).tolist()
    K = float_inertia(M)
    if method == "auto":
        method = "simplified" if K.simple else "general"
    if method == "simplified":
        if not K.simple:
            raise ValidationError(
                "simplified Jacobian needs M12 = M21 = 0 and an isotropic mass block"
            )
        kernel = _jacobian_simple
    elif method == "general":
        kernel = _jacobian_general
    else:
        raise ValidationError(f"unknown Jacobian method {method!r}")
    return np.array(kernel(f, _momentum_terms(f, K), K))


def initial_guess(chi, h: float) -> Array:
    """Warm start (h/2) * [omega; v] for the first step's Newton solve.

    Raises StepTooLargeError when h*|omega|/2 >= 1, the first step's
    half-turn bound; config parsing checks a run's h through this call.
    """
    chi = finite_vector6(chi, "twist")
    f = 0.5 * float(h) * chi
    if _phi_norm2(f.tolist()) >= 1.0:
        omega = np.linalg.norm(chi[:3])
        raise StepTooLargeError(
            f"h*|omega|/2 = {0.5 * h * omega:.6g} >= 1: one step would rotate 180 degrees "
            f"or more, outside the step parametrization's half-turn bound; reduce h below {2.0 / omega:.3g}"
        )
    return f


def solve_step(prev_step, M: InertiaMatrix6, wrench, settings: SolverSettings):
    """Solve one implicit step from the previous step variables.

    Returns (step, iterations, residual_norm). The warm start is the
    previous step itself.
    """
    f_prev = _as_step(prev_step).tolist()
    tau = _wrench_body_vector(wrench).tolist()
    K = float_inertia(M)
    terms = _momentum_terms(f_prev, K)
    f, _, _, it, rn, status, _ = _newton(  # no order: a single step always searches
        f_prev, terms, _target(f_prev, terms, tau, settings.h), K, settings.tolerance, settings.max_iterations, None
    )
    _raise_for_status(status, it, rn)
    return np.array(f), it, rn


def _raise_for_status(status: int, iterations: int, residual_norm: float, step_index: Optional[int] = None) -> None:
    where = "" if step_index is None else f" at step {step_index}"
    if status == _STATUS_OK:
        return
    if status == _STATUS_SINGULAR:
        raise SingularMatrixError(
            f"Newton Jacobian is singular or too ill-conditioned{where} "
            f"(iteration {iterations})"
        )
    if status == _STATUS_INFEASIBLE:
        raise SolverDivergenceError(
            f"Newton update could not keep |Phi| < 1{where}: the step rotation "
            "is reaching 180 degrees; reduce the time step",
            residual_norm=residual_norm,
            iterations=iterations,
            step_index=step_index,
        )
    raise SolverDivergenceError(
        f"Newton did not reach tolerance within {iterations} iterations{where} "
        f"(last residual norm {residual_norm:.3e})",
        residual_norm=residual_norm,
        iterations=iterations,
        step_index=step_index,
    )


def advance_pose(pose, step) -> Array:
    """p_{k+1} = p_k x step, staying on the unit group by construction."""
    p = np.ascontiguousarray(pose, dtype=np.float64)
    return dq_mul(p, step_to_dual_quaternion(step))


def retrieve_twist(step, M: InertiaMatrix6, h: float) -> Array:
    """Body twist consistent with the step momentum: (2/h) M^-1 [A; B]."""
    f = _as_step(step).tolist()
    K = float_inertia(M)
    s = 2.0 / float(h)
    return np.array([s * x for x in matvec(K.inverse, _residual_ab(f, _momentum_terms(f, K)))])


def simulate(
    pose0,
    twist0,
    M: InertiaMatrix6,
    forces: Sequence = (),
    settings: SolverSettings = SolverSettings(h=1e-3),
    n_steps: int = 1000,
) -> Trajectory:
    """Integrate n_steps steps from (pose0, twist0); returns states 0..n_steps.

    State 0 solves the momentum-match system
    [A; B](f_0) = (h/2) M chi_0 + (h^2/4) tau_0 warm-started from
    (h/2) chi_0: the starting momentum plus the start-up half-kick of the
    discrete Lagrange-d'Alembert principle, with tau_0 the force models
    (if any) sampled at (p_0, chi_0, 0). Step k >= 1 advances the pose by
    the previous step, samples the force models once at
    (p_k, chi_{k-1}, k*h), and solves for f_k warm-started from f_{k-1}.
    The final state's step variables are solved too, which is what
    retrieves its twist; they are never applied to the pose.

    Velocity-dependent forces see the previous retrieved twist because the
    current one does not exist until its step is solved.
    """
    p0 = np.ascontiguousarray(check_pose(pose0))
    chi0 = finite_vector6(twist0, "twist")
    n_steps = int(n_steps)
    if n_steps < 0:
        raise ValidationError(f"n_steps must be >= 0, got {n_steps}")
    h = settings.h
    tol = settings.tolerance
    max_iterations = settings.max_iterations
    f = initial_guess(chi0, h).tolist()  # fails fast on a step rotation >= 180 degrees
    K = float_inertia(M)
    force_models = list(forces)

    n = n_steps + 1
    poses = np.empty((n, 8))
    steps = np.empty((n, 6))
    twists = np.empty((n, 6))
    iters = np.zeros(n, dtype=np.int64)
    resnorms = np.zeros(n)
    wrenches = np.zeros((n, 6))
    pose = p0.tolist()
    poses[0] = pose
    terms = _momentum_terms(f, K)
    target = [0.5 * h * x for x in matvec(K.rows, chi0.tolist())]
    if force_models:
        wrenches[0] = total_wrench(force_models, p0, chi0, 0.0)
        target = [a + 0.25 * h * h * t for a, t in zip(target, wrenches[0].tolist())]
    two_over_h = 2.0 / h
    order = None  # pivot order of the last searched solve; the first solve searches
    for k in range(n):
        if k:
            pose = dq_product(pose, _step_dq(f))
            poses[k] = pose
            if force_models:
                tau = total_wrench(force_models, poses[k], twists[k - 1], k * h)
                wrenches[k] = tau
                target = _target(f, terms, tau.tolist(), h)
            else:
                target = _transported_ab(f, terms)
        f, terms, ab, it, rn, status, order = _newton(f, terms, target, K, tol, max_iterations, order)
        iters[k] = it
        resnorms[k] = rn
        _raise_for_status(status, it, rn, k)
        steps[k] = f
        twists[k] = [two_over_h * x for x in matvec(K.inverse, ab)]

    times = np.arange(n) * h
    return Trajectory.from_raw(
        times=times,
        poses=poses,
        twists=twists,
        inertia=M,
        force_models=force_models,
        steps=steps,
        iterations=iters,
        residual_norms=resnorms,
        applied_wrenches=wrenches,
        h=h,
    )
