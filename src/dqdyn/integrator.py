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
wrench impulse (h^2/2) [torque; force]. In a run, Newton starts from the
linear prediction 2 f_{k-1} - f_{k-2}, which is O(h^3) from f_k, so one
update reaches round-off and no one-signed stopping error accumulates in
the conserved momenta. [A; B] is not one-to-one: about a principal axis
A is proportional to gamma |Phi|, which peaks at |Phi|^2 = 1/2, and past
that fold lies a mirror root. A prediction thrown next to the fold by a
jump in the wrench can converge to it, so a predicted solve that fails, or
that needs more than one update and ends with det J of the other sign
than at f_{k-1}, is solved again from f_{k-1}. The body twist is retrieved
from the solved step variables, chi = (2/h) M^-1 [A; B], less the quarter
kick (h/2) M^-1 tau that puts it at its state's instant.

Each formula is one float function: the momentum and its transport
(``_momenta``), the Jacobian (``_jacobian``), M f and M^-1 v
(``linsolve.matvec``). ``simulate``'s steps run in one generated function,
a loop for an inertia, a pivot order and the source of the body's wrench
sum (none for a free body): those formulas called on ``quat.Traced``
symbols, M's entries as literals and its zero entries left out, with
hand-written lines only for the square root and the divisions. Per step it
runs the pose product, the transport (12 subtractions of the products the
last update bound), for a forced body the wrench sum's own lines (the
predicted twist only when a model reads it) and the kicks, the
prediction, and the Newton iterations, each the same inlined update: the
start's residual, each Jacobian entry written straight into its
elimination variable, the elimination without a search, the update and
the new iterate's residual norm, all on locals. The update binds the
products that the new iterate's momentum shares with the transport
(``_PRODUCT_LINES``) once. The loop also applies the branch guard, from
the sign of det J that the elimination's pivots give. The library's force
models carry their source (``dynamics.wrench_sum_kernel``), so a step
makes no Python call unless a model without source is called.
``simulate`` allocates one table per run, a row of ``_ROW`` floats per
state, and the loop packs every state, its iteration count too, into its
row (``_PACK``); the trajectory's columns are views or copies of it.

Full pivoting only picks the pivot order the loop eliminates in
(``_pivot_order``, ``linsolve.solve_rows`` on the float Jacobian): at
step 0 and when an update refuses. The loop hands a step back only when
an update refuses, for that search, when an update must be halved
(``_halve``), or when a step misses: a predicted start is then solved
again from f_{k-1}, and a start from f_{k-1} fails. Loops are compiled on first use and cached;
``stepping_loop(M, order, sum_source).source`` is their code. The public
``residual``, ``rhs``, ``jacobian`` and ``retrieve_twist`` evaluate the
float functions.

Conventions: twists are [omega; v] body frame, wrenches [torque; force],
M is the 6x6 generalized inertia about the body reference point.
"""

import functools
import math
import struct
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .dynamics import SUM_NAMES, InertiaMatrix6, reads, wrench_sum_kernel
from .errors import (
    SingularMatrixError,
    SolverDivergenceError,
    StepTooLargeError,
    ValidationError,
)
from .kinematics import FRAME_BODY, Wrench, check_pose
from .linsolve import COND_LIMIT, matvec, matvec_stack, solve_rows
from .quat import Array, Traced, as_count, cross, dq_product, finite_vector6, traced_lines
from .trajectory import Trajectory

# statuses of a step's Newton solve
_STATUS_OK = 0
_STATUS_NO_CONVERGENCE = 1
_STATUS_SINGULAR = 2
_STATUS_INFEASIBLE = 3

_MAX_BACKTRACK = 60
# what the loop hands back besides a step to halve (the update's dx): an
# update refused, or a step failed (see stepping_loop)
_REFUSED = "refused"
_MISSED = "missed"


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
        as_count(self.max_iterations, "max_iterations", 1)


def _phi_norm2(f) -> float:
    """Phi . Phi, summed in the order the loop uses."""
    return f[0] * f[0] + f[1] * f[1] + f[2] * f[2]


# The loop is generated per inertia from the float formulas below. A term
# whose entry of M is zero drops out and an entry of +-1 leaves the bare
# symbol, which keeps the bits of the full sum up to the sign of a zero.

_TRACE_CACHE_SIZE = 16
_LOOP_CACHE_SIZE = 32
_STEP_VARIABLES = ("p0", "p1", "p2", "s0", "s1", "s2")
# floats of a state's row in simulate's table: pose, step variables, stored
# momentum, residual norm and Newton iteration count
_ROW = 8 + 6 + 6 + 1 + 1
# _PACK(table, k * 8 * _ROW, *row) writes state k's row into the table
_PACK = struct.Struct(f"{_ROW}d").pack_into
_IDENTITY = (1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
_TERMS = "g, c, u0, u1, u2, w0, w1, w2"
# largest |multiplier| an update accepts: threshold pivoting with u = 1/10
# keeps element growth bounded (Higham, Accuracy and Stability of Numerical
# Algorithms, ch. 9). The update tests q * q <= MULTIPLIER_LIMIT**2: 10**2
# is exact and squaring is monotone, so it refuses the same floats as
# -10 <= q <= 10 does, NaN and the infinities included.
MULTIPLIER_LIMIT = 10.0


def _momenta(f, terms, cg) -> list:
    """The step momentum [A; B](f) and that momentum carried into the frame
    of the next step, as 12 entries, from the terms of f = [Phi; Psi] and
    cg = c/gamma:

        A = -(c/gamma) u + Psi x u + gamma w + Phi x w,  B = gamma u + Phi x u.

    The frame change conjugates by the step, which reverses its vector
    parts, so the transport is the same products with the signs of the
    cross products flipped.
    """
    g, _, u0, u1, u2, w0, w1, w2 = terms
    u, w = (u0, u1, u2), (w0, w1, w2)
    (pw0, pw1, pw2), (su0, su1, su2), (pu0, pu1, pu2) = cross(f[:3], w), cross(f[3:], u), cross(f[:3], u)
    gw0, gw1, gw2, gu0, gu1, gu2 = g * w0, g * w1, g * w2, g * u0, g * u1, g * u2
    cu0, cu1, cu2 = cg * u0, cg * u1, cg * u2
    return [
        -cu0 + su0 + gw0 + pw0, -cu1 + su1 + gw1 + pw1, -cu2 + su2 + gw2 + pw2,
        gu0 + pu0, gu1 + pu1, gu2 + pu2,
        gw0 - pw0 - cu0 - su0, gw1 - pw1 - cu1 - su1, gw2 - pw2 - cu2 - su2,
        gu0 - pu0, gu1 - pu1, gu2 - pu2,
    ]


def momentum(f, terms) -> list:
    """The step momentum [A; B](f), from the terms of f."""
    return _momenta(f, terms, terms[1] / terms[0])[:6]


def transport(f, terms) -> list:
    """The step momentum of f carried into the frame of the next step."""
    return _momenta(f, terms, terms[1] / terms[0])[6:]


def _cross_matrix(v, diagonal) -> list:
    """S(v) + diagonal I as row lists, S(v) the matrix of v x."""
    v0, v1, v2 = v
    return [[diagonal, -v2, v1], [v2, diagonal, -v0], [-v1, v0, diagonal]]


def _jacobian(M, f, terms, cg, x, y, zero=0.0) -> list:
    """d[A; B]/d[Phi; Psi] for the inertia M (row lists), as six row lists:

        J = [[R, S(Psi) - (c/gamma) I], [0, R]] M - C,  R = gamma I + S(Phi),
        C = [[u x^T + w y^T + S(w), K], [K, 0]],  K = u y^T + S(u),

    from the terms of f, cg = c/gamma, x = (gamma^2 Psi + c Phi)/gamma^3
    and y = Phi/gamma. ``zero`` is the diagonal of S(w) and S(u); the
    generated loop adds a 0.0 that does not fold, which turns a -0.0 sum
    into +0.0.
    """
    g, u, w = terms[0], terms[2:5], terms[5:]
    R = _cross_matrix(f[:3], g)
    factor = [r + s for r, s in zip(R, _cross_matrix(f[3:], -cg))] + [[0.0] * 3 + r for r in R]
    K = [[ui * yj + s for yj, s in zip(y, row)] for ui, row in zip(u, _cross_matrix(u, zero))]
    C = [
        [ui * xj + wi * yj + s for xj, yj, s in zip(x, y, row)] + k
        for ui, wi, row, k in zip(u, w, _cross_matrix(w, zero), K)
    ] + [k + [0.0] * 3 for k in K]
    columns = list(zip(*M))
    return [[p - q for p, q in zip(matvec(columns, row), c)] for row, c in zip(factor, C)]


def _terms(M, f) -> tuple:
    """(gamma, c, u0, u1, u2, w0, w1, w2) of f = [Phi; Psi] for the inertia
    M (row lists): gamma = sqrt(1 - Phi.Phi), c = Psi.Phi and [w; u] = M f,
    everything the step momentum, its transport and the Jacobian share."""
    w0, w1, w2, u0, u1, u2 = matvec(M, f)
    return math.sqrt(1.0 - _phi_norm2(f)), f[3] * f[0] + f[4] * f[1] + f[5] * f[2], u0, u1, u2, w0, w1, w2


def _float_jacobian(M, f) -> list:
    """d[A; B]/d[Phi; Psi] at f for the inertia M (row lists), evaluated on
    floats: the generated loop's entries up to the sign of a zero."""
    terms = _terms(M, f)
    g, c = terms[0], terms[1]
    gg = g * g
    g3 = gg * g
    x = [(gg * s + c * p) / g3 for p, s in zip(f[:3], f[3:])]
    y = [p / g for p in f[:3]]
    return _jacobian(M, f, terms, c / g, x, y)


# The locals of the generated code that the formulas are traced on.
_F = [Traced(x) for x in _STEP_VARIABLES]
_T = [Traced(x) for x in _TERMS.split(", ")]
_CG = Traced("cg")
_X, _Y = [Traced(f"x{i}") for i in range(3)], [Traced(f"y{i}") for i in range(3)]
_MOMENTA = _momenta(_F, _T, _CG)
# The 18 products the momentum and its transport share (gamma w, Phi x w,
# (c/gamma) u, Psi x u, gamma u, Phi x u), each bound once to pr0..pr17,
# and the 12 entries written in them. The update's new iterate binds them,
# and the loop's next transport reads them.
_PRODUCT_LINES, _SHARED = traced_lines(_MOMENTA, "pr")
# b_i = t_i - [A; B]_i, the update's start, which reads each product once
_RESIDUALS = [(Traced(f"t{i}") - m).text for i, m in enumerate(_MOMENTA[:6])]


@functools.lru_cache(maxsize=_TRACE_CACHE_SIZE)
def _traces(matrix: bytes) -> tuple:
    """(the sources of [w; u] = M f, the lines binding what the Jacobian's
    entries share, the entries' sources as six rows) of M's bytes: traced
    once per inertia for its loops."""
    M = _rows(matrix)
    mf = tuple(Traced.of(x).text for x in matvec(M, _F))
    lines, entries = traced_lines([e for row in _jacobian(M, _F, _T, _CG, _X, _Y, Traced("0.0")) for e in row], "j")
    return mf, tuple(lines), tuple(tuple(entries[i : i + 6]) for i in range(0, 36, 6))


def _terms_lines(mf) -> list:
    """Lines binding the terms g, c, w0..w2, u0..u2 of p0..s2, whose Phi.Phi
    is in n, from the sources ``mf`` of M f."""
    return [
        "    g = sqrt(1.0 - n)",
        "    c = s0 * p0 + s1 * p1 + s2 * p2",
        *(f"    {x} = {e}" for x, e in zip(("w0", "w1", "w2", "u0", "u1", "u2"), mf)),
    ]


# The quotients the Jacobian reads besides the terms and cg.
_JACOBIAN_LOCALS = [
    "    # y = Phi / gamma, x = (gamma^2 Psi + c Phi) / gamma^3",
    "    gg = g * g",
    "    g3 = gg * g",
    "    x0, x1, x2 = (gg * s0 + c * p0) / g3, (gg * s1 + c * p1) / g3, (gg * s2 + c * p2) / g3",
    "    y0, y1, y2 = p0 / g, p1 / g, p2 / g",
]


def _names(prefix: str, n: int) -> str:
    return ", ".join(f"{prefix}{i}" for i in range(n))


def _odd(order) -> bool:
    """Whether the pivot order (rows, cols) permutes J's rows and columns by
    an odd number of transpositions in all: det J is then minus the product
    of the elimination's pivots."""
    return sum(a > b for perm in order for i, a in enumerate(perm) for b in perm[i + 1 :]) % 2 == 1


def _update_body(matrix: bytes, order, leave) -> list:
    """Lines of one Newton iteration on [A; B](f) = t for M's bytes and the
    pivot order (rows, cols), the k-th pivot J[rows[k]][cols[k]], with f in
    p0..s2, its Phi.Phi in n and t in t0..t5.

    One operation per line in ``solve_rows``' order: the start's terms and
    negated residual b = t - [A; B](f), the Jacobian entries straight into
    the elimination locals a_ij = J[rows[i]][cols[j]], the elimination with
    its refusals, ``positive`` (det J > 0: the sign of the pivots' product,
    flipped for an odd order), the back-substitution, f + dx, and the new
    iterate's terms, Phi.Phi in n, [A; B] in m0..m5 and residual norm rn.
    ``leave(handoff)`` is the statement that ends the iteration early, with
    p0..s2 still the start: ``_REFUSED`` on a refusal, ``[dx]`` for a step
    to halve. The new iterate's momentum binds the products pr0..pr17 once,
    which the next step's transport reads.
    """
    mf, jacobian_lines, entries = _traces(matrix)
    rows, cols = order
    n = len(rows)
    idx = range(n)
    a = [[f"a{i}{j}" for j in idx] for i in idx]
    ab = [f"m{i}" for i in idx]
    refuse = leave(repr(_REFUSED))
    lines = [
        *_terms_lines(mf),
        "    cg = c / g",
        *[f"    b{i} = {_RESIDUALS[r]}" for i, r in enumerate(rows)],
        *_JACOBIAN_LOCALS,
        *(f"    {line}" for line in jacobian_lines),
        *[f"    {a[i][j]} = {entries[r][c]}" for i, r in enumerate(rows) for j, c in enumerate(cols)],
    ]
    for k in idx:
        lines += [f"    if {a[k][k]} == 0.0:", f"        {refuse}"]
        for i in range(k + 1, n):
            lines += [
                f"    q = {a[i][k]} / {a[k][k]}",
                "    if q != 0.0:",  # solve_rows skips these rows too; the sign of a zero would differ
                f"        if not q * q <= {MULTIPLIER_LIMIT**2!r}:",
                f"            {refuse}",
            ]
            lines += [f"        {a[i][j]} -= q * {a[k][j]}" for j in range(k + 1, n)] + [f"        b{i} -= q * b{k}"]
    last = a[n - 1][n - 1]
    pivots = " * ".join(a[i][i] for i in idx)
    lines += [
        f"    if not abs(a00) / abs({last}) <= {COND_LIMIT!r}:",
        f"        {refuse}",
        f"    positive = {pivots} {'<' if _odd(order) else '>'} 0.0",
    ]
    for i in reversed(idx):
        s = "".join(f" - {a[i][j]} * z{j}" for j in range(i + 1, n))
        lines.append(f"    z{i} = (b{i}{s}) / {a[i][i]}")
    dx = [f"z{cols.index(j)}" for j in idx]
    phi = _STEP_VARIABLES[:3]
    halve = leave(f"[{', '.join(dx)}]")
    return lines + [
        # the new Phi in f0..f2 first, so that a step to halve leaves p0..s2 the start
        *(f"    f{i} = {x} + {d}" for i, (x, d) in enumerate(zip(phi, dx))),
        "    n = f0 * f0 + f1 * f1 + f2 * f2",
        "    if n >= 1.0:",
        f"        {halve}",
        *(f"    {x} = f{i}" for i, x in enumerate(phi)),
        *(f"    {x} += {d}" for x, d in zip(_STEP_VARIABLES[3:], dx[3:])),
        *_terms_lines(mf),
        "    cg = c / g",
        *(f"    {line}" for line in _PRODUCT_LINES),
        *[f"    {m} = {e}" for m, e in zip(ab, _SHARED[:6])],
        *_assign_lines("e", (f"abs(t{i} - {m})" for i, m in enumerate(ab)), "    "),
        f"    s = {' + '.join(f'e{i}' for i in idx)}",  # NaN only for a NaN entry, as in _max_abs
        # max(e0, ..., e5) without a call: the builtin's comparisons, in its order
        "    rn = e0",
        *(line for i in range(1, n) for line in (f"    if e{i} > rn:", f"        rn = e{i}")),
        "    if s != s:",
        "        rn = nan",
    ]


def _assign_lines(prefix: str, entries, indent: str = "        ") -> list:
    """One statement per entry, binding prefix0, prefix1, ...: a tuple
    assignment of more than three names would build and unpack a tuple. No
    entry may read another entry's name."""
    return [f"{indent}{prefix}{i} = {e}" for i, e in enumerate(entries)]


def _loop_source(matrix: bytes, inverse: bytes, order, sum_source: Optional[str]) -> str:
    """Source of the stepping loop (see ``stepping_loop``). The prelude
    binds the terms, the products and [A; B] of the iterate it takes. Each
    pass of its one while loop first looks at the iterate: solved, on the
    branch of f_{k-1}, its row and the next step's pose product, transport
    from the products the last update bound, for a body under force models
    the lines of the wrench sum's source ``sum_source`` (None: a free body)
    and the kicks, and prediction; missed, or on the other side of the
    fold, the hand-back. Then it does one update, ``_update_body``. All
    runs on locals. The predicted twist, the M^-1 product, is written only
    when the sum reads the twist. Each value has the bits of the float
    functions up to the sign of a zero, and those of ``dq_product``, the
    compiled sum and ``_kicked``."""
    forced = sum_source is not None
    p = ", ".join(_STEP_VARIABLES)
    r, o, t = _names("r", 8), _names("o", 6), _names("t", 6)
    tau = _names("tau", 6) if forced else None
    taus = f"[{tau}]" if forced else "tau"
    state = f"k, ({r}), [{p}], [{o}], [{t}], {taus}, it, rn, positive, side, predicted"

    step_dq = ("g", "p0", "p1", "p2", "dw", "s0", "s1", "s2")
    pose = dq_product([Traced(f"r{i}") for i in range(8)], [Traced(x) for x in step_dq])
    lines = [
        "def loop(k, stop, pose, f, f_prev, target, tau, it, rn, positive, side, predicted,",
        "         table, tol, h, max_iterations, wrench):",
        f"    {r} = pose",
        f"    {p} = f",
        f"    {o} = f_prev",
        f"    {t} = target",
        "    n = p0 * p0 + p1 * p1 + p2 * p2",
        *_terms_lines(_traces(matrix)[0]),
        "    cg = c / g",
        *(f"    {line}" for line in _PRODUCT_LINES),
        *[f"    m{i} = {e}" for i, e in enumerate(_SHARED[:6])],
        "    last = stop - 1",
    ]
    if forced:
        twist = reads(sum_source, "chi")
        lines += [
            f"    {tau} = tau",
            *(["    two_over_h = 2.0 / h"] if twist else []),
            "    impulse = 0.5 * h * h",
            "    quarter = 0.25 * h * h",
            "    unkick = -quarter",
            *(["    _calls = wrench.calls"] if "_calls" in sum_source else []),
        ]
    momenta = [f"m{i} + unkick * tau{i}" if forced else f"m{i}" for i in range(6)]
    lines += [
        "    while True:",
        "        if it and rn <= tol and not (it > 1 and predicted and positive != side):",
        "            # step k is solved, on the branch of f_{k-1}: its row, then step k + 1",
        f"            _PACK(table, k * {8 * _ROW}, {r}, {p}, {', '.join(momenta)}, rn, it)",
        "            if k == last:",
        "                handoff = None",
        "                break",
        "            side = positive",
        "            k += 1",
        "            # p_k = p_{k-1} x the unit dual quaternion of f_{k-1}",
        "            dw = -cg",
        *_assign_lines("nr", (x.text for x in pose), "            "),  # every entry reads r0..r3 or r0..r7
        *_assign_lines("r", (f"nr{i}" for i in range(8)), "            "),
        "            # T_k, the momentum of f_{k-1} carried into this frame, from its products",
        *_assign_lines("t", _SHARED[6:], "            "),
    ]
    if forced:
        if twist:
            v = [Traced(f"v{i}") for i in range(6)]
            lines += [
                "            # the twist predicted from T_k and tau_{k-1}",
                *_assign_lines("v", (f"t{i} + quarter * tau{i}" for i in range(6)), "            "),
                *_assign_lines("i", (Traced.of(x).text for x in matvec(_rows(inverse), v)), "            "),
                *_assign_lines("chi", (f"two_over_h * i{i}" for i in range(6)), "            "),
            ]
        lines += [
            *(["            time = k * h"] if reads(sum_source, "time") else []),
            "            # the wrench at p_k (the predicted twist, k h) and its impulse",
            *(f"            {line}" for line in sum_source.splitlines()),
            *_assign_lines("t", (f"t{i} + impulse * tau{i}" for i in range(6)), "            "),
        ]
    twice = [f"2.0 * {x} - o{i}" for i, x in enumerate(_STEP_VARIABLES)]
    lines += [
        "            # the start 2 f_{k-1} - f_{k-2}; f_{k-1} itself at k = 1 and when that has |Phi| >= 1",
        *_assign_lines("d", twice, "            "),
        *_assign_lines("o", _STEP_VARIABLES, "            "),
        "            n = d0 * d0 + d1 * d1 + d2 * d2",
        "            if k > 1 and n < 1.0:",
        *(f"                {x} = d{i}" for i, x in enumerate(_STEP_VARIABLES)),
        f"                predicted = {order!r}",
        "            else:",
        "                n = p0 * p0 + p1 * p1 + p2 * p2",
        "                predicted = None",
        "            it = 0",
        "        elif it == max_iterations or it and rn <= tol:",
        "            # a miss, or a predicted start that crossed the fold of [A; B]",
        "            # from f_{k-1} to the root on its other side",
        f"            handoff = {_MISSED!r}",
        "            break",
        "        # a Newton update on [A; B](f_k) = t",
        *["    " + line for line in _update_body(matrix, order, lambda handoff: f"handoff = {handoff}; break")],
        "        it += 1",
        f"    return {state}, handoff",
    ]
    return "\n".join(lines) + "\n"


def _compile(source: str, name: str) -> Callable:
    """The function ``name`` of the generated ``source``, compiled with
    sqrt and nan, what a forced loop's wrench sum reads, and the packer."""
    namespace = {**SUM_NAMES, "_PACK": _PACK}
    exec(compile(source, "<dqdyn.integrator.stepping_loop>", "exec"), namespace)
    return namespace[name]


def _rows(matrix: bytes) -> list:
    """The 6x6 matrix of ``matrix``'s bytes as row lists of floats."""
    return np.frombuffer(matrix, dtype=np.float64).reshape(6, 6).tolist()


def _matrices(M: InertiaMatrix6) -> tuple:
    """The bytes of M and M^-1, the keys of the loop cache."""
    return np.asarray(M.matrix, dtype=np.float64).tobytes(), np.asarray(M.inverse, dtype=np.float64).tobytes()


@functools.lru_cache(maxsize=_LOOP_CACHE_SIZE)
def _compiled_loop(matrix: bytes, inverse: bytes, order, sum_source: Optional[str]) -> Callable:
    source = _loop_source(matrix, inverse, order, sum_source)
    loop = _compile(source, "loop")
    loop.source = source
    return loop


def stepping_loop(M: InertiaMatrix6, order, sum_source: Optional[str]) -> Callable:
    """The stepping loop of ``simulate`` for the inertia M and the pivot
    order (rows, cols), for a body under force models whose wrench sum has
    the source ``sum_source`` (``wrench_sum_kernel(models).source``) or
    free (None), generated on first use and kept in a small LRU cache keyed
    by the bytes of M and M^-1; its ``source`` attribute is its code. M^-1
    enters only a forced loop whose wrench sum reads the twist, as the
    product that gives its predicted twist.

    ``loop(k, stop, pose, f, f_prev, target, tau, it, rn, positive, side,
    predicted, table, tol, h, max_iterations, wrench)`` takes step k
    after ``it`` Newton updates: the pose p_k, the iterate f, f_{k-1}, the
    target, the wrench tau_k (None when free), the iterate's residual norm
    ``rn``, whether the pivots of the last elimination give det J > 0
    (``positive``) and whether those of step k - 1 did (``side``), and
    ``predicted``: the pivot order the step began in when it starts from
    the prediction, None when it starts from f_{k-1}. It runs the step's
    updates, each with the body of ``_update_body`` inlined, to tol or
    ``max_iterations``, then steps k + 1, k + 2, ... on locals, each with
    the lines of the wrench sum, and writes each state's pose, step
    variables, stored momentum [A; B](f) - (h^2/4) tau, residual norm and
    iteration count ``it`` into its row k of the float64 array ``table``
    (``_ROW`` columns, C order) with one ``_PACK`` call. It returns the
    state in the order of its arguments from k to ``predicted``, and a
    handoff: None at step stop - 1 solved; at a step whose update refuses
    or must be halved, the iterate the update started from, with
    ``_REFUSED`` or the update's dx; ``_MISSED`` at a step that misses tol
    after ``max_iterations`` updates, or that started from the prediction,
    took more than one update and ends with the other sign of det J than
    f_{k-1} (the caller solves a predicted start again from f_{k-1}).
    ``wrench`` is the compiled sum (None when free), whose ``calls`` the
    inlined lines call for the models that have no source.
    """
    return _compiled_loop(*_matrices(M), order, sum_source)


def _kicked(ab, tau, weight: float) -> list:
    """ab + weight * tau: a step momentum plus a share of the wrench impulse."""
    a0, a1, a2, a3, a4, a5 = ab
    t0, t1, t2, t3, t4, t5 = tau
    return [
        a0 + weight * t0, a1 + weight * t1, a2 + weight * t2, a3 + weight * t3, a4 + weight * t4, a5 + weight * t5
    ]


def _max_abs(v) -> float:
    """max |v_i|, NaN when an entry is NaN (the builtin max would skip it)."""
    s = sum(map(abs, v))  # NaN only for a NaN entry: +inf and -inf add up to inf here
    return max(map(abs, v)) if s == s else math.nan


def _pivot_order(M, f):
    """The pivot order (rows, cols) that full pivoting picks for the
    Jacobian at f, for the inertia M (row lists); None when the Jacobian is
    singular or its condition estimate exceeds ``COND_LIMIT``. The search
    reads only the entries' magnitudes, so the float formula picks the
    order, the flag and the estimate of the loop's entries."""
    _, cond, ok, order = solve_rows(_float_jacobian(M, f), [0.0] * 6)
    return None if not ok or cond > COND_LIMIT else order


def _halve(M, f, dx, target):
    """The Newton update f + dx, which would reach |Phi| >= 1, backtracked
    (halving) until the iterate keeps |Phi| < 1, for the inertia M (row
    lists). Returns (f', max |target - [A; B](f')|, status): f' is f itself
    when no halving keeps |Phi| < 1."""
    scale, status = 1.0, _STATUS_INFEASIBLE
    for _ in range(_MAX_BACKTRACK):
        scale *= 0.5
        trial = [a + scale * b for a, b in zip(f, dx)]
        if not _phi_norm2(trial) >= 1.0:
            f, status = trial, _STATUS_OK
            break
    return f, _max_abs([t - a for a, t in zip(momentum(f, _terms(M, f)), target)]), status


def _solve(M: InertiaMatrix6, source, stop: int, pose, f, target, tau, table, settings: SolverSettings, wrench):
    """Solve steps 0 to stop - 1 of a run into their rows of ``table``: step
    0 solves [A; B] = target from f at the pose ``pose`` under the wrench
    ``tau``, and the later steps are the loop's (``stepping_loop``, of the
    body's wrench sum source ``source`` and compiled sum ``wrench``).

    Every Newton iteration is an update of the loop. Full pivoting picks
    the loop's pivot order at step 0 and when an update refuses; a search
    that fails, or that returns the order whose update has just refused
    (it would refuse again), is a singular iteration. An update that must
    be halved is halved here (``_halve``), and the loop resumes. A
    predicted start that fails here or that the loop hands back as missed
    is the one restart: it is solved again from f_{k-1}, in the loop of
    the order it began in. Returns (k, f_k, iterations, residual norm,
    status) of step stop - 1, or of the step k that failed.
    """
    matrix, inverse = _matrices(M)
    rows = _rows(matrix)
    tol, h, max_iterations = settings.tolerance, settings.h, settings.max_iterations
    k, f_prev, it, rn, positive, side, predicted = 0, f, 0, None, None, None, None
    order, handoff = None, _REFUSED  # step 0 begins with the search
    while True:
        status = _STATUS_OK
        if handoff == _MISSED:
            status = _STATUS_NO_CONVERGENCE
        elif handoff == _REFUSED:
            searched = _pivot_order(rows, f)
            if searched is None or searched == order:
                it += 1
                status = _STATUS_SINGULAR
            order = searched
        else:
            f, rn, status = _halve(rows, f, handoff, target)
            it += 1
        if status != _STATUS_OK:
            if predicted is None:
                return k, f, it, rn, status
            order, f, it, predicted = predicted, f_prev, 0, None
        k, pose, f, f_prev, target, tau, it, rn, positive, side, predicted, handoff = _compiled_loop(
            matrix, inverse, order, source
        )(
            k, stop, pose, f, f_prev, target, tau, it, rn, positive, side, predicted,
            table, tol, h, max_iterations, wrench,
        )
        if handoff is None:
            return k, f, it, rn, _STATUS_OK


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
    p0, p1, p2, s0, s1, s2 = f = _as_step(step).tolist()
    g = math.sqrt(1.0 - _phi_norm2(f))
    return np.array([g, p0, p1, p2, -(s0 * p0 + s1 * p1 + s2 * p2) / g, s0, s1, s2])


def residual(step, M: InertiaMatrix6) -> tuple[Array, Array]:
    """Step momentum (A, B): rotational and translational components."""
    f = _as_step(step).tolist()
    out = np.array(momentum(f, _terms(M.matrix.tolist(), f)))
    return out[:3], out[3:]


def rhs(prev_step, M: InertiaMatrix6, wrench, h: float) -> tuple[Array, Array]:
    """Newton target (alpha, beta): transported previous momentum plus the
    wrench impulse (h^2/2) [torque; force], body frame."""
    f = _as_step(prev_step).tolist()
    tau = _wrench_body_vector(wrench).tolist()
    out = np.array(_kicked(transport(f, _terms(M.matrix.tolist(), f)), tau, 0.5 * h * h))
    return out[:3], out[3:]


def jacobian(step, M: InertiaMatrix6) -> Array:
    """Analytic d[A; B]/d[Phi; Psi]: the float formula of the entries that
    the stepping loop writes for M."""
    return np.array(_float_jacobian(M.matrix.tolist(), _as_step(step).tolist()))


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
    previous step itself, and the step runs through ``simulate``'s solver:
    a full-pivot search for the pivot order, then the loop of that order.
    """
    f_prev = _as_step(prev_step).tolist()
    tau = _wrench_body_vector(wrench).tolist()
    target = _kicked(transport(f_prev, _terms(M.matrix.tolist(), f_prev)), tau, 0.5 * settings.h * settings.h)
    # a free loop of one step, whose row (the pose is only packed) is thrown away
    _, f, it, rn, status = _solve(M, None, 1, _IDENTITY, f_prev, target, None, np.empty((1, _ROW)), settings, None)
    _raise_for_status(status, it, rn)
    return np.array(f), it, rn


def _raise_for_status(status: int, iterations: int, residual_norm: float, step_index: Optional[int] = None) -> None:
    where = "" if step_index is None else f" at step {step_index}"
    if status == _STATUS_OK:
        return
    if status == _STATUS_SINGULAR:
        raise SingularMatrixError(
            f"Newton Jacobian is singular or too ill-conditioned{where} "
            f"(iteration {iterations})",
            iterations=iterations,
            step_index=step_index,
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


def retrieve_twist(step, M: InertiaMatrix6, h: float) -> Array:
    """Body twist of the step momentum, (2/h) M^-1 [A; B]: what ``simulate``
    stores for a force-free state (under a wrench tau, this less (h/2) M^-1 tau)."""
    f = _as_step(step).tolist()
    s = 2.0 / float(h)
    return np.array([s * x for x in matvec(M.inverse.tolist(), momentum(f, _terms(M.matrix.tolist(), f)))])


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
    the previous step, samples the force models once at (p_k, (2/h) M^-1
    (T_k + (h^2/4) tau_{k-1}), k*h), with T_k the transported previous step
    momentum, and solves [A; B](f_k) = T_k + (h^2/2) tau_k. Step 1 is
    warm-started from f_0; step k >= 2 from 2 f_{k-1} - f_{k-2}, or from
    f_{k-1} when that prediction has |Phi| >= 1. A predicted solve that
    fails, or that takes more than one update and ends on the other side of
    the fold of [A; B] from f_{k-1} (det J changes sign), is solved again
    from f_{k-1}, and ``iterations`` counts that solve. A single update that
    meets tol is not checked: its residual is its own second-order term, so
    it moved about sqrt(tol), too little to cross a fold. The final state's
    step variables are solved too, which is what retrieves its twist; they
    are never applied to the pose.

    The sign of det J costs no call: it is the sign of the product of the
    six pivots of the step's last elimination, flipped when the pivot order
    (rows, cols) is an odd permutation, which is a literal of the order.
    That elimination is at the last iterate but one, not at f_k. Newton
    converges quadratically, so an update that meets tol started from a
    residual of about sqrt(tol), and the last elimination sits within about
    sqrt(tol) of the root: its sign is det J's at f_k unless the fold
    passes that close. The side of f_{k-1} is carried from step to step,
    since det J changes sign along some runs (pure_translation's, where
    every step takes one update). The argument is limited by the
    tolerance: about 1e-6 from the root at tol = 1e-12, but about 1e-2 at
    tol = 1e-4. A solve that ends closer to the fold than that can be
    guarded on the wrong sign, so it restarts a correct step or keeps the
    root on the other side, where the exact determinant would not. Every
    state of the shipped scenarios at h = 0.05 and 0.1 and tolerances
    1e-12, 1e-6 and 1e-4 has the exact sign
    (``test_loop_fold_sign_is_the_sign_of_det_j``).

    Step 0 starts with a full-pivot search for the pivot order, and the
    generated loop ``stepping_loop(M, order, wrench.source)`` of that order
    runs every Newton iteration and step, to the end of the run. The run
    holds one table, a row per state, and the loop packs each state
    and its iteration count straight into its row; the trajectory's
    columns are views of the table's (the iterations an int64 copy), so no
    Python float outlives its step. Only a step whose update refuses or
    must be halved is handed back: a refusal searches a new pivot order, a
    halving backtracks the update, and the loop resumes the step. So is a
    step that misses or crosses the fold, for the restart from f_{k-1} or
    the error.

    Each state stores the node-synchronized twist
    (2/h) M^-1 ([A; B](f_k) - (h^2/4) tau_k), the average of the step
    momenta arriving at and leaving it; the force models saw a twist O(h^2)
    from it. The loop keeps the bracketed momenta and retrieves all twists
    after it, with the bits of a per-state ``matvec``.
    """
    p0 = np.ascontiguousarray(check_pose(pose0))
    chi0 = finite_vector6(twist0, "twist")
    n_steps = as_count(n_steps, "n_steps", 0)
    h = settings.h
    f = initial_guess(chi0, h).tolist()  # fails fast on a step rotation >= 180 degrees
    force_models = list(forces)

    n = n_steps + 1
    # row k: p_k, f_k, [A; B](f_k) - (h^2/4) tau_k (the stored twist's momentum), residual norm, iterations
    table = np.empty((n, _ROW))
    pose = p0.tolist()
    target = [0.5 * h * x for x in matvec(M.matrix.tolist(), chi0.tolist())]
    wrench = source = tau = None
    if force_models:
        wrench = wrench_sum_kernel(force_models)
        source = wrench.source
        tau = wrench(pose, chi0.tolist(), 0.0)
        target = _kicked(target, tau, 0.25 * h * h)
    k, _, it, rn, status = _solve(M, source, n, pose, f, target, tau, table, settings, wrench)
    _raise_for_status(status, it, rn, k)

    times = np.arange(n) * h
    return Trajectory.from_raw(
        times=times,
        poses=table[:, :8],
        twists=np.multiply(2.0 / h, matvec_stack(M.inverse, table[:, 14:20]).T, order="C"),
        inertia=M,
        force_models=force_models,
        steps=table[:, 8:14],
        iterations=table[:, 21].astype(np.int64),
        residual_norms=table[:, 20],
    )
