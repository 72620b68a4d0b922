"""Quaternion and dual quaternion algebra on raw float64 arrays.

Conventions used across the whole package:

* quaternion: shape (4,), scalar first, ``[w, x, y, z]``
* dual quaternion: shape (8,), real part in ``[0:4]``, dual part in ``[4:8]``
* a "pure" (dual) quaternion has zero scalar slot(s)

Nothing in this module renormalizes. Constraint drift of unit dual
quaternions produced by long products is a quantity callers measure, not
something the algebra hides.

``dq_product`` is the dual quaternion product on Python floats that the
integrator's step loop and the force models use; ``dq_mul`` wraps it for
arrays, with ``as_floats`` as the conversion. ``dq_log_parts`` is the
logarithm on Python floats, which ``kinematics.pose_distance`` reads.
``Traced`` turns such a float function into source text: all generated
code, the integrator's stepping loop and the force models' wrench sum, is
written by calling the float formulas on it (``dq_product``, ``cross``,
``linsolve.matvec``, the integrator's momentum and Jacobian), so each
formula keeps one definition.
"""

import math
import numbers

import numpy as np

from .errors import ValidationError

Array = np.ndarray

# Below this angle the sinc-like series switch to 2-term Taylor expansions.
SMALL_ANGLE = 1e-8

# How far off the unit group a validator lets a quaternion or pose be.
UNIT_TOL = 1e-9


# ---------------------------------------------------------------------------
# constructors / validators (plain Python; allocate fresh float64 arrays)
# ---------------------------------------------------------------------------

def quaternion(w: float, x: float, y: float, z: float) -> Array:
    """Quaternion [w, x, y, z] as a float64 array."""
    return np.array([w, x, y, z], dtype=np.float64)


def as_floats(v) -> list:
    """v as a list of Python floats: the form the float kernels read."""
    return np.asarray(v, dtype=np.float64).tolist()


def as_vector3(v, what: str = "vector part") -> list:
    """v as three Python floats; any other shape raises."""
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (3,):
        raise ValidationError(f"{what} must have shape (3,), got {v.shape}")
    return v.tolist()


def as_count(value, what: str, minimum: int) -> int:
    """value as an int of at least ``minimum``. A bool, a value that is not
    an integer (a float or a string too) or a smaller one raises a
    ValidationError naming ``what``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValidationError(f"{what} must be an integer, got {value!r}")
    if value < minimum:
        raise ValidationError(f"{what} must be >= {minimum}, got {value}")
    return int(value)


def finite_vector6(v, what: str) -> Array:
    """v as a float64 6-vector; any other shape or a non-finite entry raises."""
    v = np.ascontiguousarray(v, dtype=np.float64)
    if v.shape != (6,):
        raise ValidationError(f"{what} must have shape (6,), got {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValidationError(f"{what} has non-finite entries")
    return v


def unit_quaternion(q) -> Array:
    """Validate and return q as a float64 unit quaternion (no renormalizing)."""
    q = np.asarray(q, dtype=np.float64)
    if q.shape != (4,):
        raise ValidationError(f"quaternion must have shape (4,), got {q.shape}")
    n = math.sqrt(float(q @ q))
    if not (abs(n - 1.0) <= UNIT_TOL):  # written so that NaN fails
        raise ValidationError(f"quaternion norm {n!r} differs from 1 by more than {UNIT_TOL}")
    return q


def pure_dual_quaternion(a, b) -> Array:
    """Pure dual quaternion [0, a, 0, b] from two 3-vectors."""
    return np.array([0.0, *as_vector3(a, "a"), 0.0, *as_vector3(b, "b")])


def check_pure_dual(eta) -> Array:
    """Validate the two scalar slots of eta are exactly zero."""
    eta = np.asarray(eta, dtype=np.float64)
    if eta.shape != (8,):
        raise ValidationError(f"dual quaternion must have shape (8,), got {eta.shape}")
    if not (eta[0] == 0.0 and eta[4] == 0.0):  # written so that NaN fails
        raise ValidationError(
            f"expected a pure dual quaternion, scalar slots are ({eta[0]!r}, {eta[4]!r})"
        )
    return eta


# ---------------------------------------------------------------------------
# quaternion algebra
# ---------------------------------------------------------------------------

def quat_mul(q1: Array, q2: Array) -> Array:
    """Hamilton product q1 ∘ q2 (scalar-first): the real part of
    ``dq_product`` of the two with zero dual parts."""
    zero = (0.0, 0.0, 0.0, 0.0)
    return np.array(dq_product((*as_floats(q1), *zero), (*as_floats(q2), *zero))[:4])


def quat_conjugate(q: Array) -> Array:
    """q† : negate the vector part."""
    out = np.empty(4)
    out[0] = q[0]
    out[1] = -q[1]
    out[2] = -q[2]
    out[3] = -q[3]
    return out


def _sinc(theta: float) -> float:
    # sin(theta)/theta, Taylor branch below SMALL_ANGLE
    if theta < SMALL_ANGLE:
        return 1.0 - theta * theta / 6.0
    return math.sin(theta) / theta


def _dsinc_over_theta(theta: float) -> float:
    # g(theta) = (theta*cos(theta) - sin(theta)) / theta^3, the derivative
    # term of the dual-number expansion; Taylor branch below SMALL_ANGLE
    if theta < SMALL_ANGLE:
        return -1.0 / 3.0 + theta * theta / 30.0
    return (theta * math.cos(theta) - math.sin(theta)) / (theta * theta * theta)


# ---------------------------------------------------------------------------
# dual quaternion algebra
# ---------------------------------------------------------------------------

def dq_product(p1, p2) -> tuple:
    """Dual quaternion product (a1 + eps b1)(a2 + eps b2) of two 8-sequences of
    Python floats, as a tuple: the form the integrator's step loop uses."""
    a0, a1, a2, a3, b0, b1, b2, b3 = p1
    c0, c1, c2, c3, d0, d1, d2, d3 = p2
    return (
        a0 * c0 - a1 * c1 - a2 * c2 - a3 * c3,
        a0 * c1 + a1 * c0 + a2 * c3 - a3 * c2,
        a0 * c2 - a1 * c3 + a2 * c0 + a3 * c1,
        a0 * c3 + a1 * c2 - a2 * c1 + a3 * c0,
        (a0 * d0 - a1 * d1 - a2 * d2 - a3 * d3) + (b0 * c0 - b1 * c1 - b2 * c2 - b3 * c3),
        (a0 * d1 + a1 * d0 + a2 * d3 - a3 * d2) + (b0 * c1 + b1 * c0 + b2 * c3 - b3 * c2),
        (a0 * d2 - a1 * d3 + a2 * d0 + a3 * d1) + (b0 * c2 - b1 * c3 + b2 * c0 + b3 * c1),
        (a0 * d3 + a1 * d2 - a2 * d1 + a3 * d0) + (b0 * c3 + b1 * c2 - b2 * c1 + b3 * c0),
    )


def cross(a, b) -> tuple:
    """a x b on 3-sequences of floats (or of float columns, or of ``Traced``
    values), in np.cross's operation order."""
    return a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]


def _is_zero(x) -> bool:
    return not isinstance(x, Traced) and x == 0.0


class Traced:
    """A float expression in source form: a float function called on these
    records +, -, * and unary minus as operations, in its order, and
    ``text`` is their source, parenthesized where Python would regroup it.

    A float operand is written as its ``repr`` (``inf`` and ``nan`` by
    name). Zeros fold: a product with a zero is the float 0.0 and a zero
    drops out of a sum, which keeps the bits of the full expression up to
    the sign of a zero result for finite operands (x * 0.0 is +-0.0, and
    x + +-0.0 == x for x != 0). An operand that must not fold, such as a
    0.0 added to turn a -0.0 sum into +0.0, is an atom: ``Traced("0.0")``.
    The other folds are exact in IEEE 754 up to the sign and payload of a
    NaN, which the standard leaves open: x * 1.0 is x, x * -1.0 is -x,
    (-x) * c is x * -c for a float c, a + (-y) is a - y, a - (-y) is
    a + y and -(-x) is x. ``traced_lines`` writes an operation that
    several places read once.
    """

    __slots__ = ("op", "args", "level")

    # level: 1 a sum, 2 a product, 3 a unary minus (or a negative literal), 4 an atom
    def __init__(self, text: str, level: int = 4):  # an atom: a name or a literal
        self.op, self.args, self.level = None, (text,), level

    @staticmethod
    def _node(op: str, level: int, args: tuple) -> "Traced":
        node = Traced.__new__(Traced)
        node.op, node.args, node.level = op, args, level
        return node

    @staticmethod
    def of(x) -> "Traced":
        """x itself, or the float x as a literal."""
        if isinstance(x, Traced):
            return x
        text = repr(float(x))
        return Traced(text, 3 if text.startswith("-") else 4)

    @property
    def text(self) -> str:
        return _render(self, {})[0]

    def __add__(self, other):
        return self if _is_zero(other) else _sum(self, "+", Traced.of(other))

    def __radd__(self, other):
        return self if _is_zero(other) else _sum(Traced.of(other), "+", self)

    def __sub__(self, other):
        return self if _is_zero(other) else _sum(self, "-", Traced.of(other))

    def __rsub__(self, other):
        return -self if _is_zero(other) else _sum(Traced.of(other), "-", self)

    def __mul__(self, other):
        return _product(self, other, False)

    def __rmul__(self, other):
        return _product(self, other, True)

    def __neg__(self):
        if self.op == "neg":
            return self.args[0]
        if self.op is None and self.level == 3:  # a negative literal
            return Traced(self.args[0][1:])
        return Traced._node("neg", 3, (self,))


def _sum(a: Traced, op: str, b: Traced) -> Traced:
    """a + b or a - b; a + (-y) is a - y and a - (-y) is a + y."""
    if b.op == "neg":
        return Traced._node("-" if op == "+" else "+", 1, (a, b.args[0]))
    return Traced._node(op, 1, (a, b))


def _product(x: Traced, c, reflected: bool):
    """x * c, or c * x when ``reflected``, with the folds of a float c."""
    if not isinstance(c, Traced):
        if c == 0.0:
            return 0.0
        if c == 1.0:
            return x
        if c == -1.0:
            return -x
        if x.op == "neg":
            return _product(x.args[0], -c, reflected)
    c = Traced.of(c)
    return Traced._node("*", 2, (c, x) if reflected else (x, c))


def _render(x: Traced, names: dict) -> tuple:
    """(source, level) of x, with the operations in ``names`` (by id) read
    from their names."""
    if id(x) in names:
        return names[id(x)], 4
    if x.op is None:
        return x.args[0], x.level
    if x.op == "neg":
        text, level = _render(x.args[0], names)
        return (f"-{text}" if level > 3 else f"-({text})"), 3
    left, left_level = _render(x.args[0], names)
    right, right_level = _render(x.args[1], names)
    left = left if left_level >= x.level else f"({left})"
    right = right if right_level > x.level else f"({right})"
    return f"{left} {x.op} {right}", x.level


def traced_lines(values, prefix: str) -> tuple:
    """(lines, sources) of a sequence of ``Traced`` values and floats: the
    lines bind, in dependency order, each operation that the values read
    from more than one place to ``{prefix}{n}``, so it runs once; each
    value's source reads those names, and a float stays a float."""
    uses, order = {}, []

    def visit(x):  # an operation, and the operations it reads, in post-order
        count = uses[id(x)] = uses.get(id(x), 0) + 1
        if count == 1:
            for a in x.args:
                if a.op is not None:
                    visit(a)
            order.append(x)

    for x in values:
        if isinstance(x, Traced) and x.op is not None:
            visit(x)
    names, lines = {}, []
    for x in order:
        if uses[id(x)] > 1:
            text = _render(x, names)[0]
            names[id(x)] = f"{prefix}{len(names)}"
            lines.append(f"{names[id(x)]} = {text}")
    return lines, [_render(x, names)[0] if isinstance(x, Traced) else x for x in values]


def dq_mul(p1: Array, p2: Array) -> Array:
    """Dual quaternion product: (a1 + eps b1)(a2 + eps b2)."""
    return np.array(dq_product(as_floats(p1), as_floats(p2)))


def dq_quat_conjugate(p: Array) -> Array:
    """p† : quaternion-conjugate both parts (reverses products)."""
    out = np.empty(8)
    out[:4] = quat_conjugate(p[:4])
    out[4:] = quat_conjugate(p[4:])
    return out


def dq_dual_transpose(p: Array) -> Array:
    """p* : swap real and dual parts (an involution; distributes over ∘)."""
    out = np.empty(8)
    out[:4] = p[4:]
    out[4:] = p[:4]
    return out


def _dq_exp_parts(a: Array, b: Array) -> Array:
    # exp of the pure dual quaternion [0, a, 0, b], closed form.
    # real = [cos t, sinc(t) a], t = |a|
    # dual = [-(a.b) sinc(t), (a.b) g(t) a + sinc(t) b]
    t = math.sqrt(a[0] * a[0] + a[1] * a[1] + a[2] * a[2])
    s = _sinc(t)
    g = _dsinc_over_theta(t)
    ab = a[0] * b[0] + a[1] * b[1] + a[2] * b[2]
    out = np.empty(8)
    out[0] = math.cos(t)
    out[1] = s * a[0]
    out[2] = s * a[1]
    out[3] = s * a[2]
    out[4] = -ab * s
    out[5] = ab * g * a[0] + s * b[0]
    out[6] = ab * g * a[1] + s * b[1]
    out[7] = ab * g * a[2] + s * b[2]
    return out


def dq_exp(eta) -> Array:
    """Exponential of a pure dual quaternion; always lands on the unit group.

    The result satisfies |real| = 1 and real · dual = 0 identically (up to
    roundoff), for any input magnitude.
    """
    eta = check_pure_dual(eta)
    return _dq_exp_parts(np.ascontiguousarray(eta[1:4]), np.ascontiguousarray(eta[5:8]))


def dq_log_parts(p) -> tuple:
    """(a0, a1, a2, b0, b1, b2) of the principal logarithm log p = [0, a,
    0, b] of a unit dual quaternion given as an 8-sequence of Python floats.

    The sign ambiguity of the double cover is resolved toward a non-negative
    real scalar first, so exp(log p) reproduces p (or -p when p[0] < 0) and
    the rotation half-angle |a| stays in [0, pi/2].
    """
    p0, p1, p2, p3, p4, p5, p6, p7 = p
    if p0 < 0.0:
        p0, p1, p2, p3, p4, p5, p6, p7 = -p0, -p1, -p2, -p3, -p4, -p5, -p6, -p7
    theta = math.atan2(math.sqrt(p1 * p1 + p2 * p2 + p3 * p3), p0)
    s = _sinc(theta)
    g = _dsinc_over_theta(theta)
    a0, a1, a2 = p1 / s, p2 / s, p3 / s
    abg = -p4 / s * g
    return a0, a1, a2, (p5 - abg * a0) / s, (p6 - abg * a1) / s, (p7 - abg * a2) / s
