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
arrays, with ``as_floats`` as the conversion. ``dq_log_parts`` and
``dq_log`` are the same pair for the logarithm.
"""

import math

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


def finite_vector6(v, what: str) -> Array:
    """v as a float64 6-vector; any other shape or a non-finite entry raises."""
    v = np.ascontiguousarray(v, dtype=np.float64)
    if v.shape != (6,):
        raise ValidationError(f"{what} must have shape (6,), got {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValidationError(f"{what} has non-finite entries")
    return v


def pure_quaternion(v) -> Array:
    """Quaternion with zero scalar part and vector part v."""
    return np.array([0.0, *as_vector3(v)])


def quat_identity() -> Array:
    return np.array([1.0, 0.0, 0.0, 0.0])


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
    """Hamilton product q1 ∘ q2 (scalar-first)."""
    out = np.empty(4)
    out[0] = q1[0] * q2[0] - q1[1] * q2[1] - q1[2] * q2[2] - q1[3] * q2[3]
    out[1] = q1[0] * q2[1] + q1[1] * q2[0] + q1[2] * q2[3] - q1[3] * q2[2]
    out[2] = q1[0] * q2[2] - q1[1] * q2[3] + q1[2] * q2[0] + q1[3] * q2[1]
    out[3] = q1[0] * q2[3] + q1[1] * q2[2] - q1[2] * q2[1] + q1[3] * q2[0]
    return out


def quat_conjugate(q: Array) -> Array:
    """q† : negate the vector part."""
    out = np.empty(4)
    out[0] = q[0]
    out[1] = -q[1]
    out[2] = -q[2]
    out[3] = -q[3]
    return out


def quat_norm(q: Array) -> float:
    return math.sqrt(q[0] * q[0] + q[1] * q[1] + q[2] * q[2] + q[3] * q[3])


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


def quat_exp(q: Array) -> Array:
    """Quaternion exponential exp(w) * [cos|v|, sinc(|v|) v]."""
    theta = math.sqrt(q[1] * q[1] + q[2] * q[2] + q[3] * q[3])
    s = _sinc(theta)
    ew = math.exp(q[0])
    out = np.empty(4)
    out[0] = ew * math.cos(theta)
    out[1] = ew * s * q[1]
    out[2] = ew * s * q[2]
    out[3] = ew * s * q[3]
    return out


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
    """(a0, a1, a2, b0, b1, b2) of log p = [0, a, 0, b] for a unit dual
    quaternion given as an 8-sequence of Python floats: the kernel of dq_log.

    The sign is canonicalised toward p[0] >= 0 first, as dq_log documents.
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


def dq_log(p) -> Array:
    """Principal logarithm of a unit dual quaternion, as a pure dual quaternion.

    The sign ambiguity of the double cover is resolved toward a non-negative
    real scalar, so dq_exp(dq_log(p)) reproduces p (or -p when p[0] < 0) and
    the rotation half-angle |log real part| stays in [0, pi/2].
    """
    p = np.asarray(p, dtype=np.float64)
    if p.shape != (8,):
        raise ValidationError(f"dual quaternion must have shape (8,), got {p.shape}")
    a0, a1, a2, b0, b1, b2 = dq_log_parts(p.tolist())
    return np.array([0.0, a0, a1, a2, 0.0, b0, b1, b2])
