"""Independent reference implementations used as test oracles.

Everything here is deliberately written through different routes than the
package code: matrix representations of quaternion multiplication, 4x4
homogeneous transforms, truncated exponential series, and point-mass clouds.
"""

import numpy as np


def hamilton_matrix(q):
    """4x4 left-multiplication matrix: hamilton_matrix(q1) @ q2 == q1*q2."""
    w, x, y, z = q
    return np.array(
        [
            [w, -x, -y, -z],
            [x, w, -z, y],
            [y, z, w, -x],
            [z, -y, x, w],
        ]
    )


def quat_mul_oracle(q1, q2):
    return hamilton_matrix(q1) @ np.asarray(q2, dtype=float)


def quat_conj_oracle(q):
    return np.array([q[0], -q[1], -q[2], -q[3]], dtype=float)


def dq_mul_oracle(p1, p2):
    """Dual quaternion product via the epsilon expansion with matrix products."""
    a1, b1 = p1[:4], p1[4:]
    a2, b2 = p2[:4], p2[4:]
    real = quat_mul_oracle(a1, a2)
    dual = quat_mul_oracle(a1, b2) + quat_mul_oracle(b1, a2)
    return np.concatenate([real, dual])


def dq_series_exp_oracle(eta, terms=30):
    """exp as a truncated power series, using only dq_mul_oracle."""
    ident = np.zeros(8)
    ident[0] = 1.0
    acc = ident.copy()
    term = ident.copy()
    for k in range(1, terms + 1):
        term = dq_mul_oracle(term, eta) / k
        acc = acc + term
    return acc


def quat_to_matrix_oracle(q):
    """Rotation matrix of a unit quaternion, textbook component formula."""
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def pose_translation_oracle(p):
    """Translation vector 2 * (dual * conj(real)) of a unit dual quaternion."""
    t = 2.0 * quat_mul_oracle(p[4:], quat_conj_oracle(p[:4]))
    return t[1:]


def pose_to_homogeneous_oracle(p):
    """4x4 homogeneous transform of a unit dual quaternion pose."""
    T = np.eye(4)
    T[:3, :3] = quat_to_matrix_oracle(p[:4])
    T[:3, 3] = pose_translation_oracle(p)
    return T


def make_pose_oracle(q, l):
    """Unit dual quaternion from rotation q and translation l (independent route)."""
    q = np.asarray(q, dtype=float)
    l = np.asarray(l, dtype=float)
    dual = 0.5 * quat_mul_oracle(np.array([0.0, *l]), q)
    return np.concatenate([q, dual])


def skew(v):
    return np.array(
        [
            [0.0, -v[2], v[1]],
            [v[2], 0.0, -v[0]],
            [-v[1], v[0], 0.0],
        ]
    )


def step_jacobian_oracle(f, M):
    """d[A; B]/d[Phi; Psi] in block matrix form:

        J = [[R, S(Psi) - (c/gamma) I], [0, R]] M - C,    R = gamma I + S(Phi),
        C = [[u x^T + w y^T + S(w), u y^T + S(u)], [u y^T + S(u), 0]],

    with [w; u] = M f, y = Phi / gamma and x = (gamma^2 Psi + c Phi) / gamma^3.
    """
    f = np.asarray(f, dtype=float)
    M = np.asarray(M, dtype=float)
    phi, psi = f[:3], f[3:]
    gamma = np.sqrt(1.0 - phi @ phi)
    c = psi @ phi
    w, u = np.split(M @ f, 2)
    x = (gamma**2 * psi + c * phi) / gamma**3
    y = phi / gamma
    R = gamma * np.eye(3) + skew(phi)
    top = np.hstack([R, skew(psi) - (c / gamma) * np.eye(3)])
    bottom = np.hstack([np.zeros((3, 3)), R])
    k = np.outer(u, y) + skew(u)
    C = np.block([[np.outer(u, x) + np.outer(w, y) + skew(w), k], [k, np.zeros((3, 3))]])
    return np.vstack([top, bottom]) @ M - C


def point_cloud(mass, inertia_cm, com):
    """Point masses with the requested total mass, center of mass, and
    central inertia tensor. inertia_cm must be physically realizable
    (eigenvalues satisfying the triangle inequalities)."""
    inertia_cm = np.asarray(inertia_cm, dtype=float)
    evals, evecs = np.linalg.eigh(inertia_cm)
    # lam_i = (m/3) * sum of the other two squared semi-axes
    sq = 3.0 / (2.0 * mass) * np.array(
        [
            -evals[0] + evals[1] + evals[2],
            evals[0] - evals[1] + evals[2],
            evals[0] + evals[1] - evals[2],
        ]
    )
    if np.any(sq < -1e-12):
        raise ValueError("inertia tensor is not realizable by a point cloud")
    sq = np.clip(sq, 0.0, None)
    axes = np.sqrt(sq)
    pts = []
    for i in range(3):
        d = axes[i] * evecs[:, i]
        pts.append(com + d)
        pts.append(com - d)
    masses = np.full(6, mass / 6.0)
    return masses, np.array(pts)


def cloud_kinetic_energy(masses, points, omega, v):
    """Kinetic energy of point masses rigidly attached to the body frame:
    each point moves at v + omega x rho (body-frame reference-point twist)."""
    total = 0.0
    for m_i, rho in zip(masses, points):
        vel = np.asarray(v, dtype=float) + np.cross(omega, rho)
        total += 0.5 * m_i * float(vel @ vel)
    return total
