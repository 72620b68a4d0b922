"""Dense 6x6 linear solves: the Newton steps and the inertia's inverse.

``solve_rows`` is Gaussian elimination with full pivoting: it searches every
pivot, is deterministic across platforms, and the pivot sequence gives a
free growth-based condition estimate, the ratio of the first to the last
pivot magnitude. The estimate is crude (a lower bound on the true condition
number up to modest factors) but is exactly what the step-abort rule needs.

The order it returns, the original row and column of each pivot, is all
the integrator takes from it: the integrator generates its stepping loop
for that order (``integrator.stepping_loop``), and each Newton update the
loop inlines repeats this elimination for it without the search. The
Newton Jacobian stays close to M from step to step, so that order keeps
working; the integrator searches again only when an update refuses it.
"""

import math

import numpy as np

from .errors import ValidationError
from .quat import Array

COND_LIMIT = 1e12


def matvec(rows, v) -> list:
    """A v for the 6x6 matrix A given by its rows, summed left to right."""
    v0, v1, v2, v3, v4, v5 = v
    return [m0 * v0 + m1 * v1 + m2 * v2 + m3 * v3 + m4 * v4 + m5 * v5 for m0, m1, m2, m3, m4, m5 in rows]


def matvec_stack(A, X) -> Array:
    """A x for each 6-vector x along the last axis of X (any leading axes),
    entries first (row i holds entry i of every product, so each of the
    eleven numpy operations loops over the vectors). Each entry is summed
    left to right like ``matvec``, so each vector gets its bits."""
    A = np.asarray(A, dtype=np.float64)
    X = np.asarray(X, dtype=np.float64)
    if X.shape[-1:] != (6,):
        raise ValidationError(f"expected 6-vectors along the last axis, got shape {X.shape}")
    out = np.multiply.outer(A[:, 0], X[..., 0])
    for j in range(1, 6):
        out += np.multiply.outer(A[:, j], X[..., j])
    return out


def solve_rows(U: list, y: list):
    """Solve U x = y on row lists of Python floats.

    Returns (x, cond_estimate, ok, order). U (a list of n row lists) and y
    are eliminated in place. ok is False when elimination hits an exactly
    zero pivot block; x is meaningless in that case. Pivots are taken in
    row-major order of first occurrence, and no exceptions are raised, so
    the step loop can act on the flag. order is (rows, cols): the original
    row and column of the k-th pivot, as tuples.
    """
    n = len(U)
    rperm = list(range(n))
    perm = list(range(n))
    for k in range(n):
        pr = pc = k
        best = -1.0
        for i in range(k, n):
            row = U[i]
            for j in range(k, n):
                v = abs(row[j])
                if v > best:
                    best = v
                    pr = i
                    pc = j
        if best <= 0.0:
            return y, math.inf, False, (tuple(rperm), tuple(perm))
        if pr != k:
            U[k], U[pr] = U[pr], U[k]
            y[k], y[pr] = y[pr], y[k]
            rperm[k], rperm[pr] = rperm[pr], rperm[k]
        if pc != k:
            for row in U:
                row[k], row[pc] = row[pc], row[k]
            perm[k], perm[pc] = perm[pc], perm[k]
        prow = U[k]
        piv = prow[k]
        yk = y[k]
        for i in range(k + 1, n):
            row = U[i]
            m = row[k] / piv
            if m != 0.0:
                row[k] = 0.0
                for j in range(k + 1, n):
                    row[j] -= m * prow[j]
                y[i] -= m * yk
    z = [0.0] * n
    for i in range(n - 1, -1, -1):
        row = U[i]
        s = y[i]
        for j in range(i + 1, n):
            s -= row[j] * z[j]
        z[i] = s / row[i]
    x = [0.0] * n
    for k in range(n):
        x[perm[k]] = z[k]
    return x, abs(U[0][0]) / abs(U[n - 1][n - 1]), True, (tuple(rperm), tuple(perm))


def solve_full_pivot(A: Array, b: Array):
    """Solve A x = b for arrays; ``solve_rows`` on copies. Returns (x, cond_estimate, ok)."""
    x, cond, ok, _ = solve_rows(np.asarray(A, dtype=np.float64).tolist(), np.asarray(b, dtype=np.float64).tolist())
    return np.array(x), cond, ok
