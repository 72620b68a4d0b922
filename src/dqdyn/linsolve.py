"""Dense linear solve by Gaussian elimination with full pivoting.

Used for the 6x6 Newton systems. Full (row and column) pivoting costs little
at this size, is deterministic across platforms, and the pivot sequence gives
a free growth-based condition estimate: the ratio of the first to the last
pivot magnitude. The estimate is crude (a lower bound on the true condition
number up to modest factors) but is exactly what the step-abort rule needs.
"""

import math

import numpy as np

from .errors import SingularMatrixError
from .quat import Array

COND_LIMIT = 1e12


def solve_rows(U: list, y: list):
    """Solve U x = y on row lists of Python floats. Returns (x, cond_estimate, ok).

    U (a list of n row lists) and y are eliminated in place. ok is False when
    elimination hits an exactly zero pivot block; x is meaningless in that
    case. Pivots are taken in row-major order of first occurrence, and no
    exceptions are raised, so the step loop can act on the flag.
    """
    n = len(U)
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
            return y, math.inf, False
        if pr != k:
            U[k], U[pr] = U[pr], U[k]
            y[k], y[pr] = y[pr], y[k]
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
    return x, abs(U[0][0]) / abs(U[n - 1][n - 1]), True


def solve_full_pivot(A: Array, b: Array):
    """Solve A x = b for arrays; ``solve_rows`` on copies. Returns (x, cond_estimate, ok)."""
    x, cond, ok = solve_rows(np.asarray(A, dtype=np.float64).tolist(), np.asarray(b, dtype=np.float64).tolist())
    return np.array(x), cond, ok


def solve_linear(A, b, cond_limit: float = COND_LIMIT) -> Array:
    """Validated solve; raises SingularMatrixError on singular or
    condition-estimate-above-limit systems."""
    A = np.ascontiguousarray(np.asarray(A, dtype=np.float64))
    b = np.ascontiguousarray(np.asarray(b, dtype=np.float64))
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise SingularMatrixError(f"matrix must be square, got shape {A.shape}")
    if b.shape != (A.shape[0],):
        raise SingularMatrixError(f"rhs shape {b.shape} does not match matrix {A.shape}")
    x, cond, ok = solve_full_pivot(A, b)
    if not ok:
        raise SingularMatrixError("matrix is singular (zero pivot)")
    if not np.isfinite(cond) or cond > cond_limit:
        raise SingularMatrixError(
            f"matrix condition estimate {cond:.3e} exceeds limit {cond_limit:.1e}"
        )
    return x
