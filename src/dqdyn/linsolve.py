"""Dense 6x6 linear solves for the Newton steps.

``solve_rows`` is Gaussian elimination with full pivoting: it searches every
pivot, is deterministic across platforms, and the pivot sequence gives a
free growth-based condition estimate, the ratio of the first to the last
pivot magnitude. The estimate is crude (a lower bound on the true condition
number up to modest factors) but is exactly what the step-abort rule needs.

``solve_ordered`` runs the same elimination for a pivot order given in
advance, the one a searched call returned. The Newton Jacobian stays close
to M from step to step, so that order keeps working, and the straight-line
code skips both the search and the list loops. It gives up (returns None)
on an exactly zero pivot, on a multiplier above ``MULTIPLIER_LIMIT`` in
magnitude (threshold pivoting with u = 0.1, which keeps element growth
bounded; Higham, Accuracy and Stability of Numerical Algorithms, ch. 9) and
on an estimate above ``COND_LIMIT``; the caller then searches again. For
the same order both perform the same float operations in the same order,
so they return the same bits.
"""

import math

import numpy as np

from .quat import Array

COND_LIMIT = 1e12
# largest |multiplier| solve_ordered accepts: threshold pivoting with u = 1/10
MULTIPLIER_LIMIT = 10.0


def matvec(rows, v) -> list:
    """A v for the 6x6 matrix A given by its rows, summed left to right."""
    v0, v1, v2, v3, v4, v5 = v
    return [m0 * v0 + m1 * v1 + m2 * v2 + m3 * v3 + m4 * v4 + m5 * v5 for m0, m1, m2, m3, m4, m5 in rows]


def solve_rows(U: list, y: list):
    """Solve U x = y on row lists of Python floats.

    Returns (x, cond_estimate, ok, order). U (a list of n row lists) and y
    are eliminated in place. ok is False when elimination hits an exactly
    zero pivot block; x is meaningless in that case. Pivots are taken in
    row-major order of first occurrence, and no exceptions are raised, so
    the step loop can act on the flag. order is (rows, cols): the original
    row and column of the k-th pivot, as tuples, for ``solve_ordered``.
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


def _ordered_source(n: int) -> str:
    """Source of ``solve_ordered`` for n x n systems (n < 10): solve_rows'
    elimination and back-substitution for a fixed pivot order, one
    operation per line, plus the checks that make it refuse."""
    idx = range(n)
    a = [[f"a{i}{j}" for j in idx] for i in idx]
    lines = [
        "def solve_ordered(J, y, order):",
        '    """Solve J x = y with the k-th pivot at (rows[k], cols[k]), order = (rows, cols).',
        "    Returns (x, cond_estimate), or None when a pivot is zero, a |multiplier| exceeds",
        '    MULTIPLIER_LIMIT or the estimate exceeds COND_LIMIT. J and y are only read."""',
        "    rows, cols = order",
        f"    {', '.join(f'c{j}' for j in idx)} = cols",
    ]
    for i in idx:
        lines += [f"    r = J[rows[{i}]]", f"    {', '.join(a[i])} = {', '.join(f'r[c{j}]' for j in idx)}"]
    lines.append(f"    {', '.join(f'y{i}' for i in idx)} = {', '.join(f'y[rows[{i}]]' for i in idx)}")
    for k in idx:
        lines += [f"    if {a[k][k]} == 0.0:", "        return None"]
        for i in range(k + 1, n):
            lines += [
                f"    m = {a[i][k]} / {a[k][k]}",
                "    if m != 0.0:",  # solve_rows skips these rows too; the sign of a zero would differ
                f"        if not {-MULTIPLIER_LIMIT!r} <= m <= {MULTIPLIER_LIMIT!r}:",
                "            return None",
            ]
            lines += [f"        {a[i][j]} -= m * {a[k][j]}" for j in range(k + 1, n)] + [f"        y{i} -= m * y{k}"]
    last = a[n - 1][n - 1]
    lines += [f"    cond = abs(a00) / abs({last})", f"    if not cond <= {COND_LIMIT!r}:", "        return None"]
    for i in reversed(idx):
        s = "".join(f" - {a[i][j]} * z{j}" for j in range(i + 1, n))
        lines.append(f"    z{i} = (y{i}{s}) / {a[i][i]}")
    lines += [f"    x = [0.0] * {n}"] + [f"    x[c{k}] = z{k}" for k in idx] + ["    return x, cond"]
    return "\n".join(lines) + "\n"


# The generated 6x6 solver, kept as text so it can be read (print it).
ORDERED_SOURCE = _ordered_source(6)
_generated = {"__name__": __name__}
exec(compile(ORDERED_SOURCE, "<dqdyn.linsolve.ORDERED_SOURCE>", "exec"), _generated)
solve_ordered = _generated["solve_ordered"]


def solve_full_pivot(A: Array, b: Array):
    """Solve A x = b for arrays; ``solve_rows`` on copies. Returns (x, cond_estimate, ok)."""
    x, cond, ok, _ = solve_rows(np.asarray(A, dtype=np.float64).tolist(), np.asarray(b, dtype=np.float64).tolist())
    return np.array(x), cond, ok
