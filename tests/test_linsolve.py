"""Pivoted solver against numpy.linalg and crafted singular systems, and the
integrator's generated Newton update, which repeats its elimination for a
given pivot order, against it."""

import math

import numpy as np
import pytest
from test_integrator import loop_entries, mixed_inertias, random_step

from dqdyn import integrator
from dqdyn.dynamics import build_inertia, build_inertia_raw
from dqdyn.errors import ValidationError
from dqdyn.linsolve import COND_LIMIT, matvec, matvec_stack, solve_full_pivot, solve_rows

IDENTITY_ORDER = (tuple(range(6)), tuple(range(6)))


def test_matches_numpy_on_random_systems(rng):
    for _ in range(200):
        n = int(rng.integers(1, 9))
        A = rng.normal(size=(n, n))
        b = rng.normal(size=n)
        if abs(np.linalg.det(A)) < 1e-6:
            continue
        x, cond, ok = solve_full_pivot(A, b)
        assert ok and 0.0 < cond <= COND_LIMIT
        np.testing.assert_allclose(x, np.linalg.solve(A, b), rtol=1e-9, atol=1e-12)


def test_residual_is_small(rng):
    for _ in range(100):
        A = rng.normal(size=(6, 6))
        b = rng.normal(size=6)
        x, cond, ok = solve_full_pivot(A, b)
        assert ok and 0.0 < cond <= COND_LIMIT
        assert np.linalg.norm(A @ x - b) < 1e-11 * max(1.0, np.linalg.norm(b))


def test_permutation_matrix():
    P = np.zeros((6, 6))
    order = [2, 0, 5, 1, 4, 3]
    for i, j in enumerate(order):
        P[i, j] = 1.0
    b = np.arange(6.0)
    x, cond, ok = solve_full_pivot(P, b)
    assert ok and cond == 1.0
    np.testing.assert_allclose(P @ x, b, atol=1e-15)


def test_singular_matrix_is_flagged():
    for A in (np.zeros((6, 6)), np.ones((3, 3))):  # zero, then rank one
        x, cond, ok = solve_full_pivot(A, np.ones(A.shape[0]))
        assert not ok and cond == math.inf


def test_condition_estimate_exceeds_limit():
    # the estimate the step loop holds against COND_LIMIT
    x, cond, ok = solve_full_pivot(np.diag([1.0, 1.0, 1.0, 1.0, 1.0, 1e-13]), np.ones(6))
    assert ok and cond == 1e13 and cond > COND_LIMIT
    assert abs(x[5] - 1e13) < 1.0


def test_kernel_flags():
    x, cond, ok = solve_full_pivot(np.zeros((4, 4)), np.ones(4))
    assert not ok
    x, cond, ok = solve_full_pivot(np.eye(6), np.arange(6.0))
    assert ok and cond == 1.0
    np.testing.assert_array_equal(x, np.arange(6.0))
    # diag(1..6) with its rows reversed: full pivoting takes 6, 5, ..., 1 off
    # the anti-diagonal, so the estimate (first over last pivot) is exactly 6
    d = np.arange(1.0, 7.0)
    x, cond, ok = solve_full_pivot(np.diag(d)[::-1], np.ones(6))
    assert ok and cond == 6.0
    np.testing.assert_array_equal(x, 1.0 / d)


def _searched(A, b):
    """solve_rows on copies of A and b: (x, cond, ok, order)."""
    return solve_rows([list(r) for r in A], list(b))


def _update(M, order):
    """The Newton update that the loop inlines, for the 6x6 matrix M (any,
    not only an inertia) and a pivot order, compiled as a function here;
    its ``source`` attribute is its code. At f = 0 its Jacobian is M.

    ``update(f, target)`` returns (f', terms', [A; B](f'), max |target -
    [A; B](f')|, whether the pivots give det J > 0), ``integrator._REFUSED``
    on a refusal and the list dx for a step that would reach |Phi| >= 1.
    """
    p, t = ", ".join(integrator._STEP_VARIABLES), integrator._names("t", 6)
    source = "\n".join([
        "def update(f, target):",
        f"    {p} = f",
        f"    {t} = target",
        "    n = p0 * p0 + p1 * p1 + p2 * p2",
        *integrator._update_body(np.asarray(M, dtype=np.float64).tobytes(), order, lambda handoff: f"return {handoff}"),
        f"    return [{p}], ({integrator._TERMS}), ({integrator._names('m', 6)}), rn, positive",
    ]) + "\n"
    update = integrator._compile(source, "update")
    update.source = source
    return update


def _signed_zeros(rng, v):
    """v with about half its entries set to +0.0 or -0.0."""
    v = v.copy()
    mask = rng.random(v.shape) < 0.5
    v[mask] = np.copysign(0.0, rng.normal(size=v.shape))[mask]
    return v


def _inertias(rng, kind):
    if kind == "diagonal":
        return [build_inertia_raw(np.diag(rng.uniform(1.0, 4.0, size=6))) for _ in range(3)]
    if kind == "coupled":
        return [build_inertia_raw(A @ A.T + 6.0 * np.eye(6)) for A in rng.normal(size=(3, 6, 6))]
    return list(mixed_inertias(rng))


@pytest.mark.parametrize("kind", ["mixed", "diagonal", "coupled"])
def test_ordered_solve_is_bitwise_the_searched_solve(rng, kind):
    # given the order the search picked, the generated update does a full
    # pivot solve's float operations in the same order, on the terms and
    # Jacobian entries the loop writes, so the new iterate, its terms,
    # [A; B] and residual norm agree to the last bit; with exact zeros in f
    # and the target (J(0) = M keeps M's zeros) that includes skipping rows
    # whose multiplier is zero, or the sign of a zero would differ; and the
    # product of the pivots, flipped for an odd order, has the sign of
    # det J. The search on the float Jacobian picks the same order, and its
    # update refuses nothing
    for M in _inertias(rng, kind):
        entries = loop_entries(M.matrix)
        rows = M.matrix.tolist()
        for _ in range(40):
            f = _signed_zeros(rng, random_step(rng)).tolist()
            terms, J = entries(f)
            ab = integrator.momentum(f, terms)
            target = _signed_zeros(rng, np.array(ab) + 0.05 * rng.normal(size=6)).tolist()
            y = [t - a for a, t in zip(ab, target)]
            dx, cond, ok, order = _searched(J, y)
            assert ok and cond <= COND_LIMIT
            assert integrator._pivot_order(rows, f) == order
            # the search's own order keeps every |multiplier| <= 1, so no check refuses it
            result = _update(M.matrix, order)(f, target)
            assert not isinstance(result, str)
            expected_f = [a + b for a, b in zip(f, dx)]
            if integrator._phi_norm2(expected_f) >= 1.0:  # the caller halves the step
                assert np.array(result).tobytes() == np.array(dx).tobytes()
                continue
            new_f, new_terms, new_ab, norm, positive = result
            assert positive == (np.linalg.det(J) > 0.0)
            expected_terms = entries(expected_f)[0]
            expected_ab = integrator.momentum(expected_f, expected_terms)
            expected_norm = integrator._max_abs([t - a for a, t in zip(expected_ab, target)])
            for got, want in ((new_f, expected_f), (new_terms, expected_terms), (new_ab, expected_ab), (norm, expected_norm)):
                assert np.array(got).tobytes() == np.array(want).tobytes()


def test_ordered_solve_leaves_inputs_unchanged(rng):
    M = build_inertia(1.0, np.diag([1.0, 2.0, 3.0]))
    f = (0.1 * rng.normal(size=6)).tolist()
    target = rng.normal(size=6).tolist()
    f0, target0 = f[:], target[:]
    order = integrator._pivot_order(M.matrix.tolist(), f)
    assert _update(M.matrix, order)(f, target) != integrator._REFUSED
    assert f == f0 and target == target0


def test_searched_order_is_in_original_indices():
    # diag(1..6) with its rows reversed: the k-th pivot is 6 - k, on row k
    # and column 5 - k
    d = np.arange(1.0, 7.0)
    A = np.diag(d)[::-1]
    _, _, ok, (rows, cols) = _searched(A.tolist(), [1.0] * 6)
    assert ok and rows == (0, 1, 2, 3, 4, 5) and cols == (5, 4, 3, 2, 1, 0)
    # the update for that order solves J(0) = A; its step from f = 0 has
    # |Phi| >= 1, so it returns the step for the caller to halve
    dx = _update(A, (rows, cols))([0.0] * 6, [1.0] * 6)
    np.testing.assert_array_equal(dx, 1.0 / d)


def _with(A, i, j, v):
    A = np.array(A, dtype=float)
    A[i, j] = v
    return A


@pytest.mark.parametrize(
    "A",
    [
        np.diag(np.arange(1.0, 7.0))[::-1],  # zero first pivot (test_kernel_flags' matrix)
        _with(np.eye(6), 3, 0, 20.0),  # multiplier 20 > MULTIPLIER_LIMIT
        _with(np.eye(6), 5, 5, 0.0),  # zero last pivot
        _with(np.eye(6), 3, 0, np.nan),  # NaN entry: a NaN multiplier fails the bound check
        np.diag([1.0, 1.0, 1.0, 1.0, 1.0, 1e-13]),  # estimate 1e13 > COND_LIMIT
    ],
    ids=["reversed-diagonal", "multiplier-20", "zero-last-pivot", "nan-entry", "ill-conditioned"],
)
def test_ordered_solve_refuses(A):
    # J(f = 0) = A, so each matrix is the Jacobian of the first iteration
    assert _update(A, IDENTITY_ORDER)([0.0] * 6, [1.0] * 6) == integrator._REFUSED


@pytest.mark.parametrize("shape", [(6,), (1, 6), (37, 6), (4, 5, 6)])
def test_matvec_stack_has_the_bits_of_matvec_per_vector(rng, shape):
    # eleven numpy operations over the whole stack, each entry summed left
    # to right like matvec; signed zeros, infinities and NaNs included
    A = rng.normal(size=(6, 6))
    A[1, 2] = A[4, 0] = 0.0
    A[3, 3] = -0.0
    X = rng.normal(size=shape)
    flat = X.reshape(-1, 6)
    flat[0, :3] = (-0.0, 0.0, -0.0)
    if flat.shape[0] > 2:
        flat[1, 2], flat[2, 5] = np.inf, np.nan
    with np.errstate(invalid="ignore"):  # inf * 0.0
        out = matvec_stack(A, X)
    assert out.shape == (6, *shape[:-1])
    rows = np.moveaxis(out, 0, -1).reshape(-1, 6)
    for x, got in zip(flat, rows):
        assert got.tobytes() == np.array(matvec(A.tolist(), x.tolist())).tobytes()


@pytest.mark.parametrize("shape", [(), (5,), (3, 7)])
def test_matvec_stack_rejects_other_than_6_vectors(shape):
    with pytest.raises(ValidationError, match="6-vectors"):
        matvec_stack(np.eye(6), np.ones(shape))


def _multiplier_probes(rng) -> list:
    """Floats around +-MULTIPLIER_LIMIT, the special values, subnormals and
    random bit patterns."""
    limit = integrator.MULTIPLIER_LIMIT
    probes = [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324, -5e-324, 2.2250738585072014e-308]
    for edge in (limit, -limit):
        for direction in (math.inf, -math.inf):
            q = edge
            for _ in range(2000):
                probes.append(q)
                q = math.nextafter(q, direction)
    probes += (rng.integers(0, 2**52, size=2000, dtype=np.int64).view(np.float64)).tolist()  # subnormals
    probes += rng.integers(-(2**63), 2**63 - 1, size=200_000, dtype=np.int64).view(np.float64).tolist()
    probes += (rng.uniform(-20.0, 20.0, size=20_000)).tolist()
    return probes


def test_multiplier_bound_is_the_chained_comparison(rng):
    # q * q <= limit**2 refuses exactly the multipliers that
    # not -limit <= q <= limit refuses: NaN, +-inf and every float beyond
    # +-10, down to the neighbours of +-10
    limit = integrator.MULTIPLIER_LIMIT
    bound = limit**2
    mismatches = [q for q in _multiplier_probes(rng) if (q * q <= bound) != (-limit <= q <= limit)]
    assert mismatches == []
    source = _update(np.eye(6), IDENTITY_ORDER).source
    assert f"if not q * q <= {bound!r}:" in source and "<= q <=" not in source


def _residual_norm_lines(source: str) -> list:
    """The update's lines from the sum of e0..e5 to the end of rn."""
    lines = source.splitlines()
    start = lines.index("    s = e0 + e1 + e2 + e3 + e4 + e5")
    end = lines.index("        rn = nan", start)
    return lines[start : end + 1]


def test_residual_norm_without_a_call_is_max_or_nan(rng):
    # the update's rn is max(e0, ..., e5) when no entry is NaN and nan
    # otherwise, as _max_abs reads the residual: the comparisons of the
    # builtin max, in its order
    lines = _residual_norm_lines(_update(np.eye(6), IDENTITY_ORDER).source)
    namespace = {"nan": math.nan}
    exec("\n".join(["def rn_of(e0, e1, e2, e3, e4, e5):", *lines, "    return rn"]), namespace)
    rn_of = namespace["rn_of"]
    cases = [tuple(abs(x) for x in rng.normal(size=6)) for _ in range(500)]
    cases += [tuple(float(x) for x in rng.integers(0, 3, size=6)) for _ in range(200)]  # ties and zeros
    for i in range(6):
        for special in (math.nan, math.inf, 0.0):
            e = [0.5] * 6
            e[i] = special
            cases.append(tuple(e))
    cases.append((math.inf, math.nan, 1.0, 1.0, 1.0, 1.0))
    for e in cases:
        expected = integrator._max_abs(e)
        got = rn_of(*e)
        if math.isnan(expected):
            assert math.isnan(got)
        else:
            assert np.array(got).tobytes() == np.array(expected).tobytes()
