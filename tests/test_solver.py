"""Simplex-constrained least squares: golden cases, random oracles, KKT."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dinaq import (
    ComboOrder,
    QMatrix,
    design,
    enumerate_candidates,
    kkt_residuals,
    simplex_lsq,
)
from dinaq.solver import _solve_checked, simplex_gram_bounds

GOLDEN_T = np.array([
    [1.0, 0.0, 1.0],
    [0.0, 1.0, 1.0],
    [0.0, 0.0, 1.0],
    [0.0, 0.0, 1.0],
])


def _random_simplex(rng, n, size):
    return rng.dirichlet(np.ones(n), size=size)


def _best_random_value(m, beta, rng, n_points=1000):
    pts = _random_simplex(rng, m.shape[1], n_points)
    return np.linalg.norm(pts @ m.T - beta, axis=1).min()


# ---------------------------------------------------------------------------
# golden instances

def test_exact_fit_recovers_distribution():
    p = np.array([0.4, 0.25, 0.35])
    sol = simplex_lsq(GOLDEN_T, GOLDEN_T @ p)
    assert sol.status == "optimal"
    assert sol.residual <= 1e-12
    np.testing.assert_allclose(sol.x, p, atol=1e-10)


def test_identity_interior_projection():
    # projecting (2,2,2) onto the simplex lands at the barycenter
    sol = simplex_lsq(np.eye(3), np.full(3, 2.0))
    np.testing.assert_allclose(sol.x, np.full(3, 1 / 3), atol=1e-12)
    assert sol.residual == pytest.approx(5 / np.sqrt(3), abs=1e-12)


def test_identity_vertex_projection():
    # a target far beyond one vertex projects onto that vertex
    sol = simplex_lsq(np.eye(3), np.array([5.0, 0.0, 0.0]))
    np.testing.assert_allclose(sol.x, [1.0, 0.0, 0.0], atol=1e-12)
    assert sol.residual == pytest.approx(4.0, abs=1e-12)


def test_feasible_target_zero_residual():
    sol = simplex_lsq(np.eye(3), np.array([0.2, 0.3, 0.5]))
    assert sol.residual <= 1e-12
    np.testing.assert_allclose(sol.x, [0.2, 0.3, 0.5], atol=1e-10)


def test_wide_matrix_more_columns_than_rows():
    rng = np.random.default_rng(11)
    m = rng.uniform(0, 1, (3, 8))
    beta = rng.uniform(0, 1, 3)
    sol = simplex_lsq(m, beta)
    assert sol.x.min() >= 0
    assert sol.x.sum() == pytest.approx(1.0, abs=1e-12)
    assert sol.residual <= _best_random_value(m, beta, rng) + 1e-9


def test_single_column():
    sol = simplex_lsq(np.array([[2.0], [1.0]]), np.array([1.0, 1.0]))
    assert sol.x[0] == 1.0
    assert sol.residual == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# solution quality on random instances

@pytest.mark.parametrize("seed", range(25))
def test_beats_random_search(seed):
    rng = np.random.default_rng(1_000 + seed)
    rows = rng.integers(2, 9)
    cols = rng.integers(2, 9)
    m = rng.normal(size=(rows, cols))
    beta = rng.normal(size=rows)
    sol = simplex_lsq(m, beta)
    assert sol.residual <= _best_random_value(m, beta, rng) + 1e-9


@pytest.mark.parametrize("seed", range(25))
def test_matches_projected_gradient_oracle(seed):
    """Independent route: long projected-gradient run from the barycenter."""
    rng = np.random.default_rng(2_000 + seed)
    n = int(rng.integers(2, 7))
    m = rng.normal(size=(int(rng.integers(2, 7)), n))
    beta = rng.normal(size=m.shape[0])

    def project(v):
        # Euclidean projection onto the probability simplex
        u = np.sort(v)[::-1]
        css = np.cumsum(u) - 1
        ks = np.arange(1, n + 1)
        cond = u - css / ks > 0
        rho = ks[cond][-1]
        theta = css[cond][-1] / rho
        return np.maximum(v - theta, 0.0)

    x = np.full(n, 1 / n)
    lip = np.linalg.norm(m, 2) ** 2 * 2
    for _ in range(20_000):
        grad = 2 * m.T @ (m @ x - beta)
        x = project(x - grad / lip)
    oracle = np.linalg.norm(m @ x - beta)
    sol = simplex_lsq(m, beta)
    assert sol.residual <= oracle + 1e-7


# ---------------------------------------------------------------------------
# KKT certificates

@pytest.mark.parametrize("seed", range(20))
def test_kkt_certificate(seed):
    rng = np.random.default_rng(3_000 + seed)
    m = rng.normal(size=(rng.integers(2, 8), rng.integers(2, 8)))
    beta = rng.normal(size=m.shape[0])
    sol = simplex_lsq(m, beta)
    cert = kkt_residuals(m, beta, sol.x)
    assert cert["sum_error"] <= 1e-12
    assert cert["min_coord"] >= -1e-12
    assert cert["stationarity_gap"] <= 1e-8
    assert cert["dual_gap"] >= -1e-8


# ---------------------------------------------------------------------------
# determinism, validation

def test_deterministic():
    rng = np.random.default_rng(5)
    m = rng.normal(size=(6, 5))
    beta = rng.normal(size=6)
    a = simplex_lsq(m, beta)
    b = simplex_lsq(m, beta)
    assert np.array_equal(a.x, b.x)
    assert a.residual == b.residual
    assert a.iterations == b.iterations


def test_rejects_nan():
    with pytest.raises(ValueError):
        simplex_lsq(np.array([[np.nan, 1.0]]), np.array([1.0]))
    with pytest.raises(ValueError):
        simplex_lsq(np.eye(2), np.array([np.inf, 0.0]))


def test_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        simplex_lsq(np.eye(3), np.zeros(2))


def test_solution_is_clean_distribution():
    rng = np.random.default_rng(99)
    for _ in range(20):
        m = rng.normal(size=(4, 5))
        beta = rng.normal(size=4)
        sol = simplex_lsq(m, beta)
        assert sol.x.min() >= 0.0
        assert sol.x.sum() == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# batched screen: certified bounds around the exact solve

def _row_form(stack, beta):
    """The Gram form of a stack of designs and one target, with the
    residuals read off the rows."""
    cols = stack.transpose(0, 2, 1)

    def residuals(x):
        resid = (stack @ x[:, :, None])[:, :, 0] - beta
        return resid, (cols @ resid[:, :, None])[:, :, 0]

    return cols @ stack, cols @ beta, residuals


def _gram_bounds(stack, beta, max_iter=None):
    return simplex_gram_bounds(*_row_form(stack, beta), max_iter=max_iter)


def _dina_stack(data):
    """A stack of DINA designs of one shape, with rates on a 0.05 lattice so
    c_i = g_i happens exactly and other rates stay well separated."""
    m = data.draw(st.integers(2, 5), label="m")
    k = data.draw(st.integers(1, 3), label="k")
    row = st.integers(1, (1 << k) - 1)
    masks = data.draw(
        st.lists(st.lists(row, min_size=m, max_size=m), min_size=1, max_size=6),
        label="row masks",
    )
    # random row masks include incomplete (rank-deficient) candidates
    qs = [
        QMatrix(np.array([[(r >> j) & 1 for j in range(k)] for r in rows]))
        for rows in masks
    ]
    level = st.integers(0, 20).map(lambda v: v / 20)
    kind = data.draw(st.sampled_from(["noiseless", "rates", "c=g"]), label="rates")
    if kind == "noiseless":
        c, g = np.ones(m), np.zeros(m)
    else:
        c = np.array(data.draw(st.lists(level, min_size=m, max_size=m), label="c"))
        g = np.array(data.draw(st.lists(level, min_size=m, max_size=m), label="g"))
        if kind == "c=g":
            same = data.draw(st.lists(st.booleans(), min_size=m, max_size=m), label="c=g")
            c = np.where(same, g, c)
    order = ComboOrder.saturated(m)
    stack = np.stack([design(q, c, g, order) for q in qs])
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    if data.draw(st.booleans(), label="feasible target"):
        # rates some distribution reproduces exactly: the optimum is 0
        beta = stack[0] @ rng.dirichlet(np.ones(stack.shape[2]))
    else:
        beta = rng.uniform(0.0, 1.0, len(order))
    return stack, beta


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_bounds_bracket_exact_solve(data):
    stack, beta = _dina_stack(data)
    max_iter = data.draw(st.sampled_from([None, 1]), label="max_iter")
    upper, lower = _gram_bounds(stack, beta, max_iter)
    assert upper.shape == lower.shape == (len(stack),)
    for mat, up, lo in zip(stack, upper, lower):
        exact = simplex_lsq(mat, beta).residual
        assert lo <= exact + 1e-12
        assert lo <= up
        if max_iter is None and np.linalg.matrix_rank(mat) == mat.shape[1]:
            assert abs(up - exact) <= 1e-10


@pytest.mark.parametrize("m, k", [(3, 2), (4, 3), (6, 2)])
def test_bounds_independent_of_batch(m, k):
    """A member's bounds are the same bytes alone, in the full stack,
    shuffled and in chunks of 17."""
    rng = np.random.default_rng(m * 10 + k)
    order = ComboOrder.saturated(m)
    cands = list(enumerate_candidates(m, k, 10**6))[:200]
    c, g = rng.uniform(0.6, 0.95, m), rng.uniform(0.05, 0.3, m)
    stack = np.stack(
        [design(q, c, g, order) for q in cands]
        + [design(q, np.ones(m), np.zeros(m), order) for q in cands[:40]]
    )
    beta = stack[len(cands) // 2] @ rng.dirichlet(np.ones(1 << k)) + rng.normal(
        0.0, 0.01, len(order)
    )
    upper, lower = _gram_bounds(stack, beta)
    for j in range(len(stack)):
        up, lo = _gram_bounds(stack[j : j + 1], beta)
        assert up.tobytes() == upper[j : j + 1].tobytes()
        assert lo.tobytes() == lower[j : j + 1].tobytes()
    perm = rng.permutation(len(stack))
    up, lo = _gram_bounds(stack[perm], beta)
    assert up.tobytes() == upper[perm].tobytes()
    assert lo.tobytes() == lower[perm].tobytes()
    for start in range(0, len(stack), 17):
        up, lo = _gram_bounds(stack[start : start + 17], beta)
        assert up.tobytes() == upper[start : start + 17].tobytes()
        assert lo.tobytes() == lower[start : start + 17].tobytes()


def test_checked_solve_matches_solve_and_flags_singular_systems():
    rng = np.random.default_rng(5)
    cols = rng.normal(size=(3, 6, 4))
    spd = cols.transpose(0, 2, 1) @ cols
    # a repeated column makes the third system singular at its last pivot
    cols[2, :, 3] = cols[2, :, 1]
    a = cols.transpose(0, 2, 1) @ cols
    a[:2] = spd[:2]
    rhs = rng.normal(size=(3, 4))
    floor = np.full((3, 4), 1e-12 * np.diagonal(a, axis1=1, axis2=2).max())
    y, ok = _solve_checked(a, rhs, floor)
    assert ok.tolist() == [True, True, False]
    want = np.linalg.solve(a[:2], rhs[:2, :, None])[:, :, 0]
    np.testing.assert_allclose(y[:2], want, rtol=1e-10)
    # the inputs are left as they were
    assert np.array_equal(a[:2], spd[:2])


def test_singular_restricted_system_keeps_last_feasible_point():
    """A problem whose restricted system turns singular stops at its last
    feasible point; its bounds still bracket the optimum, and the other
    problems in the stack are untouched."""
    order = ComboOrder.saturated(3)
    c, g = np.full(3, 0.85), np.full(3, 0.15)
    q = QMatrix.from_rows(["10", "01", "11"])
    good = design(q, c, g, order)
    dup = good.copy()
    dup[:, 1] = dup[:, 0]
    beta = good @ np.array([0.1, 0.2, 0.3, 0.4])
    gram, lin, residuals = _row_form(np.stack([dup, good]), beta)
    # a linear term that favours the duplicate pulls it into the support
    # beside its twin, where the restricted system has a zero pivot
    lin[0, 1] += 100.0
    upper, lower = simplex_gram_bounds(gram, lin, residuals)
    # the problem stopped at the vertex it stood on when its system failed
    assert upper[0] == pytest.approx(np.linalg.norm(dup[:, 0] - beta), abs=1e-15)
    exact = simplex_lsq(dup, beta).residual
    assert lower[0] <= exact + 1e-12 <= upper[0] + 2e-12
    alone = _gram_bounds(good[None], beta)
    assert upper[1:].tobytes() == alone[0].tobytes()
    assert lower[1:].tobytes() == alone[1].tobytes()
    assert upper[1] == pytest.approx(simplex_lsq(good, beta).residual, abs=1e-12)


def test_gram_bounds_reject_bad_input():
    def residuals(x):
        raise AssertionError("not reached")

    with pytest.raises(ValueError):
        simplex_gram_bounds(np.eye(3), np.zeros(3), residuals)
    with pytest.raises(ValueError):
        simplex_gram_bounds(np.ones((2, 3, 3)), np.zeros((2, 2)), residuals)
    with pytest.raises(ValueError):
        simplex_gram_bounds(np.full((1, 2, 2), np.nan), np.zeros((1, 2)), residuals)
