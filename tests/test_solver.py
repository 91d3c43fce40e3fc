"""Simplex-constrained least squares: golden cases, random oracles, KKT."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dinaq.solver
from dinaq import (
    AlphaVector,
    ComboOrder,
    QMatrix,
    design,
    enumerate_candidates,
    kkt_residuals,
    simplex_lsq,
)
from dinaq.estimator import _as_targets, _screen
from dinaq.solver import (
    _DROP_TOL,
    _ENTER_TOL,
    _PIVOT_TOL,
    FEASIBILITY_TOL,
    _gram_active_set,
    _solve_checked,
)
from dinaq.tmatrix import patterns

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
# the row-form active set, kept as the reference for the Gram solve

def _restricted_argmin(m, beta, support):
    # equality-constrained LS on the support columns: the first support
    # variable is eliminated via z0 = 1 - sum(rest), leaving an unconstrained
    # problem handled by lstsq (minimum-norm on rank deficiency)
    j0 = support[0]
    base = m[:, j0]
    rest = support[1:]
    if not rest:
        return np.array([1.0])
    a = m[:, rest] - base[:, None]
    y, *_ = np.linalg.lstsq(a, beta - base, rcond=None)
    return np.concatenate([[1.0 - y.sum()], y])


def _reference_lsq(m, beta):
    """The simplex LSQ solve on the rows: the same pivots and tolerances as
    the Gram solve, each restricted problem solved by ``lstsq``. Returns
    the residual |M x - beta| at its final point."""
    n = m.shape[1]
    x = np.zeros(n)
    x[0] = 1.0
    support = [0]
    for _ in range(50 * n):
        z = _restricted_argmin(m, beta, support)
        if z.min() <= -1e-12:
            # step toward the restricted optimum until a coordinate hits
            # zero, then drop what vanished
            xs = x[support]
            neg = z <= 0.0
            ratios = xs[neg] / (xs[neg] - z[neg])
            stepped = xs + ratios.min() * (z - xs)
            keep = stepped > 1e-14
            if keep.all():
                keep[np.flatnonzero(neg)[int(np.argmin(ratios))]] = False
            x[:] = 0.0
            support = [s for s, kp in zip(support, keep) if kp]
            x[support] = stepped[keep]
            continue
        x[:] = 0.0
        x[support] = np.clip(z, 0.0, None)
        grad = 2.0 * (m.T @ (m @ x - beta))
        off = [j for j in range(n) if j not in support]
        viol = grad[off] - grad[support].mean()
        if not off or viol.min() >= -1e-10:
            break
        support = sorted(support + [off[int(np.argmin(viol))]])
    x = np.clip(x, 0.0, None)
    x /= x.sum()
    return float(np.linalg.norm(m @ x - beta))


def _assert_kkt(m, beta, x):
    cert = kkt_residuals(m, beta, x)
    assert cert["sum_error"] <= 1e-12
    assert cert["min_coord"] >= 0.0
    assert cert["stationarity_gap"] <= 1e-8
    assert cert["dual_gap"] >= -1e-8


def _dina_case(data):
    """Candidates of one shape with their DINA designs at shared rates, and
    a target. Rates lie on a 0.05 lattice so that c_i = g_i happens exactly
    and other rates stay well separated; m = 2 and m = 3 with k = 3 give
    fewer rows than columns, noiseless rates a zero first column, and
    incomplete candidates and c_i = g_i duplicated columns."""
    m = data.draw(st.integers(2, 5), label="m")
    k = data.draw(st.integers(1, 3), label="k")
    row = st.integers(1, (1 << k) - 1)
    masks = data.draw(
        st.lists(st.lists(row, min_size=m, max_size=m), min_size=1, max_size=6),
        label="row masks",
    )
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
    return qs, c, g, order, stack, beta


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_gram_solve_matches_row_form_reference(data):
    """``simplex_lsq`` and the searches' stacked solve (``_screen``) agree
    with the row-form reference on DINA designs: residuals within 1e-12,
    status "optimal" and KKT at 1e-8."""
    qs, c, g, order, stack, beta = _dina_case(data)
    pats = patterns(np.stack([q.entries for q in qs]))
    targets = _as_targets(AlphaVector(order, beta), g, len(qs), c)
    for mat, score, done, x in zip(stack, *_screen(pats, None, targets)):
        ref = _reference_lsq(mat, beta)
        sol = simplex_lsq(mat, beta)
        assert sol.status == "optimal" and done
        assert abs(sol.residual - ref) <= 1e-12
        assert abs(score - ref) <= 1e-12
        _assert_kkt(mat, beta, sol.x)
        _assert_kkt(mat, beta, x)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_gram_solve_matches_reference_on_duplicated_columns(data):
    """The same agreement on random designs, wide or tall, whose drawn
    columns repeat earlier ones exactly."""
    rows = data.draw(st.integers(1, 6), label="rows")
    cols = data.draw(st.integers(1, 6), label="cols")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    base = rng.normal(size=(rows, cols)) * rng.uniform(0.5, 3.0)
    copies = data.draw(st.lists(st.integers(0, cols - 1), max_size=3), label="copies")
    mat = np.column_stack([base] + [base[:, j] for j in copies])
    mat = mat[:, rng.permutation(mat.shape[1])]
    beta = rng.normal(size=rows)
    sol = simplex_lsq(mat, beta)
    assert sol.status == "optimal"
    assert abs(sol.residual - _reference_lsq(mat, beta)) <= 1e-12
    _assert_kkt(mat, beta, sol.x)


# ---------------------------------------------------------------------------
# the Gram solve on stacks, singular pivots and the iteration cap

def _gram_solve(stack, beta, max_iter=None):
    """The Gram solve of a stack of designs and one target: points, finish
    flags, iteration counts and the residual norms read off the rows."""
    cols = stack.transpose(0, 2, 1)
    x, finished, iterations = _gram_active_set(cols @ stack, cols @ beta, max_iter)
    resid = (stack @ x[:, :, None])[:, :, 0] - beta
    return x, finished, iterations, np.sqrt((resid * resid).sum(axis=1))


def _assert_independent_of_stack(stack, beta, rng):
    """Each problem's solve is the same bytes alone, in the full stack,
    shuffled and in chunks of 17."""
    whole = _gram_solve(stack, beta)
    for j in range(len(stack)):
        for got, want in zip(_gram_solve(stack[j : j + 1], beta), whole):
            assert got.tobytes() == want[j : j + 1].tobytes()
    perm = rng.permutation(len(stack))
    for got, want in zip(_gram_solve(stack[perm], beta), whole):
        assert got.tobytes() == want[perm].tobytes()
    for start in range(0, len(stack), 17):
        for got, want in zip(_gram_solve(stack[start : start + 17], beta), whole):
            assert got.tobytes() == want[start : start + 17].tobytes()


@pytest.mark.parametrize("m, k", [(3, 2), (4, 3), (6, 2)])
def test_bounds_independent_of_batch(m, k):
    """A member's solve (point, finish flag, iteration count and residual)
    is the same bytes alone, in the full stack, shuffled and in chunks of
    17, on separated and on noiseless rates."""
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
    _assert_independent_of_stack(stack, beta, rng)


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
    # the solve takes and returns its stacks with the problem axis last
    y, ok = _solve_checked(a.transpose(1, 2, 0), rhs.T, floor.T)
    assert ok.tolist() == [True, True, False]
    want = np.linalg.solve(a[:2], rhs[:2, :, None])[:, :, 0]
    np.testing.assert_allclose(y.T[:2], want, rtol=1e-10)
    # the inputs are left as they were
    assert np.array_equal(a[:2], spd[:2])


def _duplicated(rng, n, rows):
    """A design of n columns at a scale of 1e3, with column j repeated as an
    extra last column, and j."""
    base = rng.normal(size=(rows, n)) * 1e3
    j = int(rng.integers(n))
    return np.column_stack([base, base[:, j]]), j


def _spy_singular(monkeypatch):
    """A list that gets, per call of ``_solve_checked``, whether any system
    of the call was singular."""
    real = dinaq.solver._solve_checked
    singular = []

    def spy(a, rhs, floor, pivots=None):
        y, ok = real(a, rhs, floor, pivots)
        singular.append(not ok.all())
        return y, ok

    monkeypatch.setattr(dinaq.solver, "_solve_checked", spy)
    return singular


def test_duplicated_column_ends_at_optimum_without_it(monkeypatch):
    """An exact duplicate of a support column shows a dual violation only
    by rounding, which at a scale of 1e3 often exceeds the entry tolerance.
    Its entry makes the restricted system singular and is undone, and the
    solve ends at the optimum of the problem without the duplicate, which
    has full column rank."""
    singular = _spy_singular(monkeypatch)
    undone = 0
    for seed in range(40):
        rng = np.random.default_rng(seed)
        n = 2 + seed % 4
        mat, j = _duplicated(rng, n, n + 2)
        base, beta = mat[:, :-1], rng.normal(size=n + 2) * 1e3
        singular.clear()
        sol = simplex_lsq(mat, beta)
        undone += any(singular)
        alone = simplex_lsq(base, beta)
        assert sol.status == "optimal"
        assert sol.residual == pytest.approx(alone.residual, rel=1e-12)
        merged = sol.x[:-1].copy()
        merged[j] += sol.x[-1]
        np.testing.assert_allclose(merged, alone.x, rtol=0, atol=1e-9)
    assert undone >= 5


def test_design_with_c_equal_g():
    """Where c_i = g_i, profiles that differ only in whether they master
    item i give equal design columns. The solve matches the reference, with
    status "optimal" and KKT at 1e-8, on rates it fits exactly and on rates
    off the model."""
    q = QMatrix.from_rows(["10", "01", "11"])
    c, g = np.array([0.9, 0.2, 0.8]), np.array([0.15, 0.2, 0.25])
    order = ComboOrder.saturated(3)
    mat = design(q, c, g, order)
    assert np.array_equal(mat[:, 0], mat[:, 2])
    rng = np.random.default_rng(7)
    for beta in (mat @ np.full(4, 0.25), rng.uniform(0.0, 1.0, len(order))):
        sol = simplex_lsq(mat, beta)
        assert sol.status == "optimal"
        assert abs(sol.residual - _reference_lsq(mat, beta)) <= 1e-12
        _assert_kkt(mat, beta, sol.x)
        targets = _as_targets(AlphaVector(order, beta), g, 1, c)
        (score,), (done,), (x,) = _screen(patterns(q)[None], None, targets)
        assert done
        assert abs(score - sol.residual) <= 1e-12
        _assert_kkt(mat, beta, x)
    assert simplex_lsq(mat, mat @ np.full(4, 0.25)).residual <= 1e-12


def test_genuine_violator_enters_after_a_blocked_column():
    """Column 1 repeats column 0, and its linear term is raised, as rounding
    can raise it, so that it enters first beside its twin. The singular
    system undoes that entry and blocks it; column 2, a genuine violator,
    still enters, and the solve finishes at the optimum without column 1.
    Stopping at the last feasible point instead would have left the
    problem at the first vertex."""
    mat = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    beta = np.array([0.5, 0.5])
    lin = mat.T @ beta
    lin[1] += 2.0
    x, finished, iterations = _gram_active_set((mat.T @ mat)[None], lin[None])
    # enter 1, undo it, enter 2, finish on {0, 2}
    assert finished[0] and iterations[0] == 4
    np.testing.assert_allclose(x[0], [0.5, 0.0, 0.5], rtol=0, atol=1e-15)
    assert np.linalg.norm(mat @ x[0] - beta) < np.linalg.norm(mat[:, 0] - beta)


def test_a_column_leaving_clears_the_blocks(monkeypatch):
    """A blocked column may enter again once another column leaves the
    support. The restricted system right after the first entry is reported
    singular, as rounding could make it, so that column is undone and
    blocked; a later step drops column 0, which clears the block, and the
    solve still ends at the optimum, on a support that holds the column.

    Iteration 1 solves nothing and enters column 2, so the first solve is
    the one after that entry. The pivots of each solve, the support less
    its lowest column, pin the path: {0, 2} is undone; at {0} column 1
    enters, where an unblocked column 2 would have entered again, as it did
    from the same point before; {0, 1} drops column 0, which clears the
    block, and from {1} column 2 enters again."""
    mat = np.array([[-3.0, -1.0, -1.0], [2.0, 0.0, -3.0], [-1.0, 1.0, 2.0], [2.0, 3.0, -2.0]])
    beta = np.array([3.0, -3.0, 0.0, -2.0])
    want = simplex_lsq(mat, beta)
    real = dinaq.solver._solve_checked
    calls = []

    def first_singular(a, rhs, floor, pivots=None):
        y, ok = real(a, rhs, floor, pivots)
        calls.append(pivots)
        return y, ok & (len(calls) != 1)

    monkeypatch.setattr(dinaq.solver, "_solve_checked", first_singular)
    sol = simplex_lsq(mat, beta)
    assert calls == [[2], [], [1], [], [2]]
    assert sol.status == "optimal" and sol.iterations == 6 > want.iterations
    assert sol.x[0] == 0.0 and (sol.x[1:] > 0.0).all()
    np.testing.assert_allclose(sol.x, want.x, rtol=0, atol=1e-12)


def test_singular_pivots_independent_of_stack(monkeypatch):
    """Problems whose solves undo entries give the same bytes alone and in
    any stack beside problems that never do: scaled designs with a
    duplicated column, a c_i = g_i design and a noiseless one."""
    rng = np.random.default_rng(3)
    order = ComboOrder.saturated(3)
    q = QMatrix.from_rows(["10", "01", "11"])
    stack = [_duplicated(rng, 3, 7)[0] for _ in range(30)]
    stack += [design(q, [0.9, 0.2, 0.8], [0.15, 0.2, 0.25], order)]
    stack += [design(q, np.ones(3), np.zeros(3), order)]
    stack += [rng.uniform(0.0, 1.0, (7, 4)) for _ in range(10)]
    singular = _spy_singular(monkeypatch)
    _assert_independent_of_stack(np.stack(stack), rng.normal(size=7) * 1e3, rng)
    assert any(singular)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_finish_times_independent_of_stack(data):
    """A problem's bytes are the same alone and in stacks whose other
    problems finish earlier or later. At n = 16 and a scale of 1e3, designs
    with a duplicated column, which undo entries, sit beside plain ones and
    beside integer ones whose first column is the integer target, which
    finish at the start vertex, since their Gram forms are exact. The
    stacks hold from one to 18 problems, so that the finished ones are
    gathered out at once, later or never."""
    counts = [data.draw(st.integers(0, 6), label=kind)
              for kind in ("duplicated", "plain", "vertex")]
    if not sum(counts):
        counts[0] = 1
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    rows = 20
    beta = rng.integers(-1000, 1001, size=rows).astype(float)
    stack = [_duplicated(rng, 15, rows)[0][:, rng.permutation(16)]
             for _ in range(counts[0])]
    stack += [rng.normal(size=(rows, 16)) * 1e3 for _ in range(counts[1])]
    for _ in range(counts[2]):
        mat = rng.integers(-1000, 1001, size=(rows, 16)).astype(float)
        mat[:, 0] = beta
        stack.append(mat)
    stack = np.stack(stack)[rng.permutation(len(stack))]
    _assert_independent_of_stack(stack, beta, rng)


def test_iteration_cap_stops_at_a_feasible_point():
    """At the cap a problem stops unfinished at a feasible point, and
    ``simplex_lsq`` would report it as "iteration-cap"."""
    rng = np.random.default_rng(8)
    stack = rng.normal(size=(5, 6, 5))
    beta = rng.normal(size=6)
    x, finished, iterations, _ = _gram_solve(stack, beta, max_iter=1)
    assert not finished.any() and (iterations == 1).all()
    assert (x >= 0.0).all()
    np.testing.assert_allclose(x.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    x, finished, iterations, _ = _gram_solve(stack, beta)
    assert finished.all() and (iterations > 1).all()


# ---------------------------------------------------------------------------
# the kernel on (b, n, n) stacks, kept as the reference for the stack-last one

def _reference_solve_checked(a, rhs, floor):
    """``_solve_checked`` on (b, n, n) and (b, n) stacks, summing over n
    with numpy's own sum."""
    a = a.copy()
    y = rhs.copy()
    n = a.shape[-1]
    ok = np.ones(len(a), dtype=bool)
    for j in range(n):
        pivot = a[:, j, j]
        ok &= pivot > floor[:, j]
        pivot[~ok] = 1.0
        factor = a[:, j + 1 :, j] / pivot[:, None]
        a[:, j + 1 :, j + 1 :] -= factor[:, :, None] * a[:, j, None, j + 1 :]
        y[:, j + 1 :] -= factor * y[:, j, None]
    for j in range(n - 1, -1, -1):
        y[:, j] -= (a[:, j, j + 1 :] * y[:, j + 1 :]).sum(axis=1)
        y[:, j] /= a[:, j, j]
    return y, ok


def _reference_gram_active_set(gram, lin, max_iter=None):
    """``_gram_active_set`` with its state held as (b, n, n) and (b, n)
    stacks, every live problem gathered on every iteration."""
    count, n, _ = gram.shape
    if max_iter is None:
        max_iter = 50 * n
    diag = np.diagonal(gram, axis1=1, axis2=2)
    eye = np.eye(n)
    x = np.zeros((count, n))
    x[:, 0] = 1.0
    support = np.zeros((count, n), dtype=bool)
    support[:, 0] = True
    blocked = np.zeros((count, n), dtype=bool)
    entered = np.full(count, -1)
    finished = np.zeros(count, dtype=bool)
    iterations = np.zeros(count, dtype=int)
    live = np.arange(count)
    while live.size and iterations[live[0]] < max_iter:
        iterations[live] += 1
        on, xs, g, h = support[live], x[live], gram[live], lin[live]
        idx = np.arange(live.size)
        j0 = on.argmax(axis=1)
        rest = on.copy()
        rest[idx, j0] = False
        g0 = g[idx, :, j0]
        g00 = g[idx, j0, j0]
        a = g - g0[:, :, None] - g0[:, None, :] + g00[:, None, None]
        a = np.where(rest[:, :, None] & rest[:, None, :], a, eye)
        rhs = (h - g0 - h[idx, j0][:, None] + g00[:, None]) * rest
        floor = _PIVOT_TOL * np.where(on, diag[live], 0.0).max(axis=1)
        y, solved = _reference_solve_checked(a, rhs, np.where(rest, floor[:, None], -1.0))
        z = y.copy()
        z[idx, j0] = 1.0 - y.sum(axis=1)

        outside = np.where(on, z, np.inf).min(axis=1) <= -FEASIBILITY_TOL
        neg = on & (z <= 0.0) & outside[:, None]
        denom = xs - z
        ratios = np.full(xs.shape, np.inf)
        ratios[neg] = 0.0
        np.divide(xs, denom, out=ratios, where=neg & (denom > 0.0))
        step = np.where(outside, ratios.min(axis=1), 0.0)
        stepped = xs + step[:, None] * (z - xs)
        keep = on & (stepped > _DROP_TOL)
        stuck = outside & (keep == on).all(axis=1)
        keep[stuck, ratios[stuck].argmin(axis=1)] = False
        moved = np.where(keep, stepped, 0.0)

        fitted = np.where(on, np.clip(z, 0.0, None), 0.0)
        grad = 2.0 * ((g * fitted[:, None, :]).sum(axis=2) - h)
        lam = np.where(on, grad, 0.0).sum(axis=1) / on.sum(axis=1)
        viol = np.where(on | blocked[live], np.inf, grad - lam[:, None])
        pick = viol.argmin(axis=1)
        done = ~outside & (viol[idx, pick] >= -_ENTER_TOL)
        enter = ~outside & ~done
        grown = on.copy()
        grown[idx[enter], pick[enter]] = True

        step_x = np.where(outside[:, None], moved, fitted)
        step_on = np.where(outside[:, None], keep, grown)
        failed = idx[~solved]
        if failed.size:
            step_x[failed], step_on[failed] = xs[failed], on[failed]
            last = entered[live[failed]]
            undo = last >= 0
            step_on[failed[undo], last[undo]] = False
            blocked[live[failed[undo]], last[undo]] = True
        x[live], support[live] = step_x, step_on
        blocked[live[solved & outside]] = False
        entered[live] = np.where(solved & enter, pick, -1)
        finished[live[solved & done]] = True
        live = live[~(solved & done)]

    x = np.clip(x, 0.0, None)
    x /= x.sum(axis=1, keepdims=True)
    return x, finished, iterations


def _kernel_design(rng, kind, n):
    """A design of n columns: Gaussian at a random scale, Gaussian at a
    scale of 1e3 with a column repeated, or a DINA design at k = log2 n
    on random rows with c_i = g_i on one item."""
    rows = int(rng.integers(1, 2 * n + 3))
    if kind == "duplicated" and n > 1:
        base = rng.normal(size=(rows, n - 1)) * 1e3
        mat = np.column_stack([base, base[:, rng.integers(n - 1)]])
        return mat[:, rng.permutation(n)]
    if kind == "c=g" and n > 1:
        k = n.bit_length() - 1
        m = int(rng.integers(k, k + 3))
        q = QMatrix(np.array([[(r >> j) & 1 for j in range(k)]
                              for r in rng.integers(1, n, size=m)]))
        c, g = rng.uniform(0.6, 0.95, m), rng.uniform(0.05, 0.3, m)
        same = rng.integers(m)
        c[same] = g[same]
        return design(q, c, g, ComboOrder.saturated(m))
    return rng.normal(size=(rows, n)) * rng.uniform(0.1, 10.0)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_kernel_matches_the_reference_byte_for_byte(data):
    """The stack-last kernel and its elimination return the same bytes as
    the (b, n, n) reference: x, finish flags and iteration counts, on
    stacks of 0, 1, n and other numbers of problems, with duplicated
    columns (undone entries), c_i = g_i designs and small iteration caps.
    At n >= 8 this holds only if its sums over n add in numpy's order."""
    n = data.draw(st.sampled_from([1, 2, 4, 8, 16]), label="n")
    count = data.draw(
        st.one_of(st.sampled_from([0, 1, n]), st.integers(2, 40)), label="problems"
    )
    kinds = data.draw(
        st.lists(st.sampled_from(["gaussian", "duplicated", "c=g"]), min_size=1, max_size=3,
                 unique=True),
        label="designs",
    )
    max_iter = data.draw(st.sampled_from([None, None, 1, 2, 3]), label="max_iter")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    gram, lin = np.zeros((count, n, n)), np.zeros((count, n))
    for i in range(count):
        mat = _kernel_design(rng, kinds[rng.integers(len(kinds))], n)
        beta = rng.normal(size=len(mat)) * rng.uniform(0.1, 1e3)
        gram[i], lin[i] = mat.T @ mat, mat.T @ beta
    got = _gram_active_set(gram, lin, max_iter)
    # the reference goes on eliminating a failed system from unit pivots,
    # which can overflow at n = 16 in the y it then discards
    with np.errstate(over="ignore", invalid="ignore"):
        want = _reference_gram_active_set(gram, lin, max_iter)
    for g_, w_ in zip(got, want):
        assert g_.dtype == w_.dtype and g_.shape == w_.shape
        assert g_.tobytes() == w_.tobytes()
    # the elimination alone, on the Gram systems made positive definite and
    # scaled to a unit diagonal, with floors that flag pivots of about a
    # third of them (a flagged system goes on from unit pivots)
    scale = np.diagonal(gram, axis1=1, axis2=2) + 1e-3
    a = (gram + 1e-3 * np.eye(n)) / np.sqrt(scale[:, :, None] * scale[:, None, :])
    rhs = lin / np.sqrt(scale)
    floor = rng.uniform(0.0, 1.0, (count, n)) * (rng.random((count, 1)) < 0.3)
    y, ok = _solve_checked(a.transpose(1, 2, 0), rhs.T, floor.T)
    y_ref, ok_ref = _reference_solve_checked(a, rhs, floor)
    assert ok.tobytes() == ok_ref.tobytes()
    # a flagged system's y is meaningless
    assert y.T[ok].tobytes() == y_ref[ok].tobytes()
    assert np.isfinite(y).all()


def _exact_fit(rng, n):
    """A noiseless design of n columns (c = 1, g = 0; at n = 1 a 0/1
    column) and a target it fits exactly: beta = M p for p on a dyadic
    lattice that is zero off a random set of columns, so that the
    arithmetic of the restricted solves is often exact and their optima
    hold exact zeros."""
    if n == 1:
        mat = rng.integers(0, 2, size=(int(rng.integers(1, 5)), 1)).astype(float)
    else:
        k = n.bit_length() - 1
        m = int(rng.integers(k, k + 3))
        q = QMatrix(np.array([[(r >> j) & 1 for j in range(k)]
                              for r in rng.integers(1, n, size=m)]))
        mat = design(q, np.ones(m), np.zeros(m), ComboOrder.saturated(m))
    cols = rng.random(n) < rng.uniform(0.2, 1.0)
    cols[rng.integers(n)] = True
    units = 1 << int(rng.integers(0, 7))
    p = rng.multinomial(units, cols / cols.sum()) / units
    return mat, mat @ p


def test_clip_at_zero_makes_negative_zero_positive():
    """The kernel's byte identity with the reference needs the clip of z at
    zero to give +0.0 for -0.0: skipping unit pivots may flip the sign of
    an exact zero on the support, and only this clip clears it before it
    reaches x. The kernel's clip, ``np.where(on & (z > 0.0), z, 0.0)``,
    takes every zero from the literal +0.0. Checked on lengths 1 to 199,
    alone and among other numbers, contiguous and in the strided (n, b)
    rows of an augmented (n, n + 1, b) system."""
    rng = np.random.default_rng(11)
    for size in range(1, 200):
        mixed = rng.normal(size=size)
        mixed[rng.random(size) < 0.5] = -0.0
        for z in (np.full(size, -0.0), mixed, np.full(2 * size, -0.0)[::2]):
            on = rng.random(size) < 0.5
            clipped = np.where(on & (z > 0.0), z, 0.0)
            assert not np.signbit(clipped[clipped == 0.0]).any()
            assert np.array_equal(clipped[on & (z > 0.0)], z[on & (z > 0.0)])
    for n in (1, 2, 4, 8, 16):
        for b in (1, 3, 40, 365):
            z = np.full((n, n + 1, b), -0.0)[:, n]
            on = rng.random((n, b)) < 0.5
            assert not np.signbit(np.where(on & (z > 0.0), z, 0.0)).any()


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_kernel_matches_the_reference_on_exact_fits(data):
    """The kernel returns the reference's bytes (x, finish flags and
    iteration counts) on exact fits of noiseless designs, whose restricted
    optima hold exact zeros, and on targets and linear terms that hold
    -0.0: skipping the unit pivots moves only the signs of exact zeros,
    which the clip at zero makes +0.0 before they reach x."""
    n = data.draw(st.sampled_from([1, 2, 4, 8, 16]), label="n")
    count = data.draw(st.one_of(st.just(1), st.integers(2, 40)), label="problems")
    negative_zeros = data.draw(st.booleans(), label="-0.0")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    gram, lin = np.zeros((count, n, n)), np.zeros((count, n))
    for i in range(count):
        mat, beta = _exact_fit(rng, n)
        if negative_zeros:
            beta = np.where(beta == 0.0, -0.0, beta)
        gram[i], lin[i] = mat.T @ mat, mat.T @ beta
    if negative_zeros:
        lin = np.where(lin == 0.0, -0.0, lin)
    got = _gram_active_set(gram, lin)
    with np.errstate(over="ignore", invalid="ignore"):
        want = _reference_gram_active_set(gram, lin)
    for g_, w_ in zip(got, want):
        assert g_.dtype == w_.dtype and g_.shape == w_.shape
        assert g_.tobytes() == w_.tobytes()
