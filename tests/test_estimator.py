"""Scoring, Q-matrix search, slip recovery, splitting, identifiability."""

import dataclasses
import itertools
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

import dinaq.estimator
from dinaq import (
    AlignmentError,
    AlphaVector,
    ComboOrder,
    DEFAULT_TIE_TOL,
    DegenerateSampleError,
    DinaParams,
    ProfileDistribution,
    QMatrix,
    SimConfig,
    build_d,
    canonicalize,
    check_identifiability,
    compute_alpha,
    decontaminate,
    design,
    enumerate_candidates,
    equivalent,
    estimate_p,
    estimate_q,
    estimate_q_unknown_c,
    find_cover_combo,
    mask_to_bits,
    moment_slip,
    population_alpha,
    profile_slip,
    score,
    simulate,
    split_estimate,
)
from dinaq.estimator import (
    _SLIP_OPTIONS,
    _SLIP_SCALE,
    _SLIP_STARTS,
    _by_mask,
    _pattern_bounds,
    _rate_objective,
    _rate_search,
    _screen,
)
from dinaq.solver import simplex_lsq
from dinaq.tmatrix import pattern_moments, patterns

GOLDEN = QMatrix.from_rows(["10", "01", "11"])
UNIFORM = ProfileDistribution.uniform(2)
NOISELESS = DinaParams.noiseless(3)
ORDER3 = ComboOrder.saturated(3)


def noiseless_alpha():
    return population_alpha(GOLDEN, NOISELESS, UNIFORM, ORDER3)


def noisy_params(c=0.8, g=0.2, m=3):
    return DinaParams(np.full(m, c), np.full(m, g))


def assert_same_ranking(a, b):
    """Two search results agree exactly on winner, score, ties, rates and
    fitted distribution."""
    assert a.q_hat == b.q_hat
    assert a.score == b.score
    assert a.ties == b.ties
    if a.c_hat is None:
        assert b.c_hat is None
    else:
        assert np.array_equal(a.c_hat, b.c_hat)
    assert np.array_equal(a.p_tilde.probs, b.p_tilde.probs)


# ---------------------------------------------------------------------------
# score

def test_true_q_scores_zero_noiseless():
    assert score(GOLDEN, noiseless_alpha(), NOISELESS) <= 1e-12


def test_true_q_scores_zero_noisy():
    params = noisy_params()
    alpha = population_alpha(GOLDEN, params, UNIFORM, ORDER3)
    assert score(GOLDEN, alpha, params) <= 1e-10


def test_score_invariant_under_column_permutation():
    params = noisy_params()
    alpha = population_alpha(GOLDEN, params, UNIFORM, ORDER3)
    permuted = QMatrix.from_rows(["01", "10", "11"])
    assert score(permuted, alpha, params) == pytest.approx(
        score(GOLDEN, alpha, params), abs=1e-9
    )


def test_score_monotone_in_constraints():
    # fewer combination rows can only lower the best-fit distance
    params = noisy_params()
    full = population_alpha(GOLDEN, params, UNIFORM, ORDER3)
    wrong = QMatrix.from_rows(["10", "10", "10"])
    sub = AlphaVector(ComboOrder.singles(3), full.rates[:3])
    assert score(wrong, sub, params) <= score(wrong, full, params) + 1e-12


def test_score_positive_for_wrong_q():
    alpha = noiseless_alpha()
    wrong = QMatrix.from_rows(["10", "10", "10"])
    assert score(wrong, alpha, NOISELESS) > 1e-3


def test_exhaustive_noiseless_zero_iff_equivalent():
    """Over every zero-row-free 3x2 matrix, only the truth's class fits."""
    alpha = noiseless_alpha()
    for rows in itertools.product(range(1, 4), repeat=3):
        q = QMatrix(tuple(tuple(mask_to_bits(r, 2)) for r in rows))
        s = score(q, alpha, NOISELESS)
        if equivalent(q, GOLDEN):
            assert s <= 1e-10
        else:
            assert s > 1e-6


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_scores_are_one_lipschitz_in_alpha(data):
    """``score`` is the distance from alpha to a convex set and the search's
    score a minimum of such distances, so moving alpha by delta moves
    either by at most |delta|."""
    m = data.draw(st.integers(2, 5), label="m")
    k = data.draw(st.integers(1, 3), label="k")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    rng = np.random.default_rng(seed)
    q, truth = random_q(rng, m, k), random_q(rng, m, k)
    if data.draw(st.booleans(), label="noiseless"):
        params = DinaParams.noiseless(m)
    else:
        params = DinaParams(rng.uniform(0.6, 0.95, m), rng.uniform(0.05, 0.3, m))
    p_star = ProfileDistribution(k, rng.dirichlet(np.ones(1 << k)))
    order = ComboOrder.saturated(m)
    if data.draw(st.booleans(), label="sampled"):
        config = SimConfig(q=truth, params=params, p_star=p_star, n=500, seed=seed % 1000)
        alpha = compute_alpha(simulate(config)[0], order)
    else:
        # q fits these rates exactly
        alpha = population_alpha(q, params, p_star, order)
    size = 10 ** data.draw(st.floats(-12, -1), label="log10 |delta|")
    step = rng.normal(size=len(order))
    moved = np.clip(alpha.rates + size * step / np.linalg.norm(step), 0.0, 1.0)
    bound = np.linalg.norm(moved - alpha.rates) + 1e-12
    near = AlphaVector(order, moved)
    assert abs(score(q, near, params) - score(q, alpha, params)) <= bound
    if m <= 4:
        far = estimate_q(near, params, k).score - estimate_q(alpha, params, k).score
        assert abs(far) <= bound


# ---------------------------------------------------------------------------
# distribution recovery

def test_estimate_p_recovers_population():
    p_true = ProfileDistribution.from_dict(
        2, {"00": 0.1, "10": 0.2, "01": 0.3, "11": 0.4}
    )
    alpha = population_alpha(GOLDEN, NOISELESS, p_true, ORDER3)
    p_hat = estimate_p(GOLDEN, alpha, NOISELESS)
    np.testing.assert_allclose(p_hat.probs, p_true.probs, atol=1e-9)


def test_estimate_p_noisy_rates():
    params = noisy_params()
    p_true = ProfileDistribution.from_dict(
        2, {"00": 0.1, "10": 0.2, "01": 0.3, "11": 0.4}
    )
    alpha = population_alpha(GOLDEN, params, p_true, ORDER3)
    p_hat = estimate_p(GOLDEN, alpha, params)
    np.testing.assert_allclose(p_hat.probs, p_true.probs, atol=1e-8)


def test_estimate_p_equals_empirical_noiseless():
    # with perfect responses the fit returns the in-sample profile frequencies
    config = SimConfig(q=GOLDEN, params=NOISELESS, p_star=UNIFORM, n=1500, seed=6)
    resp, profiles = simulate(config)
    alpha = compute_alpha(resp, ORDER3)
    p_hat = estimate_p(GOLDEN, alpha, NOISELESS)
    masks = profiles[:, 0] + 2 * profiles[:, 1]
    empirical = np.bincount(masks, minlength=4) / len(masks)
    np.testing.assert_allclose(p_hat.probs, empirical, atol=1e-9)


def test_estimate_p_large_noisy_sample():
    params = noisy_params()
    config = SimConfig(q=GOLDEN, params=params, p_star=UNIFORM, n=100_000, seed=14)
    resp, _ = simulate(config)
    p_hat = estimate_p(GOLDEN, compute_alpha(resp, ORDER3), params)
    assert np.abs(p_hat.probs - 0.25).max() <= 0.02


# ---------------------------------------------------------------------------
# exhaustive search, known rates

def test_estimate_q_population_noiseless():
    res = estimate_q(noiseless_alpha(), NOISELESS, 2)
    assert equivalent(res.q_hat, GOLDEN)
    assert res.score <= 1e-10
    assert res.n_candidates == 14
    assert res.ties == (res.q_hat,)


def test_estimate_q_population_noisy():
    params = noisy_params()
    alpha = population_alpha(GOLDEN, params, UNIFORM, ORDER3)
    res = estimate_q(alpha, params, 2)
    assert equivalent(res.q_hat, GOLDEN)
    assert len(res.ties) == 1


def test_estimate_q_sampled_noiseless():
    config = SimConfig(q=GOLDEN, params=NOISELESS, p_star=UNIFORM, n=2000, seed=0)
    resp, _ = simulate(config)
    alpha = compute_alpha(resp, ORDER3)
    res = estimate_q(alpha, NOISELESS, 2)
    assert equivalent(res.q_hat, GOLDEN)


def test_estimate_q_requires_saturated():
    alpha = AlphaVector(ComboOrder.singles(3), noiseless_alpha().rates[:3])
    with pytest.raises(ValueError):
        estimate_q(alpha, NOISELESS, 2)


def test_estimate_q_reports_ties_for_degenerate_truth():
    # both items need both attributes: coarser candidates fit equally well
    q = QMatrix.from_rows(["11", "11"])
    params = DinaParams.noiseless(2)
    alpha = population_alpha(q, params, UNIFORM, ComboOrder.saturated(2))
    res = estimate_q(alpha, params, 2)
    assert len(res.ties) > 1
    assert res.q_hat in res.ties


def test_estimate_q_score_table():
    alpha = noiseless_alpha()
    res = estimate_q(alpha, NOISELESS, 2)
    assert res.n_candidates == 14
    assert res.score == min(score(q, alpha, NOISELESS) for q in enumerate_candidates(3, 2))


def test_estimate_q_lists_capped_rescores(monkeypatch):
    """An exact re-score that hits the solver's iteration cap is listed in
    diagnostics["capped"]; the ranking is unchanged."""
    params = noisy_params(m=4)
    truth = QMatrix.from_rows(["10", "01", "11", "10"])
    alpha = population_alpha(truth, params, UNIFORM, ComboOrder.saturated(4))
    clean = estimate_q(alpha, params, 2, tie_tol=1e-3)
    assert "capped" not in clean.diagnostics
    rescored = []

    def capped(m_matrix, beta, **kwargs):
        rescored.append(np.array(m_matrix))
        return dataclasses.replace(simplex_lsq(m_matrix, beta, **kwargs), status="iteration-cap")

    monkeypatch.setattr(dinaq.estimator, "simplex_lsq", capped)
    flagged = estimate_q(alpha, params, 2, tie_tol=1e-3)
    monkeypatch.undo()
    assert_same_ranking(clean, flagged)
    listed = flagged.diagnostics["capped"]
    assert flagged.q_hat in listed and set(flagged.ties) <= set(listed)
    assert flagged.score == score(flagged.q_hat, alpha, params)
    # every solve re-scored one listed candidate of the screen; p_tilde comes
    # from the winner's re-score, not from a solve of its own
    designs = [design(q, params.c, params.g, alpha.order).tobytes() for q in listed]
    assert sorted(designs) == sorted(m.tobytes() for m in rescored)


def test_estimate_q_matches_full_table_scan():
    """Winner and tie set agree with an independent scan scoring every
    canonical candidate directly."""
    params = noisy_params()
    config = SimConfig(q=GOLDEN, params=params, p_star=UNIFORM, n=3000, seed=77)
    resp, _ = simulate(config)
    alpha = compute_alpha(resp, ORDER3)
    res = estimate_q(alpha, params, 2)

    table = {
        cand: score(cand, alpha, params)
        for cand in enumerate_candidates(3, 2, budget=10**6)
    }
    best = min(table.values())
    scan_ties = {cand for cand, s in table.items() if s <= best + DEFAULT_TIE_TOL}
    assert res.score == pytest.approx(best, abs=1e-12)
    assert table[res.q_hat] == pytest.approx(best, abs=1e-12)
    assert set(res.ties) == scan_ties
    # the screen on every candidate at once: bounds near exact, ties exact
    fits = _screen(list(table), params.c, params.g, alpha, DEFAULT_TIE_TOL)
    for (cand, s), (got, _, _) in zip(table.items(), fits):
        assert got == pytest.approx(s, abs=1e-12)
        if cand in scan_ties:
            assert got == s


def _reference_search(alpha, params, k, tie_tol):
    """The search as an exact solve of every candidate, in enumeration order."""
    cands = list(enumerate_candidates(alpha.order.m, k, budget=10**6))
    scores = [score(cand, alpha, params) for cand in cands]
    best = int(np.argmin(scores))
    ties = {c: s for c, s in zip(cands, scores) if s <= scores[best] + tie_tol}
    return cands[best], scores[best], ties, estimate_p(cands[best], alpha, params)


@pytest.mark.parametrize("tie_tol", [1e-7, 1e-3])
@pytest.mark.parametrize(
    "m, k, rates",
    [
        (3, 2, "noiseless"), (4, 2, "noiseless"),
        (3, 2, "sampled"), (4, 3, "sampled"),
        (4, 2, "population"), (5, 3, "population"),
    ],
)
def test_estimate_q_screen_matches_exact_scan(m, k, rates, tie_tol):
    """Screening candidates with the batched bounds changes nothing: winner,
    score, tie set and fitted distribution equal those of an exact solve of
    every candidate, to the byte. (5, 3) spans several screen chunks."""
    rng = np.random.default_rng(50 * m + k)
    cands = list(enumerate_candidates(m, k, budget=10**6))
    truth = cands[int(rng.integers(len(cands)))]
    if rates == "noiseless":
        params = DinaParams.noiseless(m)
    else:
        params = DinaParams(rng.uniform(0.7, 0.95, m), rng.uniform(0.05, 0.3, m))
    order = ComboOrder.saturated(m)
    if rates == "population":
        alpha = population_alpha(truth, params, ProfileDistribution.uniform(k), order)
    else:
        config = SimConfig(
            q=truth, params=params, p_star=ProfileDistribution.uniform(k), n=800, seed=m + k
        )
        alpha = compute_alpha(simulate(config)[0], order)
    res = estimate_q(alpha, params, k, tie_tol=tie_tol)
    q_ref, score_ref, ties_ref, p_ref = _reference_search(alpha, params, k, tie_tol)
    assert res.q_hat == q_ref
    assert res.score == score_ref
    assert res.ties == tuple(ties_ref)
    assert res.p_tilde.probs.tobytes() == p_ref.probs.tobytes()
    # screened all at once, every tie carries its exact score, not a bound
    cands = list(enumerate_candidates(m, k, budget=10**6))
    fits = _screen(cands, params.c, params.g, alpha, tie_tol)
    exact = dict(zip(cands, (f[0] for f in fits)))
    for cand, s in ties_ref.items():
        assert exact[cand] == s


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_row_free_bounds_bracket_exact_scores(data):
    """The screen's bounds, computed without designs, bracket every
    candidate's exact score on noiseless, population and sampled rates, at
    shared or per-candidate capable rates, exact fits included; at full
    column rank the upper bound is the exact score."""
    m = data.draw(st.integers(2, 5), label="m")
    k = data.draw(st.integers(1, 3), label="k")
    kind = data.draw(st.sampled_from(["noiseless", "population", "sampled"]), label="rates")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    rng = np.random.default_rng(seed)
    cands = list(enumerate_candidates(m, k, budget=10**6))
    picks = rng.choice(len(cands), size=min(len(cands), 40), replace=False)
    stack = [cands[int(i)] for i in picks]
    truth = stack[0]
    if kind == "noiseless":
        params = DinaParams.noiseless(m)
    else:
        params = DinaParams(rng.uniform(0.6, 0.95, m), rng.uniform(0.05, 0.3, m))
    order = ComboOrder.saturated(m)
    p_star = ProfileDistribution(k, rng.dirichlet(np.ones(1 << k)))
    if kind == "sampled":
        config = SimConfig(q=truth, params=params, p_star=p_star, n=500, seed=seed % 1000)
        alpha = compute_alpha(simulate(config)[0], order)
    else:
        # the first candidate fits these rates exactly
        alpha = population_alpha(truth, params, p_star, order)
    g = params.g
    if data.draw(st.booleans(), label="per-candidate c"):
        c = rng.uniform(0.0, 1.0, (len(stack), m))
        c[0] = params.c
        c[:, rng.random(m) < 0.2] = g[0]
    else:
        c = params.c
    target = _by_mask(alpha)
    upper, lower = _pattern_bounds(
        patterns(stack), c, g, target, pattern_moments(target, c, g)
    )
    for j, q in enumerate(stack):
        mat = design(q, c[j] if c.ndim == 2 else c, g, order)
        exact = simplex_lsq(mat, alpha.rates).residual
        assert lower[j] <= exact + 1e-12
        assert exact <= upper[j] + 1e-12
        if np.linalg.matrix_rank(mat) == mat.shape[1]:
            assert upper[j] - exact <= 1e-10


def _fit_table(alpha, g, k):
    """The unknown-c search as an exact scan: every candidate's recovered
    rates and exact score, +inf for a degenerate moment system."""
    beta = decontaminate(alpha, g)
    table = []
    for q in enumerate_candidates(alpha.order.m, k, budget=10**6):
        try:
            fixed = _moment_fixed(q, g, beta)
        except DegenerateSampleError:
            table.append((q, None, np.inf))
            continue
        c = profile_slip(q, g, alpha, fixed)
        table.append((q, c, score(q, alpha, DinaParams(c, g))))
    return table


@pytest.mark.parametrize(
    "m, p_zero, n, seed",
    [
        (3, True, None, 1), (3, True, 4000, 2), (4, False, 3000, 3), (4, True, None, 4),
        (7, False, 4000, 5),
    ],
)
def test_unknown_c_screen_matches_exact_scan(m, p_zero, n, seed):
    """Ranking the unknown-c search's final scores with the certified screen
    changes nothing: winner, score, ties, c_hat and p_tilde equal those of
    an exact solve of every candidate, to the byte. A zero-mass profile
    makes some candidates' moment systems degenerate. At m = 7 the 1,094
    candidates span three screen chunks."""
    rng = np.random.default_rng(seed)
    truth = QMatrix.from_rows(["10", "01", "11", "10", "01", "11", "10"][:m])
    params = DinaParams(rng.uniform(0.7, 0.95, m), rng.uniform(0.05, 0.3, m))
    probs = rng.dirichlet(np.ones(4))
    if p_zero:
        probs[3] = 0.0
        probs /= probs.sum()
    p_star = ProfileDistribution(2, probs)
    order = ComboOrder.saturated(m)
    if n is None:
        alpha = population_alpha(truth, params, p_star, order)
    else:
        with warnings.catch_warnings():
            # the zero-mass profile is the point here
            warnings.simplefilter("ignore")
            config = SimConfig(q=truth, params=params, p_star=p_star, n=n, seed=seed)
        alpha = compute_alpha(simulate(config)[0], order)
    res = estimate_q_unknown_c(alpha, params.g, 2)
    table = _fit_table(alpha, params.g, 2)
    scores = np.array([s for _, _, s in table])
    best = int(np.argmin(scores))
    q_ref, c_ref, s_ref = table[best]
    assert res.q_hat == q_ref
    assert res.score == s_ref
    assert res.ties == tuple(q for q, _, s in table if s <= s_ref + DEFAULT_TIE_TOL)
    assert res.c_hat.tobytes() == c_ref.tobytes()
    p_ref = estimate_p(q_ref, alpha, DinaParams(c_ref, params.g))
    assert res.p_tilde.probs.tobytes() == p_ref.probs.tobytes()
    degenerate = tuple(q for q, c, _ in table if c is None)
    assert res.diagnostics.get("degenerate", ()) == degenerate
    if p_zero and n is None:
        assert degenerate
    # the screen at the reference's rates: the upper bound where it does not
    # re-score, the exact score where it does
    fitted = [(q, c, s) for q, c, s in table if c is not None]
    cs = np.array([c for _, c, _ in fitted])
    fits = _screen([q for q, _, _ in fitted], cs, params.g, alpha, DEFAULT_TIE_TOL)
    for (_, _, s), (got, _, _) in zip(fitted, fits):
        assert got == pytest.approx(s, abs=1e-12)
        if got <= s_ref + DEFAULT_TIE_TOL:
            assert got == s


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_estimate_q_invariant_under_item_relabelling(data):
    """Relabelling the items, with c and g permuted to match, relabels the
    known-rates search's answer and nothing else: the tie sets map onto
    each other, the scores agree, and each winner lies in the other's tie
    set. Population rates are recomputed in the new labelling; samples are
    the same responses with their columns permuted."""
    m = data.draw(st.integers(2, 5), label="m")
    k = data.draw(st.integers(1, 3), label="k")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    perm = data.draw(st.permutations(range(m)), label="perm")
    rng = np.random.default_rng(seed)
    truth = random_q(rng, m, k)
    if data.draw(st.booleans(), label="noiseless"):
        params = DinaParams.noiseless(m)
    else:
        params = DinaParams(rng.uniform(0.6, 0.95, m), rng.uniform(0.05, 0.3, m))
    relabelled = DinaParams(params.c[perm], params.g[perm])
    p_star = ProfileDistribution(k, rng.dirichlet(np.ones(1 << k)))
    order = ComboOrder.saturated(m)
    if data.draw(st.booleans(), label="sampled"):
        config = SimConfig(q=truth, params=params, p_star=p_star, n=500, seed=seed)
        resp = simulate(config)[0]
        alpha, moved = compute_alpha(resp, order), compute_alpha(resp.restrict(perm), order)
    else:
        alpha = population_alpha(truth, params, p_star, order)
        moved = population_alpha(QMatrix(truth.entries[perm]), relabelled, p_star, order)
    res, other = estimate_q(alpha, params, k), estimate_q(moved, relabelled, k)

    def relabel(q):
        return canonicalize(QMatrix(q.entries[perm]))

    mapped = {relabel(q) for q in res.ties}
    assert mapped == set(other.ties)
    assert abs(res.score - other.score) <= 1e-12
    assert relabel(res.q_hat) in set(other.ties)
    assert other.q_hat in mapped


# ---------------------------------------------------------------------------
# covers and slip recovery

def test_find_cover_combo_golden():
    assert find_cover_combo(GOLDEN, 0) == 0b100
    assert find_cover_combo(GOLDEN, 1) == 0b100
    assert find_cover_combo(GOLDEN, 2) == 0b011


def test_find_cover_combo_none():
    q = QMatrix.from_rows(["10", "01"])
    assert find_cover_combo(q, 0) is None
    assert find_cover_combo(q, 1) is None


def test_moment_slip_population_exact():
    params = noisy_params()
    beta = decontaminate(population_alpha(GOLDEN, params, UNIFORM, ORDER3), params.g)
    c0 = moment_slip(GOLDEN, params.g, beta, 0, 0b100)
    assert c0 == pytest.approx(0.8, abs=1e-10)
    c2 = moment_slip(GOLDEN, params.g, beta, 2, 0b011)
    assert c2 == pytest.approx(0.8, abs=1e-10)


def test_moment_slip_validates_cover():
    beta = decontaminate(noiseless_alpha(), np.zeros(3))
    with pytest.raises(ValueError):
        moment_slip(GOLDEN, np.zeros(3), beta, 2, 0b001)
    with pytest.raises(ValueError):
        moment_slip(GOLDEN, np.zeros(3), beta, 0, 0)
    with pytest.raises(ValueError):
        moment_slip(GOLDEN, np.zeros(3), beta, 0, 0b001)  # cover contains the item itself
    with pytest.raises(ValueError):
        moment_slip(GOLDEN, np.zeros(3), beta, 0, 0b1000)  # not a combination of 3 items
    with pytest.raises(ValueError):
        moment_slip(GOLDEN, np.zeros(3), beta[:-1], 0, 0b100)


def test_moment_slip_degenerate():
    # nobody ever answers anything and guessing is impossible: the cover's
    # de-contaminated rate vanishes
    dead = AlphaVector(ORDER3, np.zeros(7))
    with pytest.raises(DegenerateSampleError):
        moment_slip(GOLDEN, np.zeros(3), decontaminate(dead, np.zeros(3)), 0, 0b100)


def random_q(rng, m, k):
    rows = rng.integers(1, 2**k, size=m)
    return QMatrix(tuple(tuple(mask_to_bits(int(r), k)) for r in rows))


def test_decontaminate_matches_operator_rows():
    """The per-item pass equals the operator's product and the subset sum
    sum_{U subset of S} alpha[U] prod_{i in S minus U} (-g_i), alpha[0] = 1."""
    rng = np.random.default_rng(404)
    for m in range(3, 9):
        q = random_q(rng, m, 2)
        params = DinaParams(rng.uniform(0.6, 0.95, m), rng.uniform(0.05, 0.3, m))
        config = SimConfig(q=q, params=params, p_star=UNIFORM, n=2000, seed=m)
        resp, _ = simulate(config)
        order = ComboOrder.saturated(m)
        alpha = compute_alpha(resp, order)
        beta = decontaminate(alpha, params.g)
        assert beta.shape == (1 << m,) and not beta.flags.writeable
        assert beta[0] == 1.0
        product = build_d(params.g, order) @ np.append(alpha.rates, 1.0)
        np.testing.assert_allclose(beta[list(order.combos)], product, rtol=0, atol=1e-14)
        rates = {0: 1.0, **dict(zip(order.combos, alpha.rates))}
        for s in order.combos:
            total, sub = 0.0, s
            while True:
                dropped = [i for i in range(m) if (s & ~sub) >> i & 1]
                total += rates[sub] * np.prod(-params.g[dropped])
                if sub == 0:
                    break
                sub = (sub - 1) & s
            assert abs(beta[s] - total) <= 1e-14


def test_decontaminate_builds_no_operator():
    """One pass per item over the 2^m lattice: at m = 10 the parent's
    operator alone held 8 MiB."""
    m = 10
    q = QMatrix.from_rows(["10", "01", "11", "10", "01"] * 2)
    params = DinaParams(np.full(m, 0.85), np.full(m, 0.15))
    resp, _ = simulate(SimConfig(q=q, params=params, p_star=UNIFORM, n=1000, seed=10))
    alpha = compute_alpha(resp, ComboOrder.saturated(m))
    tracemalloc.start()
    try:
        beta = decontaminate(alpha, params.g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert beta.shape == (1 << m,)
    assert peak < 1 << 20


def test_decontaminate_population_is_pure_capability():
    # D @ [design(q, c, g); 1] == [0 | design(q, c - g, 0)], applied to alpha
    rng = np.random.default_rng(405)
    for m in range(3, 7):
        q = random_q(rng, m, 2)
        c, g = rng.uniform(0.6, 0.95, m), rng.uniform(0.05, 0.3, m)
        p = ProfileDistribution(2, rng.dirichlet(np.ones(4)))
        order = ComboOrder.saturated(m)
        beta = decontaminate(population_alpha(q, DinaParams(c, g), p, order), g)
        pure = design(q, c - g, np.zeros(m), order)[:, 1:] @ p.nonzero_probs
        np.testing.assert_allclose(beta[list(order.combos)], pure, rtol=0, atol=1e-12)


def test_profile_slip_population():
    c_true = np.array([0.8, 0.7, 0.9])
    g = np.full(3, 0.2)
    alpha = population_alpha(GOLDEN, DinaParams(c_true, g), UNIFORM, ORDER3)
    c_hat = profile_slip(GOLDEN, g, alpha)
    np.testing.assert_allclose(c_hat, c_true, atol=1e-3)


def test_profile_slip_respects_fixed():
    c_true = np.array([0.8, 0.7, 0.9])
    g = np.full(3, 0.2)
    alpha = population_alpha(GOLDEN, DinaParams(c_true, g), UNIFORM, ORDER3)
    c_hat = profile_slip(GOLDEN, g, alpha, fixed={0: 0.8})
    assert c_hat[0] == 0.8
    np.testing.assert_allclose(c_hat[1:], c_true[1:], atol=1e-3)


def test_moment_slip_noiseless_sample():
    # solving the cover implies solving the item, so the contrast ratio is 1
    config = SimConfig(q=GOLDEN, params=NOISELESS, p_star=UNIFORM, n=3000, seed=4)
    resp, _ = simulate(config)
    alpha = compute_alpha(resp, ORDER3)
    beta = decontaminate(alpha, np.zeros(3))
    assert moment_slip(GOLDEN, np.zeros(3), beta, 0, 0b100) == pytest.approx(1.0)


def test_rate_searches_reject_g_outside_unit_interval():
    """g's range is checked where it enters, before any work: at k = 1 every
    item is moment-estimated and no rate search runs, yet 1.5 is refused,
    and ahead of the budget check."""
    alpha = noiseless_alpha()
    resp, _ = simulate(SimConfig(q=GOLDEN, params=NOISELESS, p_star=UNIFORM, n=200, seed=1))
    for bad in (1.5, -0.1):
        g = [0.2, bad, 0.2]
        with pytest.raises(ValueError, match=r"g entries must lie in \[0, 1\]"):
            estimate_q_unknown_c(alpha, g, 1)
        with pytest.raises(ValueError, match=r"g entries must lie in \[0, 1\]"):
            estimate_q_unknown_c(alpha, g, 2, budget=1)
        with pytest.raises(ValueError, match=r"g entries must lie in \[0, 1\]"):
            split_estimate(resp, [[0, 1, 2]], 1, g=g)
        with pytest.raises(ValueError, match=r"g entries must lie in \[0, 1\]"):
            profile_slip(GOLDEN, g, alpha)


def test_profile_slip_all_fixed_returns_unchanged():
    alpha = noiseless_alpha()
    out = profile_slip(GOLDEN, np.zeros(3), alpha, fixed={0: 0.7, 1: 0.6, 2: 0.9})
    np.testing.assert_array_equal(out, [0.7, 0.6, 0.9])


def test_unknown_c_survives_flat_powell_start():
    # every candidate reproduces this point-mass population exactly, so the
    # moment stage and the rate search, from every start, must end at an
    # exact fit for all 14 candidates and leave them tied
    c = [0.7512738219103413, 0.8915622577369557, 0.7857861018756662]
    g = [0.07780457441689859, 0.20718362978526883, 0.19620688296021976]
    point = ProfileDistribution.point_mass(2, "11")
    alpha = population_alpha(GOLDEN, DinaParams(c, g), point, ORDER3)
    res = estimate_q_unknown_c(alpha, g, 2)
    assert res.n_candidates == 14
    assert len(res.ties) == 14
    assert res.score <= 1e-12


def test_profile_slip_noiseless_reaches_one():
    c_hat = profile_slip(GOLDEN, np.zeros(3), noiseless_alpha())
    np.testing.assert_allclose(c_hat, 1.0, atol=1e-3)


def test_moment_and_profile_routes_agree():
    params = noisy_params()
    config = SimConfig(q=GOLDEN, params=params, p_star=UNIFORM, n=100_000, seed=33)
    resp, _ = simulate(config)
    alpha = compute_alpha(resp, ORDER3)
    fitted = profile_slip(GOLDEN, params.g, alpha)
    beta = decontaminate(alpha, params.g)
    for item in range(3):
        cover = find_cover_combo(GOLDEN, item)
        moment = moment_slip(GOLDEN, params.g, beta, item, cover)
        assert abs(moment - fitted[item]) <= 0.03


def test_profile_slip_matches_grid_oracle():
    # coarse 2-d grid scan over the free coordinates cannot beat the search
    c_true = np.array([0.75, 0.85, 0.65])
    g = np.full(3, 0.25)
    alpha = population_alpha(GOLDEN, DinaParams(c_true, g), UNIFORM, ORDER3)
    c_hat = profile_slip(GOLDEN, g, alpha, fixed={2: 0.65})
    found = score(GOLDEN, alpha, DinaParams(c_hat, g))
    best_grid = min(
        score(GOLDEN, alpha, DinaParams(np.array([a, b, 0.65]), g))
        for a in np.linspace(0, 1, 51)
        for b in np.linspace(0, 1, 51)
    )
    assert found <= best_grid + 1e-9


def _powell_profile_slip(q, g, alpha, fixed):
    """The three-start bounded Powell search that profile_slip ran before it
    used the gradient, kept here as the reference."""
    c = np.zeros(q.m)
    for i, v in fixed.items():
        c[i] = v
    free = [i for i in range(q.m) if i not in fixed]
    if not free:
        return c

    def objective(v):
        trial = c.copy()
        trial[free] = np.clip(v, 0.0, 1.0)
        return score(q, alpha, DinaParams(trial, g))

    best_f, best_x = np.inf, None
    for level in (0.5, 0.85, 0.25):
        try:
            res = minimize(
                objective,
                np.full(len(free), level),
                method="Powell",
                bounds=[(0.0, 1.0)] * len(free),
                options={"xtol": 1e-5, "ftol": 1e-10, "maxfev": 4000},
            )
        except ValueError:
            continue
        if res.fun < best_f:
            best_f, best_x = float(res.fun), np.asarray(res.x)
    c[free] = np.clip(best_x, 0.0, 1.0)
    return c


def _moment_fixed(q, g, beta):
    # the moment estimates the unknown-c search fixes before profiling
    fixed = {}
    for i in range(q.m):
        cover = find_cover_combo(q, i)
        if cover is not None:
            fixed[i] = moment_slip(q, g, beta, i, cover)
    return fixed


def _random_case(rng, index):
    """(canonical candidates, order, params, alpha) for random m = 3-5 and
    k = 2-3, on population rates (odd index) or a sample of 2000 subjects
    (even index)."""
    m, k = int(rng.integers(3, 6)), int(rng.integers(2, 4))
    cands = list(enumerate_candidates(m, k, budget=10**6))
    truth = cands[int(rng.integers(len(cands)))]
    params = DinaParams(rng.uniform(0.7, 0.95, m), rng.uniform(0.05, 0.3, m))
    p_star = ProfileDistribution(k, rng.dirichlet(np.ones(1 << k)))
    order = ComboOrder.saturated(m)
    if index % 2:
        alpha = population_alpha(truth, params, p_star, order)
    else:
        config = SimConfig(q=truth, params=params, p_star=p_star, n=2000, seed=index)
        alpha = compute_alpha(simulate(config)[0], order)
    return cands, order, params, alpha


def test_rate_gradient_matches_central_differences():
    """The envelope-theorem gradient of the scaled score^2 agrees with central
    differences wherever the simplex fit keeps its support across the
    difference step (away from active-set kinks)."""
    rng = np.random.default_rng(7)
    h, checked = 1e-6, 0
    for index in range(80):
        cands, order, params, alpha = _random_case(rng, index)
        q = cands[int(rng.integers(len(cands)))]
        size = int(rng.integers(1, q.m + 1))
        free = sorted(int(i) for i in rng.choice(q.m, size, replace=False))
        c = rng.uniform(0.05, 0.95, q.m)
        objective = _rate_objective(q, params.g, alpha, c, free)

        def support(v):
            trial = c.copy()
            trial[free] = v
            return tuple(simplex_lsq(design(q, trial, params.g, order), alpha.rates).x > 0)

        v = c[free]
        f, grad = objective(v)
        fit = score(q, alpha, DinaParams(c, params.g))
        assert f == pytest.approx(_SLIP_SCALE * fit**2, rel=1e-12, abs=1e-30)
        steps = np.eye(len(free)) * h
        if any(support(v + e) != support(v) or support(v - e) != support(v) for e in steps):
            continue
        fd = np.array([(objective(v + e)[0] - objective(v - e)[0]) / (2 * h) for e in steps])
        # rounding moves each difference by about 1e-16 * f / h = 1e-10 * f
        assert np.linalg.norm(fd - grad) <= 1e-6 * np.linalg.norm(grad) + 1e-9 * f
        # count only points where the relative bound is the binding one
        checked += bool(np.linalg.norm(grad) >= 1e-2 * f)
    assert checked >= 60


def test_profile_slip_no_worse_than_powell():
    """On profile-searched candidates (moment estimates fixed, the rest
    free) the gradient search never ends above the three-start Powell search
    it replaced."""
    rng = np.random.default_rng(11)
    compared, index = 0, 0
    while compared < 100:
        cands, _, params, alpha = _random_case(rng, index)
        index += 1
        beta = decontaminate(alpha, params.g)
        for q in (cands[int(j)] for j in rng.choice(len(cands), 6, replace=False)):
            try:
                fixed = _moment_fixed(q, params.g, beta)
            except DegenerateSampleError:
                continue
            if len(fixed) == q.m:
                continue
            new = score(q, alpha, DinaParams(profile_slip(q, params.g, alpha, fixed), params.g))
            ref_c = _powell_profile_slip(q, params.g, alpha, fixed)
            assert new <= score(q, alpha, DinaParams(ref_c, params.g)) + 1e-9
            compared += 1


def _permuted_columns(q, perm):
    return QMatrix(tuple(tuple(row[j] for j in perm) for row in q.entries.tolist()))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_score_and_profile_fit_invariant_under_column_permutation(data):
    m = data.draw(st.integers(2, 4), label="m")
    k = data.draw(st.integers(2, 3), label="k")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    rng = np.random.default_rng(seed)
    q, truth = random_q(rng, m, k), random_q(rng, m, k)
    perm = data.draw(st.permutations(range(k)), label="perm")
    params = DinaParams(rng.uniform(0.6, 0.95, m), rng.uniform(0.05, 0.3, m))
    p_star = ProfileDistribution(k, rng.dirichlet(np.ones(1 << k)))
    alpha = population_alpha(truth, params, p_star, ComboOrder.saturated(m))
    permuted = _permuted_columns(q, perm)
    assert abs(score(permuted, alpha, params) - score(q, alpha, params)) <= 1e-12
    held = data.draw(st.sets(st.integers(0, m - 1), max_size=m - 1), label="fixed")
    fixed = {i: float(params.c[i]) for i in held}
    fits = [
        score(cand, alpha, DinaParams(profile_slip(cand, params.g, alpha, fixed), params.g))
        for cand in (q, permuted)
    ]
    assert abs(fits[0] - fits[1]) <= 1e-9


def test_profile_slip_fits_near_exact_in_either_column_order():
    # the candidate can fit these rates almost exactly; this pins
    # _SLIP_SCALE, since minimize's ftol test is absolute below 1 and on
    # unscaled score^2 would stop the search short of a 1e-9 fit
    rng = np.random.default_rng(29651)
    q, truth = random_q(rng, 3, 3), random_q(rng, 3, 3)
    params = DinaParams(rng.uniform(0.6, 0.95, 3), rng.uniform(0.05, 0.3, 3))
    p_star = ProfileDistribution(3, rng.dirichlet(np.ones(8)))
    alpha = population_alpha(truth, params, p_star, ComboOrder.saturated(3))
    for cand in (q, _permuted_columns(q, [0, 2, 1])):
        c = profile_slip(cand, params.g, alpha)
        assert score(cand, alpha, DinaParams(c, params.g)) <= 1e-9


def _recorded(objective):
    """``objective`` and the list of (value, point) it appends each call to."""
    seen = []

    def wrapped(v):
        f, grad = objective(v)
        seen.append((f, v.copy()))
        return f, grad

    return wrapped, seen


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_rate_search_driver_contract(data):
    """From every start, the bounded search ends inside the box, no higher
    than its start, at the objective value it reports; a run reported
    converged meets the projected-gradient test or the relative-decrease
    test on its last step."""
    m = data.draw(st.integers(2, 4), label="m")
    k = data.draw(st.integers(1, 3), label="k")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    rng = np.random.default_rng(seed)
    q, truth = random_q(rng, m, k), random_q(rng, m, k)
    params = DinaParams(rng.uniform(0.6, 0.95, m), rng.uniform(0.05, 0.3, m))
    p_star = ProfileDistribution(k, rng.dirichlet(np.ones(1 << k)))
    order = ComboOrder.saturated(m)
    if data.draw(st.booleans(), label="sampled"):
        config = SimConfig(q=truth, params=params, p_star=p_star, n=1000, seed=seed)
        alpha = compute_alpha(simulate(config)[0], order)
    else:
        alpha = population_alpha(truth, params, p_star, order)
    free = sorted(data.draw(st.sets(st.integers(0, m - 1), min_size=1), label="free"))
    objective = _rate_objective(q, params.g, alpha, params.c, free)
    ftol, gtol = _SLIP_OPTIONS["ftol"], _SLIP_OPTIONS["gtol"]
    for level in _SLIP_STARTS:
        recorded, seen = _recorded(objective)
        res = dinaq.estimator.minimize(recorded, np.full(len(free), level))
        assert res.x.shape == (len(free),)
        assert ((res.x >= 0.0) & (res.x <= 1.0)).all()
        assert res.nfev == len(seen)
        assert res.fun <= seen[0][0]
        f, grad = objective(res.x)
        assert res.fun == f
        if res.success:
            pgrad = np.abs(np.clip(res.x - grad, 0.0, 1.0) - res.x).max()
            stalled = any(
                0.0 <= prev - f <= ftol * max(abs(prev), abs(f), 1.0) for prev, _ in seen[:-1]
            )
            assert pgrad <= gtol or stalled


def test_rate_search_cap_reports_unconverged_at_best_point(monkeypatch):
    """A search that spends its evaluation cap is reported unconverged and
    returns the best point it evaluated, and so does the rate search that
    runs it from every start."""
    params = noisy_params()
    alpha = population_alpha(GOLDEN, params, UNIFORM, ORDER3)
    q = QMatrix.from_rows(["10", "01", "01"])
    objective = _rate_objective(q, params.g, alpha, np.zeros(3), [0, 1, 2])
    uncapped = dinaq.estimator.minimize(objective, np.full(3, 0.5))
    assert uncapped.success
    assert uncapped.nfev > 4
    monkeypatch.setitem(_SLIP_OPTIONS, "maxfun", 4)
    recorded, seen = _recorded(objective)
    res = dinaq.estimator.minimize(recorded, np.full(3, 0.5))
    assert not res.success
    assert res.nfev == len(seen) == 4
    best_f, best_x = min(seen, key=lambda e: e[0])
    assert res.fun == best_f
    assert res.x.tobytes() == best_x.tobytes()
    assert res.fun < seen[0][0]
    c, converged = _rate_search(q, params.g, alpha, np.zeros(3), [0, 1, 2])
    assert not converged
    # the best of three starts, the first of which is the run above
    first = np.sqrt(res.fun / _SLIP_SCALE)
    assert score(q, alpha, DinaParams(c, params.g)) <= first * (1 + 1e-12)


# ---------------------------------------------------------------------------
# unknown-c search

def test_unknown_c_population():
    params = noisy_params()
    alpha = population_alpha(GOLDEN, params, UNIFORM, ORDER3)
    res = estimate_q_unknown_c(alpha, params.g, 2)
    assert equivalent(res.q_hat, GOLDEN)
    np.testing.assert_allclose(res.c_hat, [0.8, 0.8, 0.8], atol=1e-6)
    assert res.score <= 1e-8


def test_unknown_c_sampled():
    params = noisy_params()
    config = SimConfig(q=GOLDEN, params=params, p_star=UNIFORM, n=100_000, seed=42)
    resp, _ = simulate(config)
    alpha = compute_alpha(resp, ORDER3)
    res = estimate_q_unknown_c(alpha, params.g, 2)
    assert equivalent(res.q_hat, GOLDEN)
    np.testing.assert_allclose(res.c_hat, [0.8, 0.8, 0.8], atol=0.05)


def test_unknown_c_noiseless_reduces_to_known_rates():
    # with g = 0 on perfect data the fitted rates hit 1 and the search
    # collapses onto the known-rates answer
    config = SimConfig(q=GOLDEN, params=NOISELESS, p_star=UNIFORM, n=2000, seed=19)
    resp, _ = simulate(config)
    alpha = compute_alpha(resp, ORDER3)
    unknown = estimate_q_unknown_c(alpha, np.zeros(3), 2)
    known = estimate_q(alpha, NOISELESS, 2)
    assert unknown.q_hat == known.q_hat
    np.testing.assert_allclose(unknown.c_hat, 1.0, atol=1e-6)


def _powell_unknown_c_search(alpha, g, k):
    """The unknown-c search with the Powell reference profile search:
    winner (first in enumeration order on exact ties) and tie set."""
    beta = decontaminate(alpha, g)
    cands = list(enumerate_candidates(alpha.order.m, k, budget=10**6))
    scores = {}
    for q in cands:
        try:
            fixed = _moment_fixed(q, g, beta)
        except DegenerateSampleError:
            scores[q] = np.inf
            continue
        scores[q] = score(q, alpha, DinaParams(_powell_profile_slip(q, g, alpha, fixed), g))
    best = min(cands, key=lambda q: scores[q])
    ties = tuple(q for q in cands if scores[q] <= scores[best] + DEFAULT_TIE_TOL)
    return best, ties


@pytest.mark.parametrize("m, seed", [(4, 11), (5, 12)])
def test_unknown_c_matches_powell_reference(m, seed):
    rng = np.random.default_rng(seed)
    truth = QMatrix.from_rows(["10", "01", "11", "10", "01"][:m])
    params = DinaParams(rng.uniform(0.7, 0.95, m), rng.uniform(0.05, 0.3, m))
    config = SimConfig(q=truth, params=params, p_star=UNIFORM, n=5000, seed=seed)
    alpha = compute_alpha(simulate(config)[0], ComboOrder.saturated(m))
    # per candidate, test_profile_slip_no_worse_than_powell compares the
    # two rate searches
    res = estimate_q_unknown_c(alpha, params.g, 2)
    best, ties = _powell_unknown_c_search(alpha, params.g, 2)
    assert res.q_hat == best
    assert res.ties == ties


def test_unknown_c_lists_unconverged(monkeypatch):
    """A candidate whose rate search converges from no start is still
    ranked, and is named in diagnostics["unconverged"]."""
    params = noisy_params()
    config = SimConfig(q=GOLDEN, params=params, p_star=UNIFORM, n=20_000, seed=21)
    alpha = compute_alpha(simulate(config)[0], ORDER3)
    clean = estimate_q_unknown_c(alpha, params.g, 2)
    assert "unconverged" not in clean.diagnostics
    beta = decontaminate(alpha, params.g)
    fixed = {
        q: _moment_fixed(q, params.g, beta) for q in enumerate_candidates(3, 2, budget=10**6)
    }
    searched = tuple(q for q, f in fixed.items() if len(f) < 3)
    rates = [profile_slip(q, params.g, alpha, fixed[q]) for q in searched]

    search = dinaq.estimator.minimize

    def failing(*args, **kwargs):
        res = search(*args, **kwargs)
        res.success = False
        return res

    monkeypatch.setattr(dinaq.estimator, "minimize", failing)
    flagged = estimate_q_unknown_c(alpha, params.g, 2)
    assert searched
    assert flagged.diagnostics["unconverged"] == searched
    assert_same_ranking(clean, flagged)
    # each candidate's recovered rates, and so its score, are unchanged
    for q, c in zip(searched, rates):
        assert profile_slip(q, params.g, alpha, fixed[q]).tobytes() == c.tobytes()


# ---------------------------------------------------------------------------
# split estimation

STACKED = QMatrix.from_rows(["10", "01", "11", "10", "01", "11"])


def test_split_matches_full_noiseless():
    params = DinaParams.noiseless(6)
    p_star = ProfileDistribution.uniform(2)
    config = SimConfig(q=STACKED, params=params, p_star=p_star, n=5000, seed=3)
    resp, _ = simulate(config)
    stitched = split_estimate(
        resp, [[0, 1, 2, 3], [2, 3, 4, 5]], 2, params=params
    )
    assert equivalent(stitched, STACKED)
    full = estimate_q(compute_alpha(resp, ComboOrder.saturated(6)), params, 2)
    assert stitched == canonicalize(full.q_hat)


def test_split_unknown_c():
    params = DinaParams(np.full(6, 0.85), np.full(6, 0.15))
    config = SimConfig(
        q=STACKED, params=params, p_star=ProfileDistribution.uniform(2),
        n=60_000, seed=8,
    )
    resp, _ = simulate(config)
    stitched = split_estimate(
        resp, [[0, 1, 2, 3], [2, 3, 4, 5]], 2, g=params.g
    )
    assert equivalent(stitched, STACKED)


def test_split_single_group_equals_full_search():
    params = DinaParams.noiseless(3)
    config = SimConfig(q=GOLDEN, params=params, p_star=UNIFORM, n=2000, seed=13)
    resp, _ = simulate(config)
    stitched = split_estimate(resp, [[0, 1, 2]], 2, params=params)
    full = estimate_q(compute_alpha(resp, ORDER3), params, 2)
    assert stitched == canonicalize(full.q_hat)


def test_split_requires_overlap_for_symmetric_groups():
    truth = QMatrix.from_rows(["10", "01", "10", "01"])
    params = DinaParams.noiseless(4)
    config = SimConfig(
        q=truth, params=params, p_star=ProfileDistribution.uniform(2),
        n=4000, seed=5,
    )
    resp, _ = simulate(config)
    with pytest.raises(AlignmentError):
        split_estimate(resp, [[0, 1], [2, 3]], 2, params=params)


def test_split_validation():
    params = DinaParams.noiseless(3)
    config = SimConfig(q=GOLDEN, params=params, p_star=UNIFORM, n=500, seed=1)
    resp, _ = simulate(config)
    with pytest.raises(ValueError):
        split_estimate(resp, [[0, 1, 2]], 2)  # neither params nor g
    with pytest.raises(ValueError):
        split_estimate(resp, [[0, 1, 2]], 2, params=params, g=np.zeros(3))
    with pytest.raises(ValueError):
        split_estimate(resp, [[0, 1]], 2, params=params)  # item 2 uncovered
    with pytest.raises(ValueError):
        split_estimate(resp, [[0, 0, 1, 2]], 2, params=params)
    with pytest.raises(ValueError):
        split_estimate(resp, [], 2, params=params)
    # search arguments: a negative or NaN tie tolerance
    alpha = compute_alpha(resp, ORDER3)
    for bad in ({"tie_tol": -1.0}, {"tie_tol": np.nan}):
        with pytest.raises(ValueError):
            split_estimate(resp, [[0, 1, 2]], 2, params=params, **bad)
        with pytest.raises(ValueError):
            estimate_q(alpha, params, 2, **bad)
        with pytest.raises(ValueError):
            estimate_q_unknown_c(alpha, params.g, 2, **bad)
    # guessing rates must be a vector, not a 2-d array of the same size
    for shape in ((1, 3), (3, 1)):
        g = np.zeros(shape)
        with pytest.raises(ValueError):
            split_estimate(resp, [[0, 1, 2]], 2, g=g)
        with pytest.raises(ValueError):
            estimate_q_unknown_c(alpha, g, 2)
        with pytest.raises(ValueError):
            decontaminate(alpha, g)
        with pytest.raises(ValueError):
            moment_slip(GOLDEN, g, decontaminate(alpha, params.g), 0, 0b100)
        with pytest.raises(ValueError):
            profile_slip(GOLDEN, g, alpha)



def test_searches_refuse_bad_tie_tol_before_any_work():
    """A negative or NaN tie tolerance is refused before the enumeration, so
    a budget the enumeration would exceed does not mask it, and before a
    split runs its first group."""
    params = DinaParams.noiseless(3)
    resp, _ = simulate(SimConfig(q=GOLDEN, params=params, p_star=UNIFORM, n=500, seed=1))
    alpha = compute_alpha(resp, ORDER3)
    for bad in (-1.0, np.nan):
        with pytest.raises(ValueError, match="tie_tol"):
            estimate_q(alpha, params, 2, budget=1, tie_tol=bad)
        with pytest.raises(ValueError, match="tie_tol"):
            estimate_q_unknown_c(alpha, params.g, 2, budget=1, tie_tol=bad)
        with pytest.raises(ValueError, match="tie_tol"):
            split_estimate(resp, [[0, 1, 2]], 2, params=params, budget=1, tie_tol=bad)
        with pytest.raises(ValueError, match="tie_tol"):
            split_estimate(resp, [[0, 1, 2]], 2, g=params.g, budget=1, tie_tol=bad)


# ---------------------------------------------------------------------------
# identifiability probe

def test_identifiable_golden_uniform():
    report = check_identifiability(GOLDEN, NOISELESS, UNIFORM)
    assert report.complete
    assert report.identifiable
    assert report.min_delta > 1e-6
    assert len(report.deltas) == 13  # 14 classes minus the truth's
    assert report.flagged == ()


def test_point_mass_population_not_identifiable():
    p_star = ProfileDistribution.point_mass(2, (1, 1))
    report = check_identifiability(GOLDEN, NOISELESS, p_star)
    assert report.complete
    assert not report.identifiable
    assert len(report.flagged) >= 1
    assert any("zero" in note for note in report.notes)


def _reference_probe(q, params, p_star):
    """The probe as it was before the rate search: every point of an
    11-level grid per item solved exactly, then Powell from the first best
    point unless it fits exactly."""
    alpha = population_alpha(q, params, p_star, ComboOrder.saturated(q.m))
    grid = np.linspace(0.0, 1.0, 11)
    deltas = []
    for cand in enumerate_candidates(q.m, q.k, budget=10**6):
        if equivalent(cand, q):
            continue
        best_val, best_point = np.inf, None
        for point in itertools.product(grid, repeat=cand.m):
            c = np.array(point)
            val = score(cand, alpha, DinaParams(c, params.g))
            if val < best_val:
                best_val, best_point = val, c
        if best_val > 0.0:
            res = minimize(
                lambda v: score(cand, alpha, DinaParams(np.clip(v, 0.0, 1.0), params.g)),
                best_point,
                method="Powell",
                bounds=[(0.0, 1.0)] * cand.m,
                options={"xtol": 1e-6, "ftol": 1e-12, "maxfev": 4000},
            )
            best_val = min(best_val, float(res.fun))
        deltas.append((cand, float(best_val)))
    return tuple(deltas)


@pytest.mark.parametrize(
    "q, params, p_star",
    [
        (QMatrix.from_rows(["10", "01"]), noisy_params(0.85, 0.15, 2), UNIFORM),
        (GOLDEN, NOISELESS, ProfileDistribution.point_mass(2, (1, 1))),
        (
            QMatrix.from_rows(["11", "10", "01"]),
            DinaParams(np.array([0.9, 0.8, 0.85]), np.array([0.1, 0.2, 0.15])),
            UNIFORM,
        ),
    ],
    ids=["m2", "point-mass", "permuted-noisy"],
)
def test_probe_matches_grid_powell_reference(q, params, p_star):
    """The rate search flags exactly the candidates that grid + Powell
    flags and never ends above its delta; the pattern certificate gives
    exact zeros, and only to candidates that grid + Powell flags."""
    report = check_identifiability(q, params, p_star)
    reference = _reference_probe(q, params, p_star)
    support = set(patterns(q)[p_star.probs > 0].tolist())
    assert [c for c, _ in report.deltas] == [c for c, _ in reference]
    ref_flagged = tuple(c for c, d in reference if d <= report.threshold)
    assert report.flagged == ref_flagged
    assert report.identifiable == (not ref_flagged)
    for (cand, new), (_, old) in zip(report.deltas, reference):
        assert new <= old + 1e-9
        if support <= set(patterns(cand).tolist()):
            assert new == 0.0
            assert cand in ref_flagged


def _permuted_population(q, params, p_star, perm):
    """(q, params, p_star) with q's columns permuted by ``perm`` and p_star
    relabelled to match: the same population rates."""
    labels = p_star.labels()
    relabelled = {"".join(lab[j] for j in perm): float(p) for lab, p in zip(labels, p_star.probs)}
    return _permuted_columns(q, perm), params, ProfileDistribution.from_dict(q.k, relabelled)


PERMUTED_CASES = pytest.mark.parametrize(
    "q, params, p_star, perm",
    [
        (GOLDEN, noisy_params(), UNIFORM, [1, 0]),
        (GOLDEN, NOISELESS, ProfileDistribution.point_mass(2, (1, 0)), [1, 0]),
        (
            QMatrix.from_rows(["11", "10", "01"]),
            DinaParams(np.array([0.9, 0.8, 0.85]), np.array([0.1, 0.2, 0.15])),
            ProfileDistribution.from_dict(2, {"00": 0.3, "10": 0.5, "11": 0.2}),
            [1, 0],
        ),
        (
            QMatrix.from_rows(["100", "010", "001"]),
            DinaParams(np.array([0.9, 0.8, 0.85]), np.array([0.1, 0.2, 0.15])),
            ProfileDistribution(3, np.random.default_rng(5).dirichlet(np.ones(8))),
            [2, 0, 1],
        ),
    ],
    ids=["uniform", "point-mass", "zero-mass", "k3"],
)


@PERMUTED_CASES
def test_probe_invariant_under_column_permutation(q, params, p_star, perm):
    """Permuting q's columns, with p_star relabelled to match, leaves the
    population rates, the flagged classes and pass/fail unchanged."""
    permuted = _permuted_population(q, params, p_star, perm)
    order = ComboOrder.saturated(q.m)
    np.testing.assert_allclose(
        population_alpha(*permuted, order).rates,
        population_alpha(q, params, p_star, order).rates,
        rtol=0, atol=1e-15,
    )
    report, other = check_identifiability(q, params, p_star), check_identifiability(*permuted)
    assert [c for c, _ in other.deltas] == [c for c, _ in report.deltas]
    assert other.flagged == report.flagged
    assert other.identifiable == report.identifiable


@PERMUTED_CASES
def test_searches_invariant_under_column_permutation(q, params, p_star, perm):
    """On the population rates of a truth and of its column-permuted copy,
    both searches give the same winner and tie set, and scores within
    1e-12."""
    order = ComboOrder.saturated(q.m)
    alpha = population_alpha(q, params, p_star, order)
    permuted = population_alpha(*_permuted_population(q, params, p_star, perm), order)
    for search, rates in ((estimate_q, params), (estimate_q_unknown_c, params.g)):
        res, other = search(alpha, rates, q.k), search(permuted, rates, q.k)
        assert other.q_hat == res.q_hat
        assert other.ties == res.ties
        assert abs(other.score - res.score) <= 1e-12


def test_probe_names_unconverged_searches(monkeypatch):
    """A candidate whose rate search converges from no start keeps its
    delta at the best point found and is named in the report's notes."""
    clean = check_identifiability(GOLDEN, noisy_params(), UNIFORM)
    assert clean.notes == ()

    search = dinaq.estimator.minimize

    def failing(*args, **kwargs):
        res = search(*args, **kwargs)
        res.success = False
        return res

    monkeypatch.setattr(dinaq.estimator, "minimize", failing)
    report = check_identifiability(GOLDEN, noisy_params(), UNIFORM)
    assert report.deltas == clean.deltas
    assert len(report.notes) == len(report.deltas)
    for (cand, _), note in zip(report.deltas, report.notes):
        assert ",".join(cand.row_strings()) in note


def test_probe_names_capped_delta_solves(monkeypatch):
    """A candidate whose delta solve stops at the solver's iteration cap is
    named in the report's notes; deltas and flags are unchanged, and a
    candidate certified by its patterns has no solve to name."""
    p_star = ProfileDistribution.from_dict(2, {"00": 0.3, "10": 0.3, "11": 0.4})
    clean = check_identifiability(GOLDEN, noisy_params(), p_star)
    support = set(patterns(GOLDEN)[p_star.probs > 0].tolist())
    certified = [c for c, _ in clean.deltas if support <= set(patterns(c).tolist())]
    searched = [c for c, _ in clean.deltas if c not in certified]
    assert certified and searched
    assert not any("iteration cap" in note for note in clean.notes)

    def capped(m_matrix, beta):
        return dataclasses.replace(simplex_lsq(m_matrix, beta), status="iteration-cap")

    monkeypatch.setattr(dinaq.estimator, "simplex_lsq", capped)
    report = check_identifiability(GOLDEN, noisy_params(), p_star)
    assert report.deltas == clean.deltas
    assert report.flagged == clean.flagged
    cap_notes = [note for note in report.notes if "iteration cap" in note]
    assert len(cap_notes) == len(searched)
    for cand, note in zip(searched, cap_notes):
        assert ",".join(cand.row_strings()) in note
    for cand in certified:
        assert not any(",".join(cand.row_strings()) in note for note in report.notes)


def test_incomplete_q_skips_probe():
    q = QMatrix.from_rows(["10", "11", "11"])
    report = check_identifiability(q, NOISELESS, UNIFORM)
    assert not report.complete
    assert not report.identifiable
    assert report.min_delta is None
    assert report.deltas == ()
