"""Scoring, Q-matrix search, slip recovery, splitting, identifiability."""

import collections
import itertools
import math
import sys
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

import dinaq.estimator
from dinaq import (
    AlignmentError,
    AlphaVector,
    BudgetExceededError,
    ComboOrder,
    DEFAULT_BUDGET,
    DEFAULT_TIE_TOL,
    DegenerateSampleError,
    DinaParams,
    ProfileDistribution,
    QMatrix,
    ResponseData,
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
    MAX_ITEMS,
    moment_slip,
    population_alpha,
    profile_slip,
    score,
    simulate,
    split_estimate,
)
from dinaq.estimator import (
    _ACTIVE_BAND,
    _ARMIJO,
    _MAX_TRIALS,
    _SLIP_OPTIONS,
    _SLIP_SCALE,
    _SLIP_STARTS,
    SearchResult,
    _align_columns,
    _as_targets,
    _by_mask,
    _rate_objective,
    _rate_searches,
    _result,
    _screen,
)
from dinaq.solver import _gram_active_set, kkt_residuals, simplex_lsq
from dinaq.tmatrix import patterns

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


def test_profile_slip_requires_saturated():
    # its objective reads the fit on every combination, so rates on an
    # unsaturated order are refused rather than misread
    alpha = AlphaVector(ComboOrder.singles(3), noiseless_alpha().rates[:3])
    with pytest.raises(ValueError, match="saturated"):
        profile_slip(GOLDEN, np.zeros(3), alpha)


def test_estimate_q_reports_ties_for_degenerate_truth():
    # both items need both attributes: coarser candidates fit equally well
    q = QMatrix.from_rows(["11", "11"])
    params = DinaParams.noiseless(2)
    alpha = population_alpha(q, params, UNIFORM, ComboOrder.saturated(2))
    res = estimate_q(alpha, params, 2)
    assert len(res.ties) > 1
    assert res.q_hat in res.ties


def test_winner_is_first_within_rounding_of_least_score():
    """The winner is the first candidate in enumeration order whose score is
    within 1e-12 of the least: a later candidate 1e-16 below an earlier one
    does not win, and one 1e-9 below does. Score and p_tilde are the
    winner's; the ties hold both."""
    cands = list(enumerate_candidates(3, 2, budget=10**6))[:2]
    entries = np.stack([cand.entries for cand in cands])
    xs = [np.array([0.1, 0.2, 0.3, 0.4]), np.array([0.4, 0.3, 0.2, 0.1])]
    for gap, winner in [(1e-16, 0), (1e-9, 1)]:
        scores = [0.01, 0.01 - gap]
        assert scores[1] < scores[0]
        flags, rates = np.zeros((2, 4), dtype=bool), np.zeros(3)
        res = _result(entries, np.array(scores), np.array(xs), flags, rates, 1e-7)
        assert res.q_hat == cands[winner]
        assert res.score == scores[winner]
        assert res.p_tilde.probs.tobytes() == xs[winner].tobytes()
        assert res.ties == tuple(cands)


def test_searches_build_qmatrix_objects_only_for_named_candidates(monkeypatch):
    """Both searches read their candidates as entry stacks: the only QMatrix
    objects they build are the winner, the ties and the candidates the
    diagnostics list, not one per candidate (365 at m = 6, k = 2)."""
    q = QMatrix.from_rows(["10", "01", "11", "10", "01", "11"])
    params = noisy_params(0.9, 0.1, m=6)
    alpha = population_alpha(q, params, UNIFORM, ComboOrder.saturated(6))
    built = []
    from_stack, post_init = QMatrix._from_stack.__func__, QMatrix.__post_init__

    def counted_from_stack(cls, stack):
        out = from_stack(cls, stack)
        built.extend(out)
        return out

    def counted_post_init(self):
        post_init(self)
        built.append(self)

    monkeypatch.setattr(QMatrix, "_from_stack", classmethod(counted_from_stack))
    monkeypatch.setattr(QMatrix, "__post_init__", counted_post_init)
    for search in (lambda: estimate_q(alpha, params, 2),
                   lambda: estimate_q_unknown_c(alpha, params.g, 2)):
        built.clear()
        res = search()
        assert res.n_candidates == 365
        named = 1 + len(res.ties) + sum(len(listed) for listed in res.diagnostics.values())
        assert len(built) <= named


def test_tie_set_spans_enumeration_blocks_in_order():
    """With every candidate tied, the tie set is the public enumeration: at
    m = 6, k = 3 the walk reads three blocks of column-key tuples, so the
    searches' entry stack keeps the enumerator's order across blocks."""
    q = QMatrix.from_rows(["100", "010", "001", "110", "011", "101"])
    params = noisy_params(0.9, 0.1, m=6)
    p_star = ProfileDistribution.uniform(3)
    alpha = population_alpha(q, params, p_star, ComboOrder.saturated(6))
    res = estimate_q(alpha, params, 3, tie_tol=float("inf"))
    assert res.ties == tuple(enumerate_candidates(6, 3))


def test_estimate_q_score_table():
    alpha = noiseless_alpha()
    res = estimate_q(alpha, NOISELESS, 2)
    assert res.n_candidates == 14
    assert res.score == min(score(q, alpha, NOISELESS) for q in enumerate_candidates(3, 2))


def _unfinished(*args):
    """The Gram solve, with every problem reported as stopped at the
    iteration cap."""
    x, finished, iterations = _gram_active_set(*args)
    return x, np.zeros_like(finished), iterations


def test_estimate_q_lists_capped_rescores(monkeypatch):
    """A candidate whose solve stops at the solver's iteration cap is listed
    in diagnostics["capped"]; the ranking is unchanged. The Gram solve is
    made to report the cap on every other problem of its stack."""
    params = noisy_params(m=4)
    truth = QMatrix.from_rows(["10", "01", "11", "10"])
    alpha = population_alpha(truth, params, UNIFORM, ComboOrder.saturated(4))
    clean = estimate_q(alpha, params, 2, tie_tol=1e-3)
    assert "capped" not in clean.diagnostics

    def every_other(*args):
        x, finished, iterations = _gram_active_set(*args)
        finished[1::2] = False
        return x, finished, iterations

    monkeypatch.setattr(dinaq.estimator, "_gram_active_set", every_other)
    flagged = estimate_q(alpha, params, 2, tie_tol=1e-3)
    monkeypatch.undo()
    assert_same_ranking(clean, flagged)
    # 41 candidates, so one stack
    cands = list(enumerate_candidates(4, 2, budget=10**6))
    assert flagged.diagnostics == {"capped": tuple(cands[1::2])}


def _stacked_patterns(cands):
    """The (b, 2^k) pattern stack of same-shape candidates, the form in
    which the search stages take them."""
    return patterns(np.stack([q.entries for q in cands]))


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
    # the screen on every candidate at once: every score exact
    targets = _as_targets(alpha, params.g, len(table), params.c)
    scores, _, _ = _screen(_stacked_patterns(table), None, targets)
    for s, got in zip(table.values(), scores):
        assert got == pytest.approx(s, abs=1e-12)


def _first_best(scores):
    """The winner rule: the first score within 1e-12 of the least."""
    scores = np.asarray(scores)
    return int(np.flatnonzero(scores <= scores.min() + 1e-12)[0])


def _reference_search(alpha, params, k, tie_tol):
    """The search as a ``score`` of every candidate, in enumeration order."""
    cands = list(enumerate_candidates(alpha.order.m, k, budget=10**6))
    scores = [score(cand, alpha, params) for cand in cands]
    best = _first_best(scores)
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
    """Scoring candidates with the stacked solve on their closed-form Gram
    systems changes nothing: winner and tie set equal those of a ``score``
    of every candidate, and every score and the fitted distribution agree
    within 1e-12. (5, 3) spans several screen chunks."""
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
    assert res.score == pytest.approx(score_ref, abs=1e-12)
    assert res.ties == tuple(ties_ref)
    np.testing.assert_allclose(res.p_tilde.probs, p_ref.probs, rtol=0, atol=1e-12)
    # screened all at once, every candidate carries its exact score
    cands = list(enumerate_candidates(m, k, budget=10**6))
    targets = _as_targets(alpha, params.g, len(cands), params.c)
    scores, finished, _ = _screen(_stacked_patterns(cands), None, targets)
    for cand, got, done in zip(cands, scores, finished):
        assert done
        assert got == pytest.approx(score(cand, alpha, params), abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_row_free_screen_matches_exact_scores(data):
    """The screen's scores, computed without designs, equal every
    candidate's exact score within 1e-12 on noiseless, population and
    sampled rates, at shared or per-candidate capable rates, exact fits
    included, and each minimizer meets the KKT conditions on the
    candidate's design at 1e-8."""
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
    if c.ndim == 2:
        screened = _screen(_stacked_patterns(stack), c, _as_targets(alpha, g, len(stack)))
    else:
        screened = _screen(_stacked_patterns(stack), None, _as_targets(alpha, g, len(stack), c))
    fits = zip(stack, *screened)
    for j, (q, got, done, x) in enumerate(fits):
        mat = design(q, c[j] if c.ndim == 2 else c, g, order)
        assert done
        assert abs(got - simplex_lsq(mat, alpha.rates).residual) <= 1e-12
        cert = kkt_residuals(mat, alpha.rates, x)
        assert cert["sum_error"] <= 1e-12
        assert cert["stationarity_gap"] <= 1e-8
        assert cert["dual_gap"] >= -1e-8


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
    """Scoring the unknown-c search's final fits with the stacked solve
    changes nothing: winner, ties and c_hat equal those of a ``score`` of
    every candidate at its recovered rates, to the byte, and score and
    p_tilde agree within 1e-12. A zero-mass profile
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
    q_ref, c_ref, s_ref = table[_first_best([s for _, _, s in table])]
    assert res.q_hat == q_ref
    assert res.score == pytest.approx(s_ref, abs=1e-12)
    assert res.ties == tuple(q for q, _, s in table if s <= s_ref + DEFAULT_TIE_TOL)
    assert res.c_hat.tobytes() == c_ref.tobytes()
    p_ref = estimate_p(q_ref, alpha, DinaParams(c_ref, params.g))
    np.testing.assert_allclose(res.p_tilde.probs, p_ref.probs, rtol=0, atol=1e-12)
    degenerate = tuple(q for q, c, _ in table if c is None)
    assert res.diagnostics.get("degenerate", ()) == degenerate
    if p_zero and n is None:
        assert degenerate
    # the screen at the reference's rates: every score exact
    fitted = [(q, c, s) for q, c, s in table if c is not None]
    cs = np.array([c for _, c, _ in fitted])
    targets = _as_targets(alpha, params.g, len(fitted))
    scores, _, _ = _screen(_stacked_patterns([q for q, _, _ in fitted]), cs, targets)
    for (_, _, s), got in zip(fitted, scores):
        assert got == pytest.approx(s, abs=1e-12)


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


def _cover_walk(q, item):
    """The per-candidate cover search that ``find_cover_combo`` ran before
    it was batched, kept as the reference: the first dominating set of
    other items in ``itertools.combinations`` order, smallest sets first."""
    target = q.row_masks[item]
    others = [i for i in range(q.m) if i != item]
    for size in range(1, len(others) + 1):
        for idx in itertools.combinations(others, size):
            union = 0
            for i in idx:
                union |= q.row_masks[i]
            if union & target == target:
                return sum(1 << i for i in idx)
    return None


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_moment_stage_matches_single_candidate_reference(data):
    """The batched moment stage gives every candidate of a random stack,
    cut into small chunks so that the stack spans chunk boundaries, the
    covers of the per-candidate walk and ``moment_slip``'s estimates,
    free masks and degenerate flags, to the byte. Planted denominators
    (zero, just inside and at the degenerate tolerance) hit some covers."""
    m = data.draw(st.integers(1, 8), label="m")
    k = data.draw(st.integers(1, 3), label="k")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    rng = np.random.default_rng(seed)
    truth = random_q(rng, m, k)
    params = DinaParams(rng.uniform(0.6, 0.95, m), rng.uniform(0.05, 0.3, m))
    p_star = ProfileDistribution(k, rng.dirichlet(np.ones(1 << k)))
    order = ComboOrder.saturated(m)
    if data.draw(st.booleans(), label="sampled"):
        config = SimConfig(q=truth, params=params, p_star=p_star, n=500, seed=seed)
        alpha = compute_alpha(simulate(config)[0], order)
    else:
        alpha = population_alpha(truth, params, p_star, order)
    size = data.draw(st.integers(1, 12), label="size")
    cands = [random_q(rng, m, k) for _ in range(size)]
    covers = [[_cover_walk(q, i) for i in range(m)] for q in cands]
    beta = np.array(decontaminate(alpha, params.g))
    used = sorted({cover for row in covers for cover in row if cover})
    planted = data.draw(st.lists(st.sampled_from(used), max_size=3) if used else st.just([]))
    for cover in planted:
        beta[cover] = rng.choice([0.0, -5e-13, 9.9e-13, 1e-12])
    np.testing.assert_array_equal(
        dinaq.estimator._covers(np.stack([q.entries for q in cands])),
        [[cover or 0 for cover in row] for row in covers],
    )
    chunk = data.draw(st.integers(1, size), label="chunk")
    with mock.patch.object(dinaq.estimator, "_CANDIDATE_CHUNK", chunk):
        c, free, degenerate = dinaq.estimator._moment_stage(
            np.stack([q.entries for q in cands]), params.g, beta
        )
    assert c.shape == free.shape == (size, m) and degenerate.shape == (size,)
    for j, q in enumerate(cands):
        assert [find_cover_combo(q, i) for i in range(m)] == covers[j]
        assert free[j].tolist() == [cover is None for cover in covers[j]]
        flagged = False
        for i, cover in enumerate(covers[j]):
            if cover is None:
                assert c[j, i] == 0.0
                continue
            try:
                want = moment_slip(q, params.g, beta, i, cover)
            except DegenerateSampleError:
                flagged = True
                continue
            assert c[j, i].tobytes() == np.float64(want).tobytes()
        assert degenerate[j] == flagged


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


def _objective(q, g, alpha, c, free):
    """The rate searches' batched objective for one candidate, as a function
    of the capable rates of the ``free`` items, the others held at ``c``:
    the scaled squared score and its gradient over the free items."""
    evaluate = _rate_objective(patterns(q)[None], _as_targets(alpha, g, 1))

    def objective(v):
        rates = np.array(c, dtype=float)
        rates[free] = np.clip(v, 0.0, 1.0)
        f, grad, _ = evaluate(np.zeros(1, dtype=int), rates[None])
        return float(f[0]), grad[0, free]

    return objective


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
        objective = _objective(q, params.g, alpha, c, free)

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
    # _SLIP_SCALE, since _lockstep's ftol test is absolute below 1 and on
    # unscaled score^2 would stop the search short of a 1e-9 fit
    rng = np.random.default_rng(29651)
    q, truth = random_q(rng, 3, 3), random_q(rng, 3, 3)
    params = DinaParams(rng.uniform(0.6, 0.95, 3), rng.uniform(0.05, 0.3, 3))
    p_star = ProfileDistribution(3, rng.dirichlet(np.ones(8)))
    alpha = population_alpha(truth, params, p_star, ComboOrder.saturated(3))
    for cand in (q, _permuted_columns(q, [0, 2, 1])):
        c = profile_slip(cand, params.g, alpha)
        assert score(cand, alpha, DinaParams(c, params.g)) <= 1e-9


def _one_run(objective, x0: np.ndarray) -> SearchResult:
    """One ``_lockstep`` run from ``x0`` of ``objective``, which takes the
    point as a 1-D array and returns its value and gradient."""

    def evaluate(runs: np.ndarray, points: np.ndarray):
        f, grad = objective(points)
        return np.array([f], dtype=float), np.asarray(grad, dtype=float)

    return dinaq.estimator._lockstep(evaluate, [x0])[0]


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
    objective = _objective(q, params.g, alpha, params.c, free)
    ftol, gtol = _SLIP_OPTIONS["ftol"], _SLIP_OPTIONS["gtol"]
    for level in _SLIP_STARTS:
        recorded, seen = _recorded(objective)
        res = _one_run(recorded, np.full(len(free), level))
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
    objective = _objective(q, params.g, alpha, np.zeros(3), [0, 1, 2])
    uncapped = _one_run(objective, np.full(3, 0.5))
    assert uncapped.success
    assert uncapped.nfev > 4
    monkeypatch.setitem(_SLIP_OPTIONS, "maxfun", 4)
    recorded, seen = _recorded(objective)
    res = _one_run(recorded, np.full(3, 0.5))
    assert not res.success
    assert res.nfev == len(seen) == 4
    best_f, best_x = min(seen, key=lambda e: e[0])
    assert res.fun == best_f
    assert res.x.tobytes() == best_x.tobytes()
    assert res.fun < seen[0][0]
    c, converged, _ = _rate_searches(
        patterns(q)[None], _as_targets(alpha, params.g, 1), np.zeros((1, 3)), np.ones((1, 3), bool)
    )
    c, converged = c[0], converged[0]
    assert not converged
    # the best of three starts, the first of which is the run above
    first = np.sqrt(res.fun / _SLIP_SCALE)
    assert score(q, alpha, DinaParams(c, params.g)) <= first * (1 + 1e-12)


@pytest.mark.parametrize("grad, nfev", [((0.0, 0.0), 1), ((1.0, -1.0), 2), ((0.3, 0.2), 4)])
def test_rate_search_never_finite_is_unconverged(grad, nfev):
    """A run that meets a stopping test without ever seeing a finite value
    is reported unconverged, at its start."""
    res = _one_run(lambda x: (math.inf, np.array(grad)), np.array([0.5, 0.5]))
    assert not res.success
    assert res.fun == math.inf
    assert res.nfev == nfev
    assert res.x.tolist() == [0.5, 0.5]


def _bfgs_reference(x0: np.ndarray, hits: collections.Counter):
    """The generator run behind the rate search before the array driver, kept
    as the reference: it yields each point to evaluate, is sent that
    point's (value, gradient), and returns the ``SearchResult``. ``hits``
    counts the branches it takes. A run that meets a stopping test
    without a finite value ends unconverged, at the best point it
    evaluated."""
    ftol, gtol, maxfun = (_SLIP_OPTIONS[key] for key in ("ftol", "gtol", "maxfun"))
    x = np.clip(np.asarray(x0, dtype=float), 0.0, 1.0)
    f, grad = yield x
    nfev, hess, scale = 1, None, None
    best_f, best_x = f, x

    def converged():
        if math.isfinite(f):
            return SearchResult(x, f, True, nfev)
        hits["never finite"] += 1
        return SearchResult(best_x, best_f, False, nfev)

    while True:
        pgrad = np.clip(x - grad, 0.0, 1.0) - x
        if np.abs(pgrad).max() <= gtol:
            hits["gtol"] += 1
            return converged()
        band = min(_ACTIVE_BAND, math.sqrt(float(pgrad @ pgrad)))
        low, high = (x <= band) & (grad > 0.0), (x >= 1.0 - band) & (grad < 0.0)
        if low.any():
            hits["held low"] += 1
        if high.any():
            hits["held high"] += 1
        held = low | high
        wide = ((x <= _ACTIVE_BAND) & (grad > 0.0)) | ((x >= 1.0 - _ACTIVE_BAND) & (grad < 0.0))
        if hess is not None and (held != wide).any():
            hits["narrowed band"] += 1
        step = -grad if scale is None else -grad / scale
        if hess is not None and not held.all():
            move = ~held
            try:
                step[move] = np.linalg.solve(hess[move][:, move], -grad[move])
            except np.linalg.LinAlgError:
                hits["singular"] += 1
                hess = None
        t = min(1.0, 1.0 / math.sqrt(float(step @ step))) if scale is None else 1.0
        for _ in range(_MAX_TRIALS):
            if nfev >= maxfun:
                hits["maxfun"] += 1
                return SearchResult(best_x, best_f, False, nfev)
            trial = np.clip(x + t * step, 0.0, 1.0)
            slope = float(grad @ (trial - x))
            if slope >= 0.0:
                hits["no descent"] += 1
                t *= 0.5
                continue
            f_new, grad_new = yield trial
            nfev += 1
            if f_new < best_f:
                best_f, best_x = f_new, trial
            if f_new <= f + _ARMIJO * slope:
                break
            hits["backtrack"] += 1
            t *= min(0.5, max(0.1, -slope / (2.0 * (f_new - f - slope))))
        else:
            if hess is None:
                hits["trials spent, no model"] += 1
                return SearchResult(best_x, best_f, False, nfev)
            hits["trials spent, model dropped"] += 1
            hess = None
            continue
        s, y = trial - x, grad_new - grad
        sy = float(s @ y)
        if sy > 0.0:
            if hess is None:
                scale = float(y @ y) / sy
                hess = scale * np.eye(x.size)
            bs = hess @ s
            hess += y[:, None] * y / sy - bs[:, None] * bs / float(s @ bs)
        f_old, x, f, grad = f, trial, f_new, grad_new
        if f_old - f <= ftol * max(abs(f_old), abs(f), 1.0):
            hits["ftol"] += 1
            return converged()


def _lockstep_reference(evaluate, starts, hits: collections.Counter):
    """The generator-per-run lockstep before the array driver: each round,
    ``evaluate(runs, points)`` gets lists of the live runs and their
    points and returns their (value, gradient) pairs."""
    runs = [_bfgs_reference(x0, hits) for x0 in starts]
    pending = {j: next(run) for j, run in enumerate(runs)}
    results = [None] * len(runs)
    while pending:
        live = list(pending)
        for j, value in zip(live, evaluate(live, [pending[j] for j in live])):
            try:
                pending[j] = runs[j].send(value)
            except StopIteration as stop:
                results[j] = stop.value
                del pending[j]
    return results


def _boxes(specs):
    """Box objectives and starts for runs given as (n, seed, honest, near):
    the rotated quadratic |W (x - c)|^2, with row scales of W spread over
    24 decades, its minimizer c drawn from [-1, 2]^n and its start from
    [-0.5, 1.5]^n, both often outside the box. A ``near`` run spreads the
    row scales over 6 decades and draws c from [-2e-3, 2e-3]^n, so that
    its iterates creep up on a bound inside the widest active band. A run
    with an ``honest`` count reads +inf at every evaluation after that
    many, so that its line searches spend their trials (or, at 0, so that
    it starts at +inf). Each call gives fresh evaluation counts."""
    objectives, starts = [], []
    for n, seed, honest, near in specs:
        rng = np.random.default_rng(seed)
        w = rng.normal(size=(n, n)) * 10.0 ** rng.uniform(-2, 4 if near else 22, n)[:, None]
        c = rng.uniform(-2e-3, 2e-3, n) if near else rng.uniform(-1.0, 2.0, n)
        starts.append(rng.uniform(-0.5, 1.5, n))
        count = itertools.count(1)

        def objective(x, w=w, c=c, count=count, honest=honest):
            r = w @ (x - c)
            lying = honest is not None and next(count) > honest
            return (math.inf if lying else float(r @ r)), 2.0 * (r @ w)

        objectives.append(objective)
    return objectives, starts


def _compare_lockstep(specs, maxfun) -> collections.Counter:
    """Run the array driver and the reference on the same box objectives,
    assert byte-equal results, and return the reference's branch counts."""
    objectives, starts = _boxes(specs)
    calls, hits = [], collections.Counter()

    def evaluate(runs, points):
        calls.append(len(runs))
        values, grads, at = [], [], 0
        for j in runs:
            n = len(starts[j])
            f, grad = objectives[j](points[at : at + n])
            values.append(f)
            grads.append(grad)
            at += n
        return np.array(values), np.concatenate(grads)

    with mock.patch.dict(_SLIP_OPTIONS, maxfun=maxfun):
        got = dinaq.estimator._lockstep(evaluate, starts)
        fresh, _ = _boxes(specs)
        want = _lockstep_reference(
            lambda runs, points: [fresh[j](x) for j, x in zip(runs, points)], starts, hits
        )
    assert len(got) == len(want)
    if not starts:
        assert calls == []
    for a, b in zip(got, want):
        assert isinstance(a, SearchResult)
        assert a.x.tobytes() == b.x.tobytes() and a.x.shape == b.x.shape
        assert np.float64(a.fun).tobytes() == np.float64(b.fun).tobytes()
        assert (a.success, a.nfev) == (b.success, b.nfev)
    return hits


# n, objective seed, evaluations before the objective reads +inf (None:
# never), and whether the minimizer sits near a bound
_BOX_RUN = st.tuples(
    st.integers(1, 4), st.integers(0, 2**16), st.none() | st.integers(0, 40), st.booleans()
)
# 406 and 491 reach a singular restricted model (n = 3), 406 in the same
# stacked solve as 20, whose model must survive it; near-bound 17 narrows
# the active band; 1 meets the projected-gradient test at +inf
_PINNED_RUNS = [
    (3, 406, None, False), (3, 20, None, False), (3, 491, None, False), (1, 7, 4, False),
    (2, 11, 15, False), (4, 3, None, False), (2, 5, 2, False), (2, 9, 0, False),
    (2, 17, None, True), (1, 1, 0, False),
]


def test_lockstep_reference_stack_reaches_every_branch():
    """The pinned stack takes every branch of the reference run, with
    starts outside the box, so the property below covers them all."""
    hits = _compare_lockstep(_PINNED_RUNS, _SLIP_OPTIONS["maxfun"])
    hits += _compare_lockstep(_PINNED_RUNS, 6)
    assert not _compare_lockstep([], _SLIP_OPTIONS["maxfun"])
    assert any(((x0 < 0.0) | (x0 > 1.0)).any() for x0 in _boxes(_PINNED_RUNS)[1])
    assert set(hits) == {
        "gtol", "ftol", "held low", "held high", "narrowed band", "singular", "maxfun",
        "no descent", "backtrack", "trials spent, no model", "trials spent, model dropped",
        "never finite",
    }


@settings(max_examples=60, deadline=None)
@given(
    runs=st.lists(_BOX_RUN, max_size=8),
    maxfun=st.sampled_from([_SLIP_OPTIONS["maxfun"], 1, 3, 25]),
)
def test_lockstep_matches_generator_reference(runs, maxfun):
    """The array driver gives, run for run in start order, the bytes of
    the generator-per-run lockstep it replaced (x, fun, success, nfev),
    on stacks of runs of mixed lengths, and calls nothing for no starts."""
    _compare_lockstep(runs, maxfun)


def _row_objective(q, g, alpha, c, free):
    """The row-form rate objective, kept as the reference: an exact
    ``simplex_lsq`` solve on the candidate's design, and the gradient from
    one stacked design per free item."""
    masters = (patterns(q)[None, :] >> np.array(free)[:, None]) & 1 == 1
    holds = alpha.order._members[free][:, :, None] & masters[:, None, :]
    unit = np.arange(1, len(free) + 1)

    def objective(v):
        stack = np.repeat(c[None, :], len(free) + 1, axis=0)
        stack[:, free] = np.clip(v, 0.0, 1.0)
        stack[unit, free] = 1.0
        designs = np.stack([design(q, rates, g, alpha.order) for rates in stack])
        x = simplex_lsq(designs[0], alpha.rates).x
        r = designs[0] @ x - alpha.rates
        grad = 2.0 * ((designs[1:] * holds) @ x @ r)
        return _SLIP_SCALE * float(r @ r), _SLIP_SCALE * grad

    return objective


def _drawn_case(data, max_m=5):
    """(rng, m, k, params, alpha) for a drawn m <= ``max_m`` and k <= 3, on
    population or sampled rates of a random truth."""
    m = data.draw(st.integers(2, max_m), label="m")
    k = data.draw(st.integers(1, 3), label="k")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    rng = np.random.default_rng(seed)
    truth = random_q(rng, m, k)
    params = DinaParams(rng.uniform(0.6, 0.95, m), rng.uniform(0.05, 0.3, m))
    p_star = ProfileDistribution(k, rng.dirichlet(np.ones(1 << k)))
    order = ComboOrder.saturated(m)
    if data.draw(st.booleans(), label="sampled"):
        config = SimConfig(q=truth, params=params, p_star=p_star, n=1000, seed=seed)
        alpha = compute_alpha(simulate(config)[0], order)
    else:
        alpha = population_alpha(truth, params, p_star, order)
    return rng, m, k, params, alpha


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_batched_objective_matches_row_form(data):
    """The batched objective agrees with the row-form one it replaced, on
    score^2 (the objective over _SLIP_SCALE): the value within 1e-12
    relative, or within 1e-12 of the larger score where it is below 1, and
    the gradient within 1e-12 wherever the design has full column rank once
    equal-pattern columns are merged. Elsewhere the simplex minimizer x is
    not unique, and neither is the envelope gradient."""
    rng, m, k, params, alpha = _drawn_case(data)
    q = random_q(rng, m, k)
    free = sorted(data.draw(st.sets(st.integers(0, m - 1), min_size=1), label="free"))
    c = rng.uniform(0.0, 1.0, m)
    f, grad = _objective(q, params.g, alpha, c, free)(c[free])
    f_ref, grad_ref = _row_objective(q, params.g, alpha, c, free)(c[free])
    # rounding in the residual r moves score^2 by about 1e-16 |r|, which
    # exceeds 1e-12 score^2 on near-exact fits
    fit = np.sqrt(max(f, f_ref) / _SLIP_SCALE)
    assert abs(f - f_ref) <= 1e-12 * _SLIP_SCALE * max(fit**2, fit)
    merged = design(q, c, params.g, alpha.order)[:, np.unique(patterns(q), return_index=True)[1]]
    if np.linalg.matrix_rank(merged) == merged.shape[1]:
        assert np.abs(grad - grad_ref).max() <= 1e-12 * _SLIP_SCALE


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_rate_searches_independent_of_stack(data):
    """Each candidate's search gives the same bytes alone and inside a stack
    of random other candidates, whose lockstep chunks are cut small so that
    the stack spans chunk boundaries; so does each row of the batched
    objective."""
    rng, m, k, params, alpha = _drawn_case(data, max_m=4)
    size = data.draw(st.integers(2, 7), label="size")
    cands = [random_q(rng, m, k) for _ in range(size)]
    c = rng.uniform(0.0, 1.0, (size, m))
    free = rng.random((size, m)) < 0.6
    free[np.arange(size), rng.integers(0, m, size)] = True
    chunk = data.draw(st.integers(1, size), label="chunk")
    pats = _stacked_patterns(cands)
    with mock.patch.object(dinaq.estimator, "_CANDIDATE_CHUNK", chunk):
        stacked = _rate_searches(pats, _as_targets(alpha, params.g, size), c, free)
    rows = rng.permutation(np.repeat(np.arange(size), 2))
    values = _rate_objective(pats, _as_targets(alpha, params.g, size))(rows, c[rows])
    one_target = _as_targets(alpha, params.g, 1)
    for j, q in enumerate(cands):
        alone = _rate_searches(pats[j : j + 1], one_target, c[j : j + 1], free[j : j + 1])
        for got, want in zip(stacked, alone):
            assert got[j].tobytes() == want[0].tobytes()
        alone_objective = _rate_objective(pats[j : j + 1], one_target)
        one = alone_objective(np.zeros(1, dtype=int), c[j : j + 1])
        for row in np.flatnonzero(rows == j):
            for got, want in zip(values, one):
                assert got[row].tobytes() == want[0].tobytes()


def _capped_within(monkeypatch, name):
    """Make every Gram solve made inside ``dinaq.estimator.<name>``, or
    inside the functions it returns, report the iteration cap; the solves
    made elsewhere are left as they are."""
    real = getattr(dinaq.estimator, name)

    def capped(*args):
        with mock.patch.object(dinaq.estimator, "_gram_active_set", _unfinished):
            out = real(*args)
        if not callable(out):
            return out

        def inner(*inner_args):
            with mock.patch.object(dinaq.estimator, "_gram_active_set", _unfinished):
                return out(*inner_args)

        return inner

    monkeypatch.setattr(dinaq.estimator, name, capped)


def test_rate_search_cap_hits_are_listed(monkeypatch):
    """A rate search whose Gram solves stop at the iteration cap marks its
    candidate: the unknown-c search lists it in diagnostics["capped"]
    and the probe names it in its notes, with flags and ranking as in the
    clean run, whose Gram solves all finish."""
    params = noisy_params()
    config = SimConfig(q=GOLDEN, params=params, p_star=UNIFORM, n=20_000, seed=21)
    alpha = compute_alpha(simulate(config)[0], ORDER3)
    clean = estimate_q_unknown_c(alpha, params.g, 2)
    probe = check_identifiability(GOLDEN, params, UNIFORM)
    assert clean.diagnostics == {}
    assert probe.notes == ()
    beta = decontaminate(alpha, params.g)
    searched = tuple(
        q for q in enumerate_candidates(3, 2, budget=10**6)
        if len(_moment_fixed(q, params.g, beta)) < 3
    )
    assert searched

    _capped_within(monkeypatch, "_rate_objective")
    flagged = estimate_q_unknown_c(alpha, params.g, 2)
    assert flagged.diagnostics == {"capped": searched}
    assert flagged.q_hat == clean.q_hat
    assert flagged.ties == clean.ties
    assert flagged.score == pytest.approx(clean.score, rel=1e-9)
    report = check_identifiability(GOLDEN, params, UNIFORM)
    assert report.flagged == probe.flagged
    assert len(report.notes) == len(report.deltas)
    for (cand, delta), (_, ref), note in zip(report.deltas, probe.deltas, report.notes):
        assert delta == pytest.approx(ref, rel=1e-9)
        assert note == (
            f"a rate-search solve for candidate {','.join(cand.row_strings())} stopped "
            "at the iteration cap; its delta may be an over-estimate"
        )


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

    search = dinaq.estimator._lockstep

    def failing(*args, **kwargs):
        results = search(*args, **kwargs)
        for res in results:
            res.success = False
        return results

    monkeypatch.setattr(dinaq.estimator, "_lockstep", failing)
    flagged = estimate_q_unknown_c(alpha, params.g, 2)
    assert searched
    assert flagged.diagnostics["unconverged"] == searched
    assert_same_ranking(clean, flagged)
    # each candidate's recovered rates, and so its score, are unchanged
    for q, c in zip(searched, rates):
        assert profile_slip(q, params.g, alpha, fixed[q]).tobytes() == c.tobytes()


def test_unknown_c_searches_never_walk_one_candidate(monkeypatch):
    """The unknown-c search and a known-g split take their covers and
    moment estimates from the batched stage alone: with the single-
    candidate cover search and moment estimate made to raise, they
    return what they return without."""
    params = DinaParams(np.full(6, 0.85), np.full(6, 0.15))
    config = SimConfig(q=STACKED, params=params, p_star=UNIFORM, n=20_000, seed=8)
    resp, _ = simulate(config)
    alpha = compute_alpha(resp, ComboOrder.saturated(6))
    groups = [[0, 1, 2, 3], [2, 3, 4, 5]]
    whole = estimate_q_unknown_c(alpha, params.g, 2)
    stitched = split_estimate(resp, groups, 2, g=params.g)

    def refuse(*args):
        raise AssertionError("per-candidate moment path")

    monkeypatch.setattr(dinaq.estimator, "find_cover_combo", refuse)
    monkeypatch.setattr(dinaq.estimator, "moment_slip", refuse)
    assert_same_ranking(estimate_q_unknown_c(alpha, params.g, 2), whole)
    assert split_estimate(resp, groups, 2, g=params.g) == stitched


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
    # a nonpositive k is refused before any group's rates are computed

    def refuse(*args):
        raise AssertionError("a group's rates were computed")

    with mock.patch.object(dinaq.estimator, "_response_patterns", refuse):
        for k in (-1, 0):
            with pytest.raises(ValueError, match="m and k must be positive"):
                split_estimate(resp, [[0, 1, 2]], k, params=params)
            with pytest.raises(ValueError, match="m and k must be positive"):
                split_estimate(resp, [[0, 1, 2]], k, g=params.g)
    # search arguments: a negative or NaN tie tolerance
    alpha = compute_alpha(resp, ORDER3)
    for bad in ({"tie_tol": -1.0}, {"tie_tol": np.nan}):
        with pytest.raises(ValueError):
            split_estimate(resp, [[0, 1, 2]], 2, params=params, **bad)
        with pytest.raises(ValueError):
            estimate_q(alpha, params, 2, **bad)
        with pytest.raises(ValueError):
            estimate_q_unknown_c(alpha, params.g, 2, **bad)
    # guessing rates must be a vector, not a 2-d array of the same size, and
    # lie in [0, 1]
    for g in (np.zeros((1, 3)), np.zeros((3, 1)), np.array([1.5, -0.2, 0.1])):
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


def test_split_refuses_more_than_max_items_before_any_search(monkeypatch):
    """A split over more than ``MAX_ITEMS`` items is refused with the other
    entry checks, naming the cap: no group is counted or searched."""
    resp = ResponseData(np.ones((5, MAX_ITEMS + 2), dtype=np.uint8))
    groups = [list(range(s, s + 4)) for s in range(0, MAX_ITEMS, 2)]
    assert len(groups) == 10 and set(sum(groups, [])) == set(range(MAX_ITEMS + 2))

    def refuse(*args, **kwargs):
        raise AssertionError("a group was searched")

    monkeypatch.setattr(dinaq.estimator, "_search", refuse)
    monkeypatch.setattr(dinaq.estimator, "_response_patterns", refuse)
    for rates in ({"params": DinaParams.noiseless(MAX_ITEMS + 2)}, {"g": np.zeros(MAX_ITEMS + 2)}):
        with pytest.raises(ValueError, match=f"m <= {MAX_ITEMS} items, got {MAX_ITEMS + 2}"):
            split_estimate(resp, groups, 2, **rates)


def _reference_group(resp, grp, k, params, g):
    """One group of a split as it was estimated before the groups were
    batched, kept as the reference: its responses restricted, its rates
    computed, and its search run alone. The search's error is returned."""
    alpha = compute_alpha(resp.restrict(grp), ComboOrder.saturated(len(grp)))
    try:
        if params is not None:
            return estimate_q(alpha, params.subset(grp), k)
        return estimate_q_unknown_c(alpha, g[grp], k)
    except DegenerateSampleError as err:
        return err


def _reference_split(resp, groups, k, params, g):
    """The split as a loop over the groups in order, each estimated alone
    (``_reference_group``) and stitched at once; returns the stitched
    matrix or the error raised."""
    rows = np.zeros((resp.m, k), dtype=np.uint8)
    known = np.zeros(resp.m, dtype=bool)
    try:
        for pos, grp in enumerate(groups, 1):
            res = _reference_group(resp, grp, k, params, g)
            if isinstance(res, Exception):
                raise res
            aligned = res.q_hat.entries
            if known.any():
                try:
                    aligned = _align_columns(rows, known, grp, aligned)
                except AlignmentError as err:
                    raise AlignmentError(
                        f"group {pos} was fitted as {','.join(res.q_hat.row_strings())} "
                        f"(score {res.score:.6g}, tie set of {len(res.ties)}): {err}"
                    ) from err
            rows[grp], known[grp] = aligned, True
    except (AlignmentError, DegenerateSampleError) as err:
        return err
    return canonicalize(QMatrix(rows))


def _assert_same_bytes(got, want):
    """Two search results are the same bytes in every field."""
    assert got.q_hat == want.q_hat
    assert np.float64(got.score).tobytes() == np.float64(want.score).tobytes()
    assert got.ties == want.ties
    assert got.p_tilde.probs.tobytes() == want.p_tilde.probs.tobytes()
    assert got.n_candidates == want.n_candidates
    if want.c_hat is None:
        assert got.c_hat is None
    else:
        assert got.c_hat.tobytes() == want.c_hat.tobytes()
    assert got.diagnostics == want.diagnostics


def _same_outcome(got, want):
    """The same stitched matrix, or an error of the same type and message."""
    if isinstance(want, Exception):
        assert type(got) is type(want) and str(got) == str(want)
    else:
        assert got == want


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_split_matches_per_group_reference(data):
    """The batched split gives each group the result of its own search on
    its restricted responses, to the byte, and stitches them to the same
    matrix or fails with the same error as the group-by-group loop: in
    noiseless, known-cg and known-g modes, with groups of unequal sizes,
    items in any order, and a group repeated."""
    mode = data.draw(st.sampled_from(["noiseless", "known-cg", "known-g"]), label="mode")
    m = data.draw(st.integers(3, 8), label="m")
    k = data.draw(st.integers(1, 2), label="k")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    rng = np.random.default_rng(seed)
    truth = random_q(rng, m, k)
    if mode == "noiseless":
        params = DinaParams.noiseless(m)
    else:
        params = DinaParams(rng.uniform(0.7, 0.95, m), rng.uniform(0.05, 0.25, m))
    p_star = ProfileDistribution(k, rng.dirichlet(np.ones(1 << k)))
    resp, _ = simulate(SimConfig(q=truth, params=params, p_star=p_star, n=1500, seed=seed))
    # windows of 2 to 5 items over a shuffled item order, each after the
    # first overlapping the one before, each in shuffled order
    items, groups, start = rng.permutation(m).tolist(), [], 0
    while start < m or not groups:
        size = data.draw(st.integers(2, 5), label="size")
        lo = max(0, start - data.draw(st.integers(1, 2), label="overlap")) if groups else 0
        groups.append(rng.permutation(items[lo : lo + size]).tolist())
        start = lo + size
    if data.draw(st.booleans(), label="repeat"):
        groups.insert(int(rng.integers(len(groups) + 1)), list(groups[rng.integers(len(groups))]))
    given_params, g = (None, params.g) if mode == "known-g" else (params, None)

    results = dinaq.estimator._group_results(
        resp, groups, k, given_params, g, DEFAULT_BUDGET, DEFAULT_TIE_TOL
    )
    for grp, got in zip(groups, results):
        want = _reference_group(resp, grp, k, given_params, g)
        if isinstance(want, Exception):
            _same_outcome(got, want)
        else:
            _assert_same_bytes(got, want)
    try:
        stitched = split_estimate(resp, groups, k, params=given_params, g=g)
    except (AlignmentError, DegenerateSampleError) as err:
        stitched = err
    _same_outcome(stitched, _reference_split(resp, groups, k, given_params, g))


@pytest.mark.parametrize(
    "chunk, screened", [(None, [5 * 41]), (100, [82, 82, 41]), (30, [30, 11] * 5)]
)
def test_split_searches_each_size_once(monkeypatch, chunk, screened):
    """A split of five equal-size groups is one search: at the default
    chunk its screen makes one Gram solve for all 5 x 41 rows, it walks
    the candidate source once, and it never restricts the responses. A
    pass of the search holds as many groups as fit one chunk of rows, and
    one group where its candidates fill a chunk, so that a split holds no
    more rows at once than a search of one group: in chunks of 100 rows
    the groups go two at a time, and in chunks of 30 one at a time, each
    screened in two chunks."""
    truth = QMatrix.from_rows([["10", "01", "11"][i % 3] for i in range(12)])
    params = DinaParams.noiseless(12)
    resp, _ = simulate(SimConfig(q=truth, params=params, p_star=UNIFORM, n=5000, seed=3))
    groups = [list(range(s, s + 4)) for s in range(0, 10, 2)]
    real_solve, real_blocks = dinaq.estimator._gram_active_set, dinaq.estimator._candidate_blocks
    solves, walks = [], []

    def counted_solve(gram, lin, *args):
        solves.append(len(gram))
        return real_solve(gram, lin, *args)

    def counted_blocks(*args):
        walks.append(args)
        return real_blocks(*args)

    def refuse(*args):
        raise AssertionError("the responses were restricted")

    monkeypatch.setattr(dinaq.estimator, "_gram_active_set", counted_solve)
    monkeypatch.setattr(dinaq.estimator, "_candidate_blocks", counted_blocks)
    monkeypatch.setattr(ResponseData, "restrict", refuse)
    if chunk is not None:
        monkeypatch.setattr(dinaq.estimator, "_CANDIDATE_CHUNK", chunk)
    assert split_estimate(resp, groups, 2, params=params) == canonicalize(truth)
    assert solves == screened
    assert walks == [(4, 2, DEFAULT_BUDGET)]


def test_split_first_failing_group_decides_the_error():
    """The groups are searched together, yet the first group in ``groups``
    order whose search or alignment fails decides the error, as when they
    ran one after another: group 2's alignment failure comes before a
    later group's degenerate moment system, which is searched with it, and
    before a later, larger group's budget error; put first, each of those
    decides instead."""
    truth = QMatrix.from_rows(["10", "01", "11", "10", "01", "10", "01", "11"])
    params = DinaParams(np.full(8, 0.85), np.full(8, 0.15))
    resp, _ = simulate(SimConfig(q=truth, params=params, p_star=UNIFORM, n=5000, seed=2))
    # items 5 to 7 are never answered right and their guessing rates are 0,
    # so every cover among them has a vanishing de-contaminated rate
    values = resp.values.copy()
    values[:, 5:] = 0
    resp = ResponseData(values)
    g = np.concatenate([params.g[:5], np.zeros(3)])
    # group 2 meets group 1 on item 2 alone, whose row 11 cannot pin the columns
    first, ambiguous, degenerate = [0, 1, 2], [2, 3, 4], [5, 6, 7]
    with pytest.raises(AlignmentError, match="group 2 .* do not pin a unique column"):
        split_estimate(resp, [first, ambiguous, degenerate], 2, g=g)
    with pytest.raises(DegenerateSampleError):
        split_estimate(resp, [first, degenerate, ambiguous], 2, g=g)
    # a size-4 group walks C(17, 2) = 136 column-key tuples, a size-3 one 36
    noiseless = DinaParams.noiseless(8)
    larger = [0, 1, 3, 4]
    groups = [first, ambiguous, larger, [5, 6, 7, 0]]
    with pytest.raises(AlignmentError, match="group 2 .* do not pin a unique column"):
        split_estimate(resp, groups, 2, params=noiseless, budget=100)
    with pytest.raises(BudgetExceededError):
        split_estimate(
            resp, [first, larger, ambiguous, [5, 6, 7, 0]], 2, params=noiseless, budget=100
        )


def test_every_search_solve_goes_through_the_pipeline(monkeypatch):
    """The known-rates search, the unknown-c search and the probe are
    configurations of one pipeline: every Gram solve that each of them
    makes is made while ``_search`` is on the stack."""
    params = noisy_params()
    alpha = population_alpha(GOLDEN, params, UNIFORM, ORDER3)
    pipeline = dinaq.estimator._search.__code__
    solves = []

    def recording(*args):
        frame, inside = sys._getframe(1), False
        while frame is not None and not inside:
            inside, frame = frame.f_code is pipeline, frame.f_back
        solves.append(inside)
        return _gram_active_set(*args)

    monkeypatch.setattr(dinaq.estimator, "_gram_active_set", recording)
    for search in (
        lambda: estimate_q(alpha, params, 2),
        lambda: estimate_q_unknown_c(alpha, params.g, 2),
        lambda: check_identifiability(GOLDEN, params, UNIFORM),
    ):
        solves.clear()
        search()
        assert solves and all(solves)


def test_each_search_stacks_its_patterns_once(monkeypatch):
    """Each search computes its candidates' capability patterns as one
    stack, every candidate's row once, however many chunks its stages
    take: one ``patterns`` call for each estimate and for ``profile_slip``,
    and two for the probe, the truth's support and then the stack."""
    real = dinaq.estimator.patterns
    calls = []

    def counted(q):
        out = real(q)
        calls.append(out.reshape(-1, out.shape[-1]))
        return out

    monkeypatch.setattr(dinaq.estimator, "patterns", counted)
    monkeypatch.setattr(dinaq.estimator, "_CANDIDATE_CHUNK", 4)
    params = noisy_params()
    alpha = population_alpha(GOLDEN, params, UNIFORM, ORDER3)
    cands = list(enumerate_candidates(3, 2, budget=10**6))
    others = [cand for cand in cands if cand != canonicalize(GOLDEN)]
    for search, want in (
        (lambda: estimate_q(alpha, params, 2), [cands]),
        (lambda: estimate_q_unknown_c(alpha, params.g, 2), [cands]),
        (lambda: profile_slip(GOLDEN, params.g, alpha), [[GOLDEN]]),
        (lambda: check_identifiability(GOLDEN, params, UNIFORM), [[GOLDEN], others]),
    ):
        calls.clear()
        search()
        assert len(calls) == len(want)
        for got, stack in zip(calls, want):
            assert got.tobytes() == real(np.stack([q.entries for q in stack])).tobytes()


def test_zero_candidate_probe_and_single_candidate_searches():
    """A complete k = 1 Q-matrix on two items has no candidate besides
    itself: the probe runs on an empty stack and has nothing to report,
    and both searches return the one candidate."""
    q = QMatrix.from_rows(["1", "1"])
    params = DinaParams(np.array([0.9, 0.85]), np.array([0.1, 0.2]))
    p_star = ProfileDistribution(1, np.array([0.4, 0.6]))
    report = check_identifiability(q, params, p_star)
    assert report.deltas == ()
    assert report.flagged == ()
    assert report.min_delta is None
    assert report.notes == ()
    assert report.identifiable
    alpha = population_alpha(q, params, p_star, ComboOrder.saturated(2))
    for res in (estimate_q(alpha, params, 1), estimate_q_unknown_c(alpha, params.g, 1)):
        assert res.n_candidates == 1
        assert res.q_hat == q
        assert res.ties == (q,)


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

    search = dinaq.estimator._lockstep

    def failing(*args, **kwargs):
        results = search(*args, **kwargs)
        for res in results:
            res.success = False
        return results

    monkeypatch.setattr(dinaq.estimator, "_lockstep", failing)
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

    _capped_within(monkeypatch, "_screen")
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
