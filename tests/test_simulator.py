"""Seeded data generation and joint success-rate accounting."""

import warnings

import numpy as np
import pytest

from dinaq import (
    AlphaVector,
    ComboOrder,
    DinaParams,
    ProfileDistribution,
    QMatrix,
    ResponseData,
    SimConfig,
    capability_matrix,
    compute_alpha,
    design,
    dina_responses,
    population_alpha,
    sample_profiles,
    simulate,
)

GOLDEN = QMatrix.from_rows(["10", "01", "11"])
PARAMS = DinaParams(np.array([0.9, 0.8, 0.7]), np.array([0.2, 0.25, 0.5]))


def golden_config(n=1000, seed=7):
    return SimConfig(
        q=GOLDEN, params=PARAMS, p_star=ProfileDistribution.uniform(2),
        n=n, seed=seed,
    )


# ---------------------------------------------------------------------------
# response container

def test_response_text_round_trip():
    data = ResponseData(np.array([[1, 0, 1], [0, 0, 0]], dtype=np.uint8))
    text = data.to_text()
    back = ResponseData.from_text(text)
    assert np.array_equal(back.values, data.values)
    assert text.splitlines()[0] == "m=3"


def test_response_restrict():
    data = ResponseData(np.array([[1, 0, 1], [0, 1, 0]], dtype=np.uint8))
    sub = data.restrict([2, 0])
    assert np.array_equal(sub.values, [[1, 1], [0, 0]])


def test_response_rejects_nonbinary():
    with pytest.raises(ValueError):
        ResponseData(np.array([[2, 0]]))


def test_from_text_rejects_ragged():
    with pytest.raises(ValueError):
        ResponseData.from_text("m=3\n101\n10\n")


# ---------------------------------------------------------------------------
# seeded sampling

def test_profiles_deterministic():
    p = ProfileDistribution.uniform(2)
    a = sample_profiles(p, 100, seed=3)
    b = sample_profiles(p, 100, seed=3)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, sample_profiles(p, 100, seed=4))


def test_profiles_prefix_stable():
    p = ProfileDistribution.uniform(2)
    small = sample_profiles(p, 50, seed=3)
    big = sample_profiles(p, 200, seed=3)
    assert np.array_equal(big[:50], small)


def test_simulate_prefix_stable():
    r_small, prof_small = simulate(golden_config(n=50, seed=11))
    r_big, prof_big = simulate(golden_config(n=200, seed=11))
    assert np.array_equal(prof_big[:50], prof_small)
    assert np.array_equal(r_big.values[:50], r_small.values)


def test_profile_frequencies_match_distribution():
    p = ProfileDistribution.from_dict(2, {"00": 0.1, "10": 0.2, "01": 0.3, "11": 0.4})
    n = 40_000
    profs = sample_profiles(p, n, seed=5)
    masks = profs[:, 0] + 2 * profs[:, 1]
    for mask, prob in enumerate([0.1, 0.2, 0.3, 0.4]):
        freq = (masks == mask).mean()
        sigma = np.sqrt(prob * (1 - prob) / n)
        assert abs(freq - prob) <= 4 * sigma


def test_point_mass_profiles():
    p = ProfileDistribution.point_mass(2, (1, 0))
    profs = sample_profiles(p, 50, seed=1)
    assert np.array_equal(profs, np.tile([1, 0], (50, 1)))


# ---------------------------------------------------------------------------
# response generation

def test_capability_matrix_golden():
    profs = np.array([[1, 0], [0, 1], [1, 1], [0, 0]], dtype=np.uint8)
    xi = capability_matrix(profs, GOLDEN)
    expected = np.array([
        [1, 0, 0],
        [0, 1, 0],
        [1, 1, 1],
        [0, 0, 0],
    ])
    assert np.array_equal(xi, expected)


def test_noiseless_responses_equal_capability():
    profs = sample_profiles(ProfileDistribution.uniform(2), 500, seed=2)
    resp = dina_responses(profs, GOLDEN, DinaParams.noiseless(3), seed=2)
    assert np.array_equal(resp.values, capability_matrix(profs, GOLDEN))


def test_response_rates_match_rates():
    n = 60_000
    profs = np.tile([1, 0], (n, 1)).astype(np.uint8)
    resp = dina_responses(profs, GOLDEN, PARAMS, seed=9)
    # item 0: capable, rate c_0; items 1, 2: incapable, rates g_1, g_2
    for item, rate in [(0, 0.9), (1, 0.25), (2, 0.5)]:
        freq = resp.values[:, item].mean()
        sigma = np.sqrt(rate * (1 - rate) / n)
        assert abs(freq - rate) <= 4 * sigma


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(q=GOLDEN, params=PARAMS, p_star=ProfileDistribution.uniform(3),
                  n=10, seed=0)
    with pytest.raises(ValueError):
        SimConfig(q=GOLDEN, params=PARAMS, p_star=ProfileDistribution.uniform(2),
                  n=0, seed=0)
    with pytest.raises(ValueError):
        SimConfig(q=GOLDEN, params=DinaParams(np.ones(2), np.zeros(2)),
                  p_star=ProfileDistribution.uniform(2), n=10, seed=0)


def test_zero_mass_warning():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        SimConfig(
            q=GOLDEN, params=PARAMS,
            p_star=ProfileDistribution.point_mass(2, (1, 1)), n=10, seed=0,
        )
    assert any("zero" in str(w.message).lower() for w in caught)
    # the warning names the line that built the config, not dataclass code
    assert [w.filename for w in caught] == [__file__]


# ---------------------------------------------------------------------------
# joint success rates

def test_alpha_vector_copies_and_checks_shape():
    rates = np.full(7, 0.5)
    alpha = AlphaVector(ComboOrder.saturated(3), rates)
    rates[0] = 2.0  # the caller's array stays writable and is not shared
    assert alpha.rates[0] == 0.5
    assert not alpha.rates.flags.writeable
    for bad in (np.full((7, 1), 0.5), np.full((1, 7), 0.5), np.full(6, 0.5)):
        with pytest.raises(ValueError):
            AlphaVector(ComboOrder.saturated(3), bad)


def _naive_alpha(responses, order):
    vals = responses.values
    rates = []
    for combo in order.combos:
        items = [i for i in range(responses.m) if combo >> i & 1]
        rates.append(vals[:, items].all(axis=1).mean())
    return np.array(rates)


@pytest.mark.parametrize("seed", range(5))
def test_compute_alpha_matches_naive_count(seed):
    resp, _ = simulate(golden_config(n=777, seed=seed))
    order = ComboOrder.saturated(3)
    alpha = compute_alpha(resp, order)
    assert np.array_equal(alpha.rates, _naive_alpha(resp, order))
    assert alpha.n_subjects == 777


def test_compute_alpha_m5():
    rng = np.random.default_rng(17)
    resp = ResponseData(rng.integers(0, 2, size=(300, 5)).astype(np.uint8))
    order = ComboOrder.saturated(5)
    alpha = compute_alpha(resp, order)
    np.testing.assert_array_equal(alpha.rates, _naive_alpha(resp, order))


def test_alpha_monotone_under_combo_containment():
    # answering a superset of items fully positively is never more likely
    rng = np.random.default_rng(31)
    resp = ResponseData(rng.integers(0, 2, size=(400, 4)).astype(np.uint8))
    order = ComboOrder.saturated(4)
    alpha = compute_alpha(resp, order)
    rate = dict(zip(order.combos, alpha.rates))
    for small in order.combos:
        for big in order.combos:
            if small & big == small:
                assert rate[big] <= rate[small] + 1e-15


def test_population_alpha_formula():
    order = ComboOrder.saturated(3)
    p = ProfileDistribution.from_dict(2, {"00": 0.1, "10": 0.2, "01": 0.3, "11": 0.4})
    alpha = population_alpha(GOLDEN, PARAMS, p, order)
    tcg = design(GOLDEN, PARAMS.c, PARAMS.g, order)[:, 1:]
    gv = design(GOLDEN, PARAMS.c, PARAMS.g, order)[:, 0]
    expected = tcg @ np.array([0.2, 0.3, 0.4]) + 0.1 * gv
    np.testing.assert_allclose(alpha.rates, expected, atol=1e-15)


def test_empirical_alpha_converges_to_population():
    order = ComboOrder.saturated(3)
    pop = population_alpha(GOLDEN, PARAMS, ProfileDistribution.uniform(2), order)
    n = 200_000
    resp, _ = simulate(golden_config(n=n, seed=123))
    emp = compute_alpha(resp, order)
    sigma = np.sqrt(pop.rates * (1 - pop.rates) / n)
    assert np.all(np.abs(emp.rates - pop.rates) <= 4.5 * sigma + 1e-12)
