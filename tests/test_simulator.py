"""Seeded data generation and joint success-rate accounting."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dinaq import (
    MAX_ITEMS,
    MAX_SATURATED_ITEMS,
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
    ideal_response,
    population_alpha,
    sample_profiles,
    simulate,
)
from dinaq.simulator import _group_alpha, _response_patterns

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


@pytest.mark.parametrize(
    "values, accepted",
    [
        (np.array([[1, 0, 1], [0, 0, 0]]), True),
        (np.array([[1.0, -0.0], [0.0, 1.0]]), True),
        (np.array([[True, False], [False, False]]), True),
        (np.array([[1, 0.5]]), False),
        (np.array([[1, 2]]), False),
        (np.array([[-1, 0]]), False),
        (np.array([[np.nan, 0]]), False),
        (np.array([["1", "0"], ["0", "1"]]), False),
    ],
)
def test_response_entry_check_golden(values, accepted):
    """0/1 in any dtype is stored as read-only uint8; anything else is
    refused with one message, also when a restriction re-checks it."""
    if accepted:
        data = ResponseData(values)
        assert data.values.dtype == np.uint8 and not data.values.flags.writeable
        assert np.array_equal(data.values, values.astype(np.uint8))
        assert np.array_equal(data.restrict([0]).values, data.values[:, :1])
        return
    with pytest.raises(ValueError) as err:
        ResponseData(values)
    assert str(err.value) == "responses must be 0 or 1"


def test_from_text_rejects_ragged():
    with pytest.raises(ValueError):
        ResponseData.from_text("m=3\n101\n10\n")


def _row_error(row, m):
    return f"bad response row {row!r} (expected {m} binary characters)"


# the messages and arrays of the per-character parser this one replaced
FROM_TEXT_GOLDEN = [
    ("m=3\n101\n10\n", _row_error("10", 3)),
    ("m=3\n1010\n", _row_error("1010", 3)),
    ("m=3\n101\n1x1\n", _row_error("1x1", 3)),
    ("m=3\n1 1\n", _row_error("1 1", 3)),
    ("m=3\n121\n", _row_error("121", 3)),
    ("m=3\n1/1\n", _row_error("1/1", 3)),
    # whichever offending row comes first is named
    ("m=3\n101\n1x1\n10\n", _row_error("1x1", 3)),
    ("m=3\n101\n10\n1x1\n", _row_error("10", 3)),
    ("m=0\n101\n", _row_error("101", 0)),
    ("m=-1\n101\n", _row_error("101", -1)),
    ("m=99999999999999999999999\n101\n", _row_error("101", 99999999999999999999999)),
    ("m=abc\n101\n", "bad response header 'm=abc'"),
    ("m=3.0\n101\n", "bad response header 'm=3.0'"),
    ("101\n010\n", 'response text must start with an "m=<m>" header'),
    ("", 'response text must start with an "m=<m>" header'),
    ("m=3\n", "response file has no subject rows"),
    ("m=3\n\n  \n", "response file has no subject rows"),
    # code points are exact: NUL and non-ASCII digits are not 0/1
    ("m=3\n1\x001\n", _row_error("1\x001", 3)),
    ("m=3\n10\x00\n", _row_error("10\x00", 3)),
    ("m=3\n1\uff111\n", _row_error("1\uff111", 3)),
    ("m=3\n1\u00b91\n", _row_error("1\u00b91", 3)),
    ("m=3\r\n101\r\n010\r\n", [[1, 0, 1], [0, 1, 0]]),
    ("  m=3  \n   101\t\n010   \n", [[1, 0, 1], [0, 1, 0]]),
    ("\n\nm=3\n\n101\n\n\n010\n\n", [[1, 0, 1], [0, 1, 0]]),
    ("m= 3\n101\n", [[1, 0, 1]]),
    ("m=2\n10\n01\n11\n", [[1, 0], [0, 1], [1, 1]]),
]


@pytest.mark.parametrize("text, expected", FROM_TEXT_GOLDEN)
def test_from_text_golden(text, expected):
    if isinstance(expected, str):
        with pytest.raises(ValueError) as info:
            ResponseData.from_text(text)
        assert str(info.value) == expected
    else:
        values = ResponseData.from_text(text).values
        assert values.dtype == np.uint8
        assert np.array_equal(values, expected)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 16).flatmap(
        lambda m: st.lists(
            st.lists(st.integers(0, 1), min_size=m, max_size=m), min_size=1, max_size=40
        )
    )
)
def test_text_round_trip_any_shape(rows):
    data = ResponseData(np.array(rows, dtype=np.uint8))
    back = ResponseData.from_text(data.to_text())
    assert back.values.dtype == np.uint8
    assert np.array_equal(back.values, data.values)


@pytest.mark.parametrize("n, m", [(1, 1), (7, 3), (500, 12), (50, 16)])
def test_to_text_matches_row_join(n, m):
    data = ResponseData(np.random.default_rng(n * m).integers(0, 2, (n, m)))
    lines = [f"m={data.m}"]
    lines.extend("".join(str(v) for v in row) for row in data.values)
    assert data.to_text() == "\n".join(lines) + "\n"


def _constructed(path):
    """ResponseData of a 5 x 4 matrix (rows 5 x 6 before a restriction),
    built along one constructor path."""
    rng = np.random.default_rng(3)
    wide = rng.integers(0, 2, (5, 6))
    cells = wide[:, :4]
    text = ResponseData(cells).to_text()
    return {
        "c-int64": lambda: ResponseData(np.ascontiguousarray(cells)),
        "fortran-uint8": lambda: ResponseData(np.asfortranarray(cells, dtype=np.uint8)),
        "fortran-int64": lambda: ResponseData(np.asfortranarray(cells)),
        "column-view": lambda: ResponseData(wide[:, ::-1][:, 2:]),
        "bool": lambda: ResponseData(cells == 1),
        "written-layout": lambda: ResponseData.from_text(text),
        "general-reader": lambda: ResponseData.from_text(text.replace("\n", "\r\n")),
        "general-reader-utf32": lambda: ResponseData.from_text(text.replace("\n", "\u2028")),
        "dina-responses": lambda: dina_responses(
            sample_profiles(ProfileDistribution.uniform(2), 5, 1),
            QMatrix.from_rows(["10", "01", "11", "10"]), DinaParams.noiseless(4), 1,
        ),
        "restrict-c": lambda: ResponseData(wide).restrict([4, 0, 2, 1]),
        "restrict-fortran": lambda: ResponseData(np.asfortranarray(wide)).restrict([5, 3, 0, 1]),
        "restrict-written-layout": lambda: ResponseData.from_text(
            ResponseData(wide).to_text()
        ).restrict([1, 2, 3, 5]),
    }[path]()


@pytest.mark.parametrize(
    "path",
    [
        "c-int64", "fortran-uint8", "fortran-int64", "column-view", "bool",
        "written-layout", "general-reader", "general-reader-utf32", "dina-responses",
        "restrict-c", "restrict-fortran", "restrict-written-layout",
    ],
)
def test_rows_hold_their_cells_contiguously(path):
    """Every constructor path stores each row's cells next to each other,
    which the row masks read as words."""
    data = _constructed(path)
    assert data.values.shape == (5, 4) and data.values.dtype == np.uint8
    assert data.values.strides[1] == 1
    assert not data.values.flags.writeable


def _column_loop_patterns(values):
    """The per-column mask loop that the word-wide builder replaced, kept as
    the reference: one shift and OR per item column."""
    n, m = values.shape
    width = np.uint8 if m <= 8 else np.uint16 if m <= 16 else np.uint32
    masks = np.zeros(n, dtype=width)
    for i, column in enumerate(values.T):
        masks |= column.astype(width, copy=False) << width(i)
    counts = np.bincount(masks, minlength=1 << m)
    seen = np.flatnonzero(counts)
    return seen, counts[seen]


@settings(max_examples=150, deadline=None)
@given(
    m=st.integers(1, MAX_ITEMS),
    n=st.integers(1, 300),
    layout=st.sampled_from(["c-order", "written-layout", "restricted"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_row_masks_match_column_loop(m, n, layout, seed):
    """The row masks built from words of 8, 4, 2 and 1 cells count the same
    patterns as the per-column loop, at every m up to ``MAX_ITEMS`` (every
    split into words), on C-ordered arrays, on the written layout's view
    with its hidden newline column, and on restricted data."""
    rng = np.random.default_rng(seed)
    extra = 3 if layout == "restricted" else 0
    cells = (rng.random((n, m + extra)) < rng.uniform(0.1, 0.9, m + extra)).astype(np.uint8)
    data = ResponseData(cells)
    if layout == "written-layout":
        data = ResponseData.from_text(data.to_text())
        assert data.values.strides == (m + 1, 1)
    elif layout == "restricted":
        items = rng.permutation(m + extra)[:m]
        data = data.restrict(items)
        cells = cells[:, items]
    seen, counts = _response_patterns(data)
    want_seen, want_counts = _column_loop_patterns(np.ascontiguousarray(cells))
    assert seen.tolist() == want_seen.tolist()
    assert counts.tolist() == want_counts.tolist()


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


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_capability_matrix_matches_ideal_response(data):
    """The array rule agrees with core's scalar definition entry by entry,
    on random Q-matrices and profile lists that repeat profiles."""
    m, k = data.draw(st.integers(1, 8)), data.draw(st.integers(1, 4))
    nonzero_row = st.lists(st.integers(0, 1), min_size=k, max_size=k).filter(any)
    q = QMatrix(np.array(data.draw(st.lists(nonzero_row, min_size=m, max_size=m))))
    distinct = data.draw(
        st.lists(st.lists(st.integers(0, 1), min_size=k, max_size=k), min_size=1, max_size=6)
    )
    picks = data.draw(st.lists(st.integers(0, len(distinct) - 1), max_size=20))
    profiles = np.array([distinct[j] for j in picks], dtype=np.uint8).reshape(-1, k)
    xi = capability_matrix(profiles, q)
    assert xi.shape == (len(picks), m)
    for r, profile in enumerate(profiles):
        assert [int(v) for v in xi[r]] == [ideal_response(profile, q, i) for i in range(m)]


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


@pytest.mark.parametrize("m", [5, 8, 9, 16, 17])
def test_compute_alpha_mask_widths(m):
    # the row masks are 8 bits wide up to m = 8, 16 up to m = 16 and 32
    # above, so 8, 9, 16 and 17 cross each width change; past the saturated
    # cap the order is explicit, as in test_compute_alpha_m20
    rng = np.random.default_rng(17)
    resp = ResponseData(rng.integers(0, 2, size=(300, m)).astype(np.uint8))
    if m <= MAX_SATURATED_ITEMS:
        order = ComboOrder.saturated(m)
    else:
        top = 1 << (m - 1)
        combos = [1 << i for i in range(m)] + [top | 1, top | (top >> 1), (1 << m) - 1]
        order = ComboOrder(m, tuple(combos))
    alpha = compute_alpha(resp, order)
    np.testing.assert_array_equal(alpha.rates, _naive_alpha(resp, order))


@pytest.mark.parametrize("m", [21, 40])
def test_compute_alpha_refuses_more_than_max_items(m):
    # the count array has 2^m cells whatever the order; at m = 40 numpy
    # would be asked for 8 TiB, so the cap must come before any allocation
    resp = ResponseData(np.ones((3, m), dtype=np.uint8))
    with pytest.raises(ValueError, match=f"m <= {MAX_ITEMS}, got {m}"):
        compute_alpha(resp, ComboOrder.singles(m))


def test_compute_alpha_m20():
    # the row masks reach bit 19; singletons, pairs across the top bits and
    # the full set check every column lands on its own bit
    rng = np.random.default_rng(20)
    resp = ResponseData((rng.random((400, 20)) < 0.9).astype(np.uint8))
    combos = [1 << i for i in range(20)] + [(1 << 19) | 1, (1 << 19) | (1 << 18), (1 << 20) - 1]
    order = ComboOrder(20, tuple(combos))
    alpha = compute_alpha(resp, order)
    np.testing.assert_array_equal(alpha.rates, _naive_alpha(resp, order))
    assert alpha.rates[-1] > 0

@settings(max_examples=60, deadline=None)
@given(st.data())
def test_group_rates_match_compute_alpha_on_restricted_responses(data):
    """A split's rates for a group of items, read from the observed
    patterns of all m items, are the bytes of ``compute_alpha`` on the
    responses restricted to the group, for groups in any item order, at
    every mask width up to ``MAX_ITEMS``."""
    m = data.draw(st.integers(1, MAX_ITEMS), label="m")
    n = data.draw(st.integers(1, 300), label="n")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    rng = np.random.default_rng(seed)
    resp = ResponseData((rng.random((n, m)) < rng.uniform(0.1, 0.9, m)).astype(np.uint8))
    observed = _response_patterns(resp)
    for _ in range(3):
        size = data.draw(st.integers(1, min(m, MAX_SATURATED_ITEMS)), label="size")
        items = rng.permutation(m)[:size].tolist()
        order = ComboOrder.saturated(size)
        got = _group_alpha(observed, resp.n, items, order)
        want = compute_alpha(resp.restrict(items), order)
        assert got.order == order and got.n_subjects == want.n_subjects == n
        assert got.rates.tobytes() == want.rates.tobytes()


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
