"""Q-matrix container, equivalence, canonical form, candidate enumeration."""

import itertools
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dinaq import (
    BudgetExceededError,
    ProfileDistribution,
    QMatrix,
    bit_label,
    bits_to_mask,
    canonicalize,
    enumerate_candidates,
    equivalent,
    ideal_response,
    is_complete,
    mask_to_bits,
    profile_order,
    subsets_card_lex,
)

GOLDEN_ROWS = ["10", "01", "11"]


def golden_q():
    return QMatrix.from_rows(GOLDEN_ROWS)


# ---------------------------------------------------------------------------
# orders and bit helpers

def test_subsets_card_lex_n3():
    # masks for {0},{1},{2},{0,1},{0,2},{1,2},{0,1,2}
    assert subsets_card_lex(3) == [1, 2, 4, 3, 5, 6, 7]


def test_subsets_card_lex_includes_empty():
    assert subsets_card_lex(2, nonempty=False) == [0, 1, 2, 3]


def test_profile_order_k2():
    assert profile_order(2) == [1, 2, 3]


def test_profile_order_cardinality_then_lex():
    # cardinality ascending, then lexicographic on the sorted index tuple
    order = profile_order(3)
    assert order == [1, 2, 4, 3, 5, 6, 7]


def test_bit_round_trip():
    for mask in range(16):
        assert bits_to_mask(mask_to_bits(mask, 4)) == mask


def test_bit_label_positional():
    # position i in the label shows bit i
    assert bit_label(1, 2) == "10"
    assert bit_label(2, 2) == "01"
    assert bit_label(5, 3) == "101"


# ---------------------------------------------------------------------------
# QMatrix container

def test_qmatrix_shape_and_rows():
    q = golden_q()
    assert (q.m, q.k) == (3, 2)
    assert q.row_strings() == GOLDEN_ROWS
    assert q.row_masks == (1, 2, 3)


def test_qmatrix_text_round_trip():
    q = golden_q()
    assert QMatrix.from_text(q.to_text()) == q


def test_qmatrix_rejects_zero_row():
    with pytest.raises(ValueError):
        QMatrix.from_rows(["10", "00"])


def test_qmatrix_rejects_nonbinary():
    with pytest.raises(ValueError):
        QMatrix(((1, 2), (0, 1)))


def test_qmatrix_rejects_ragged():
    with pytest.raises(ValueError):
        QMatrix(((1, 0), (1,)))


def test_qmatrix_size_caps():
    with pytest.raises(ValueError):
        QMatrix.from_rows(["1"] * 21)
    with pytest.raises(ValueError):
        QMatrix.from_rows(["1" * 11])


# (entries, message of the ValueError or None when accepted); entries that
# are 0 or 1 in any dtype pass and are stored as uint8
ENTRY_CASES = [
    (np.array([[1, 0], [0, 1]]), None),
    (np.array([[1.0, -0.0], [0.0, 1.0]]), None),
    (np.array([[True, False], [True, True]]), None),
    (np.array([[1, 0.5], [0, 1]]), "Q-matrix entries must be 0 or 1"),
    (np.array([[1, 2], [0, 1]]), "Q-matrix entries must be 0 or 1"),
    (np.array([[1, -1], [0, 1]]), "Q-matrix entries must be 0 or 1"),
    (np.array([[1, np.nan], [0, 1]]), "Q-matrix entries must be 0 or 1"),
    (np.array([[1, np.inf], [0, 1]]), "Q-matrix entries must be 0 or 1"),
    (np.array([["1", "0"], ["0", "1"]]), "Q-matrix entries must be 0 or 1"),
    (np.array([[1, 0], [0, 0]]), "Q-matrix has a zero row (item requiring no attribute)"),
    (np.ones((21, 1), dtype=int), "at most 20 items supported, got 21"),
    (np.ones((1, 11), dtype=int), "at most 10 attributes supported, got 11"),
]


@pytest.mark.parametrize("entries, message", ENTRY_CASES)
def test_qmatrix_entry_checks_golden(entries, message):
    """Each input gets the same verdict and message from the constructor
    and from the stacked path that enumeration uses."""
    stack = np.stack([entries, entries])
    if message is None:
        q = QMatrix(entries)
        assert q.entries.dtype == np.uint8 and not q.entries.flags.writeable
        assert np.array_equal(q.entries, entries.astype(np.uint8))
        assert QMatrix._from_stack(stack) == [q, q]
        assert not QMatrix._from_stack(stack)[1].entries.flags.writeable
        return
    with pytest.raises(ValueError) as single:
        QMatrix(entries)
    assert str(single.value) == message
    with pytest.raises(ValueError) as stacked:
        QMatrix._from_stack(stack)
    assert str(stacked.value) == message


def test_from_stack_of_no_matrices_is_empty():
    # the probe of the complete k = 1 Q-matrix 1,1 leaves no candidate
    assert QMatrix._from_stack(np.zeros((0, 2, 1), dtype=np.uint8)) == []


def test_qmatrix_equality_and_hash():
    a = golden_q()
    b = QMatrix.from_rows(GOLDEN_ROWS)
    assert a == b
    assert hash(a) == hash(b)
    assert a != QMatrix.from_rows(["01", "10", "11"])


# ---------------------------------------------------------------------------
# ideal response and completeness

def test_ideal_response_and_gate():
    q = golden_q()
    # item 2 requires both attributes
    assert ideal_response((1, 1), q, 2) == 1
    assert ideal_response((1, 0), q, 2) == 0
    assert ideal_response((0, 1), q, 2) == 0
    # item 0 requires only the first
    assert ideal_response((1, 0), q, 0) == 1
    assert ideal_response((0, 1), q, 0) == 0


def test_ideal_response_validates_indices():
    q = golden_q()
    with pytest.raises(ValueError):
        ideal_response((1, 1), q, 3)
    with pytest.raises(ValueError):
        ideal_response((1, 1, 1), q, 0)


def test_is_complete():
    assert is_complete(golden_q())
    assert not is_complete(QMatrix.from_rows(["10", "11", "11"]))
    assert not is_complete(QMatrix.from_rows(["11", "11"]))


# ---------------------------------------------------------------------------
# equivalence and canonical form

def test_equivalent_column_permutation():
    q = golden_q()
    swapped = QMatrix.from_rows(["01", "10", "11"])
    assert equivalent(q, swapped)
    assert not equivalent(q, QMatrix.from_rows(["10", "01", "10"]))


def test_equivalent_duplicate_columns():
    a = QMatrix.from_rows(["11", "10"])
    b = QMatrix.from_rows(["11", "01"])
    assert equivalent(a, b)


def test_equivalent_shape_mismatch():
    with pytest.raises(ValueError):
        equivalent(golden_q(), QMatrix.from_rows(["1", "1", "1"]))


def test_canonicalize_golden():
    q = golden_q()
    swapped = QMatrix.from_rows(["01", "10", "11"])
    assert canonicalize(q) == canonicalize(swapped)
    # canonical column order: big-endian value with item 0 as the high bit,
    # descending, so column (1,0,1) >= column (0,1,1)
    assert canonicalize(q) == q


def _random_qmatrix(data, max_m=4, max_k=3):
    m = data.draw(st.integers(1, max_m))
    k = data.draw(st.integers(1, max_k))
    rows = [
        data.draw(st.integers(1, 2**k - 1))
        for _ in range(m)
    ]
    return QMatrix(tuple(tuple(mask_to_bits(r, k)) for r in rows))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_canonicalize_idempotent_and_equivalent(data):
    q = _random_qmatrix(data)
    c = canonicalize(q)
    assert equivalent(q, c)
    assert canonicalize(c) == c


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_canonical_forms_agree_iff_equivalent(data):
    q1 = _random_qmatrix(data, max_m=3, max_k=2)
    q2 = _random_qmatrix(data, max_m=3, max_k=2)
    if (q1.m, q1.k) != (q2.m, q2.k):
        return
    assert equivalent(q1, q2) == (canonicalize(q1) == canonicalize(q2))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_canonicalize_invariant_under_permutation(data):
    q = _random_qmatrix(data)
    perm = data.draw(st.permutations(range(q.k)))
    entries = tuple(
        tuple(row[j] for j in perm) for row in q.entries
    )
    assert canonicalize(QMatrix(entries)) == canonicalize(q)


# ---------------------------------------------------------------------------
# candidate enumeration

def _brute_force_classes(m, k):
    """Oracle: canonical forms of every zero-row-free binary matrix."""
    reps = set()
    row_values = list(range(1, 2**k))
    for rows in itertools.product(row_values, repeat=m):
        q = QMatrix(tuple(tuple(mask_to_bits(r, k)) for r in rows))
        reps.add(canonicalize(q))
    return reps


@pytest.mark.parametrize(
    "m,k,n_matrices,n_classes",
    [
        (2, 2, 9, 5),
        (3, 2, 27, 14),
        (4, 2, 81, 41),
        (3, 3, 343, 71),
    ],
)
def test_enumeration_counts_vs_brute_force(m, k, n_matrices, n_classes):
    oracle = _brute_force_classes(m, k)
    assert len(oracle) == n_classes
    assert (2**k - 1) ** m == n_matrices
    got = list(enumerate_candidates(m, k, budget=10**6))
    assert len(got) == n_classes
    assert set(got) == oracle


def test_enumeration_count_m6_k2():
    # frozen count for the split-and-merge regime; brute force would be 729
    got = list(enumerate_candidates(6, 2, budget=10**6))
    assert len(got) == 365
    assert len(set(got)) == 365


def test_enumeration_yields_canonical_zero_row_free():
    for q in enumerate_candidates(3, 2, budget=10**6):
        assert canonicalize(q) == q
        assert all(any(row) for row in q.entries)


def test_enumeration_budget():
    with pytest.raises(BudgetExceededError):
        list(enumerate_candidates(10, 3, budget=100))


def test_enumeration_charges_the_column_key_walk():
    """The budget also counts the C(2^m + k - 1, k) key tuples the walk reads:
    at m = 13, k = 2 the space fits the default budget but the 33,558,528
    tuples do not, and the refusal comes before the walk starts."""
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError) as err:
        next(enumerate_candidates(13, 2))
    assert time.perf_counter() - start < 1.0
    assert "1594323" in str(err.value) and "33558528" in str(err.value)
    # at m = 6, k = 2 the 729-matrix space fits a budget of 729, the 2,080
    # tuples do not
    with pytest.raises(BudgetExceededError, match="2080"):
        next(enumerate_candidates(6, 2, budget=729))
    assert len(list(enumerate_candidates(6, 2, budget=2080))) == 365


def test_enumeration_refuses_nan_budget():
    # every comparison with NaN is false, so no space would exceed it
    with pytest.raises(ValueError, match="NaN"):
        list(enumerate_candidates(3, 2, float("nan")))


def _tuple_loop_candidates(m, k, budget):
    """The former enumeration: a scalar loop over non-increasing column-key
    tuples, skipping uncovered rows, with m * k entry writes per candidate."""
    space = (2**k - 1) ** m
    walk = math.comb(2**m + k - 1, k)
    if max(space, walk) > budget:
        raise BudgetExceededError(
            f"enumeration exceeds budget {budget}: candidate space (2^{k}-1)^{m} = {space}, "
            f"column-key walk C(2^{m}+{k}-1, {k}) = {walk} tuples"
        )
    full = (1 << m) - 1
    for cols in itertools.combinations_with_replacement(range(2**m - 1, -1, -1), k):
        covered = 0
        for v in cols:
            covered |= v
        if covered != full:
            continue
        entries = np.empty((m, k), dtype=np.uint8)
        for j, v in enumerate(cols):
            for i in range(m):
                entries[i, j] = (v >> (m - 1 - i)) & 1
        yield QMatrix(entries)


@pytest.mark.parametrize("m", range(1, 7))
@pytest.mark.parametrize("k", [1, 2, 3])
def test_enumeration_matches_tuple_loop(m, k):
    """Same matrices in the same order as the scalar tuple loop, each with
    read-only uint8 entries, and the same budget error. At m = 6, k = 3 the
    45,760 key tuples span several vectorized blocks."""
    got = list(enumerate_candidates(m, k))
    want = list(_tuple_loop_candidates(m, k, 10**7))
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.entries.dtype == np.uint8 and not a.entries.flags.writeable
        assert a.entries.shape == b.entries.shape
        assert a.entries.tobytes() == b.entries.tobytes()
    tight = (2**k - 1) ** m - 1
    with pytest.raises(BudgetExceededError) as new:
        next(enumerate_candidates(m, k, budget=tight))
    with pytest.raises(BudgetExceededError) as old:
        next(_tuple_loop_candidates(m, k, tight))
    assert str(new.value) == str(old.value)


# ---------------------------------------------------------------------------
# profile distributions

def test_uniform_distribution():
    d = ProfileDistribution.uniform(2)
    assert d.prob_zero == pytest.approx(0.25)
    assert np.allclose(d.nonzero_probs, [0.25, 0.25, 0.25])
    assert d.labels() == ["00", "10", "01", "11"]


def test_point_mass():
    d = ProfileDistribution.point_mass(2, (1, 1))
    assert d.prob_zero == 0.0
    assert d.as_dict()["11"] == 1.0
    assert sum(d.as_dict().values()) == pytest.approx(1.0)


def test_from_dict_round_trip():
    src = {"00": 0.1, "10": 0.2, "01": 0.3, "11": 0.4}
    d = ProfileDistribution.from_dict(2, src)
    assert d.as_dict() == pytest.approx(src)


def test_from_dict_missing_keys_default_zero():
    d = ProfileDistribution.from_dict(2, {"11": 1.0})
    assert d.prob_zero == 0.0
    assert d.as_dict()["10"] == 0.0


def test_from_dict_takes_only_real_numbers():
    d = ProfileDistribution.from_dict(2, {"10": np.float64(0.5), "11": np.int64(0), "01": 0.5})
    assert d.as_dict() == {"00": 0.0, "10": 0.5, "01": 0.5, "11": 0.0}
    # JSON null, a list, true and a string are not probabilities, and an
    # integer too large for a float is out of range
    for bad in (None, [1], True, "1", 10**400):
        with pytest.raises(ValueError, match="profile 11"):
            ProfileDistribution.from_dict(2, {"11": bad})


def test_distribution_rejects_bad_sum():
    with pytest.raises(ValueError):
        ProfileDistribution.from_dict(2, {"11": 0.5})


def test_distribution_rejects_negative():
    with pytest.raises(ValueError):
        ProfileDistribution.from_dict(2, {"11": 1.2, "10": -0.2})


def test_mask_probs_indexing():
    d = ProfileDistribution.from_dict(2, {"00": 0.1, "10": 0.2, "01": 0.3, "11": 0.4})
    mp = d.mask_probs()
    # mask 1 = first attribute only = label "10"
    assert mp[0] == pytest.approx(0.1)
    assert mp[1] == pytest.approx(0.2)
    assert mp[2] == pytest.approx(0.3)
    assert mp[3] == pytest.approx(0.4)
