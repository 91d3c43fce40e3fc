"""Design-matrix builders and the difference transform."""

import numpy as np
import pytest

from dinaq import (
    ComboOrder,
    DinaParams,
    QMatrix,
    mask_to_bits,
    profile_order,
    build_d,
    design,
    ideal_response,
)

GOLDEN = QMatrix.from_rows(["10", "01", "11"])


# ---------------------------------------------------------------------------
# combination orders

def test_singles_order():
    order = ComboOrder.singles(3)
    assert order.combos == (1, 2, 4)
    assert order.labels() == ["1", "2", "3"]


def test_saturated_order():
    order = ComboOrder.saturated(3)
    assert order.combos == (1, 2, 4, 3, 5, 6, 7)
    assert order.labels() == ["1", "2", "3", "1,2", "1,3", "2,3", "1,2,3"]
    assert order.is_saturated


def test_saturated_cap():
    with pytest.raises(ValueError):
        ComboOrder.saturated(15)


def test_from_item_sets():
    order = ComboOrder.from_item_sets(3, [(0,), (1,), (2,), (0, 1)])
    assert order.combos == (1, 2, 4, 3)
    assert not order.is_saturated


def test_order_index_lookup():
    order = ComboOrder.saturated(3)
    assert order.index(3) == 3
    with pytest.raises(KeyError):
        order.index(8)


def test_block_order_prefixes_lead_items():
    order = ComboOrder.block(4, 2)
    # combos of the first two items come first, in cardinality-then-lex order
    assert order.combos[:3] == (1, 2, 3)
    assert set(order.combos) == set(range(1, 16))


# ---------------------------------------------------------------------------
# golden matrices from the worked 3-item, 2-attribute example

def test_golden_binary_singles():
    t = design(GOLDEN, np.ones(3), np.zeros(3), ComboOrder.singles(3))[:, 1:]
    expected = np.array([
        [1, 0, 1],
        [0, 1, 1],
        [0, 0, 1],
    ])
    assert np.array_equal(t, expected)


def test_golden_binary_with_pair_row():
    order = ComboOrder.from_item_sets(3, [(0,), (1,), (2,), (0, 1)])
    t = design(GOLDEN, np.ones(3), np.zeros(3), order)[:, 1:]
    expected = np.array([
        [1, 0, 1],
        [0, 1, 1],
        [0, 0, 1],
        [0, 0, 1],
    ])
    assert np.array_equal(t, expected)


@pytest.mark.parametrize("seed", range(5))
def test_golden_slip_exact(seed):
    rng = np.random.default_rng(seed)
    c = rng.uniform(0.1, 1.0, 3)
    order = ComboOrder.from_item_sets(3, [(0,), (1,), (2,), (0, 1)])
    t = design(GOLDEN, c, np.zeros(3), order)[:, 1:]
    expected = np.array([
        [c[0], 0.0, c[0]],
        [0.0, c[1], c[1]],
        [0.0, 0.0, c[2]],
        [0.0, 0.0, c[0] * c[1]],
    ])
    # products are formed factor by factor in item order, so equality is exact
    assert np.array_equal(t, expected)


@pytest.mark.parametrize("seed", range(5))
def test_golden_slip_guess_exact(seed):
    rng = np.random.default_rng(100 + seed)
    c = rng.uniform(0.5, 1.0, 3)
    g = rng.uniform(0.0, 0.45, 3)
    order = ComboOrder.from_item_sets(3, [(0,), (1,), (2,), (0, 1)])
    t = design(GOLDEN, c, g, order)[:, 1:]
    expected = np.array([
        [c[0], g[0], c[0]],
        [g[1], c[1], c[1]],
        [g[2], g[2], c[2]],
        [c[0] * g[1], g[0] * c[1], c[0] * c[1]],
    ])
    assert np.array_equal(t, expected)


def test_slip_guess_specializes_exactly():
    order = ComboOrder.saturated(3)
    c = np.array([0.9, 0.8, 0.7])
    params = DinaParams(c, np.zeros(3))
    with_zero_g = design(GOLDEN, params.c, params.g, order)[:, 1:]
    slip_only = design(GOLDEN, c, np.zeros(3), order)[:, 1:]
    assert np.array_equal(with_zero_g, slip_only)
    quiet = DinaParams.noiseless(3)
    noiseless = design(GOLDEN, quiet.c, quiet.g, order)[:, 1:]
    binary = design(GOLDEN, np.ones(3), np.zeros(3), order)[:, 1:]
    assert np.array_equal(noiseless, binary)


def test_guess_column_golden():
    g = np.array([0.2, 0.25, 0.5])
    gv = design(GOLDEN, np.array([0.9, 0.8, 0.7]), g, ComboOrder.saturated(3))[:, 0]
    assert gv[0] == 0.2
    assert gv[3] == 0.2 * 0.25
    assert gv[-1] == 0.2 * 0.25 * 0.5


def test_augmented_layout():
    order = ComboOrder.saturated(3)
    params = DinaParams(np.array([0.9, 0.8, 0.7]), np.array([0.2, 0.25, 0.5]))
    vals = np.vstack([design(GOLDEN, params.c, params.g, order), np.ones(4)])
    assert vals.shape == (8, 4)
    # leading column holds the all-guess rates, bottom row is all ones
    guess_products = [
        np.multiply.reduce(params.g[[i for i in range(3) if s >> i & 1]])
        for s in order.combos
    ]
    assert np.array_equal(vals[:-1, 0], guess_products)
    assert np.array_equal(vals[-1], np.ones(4))
    assert np.array_equal(
        vals[:-1, 1:], design(GOLDEN, params.c, params.g, order)[:, 1:]
    )


def test_tsv_round_trip_numbers(tmp_path):
    # the TSV writer is `dinaq tmatrix`; its cells must read back exactly
    from dinaq.cli import main

    (tmp_path / "q.txt").write_text("10\n01\n11\n")
    out = tmp_path / "t.tsv"
    assert main([
        "tmatrix", "--q", str(tmp_path / "q.txt"), "--variant", "slip",
        "--c", "0.9,0.8,0.7", "--out", str(out),
    ]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0].split("\t")[0] == "combo"
    cell = lines[1].split("\t")[1]
    assert float(cell) == 0.9


@pytest.mark.parametrize("seed", range(10))
def test_slip_construction_paths_agree_exactly(seed):
    """Scaling whole binary rows by the combination's rate product must match
    the factor-by-factor product route bit for bit."""
    rng = np.random.default_rng(600 + seed)
    m = int(rng.integers(2, 5))
    k = int(rng.integers(2, 4))
    q = _random_q(rng, m, k)
    c = rng.uniform(0, 1, m)
    order = ComboOrder.saturated(m)
    product_route = design(q, c, np.zeros(m), order)[:, 1:]
    binary = design(q, np.ones(m), np.zeros(m), order)[:, 1:]
    scales = []
    for combo in order.combos:
        scale = np.float64(1.0)
        for i in range(m):
            if combo >> i & 1:
                scale = scale * c[i]
        scales.append(scale)
    scaled_route = binary * np.array(scales)[:, None]
    assert np.array_equal(product_route, scaled_route)


@pytest.mark.parametrize("seed", range(10))
def test_design_matches_scalar_products(seed):
    """Every entry, guess column included, is the left-to-right product over
    the combination's items of c_i (capable) or g_i (not), bit for bit."""
    rng = np.random.default_rng(800 + seed)
    m = int(rng.integers(2, 6))
    k = int(rng.integers(1, 4))
    q = _random_q(rng, m, k)
    c = rng.uniform(0, 1, m)
    g = rng.uniform(0.01, 1, m)
    n_rows = int(rng.integers(1, 2**m - 1))
    combos = rng.choice(np.arange(1, 2**m), size=n_rows, replace=False)
    order = ComboOrder.from_item_sets(
        m, [[i for i in range(m) if s >> i & 1] for s in combos]
    )
    assert not order.is_saturated
    profiles = [0] + profile_order(k)
    expected = np.empty((len(order), len(profiles)))
    for r, combo in enumerate(order.combos):
        for col, mask in enumerate(profiles):
            bits = mask_to_bits(mask, k)
            v = 1.0
            for i in range(m):
                if combo >> i & 1:
                    v = v * (c[i] if ideal_response(bits, q, i) else g[i])
            expected[r, col] = v
    assert np.array_equal(design(q, c, g, order), expected)


# ---------------------------------------------------------------------------
# difference transform

def test_dina_params_validation():
    c = np.full(3, 0.8)
    params = DinaParams(c, [0.2, 0.2, 0.2])
    c[0] = 0.5  # the caller's array stays writable and is not shared
    assert params.c[0] == 0.8
    assert not params.c.flags.writeable and not params.g.flags.writeable
    bad = [
        ([], []),
        (np.ones(3), np.zeros(2)),
        ([1.2, 0.8, 0.8], np.zeros(3)),
        (np.ones(3), [0.0, np.nan, 0.0]),
    ]
    # a 2-d array holding m numbers is not a rate vector
    for shape in ((1, 3), (3, 1)):
        bad += [
            (np.full(shape, 0.8), np.full(3, 0.2)),
            (np.full(3, 0.8), np.full(shape, 0.2)),
            (np.full(shape, 0.8), np.full(shape, 0.2)),
        ]
        with pytest.raises(ValueError):
            build_d(np.zeros(shape), ComboOrder.saturated(3))
    for c_bad, g_bad in bad:
        with pytest.raises(ValueError):
            DinaParams(c_bad, g_bad)


def test_d_matrix_m1():
    g = np.array([0.3])
    d = build_d(g, ComboOrder.saturated(1))
    assert np.array_equal(d, np.array([[1.0, -0.3]]))


def test_d_matrix_m2_pair_row():
    g = np.array([0.3, 0.4])
    order = ComboOrder.saturated(2)
    d = build_d(g, order)
    assert d.shape == (3, 4)
    # combo {0,1}: signs alternate with the dropped-subset size
    np.testing.assert_allclose(d[2], [-0.4, -0.3, 1.0, 0.3 * 0.4])


def test_d_matrix_read_only():
    d = build_d(np.array([0.3, 0.4]), ComboOrder.saturated(2))
    assert isinstance(d, np.ndarray) and not d.flags.writeable


def test_d_requires_saturated_order():
    with pytest.raises(ValueError):
        build_d(np.array([0.3, 0.4]), ComboOrder.singles(2))


def _random_q(rng, m, k):
    rows = rng.integers(1, 2**k, size=m)
    return QMatrix(tuple(tuple(mask_to_bits(int(r), k)) for r in rows))


@pytest.mark.parametrize("m,k", [(2, 2), (3, 2), (4, 2), (3, 3), (4, 3)])
def test_difference_identity_random(m, k):
    """D(g) applied to the augmented design recovers (0 | slip design at c-g)."""
    rng = np.random.default_rng(7_000 + 10 * m + k)
    order = ComboOrder.saturated(m)
    for _ in range(20):
        q = _random_q(rng, m, k)
        c = rng.uniform(0, 1, m)
        g = rng.uniform(0, 1, m)
        d = build_d(g, order)
        aug = np.vstack([design(q, c, g, order), np.ones(2**k)])
        diff = design(q, c - g, np.zeros(m), order)[:, 1:]
        target = np.column_stack([np.zeros(len(order)), diff])
        assert np.abs(d @ aug - target).max() <= 1e-12


def test_d_depends_only_on_g():
    g = np.array([0.1, 0.9, 0.5])
    order = ComboOrder.saturated(3)
    assert np.array_equal(
        build_d(g, order),
        build_d(g.copy(), order),
    )
