"""Acceptance gate: eleven fixed criteria, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines. Each
criterion pins its own tolerances and sample sizes; none of them consults
another test module.
"""

import functools
import itertools
import json

import numpy as np
import pytest

from dinaq import (
    ComboOrder,
    DinaParams,
    ProfileDistribution,
    QMatrix,
    SimConfig,
    build_d,
    check_identifiability,
    compute_alpha,
    canonicalize,
    decontaminate,
    design,
    equivalent,
    estimate_q,
    estimate_q_unknown_c,
    kkt_residuals,
    mask_to_bits,
    moment_slip,
    score,
    simplex_lsq,
    simulate,
    split_estimate,
)
from dinaq.cli import main as cli_main

GOLDEN = QMatrix.from_rows(["10", "01", "11"])
UNIFORM = ProfileDistribution.uniform(2)


def criterion(n, label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\n[FAIL] criterion {n:2d}: {label}")
                raise
            print(f"\n[PASS] criterion {n:2d}: {label}")
        return wrapper
    return deco


def random_q(rng, m, k):
    rows = rng.integers(1, 2**k, size=m)
    return QMatrix(tuple(tuple(mask_to_bits(int(r), k)) for r in rows))


def random_complete_q(rng, m, k):
    """Complete matrix with the unit rows leading, remaining rows random."""
    rows = [tuple(int(j == a) for j in range(k)) for a in range(k)]
    extra = rng.integers(1, 2**k, size=m - k)
    rows += [tuple(mask_to_bits(int(r), k)) for r in extra]
    return QMatrix(tuple(rows))


# ---------------------------------------------------------------------------


@criterion(1, "golden design matrices reproduced exactly")
def test_criterion_01_golden_matrices():
    singles = ComboOrder.singles(3)
    with_pair = ComboOrder.from_item_sets(3, [(0,), (1,), (2,), (0, 1)])

    base = np.array([[1, 0, 1], [0, 1, 1], [0, 0, 1]])
    assert np.array_equal(design(GOLDEN, np.ones(3), np.zeros(3), singles)[:, 1:], base)
    assert np.array_equal(
        design(GOLDEN, np.ones(3), np.zeros(3), with_pair)[:, 1:],
        np.vstack([base, [0, 0, 1]]),
    )

    rng = np.random.default_rng(1001)
    for _ in range(5):
        c = rng.uniform(0.05, 1.0, 3)
        g = rng.uniform(0.0, 0.95, 3)
        slip = design(GOLDEN, c, np.zeros(3), with_pair)[:, 1:]
        slip_expected = np.array([
            [c[0], 0.0, c[0]],
            [0.0, c[1], c[1]],
            [0.0, 0.0, c[2]],
            [0.0, 0.0, c[0] * c[1]],
        ])
        assert np.array_equal(slip, slip_expected)
        both = design(GOLDEN, c, g, with_pair)[:, 1:]
        both_expected = np.array([
            [c[0], g[0], c[0]],
            [g[1], c[1], c[1]],
            [g[2], g[2], c[2]],
            [c[0] * g[1], g[0] * c[1], c[0] * c[1]],
        ])
        assert np.array_equal(both, both_expected)


@criterion(2, "difference transform identity at 1e-12 on 100 random draws")
def test_criterion_02_difference_identity():
    rng = np.random.default_rng(2002)
    cases = [(m, k) for m in (2, 3, 4) for k in (2, 3)]
    for trial in range(100):
        m, k = cases[trial % len(cases)]
        order = ComboOrder.saturated(m)
        q = random_q(rng, m, k)
        c = rng.uniform(0, 1, m)
        g = rng.uniform(0, 1, m)
        d = build_d(g, order)
        aug = np.vstack([design(q, c, g, order), np.ones(2**k)])
        diff = design(q, c - g, np.zeros(m), order)[:, 1:]
        target = np.column_stack([np.zeros(len(order)), diff])
        assert np.abs(d @ aug - target).max() <= 1e-12


@criterion(3, "leading-block and augmented rank on 50 random complete Q")
def test_criterion_03_rank_properties():
    rng = np.random.default_rng(3003)
    done = 0
    while done < 50:
        k = int(rng.integers(2, 4))
        m = int(rng.integers(k, 6))
        q = random_complete_q(rng, m, k)
        order = ComboOrder.block(m, k)
        t = design(q, np.ones(m), np.zeros(m), order)[:, 1:]
        # leading square block over the nonzero profiles is nonsingular
        block = t[: 2**k - 1]
        assert block.shape == (2**k - 1, 2**k - 1)
        assert np.linalg.svd(block, compute_uv=False).min() > 1e-10

        c = rng.uniform(0, 1, m)
        g = rng.uniform(0, 1, m)
        if np.abs(c - g).min() < 0.05:
            sign = np.where(c >= g, 1.0, -1.0)
            c = np.clip(g + sign * np.maximum(np.abs(c - g), 0.05), 0.0, 1.0)
        if np.abs(c - g).min() < 0.05:
            continue
        aug = np.vstack([design(q, c, g, ComboOrder.saturated(m)), np.ones(2**k)])
        assert np.linalg.svd(aug, compute_uv=False).min() > 1e-10
        done += 1


@criterion(4, "noiseless score exactness and recovery over 200 seeds")
def test_criterion_04_noiseless_exactness():
    params = DinaParams.noiseless(3)
    order = ComboOrder.saturated(3)
    hits = 0
    for seed in range(200):
        config = SimConfig(q=GOLDEN, params=params, p_star=UNIFORM, n=2000, seed=seed)
        resp, _ = simulate(config)
        alpha = compute_alpha(resp, order)
        assert score(GOLDEN, alpha, params) <= 1e-10
        res = estimate_q(alpha, params, 2)
        if equivalent(res.q_hat, GOLDEN):
            hits += 1
    assert hits >= 198, f"recovered in {hits}/200 runs"


@criterion(5, "every non-equivalent 3x2 candidate separated in population")
def test_criterion_05_brute_force_identifiability():
    report = check_identifiability(GOLDEN, DinaParams.noiseless(3), UNIFORM)
    assert report.complete
    assert len(report.deltas) == 13
    for cand, delta in report.deltas:
        assert delta > 1e-6, f"candidate {cand.row_strings()} at delta {delta}"
    assert report.identifiable


@criterion(6, "noisy recovery rate monotone in N and >= 95% at N=1e5")
def test_criterion_06_dina_recovery():
    params = DinaParams(np.full(3, 0.8), np.full(3, 0.2))
    order = ComboOrder.saturated(3)
    rates = []
    for n in (10**3, 10**4, 10**5):
        hits = 0
        for seed in range(50):
            config = SimConfig(q=GOLDEN, params=params, p_star=UNIFORM, n=n,
                               seed=10_000 + seed)
            resp, _ = simulate(config)
            res = estimate_q(compute_alpha(resp, order), params, 2)
            hits += equivalent(res.q_hat, GOLDEN)
        rates.append(hits / 50)
    assert rates[0] <= rates[1] <= rates[2], f"rates not monotone: {rates}"
    assert rates[2] >= 0.95, f"rate at N=1e5 is {rates[2]}"


@criterion(7, "moment slip estimate within 0.02 in >= 95% of 50 seeds")
def test_criterion_07_moment_estimator():
    params = DinaParams(np.full(3, 0.8), np.full(3, 0.2))
    order = ComboOrder.saturated(3)
    hits = 0
    for seed in range(50):
        config = SimConfig(q=GOLDEN, params=params, p_star=UNIFORM, n=10**5,
                           seed=70_000 + seed)
        resp, _ = simulate(config)
        alpha = compute_alpha(resp, order)
        c1 = moment_slip(GOLDEN, params.g, decontaminate(alpha, params.g), 0, 0b100)
        hits += abs(c1 - 0.8) <= 0.02
    assert hits >= 48, f"within tolerance in {hits}/50 seeds"


@criterion(8, "unknown-c search recovers class and rates at m=4")
def test_criterion_08_unknown_c_pipeline():
    truth = QMatrix.from_rows(["10", "01", "11", "11"])
    params = DinaParams(np.full(4, 0.8), np.full(4, 0.2))
    order = ComboOrder.saturated(4)
    class_hits = 0
    rate_hits = 0
    for seed in range(25):
        config = SimConfig(q=truth, params=params, p_star=UNIFORM, n=10**5,
                           seed=80_000 + seed)
        resp, _ = simulate(config)
        alpha = compute_alpha(resp, order)
        res = estimate_q_unknown_c(alpha, params.g, 2)
        if equivalent(res.q_hat, truth):
            class_hits += 1
            if np.abs(res.c_hat - 0.8).max() <= 0.05:
                rate_hits += 1
    assert class_hits >= 23, f"class recovered in {class_hits}/25 seeds"
    assert rate_hits >= 20, f"rates within 0.05 in {rate_hits}/25 seeds"


@criterion(9, "split-and-merge equals truth and full search at m=6")
def test_criterion_09_split_and_merge():
    truth = QMatrix.from_rows(["10", "01", "11", "10", "01", "11"])
    params = DinaParams.noiseless(6)
    order = ComboOrder.saturated(6)
    groups = [[0, 1, 2, 3], [2, 3, 4, 5]]
    equiv_hits = 0
    for seed in range(100):
        config = SimConfig(q=truth, params=params, p_star=UNIFORM, n=5000,
                           seed=90_000 + seed)
        resp, _ = simulate(config)
        stitched = split_estimate(resp, groups, 2, params=params)
        if equivalent(stitched, truth):
            equiv_hits += 1
        full = estimate_q(compute_alpha(resp, order), params, 2)
        assert stitched == canonicalize(full.q_hat), f"seed {seed} disagrees"
    assert equiv_hits >= 99, f"equivalent to truth in {equiv_hits}/100 seeds"


@criterion(10, "KKT certificate and random-search dominance on 500 instances")
def test_criterion_10_solver_certificate():
    rng = np.random.default_rng(101_010)
    for _ in range(500):
        rows = int(rng.integers(1, 9))
        cols = int(rng.integers(2, 9))
        m = rng.normal(size=(rows, cols)) * rng.uniform(0.5, 3.0)
        beta = rng.normal(size=rows)
        sol = simplex_lsq(m, beta)
        cert = kkt_residuals(m, beta, sol.x)
        assert cert["sum_error"] <= 1e-12
        assert cert["min_coord"] >= -1e-12
        assert cert["stationarity_gap"] <= 1e-8
        assert cert["dual_gap"] >= -1e-8
        pts = rng.dirichlet(np.ones(cols), size=1000)
        best_random = np.linalg.norm(pts @ m.T - beta, axis=1).min()
        assert sol.residual <= best_random + 1e-9


@criterion(11, "verify command flags a point-mass population as degenerate")
def test_criterion_11_degenerate_population(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "q.txt").write_text("10\n01\n11\n")
    (tmp_path / "point.json").write_text('{"11": 1.0}')
    code = cli_main([
        "verify", "--q", "q.txt", "--c", "1", "--g", "0",
        "--pstar", "point.json", "--out", "verify.json",
    ])
    assert code == 2
    report = json.loads((tmp_path / "verify.json").read_text())
    assert report["all_passed"] is False
    check = report["checks"]["identifiability"]
    assert check["passed"] is False
    assert len(check["flagged"]) >= 1
    assert min(check["deltas"].values()) <= 1e-6
