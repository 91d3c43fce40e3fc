"""
Q-matrix search under slipping and guessing
===========================================

With known per-item success rates (capable rate c, guessing rate g) the same
exhaustive fit keeps working on noisy data: the score of the true matrix
tends to zero as the sample grows while wrong candidates stay bounded away,
so the recovery rate climbs with N.
"""

import numpy as np

from dinaq import (
    ComboOrder,
    DinaParams,
    ProfileDistribution,
    QMatrix,
    SimConfig,
    compute_alpha,
    enumerate_candidates,
    equivalent,
    estimate_q,
    score,
    simulate,
)

truth = QMatrix.from_rows(["10", "01", "11"])
params = DinaParams(np.full(3, 0.8), np.full(3, 0.2))
p_star = ProfileDistribution.uniform(2)
order = ComboOrder.saturated(3)

# Same experiment at three sample sizes, twenty seeds each.
for n in (1_000, 10_000, 100_000):
    hits = 0
    winner_scores = []
    for seed in range(20):
        config = SimConfig(q=truth, params=params, p_star=p_star, n=n, seed=seed)
        responses, _ = simulate(config)
        result = estimate_q(compute_alpha(responses, order), params, k=2)
        hits += equivalent(result.q_hat, truth)
        winner_scores.append(result.score)
    print(
        f"N = {n:>7}: recovered {hits:2d}/20 runs, "
        f"median winner score {np.median(winner_scores):.5f}"
    )

# One run in detail: the top of the leaderboard at the largest sample, every
# one of the 14 canonical candidates scored exactly.
config = SimConfig(q=truth, params=params, p_star=p_star, n=100_000, seed=99)
responses, _ = simulate(config)
alpha = compute_alpha(responses, order)
scores = [(q, score(q, alpha, params)) for q in enumerate_candidates(3, 2)]
board = sorted(scores, key=lambda kv: kv[1])
print("\nbest five candidates at N = 100000:")
for q, s in board[:5]:
    marker = "  <- truth's class" if equivalent(q, truth) else ""
    print(f"  score {s:.5f}  rows {q.row_strings()}{marker}")
