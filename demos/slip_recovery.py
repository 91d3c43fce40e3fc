"""
Estimating capable success rates alongside the Q-matrix
=======================================================

Guessing rates are often calibrated (distractor analysis), slipping is not.
Two estimators recover the capable rate c_i with only g known: a closed-form
moment contrast using a "cover" (other items whose attributes dominate item
i's), and a direct fit-distance minimization. Both plug into a search that
fits c per candidate before scoring it.
"""

import numpy as np

from dinaq import (
    ComboOrder,
    DinaParams,
    ProfileDistribution,
    QMatrix,
    SimConfig,
    compute_alpha,
    decontaminate,
    equivalent,
    estimate_q_unknown_c,
    find_cover_combo,
    moment_slip,
    profile_slip,
    simulate,
)

truth = QMatrix.from_rows(["10", "01", "11"])
c_true = np.array([0.85, 0.75, 0.9])
params = DinaParams(c_true, np.full(3, 0.2))
p_star = ProfileDistribution.uniform(2)
order = ComboOrder.saturated(3)

config = SimConfig(q=truth, params=params, p_star=p_star, n=100_000, seed=12)
responses, _ = simulate(config)
alpha = compute_alpha(responses, order)

# Every item here has a cover: item 3 dominates items 1 and 2, and the
# pair {1,2} together dominates item 3.
for item in range(3):
    cover = find_cover_combo(truth, item)
    print(f"item {item + 1}: cover combination = items "
          f"{[i + 1 for i in range(3) if cover >> i & 1]}")

# Moment estimates: strip guessing from the joint success rates once, then
# one division per item.
beta = decontaminate(alpha, params.g)
print("\nmoment estimates (truth in parentheses):")
for item in range(3):
    cover = find_cover_combo(truth, item)
    est = moment_slip(truth, params.g, beta, item, cover)
    print(f"  c_{item + 1} = {est:.4f}  ({c_true[item]})")

# The fit-based estimator searches all coordinates at once; it needs no
# covers and agrees with the moment route here.
c_fit = profile_slip(truth, params.g, alpha)
print("\nfit-based estimates:", np.round(c_fit, 4))

# Full pipeline: try every candidate Q, fit its rates, keep the best fit.
result = estimate_q_unknown_c(alpha, params.g, k=2)
print("\nsearch with unknown c over", result.n_candidates, "classes")
print("winner equivalent to the truth:", equivalent(result.q_hat, truth))
print("winner's fitted rates:", np.round(result.c_hat, 4))
print("winner's fit distance:", round(result.score, 6))
