"""Least squares over the probability simplex.

Solves min |M x - beta| subject to x >= 0 and sum(x) = 1 with an active-set
method in the nonnegative-least-squares family: the equality constraint is
eliminated inside each restricted solve (the lowest-index support variable is
expressed through the others), restricted optima with negative coordinates
trigger the usual step-and-drop inner loop, and a variable enters only while
its dual violation is meaningful. Pivoting is deterministic, lowest index
first, so identical inputs produce identical solutions.

The problem is convex, so the certificate in ``kkt_residuals`` (common
gradient multiplier on the support, no profitable coordinate off it) is both
necessary and sufficient for global optimality.

``simplex_gram_bounds`` screens a stack of same-shape problems at once: it
follows the same active set in lockstep on the Gram form (M'M, M'beta) and
returns, per problem, an upper and a certified lower bound on the optimal
residual, both from exact residuals that the caller computes at the final
points. It decides which problems deserve an exact ``simplex_lsq`` solve;
it never replaces one. No pseudo-inverse is used: the restricted systems are
solved by a batched elimination whose pivots are checked, and a problem
whose pivot is not clearly positive (its restricted system is singular to
working precision) stops at its last feasible point. Any feasible point
brackets the optimum, so its bounds stay certified; they are only looser.

The rate searches fit on the Gram form too: ``_gram_active_set``, the
loop behind ``simplex_gram_bounds``, also returns the final points and
whether each problem finished, so that each round of the lockstep rate
search solves every pending trial point at once. A problem that stops at
a singular pivot or at the cap is re-solved by ``simplex_lsq`` on its own
rows, which stays the one exact solve behind every reported score.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

FEASIBILITY_TOL = 1e-12
KKT_TOL = 1e-8

# dual violation a coordinate must show before it may enter the support;
# tighter than KKT_TOL so returned solutions certify with margin
_ENTER_TOL = 1e-10
# support coordinates at or below this after a curtailed step are dropped
_DROP_TOL = 1e-14
# a restricted system is singular when a pivot is at or below this times
# the largest diagonal entry of G on the support
_PIVOT_TOL = 1e-12


@dataclass
class LsqSolution:
    """Solver output: the minimizer, its residual norm, and bookkeeping."""

    x: np.ndarray
    residual: float
    iterations: int
    status: str  # "optimal" or "iteration-cap"


def _restricted_argmin(m: np.ndarray, beta: np.ndarray, support: list[int]) -> np.ndarray:
    # Equality-constrained LS on the support columns: the first support
    # variable is eliminated via z0 = 1 - sum(rest), leaving an unconstrained
    # problem handled by lstsq (minimum-norm on rank deficiency).
    j0 = support[0]
    base = m[:, j0]
    rest = support[1:]
    if not rest:
        return np.array([1.0])
    a = m[:, rest] - base[:, None]
    y, *_ = np.linalg.lstsq(a, beta - base, rcond=None)
    return np.concatenate([[1.0 - y.sum()], y])


def simplex_lsq(m_matrix, beta) -> LsqSolution:
    """Minimize |M x - beta| over the probability simplex.

    Parameters
    ----------
    m_matrix : (r, n) array_like
        Design matrix; must be finite.
    beta : (r,) array_like
        Target vector.

    Returns
    -------
    LsqSolution
        The solve starts from the first vertex and stops after at most
        50 * n iterations; hitting that cap returns the best feasible
        iterate with status "iteration-cap". x is exactly nonnegative, sums
        to 1 within 1e-12, and on status "optimal" satisfies the simplex KKT
        conditions at 1e-8.
    """
    m = np.asarray_chkfinite(m_matrix, dtype=np.float64)
    b = np.asarray_chkfinite(beta, dtype=np.float64).ravel()
    if m.ndim != 2:
        raise ValueError("design matrix must be 2-d")
    rows, n = m.shape
    if b.shape != (rows,):
        raise ValueError(f"target has length {b.shape[0]}, design has {rows} rows")
    if n < 1:
        raise ValueError("design matrix needs at least one column")

    x = np.zeros(n)
    x[0] = 1.0
    support = [0]
    iterations = 0
    status = "iteration-cap"
    while iterations < 50 * n:
        iterations += 1
        z = _restricted_argmin(m, b, support)
        if z.min() <= -FEASIBILITY_TOL:
            # restricted optimum left the simplex: step toward it until the
            # first support coordinate hits zero, then drop what vanished
            xs = x[support]
            neg = z <= 0.0
            ratios = xs[neg] / (xs[neg] - z[neg])
            alpha = ratios.min()
            stepped = xs + alpha * (z - xs)
            keep = stepped > _DROP_TOL
            if keep.all():
                # fp dust kept everything positive; force out the blocker
                blocker = np.flatnonzero(neg)[int(np.argmin(ratios))]
                keep[blocker] = False
            x[:] = 0.0
            kept_idx = [s for s, kp in zip(support, keep) if kp]
            x[kept_idx] = stepped[keep]
            support = kept_idx
            continue

        x[:] = 0.0
        x[support] = np.clip(z, 0.0, None)
        grad = 2.0 * (m.T @ (m @ x - b))
        lam = grad[support].mean()
        on = set(support)
        off = [j for j in range(n) if j not in on]
        if not off:
            status = "optimal"
            break
        viol = grad[off] - lam
        pick = int(np.argmin(viol))
        if viol[pick] >= -_ENTER_TOL:
            status = "optimal"
            break
        support = sorted(support + [off[pick]])

    x = np.clip(x, 0.0, None)
    x /= x.sum()
    residual = float(np.linalg.norm(m @ x - b))
    return LsqSolution(x=x, residual=residual, iterations=iterations, status=status)


def _solve_checked(
    a: np.ndarray, rhs: np.ndarray, floor: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Solve stacked symmetric positive semidefinite systems a y = rhs by
    elimination without pivoting.

    Returns y and, per system, whether every pivot stayed above its entry
    of ``floor`` (shape (b, n), one floor per pivot).
    A pivot of a positive definite system is the squared distance of its
    column from the span of the earlier ones, so a pivot at or below the
    floor means the system is singular to working precision; such a
    system's y is meaningless. Every operation acts on each system alone.
    """
    a = a.copy()
    y = rhs.copy()
    n = a.shape[-1]
    ok = np.ones(len(a), dtype=bool)
    for j in range(n):
        pivot = a[:, j, j]
        ok &= pivot > floor[:, j]
        # a failed system continues on a unit pivot, only to keep the
        # arithmetic finite; its y is discarded
        pivot[~ok] = 1.0
        factor = a[:, j + 1 :, j] / pivot[:, None]
        # below the pivot only the trailing block is read again
        a[:, j + 1 :, j + 1 :] -= factor[:, :, None] * a[:, j, None, j + 1 :]
        y[:, j + 1 :] -= factor * y[:, j, None]
    for j in range(n - 1, -1, -1):
        y[:, j] -= (a[:, j, j + 1 :] * y[:, j + 1 :]).sum(axis=1)
        y[:, j] /= a[:, j, j]
    return y, ok


def _gram_active_set(
    gram: np.ndarray, lin: np.ndarray, max_iter: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """``simplex_lsq``'s active set, followed in lockstep on the Gram forms
    (G, h) of a checked (b, n, n) and (b, n) stack, with the iteration cap
    ``max_iter``, default 50 * n, as in ``simplex_lsq``.

    Returns the final feasible points, shape (b, n), and per problem
    whether it finished: it stopped because no off-support coordinate may
    enter, not at a singular pivot or at ``max_iter`` iterations. Every
    operation acts on each problem alone, so a problem's point and flag
    are the same bytes whatever else is in the stack.
    """
    count, n, _ = gram.shape
    if max_iter is None:
        max_iter = 50 * n
    diag = np.diagonal(gram, axis1=1, axis2=2)
    x = np.zeros((count, n))
    x[:, 0] = 1.0
    support = np.zeros((count, n), dtype=bool)
    support[:, 0] = True
    finished = np.zeros(count, dtype=bool)
    live = np.arange(count)
    iterations = 0
    while live.size and iterations < max_iter:
        iterations += 1
        on, xs, g, h = support[live], x[live], gram[live], lin[live]
        idx = np.arange(live.size)
        # eliminate the lowest-index support variable j0: with a_j = m_j - m_j0
        # the restricted normal equations read (a'a) y = a'(beta - m_j0)
        j0 = on.argmax(axis=1)
        rest = on.copy()
        rest[idx, j0] = False
        g0 = g[idx, :, j0]
        g00 = g[idx, j0, j0]
        a = g - g0[:, :, None] - g0[:, None, :] + g00[:, None, None]
        # unit rows and columns off the support keep y there at 0
        a = np.where(rest[:, :, None] & rest[:, None, :], a, np.eye(n))
        rhs = (h - g0 - h[idx, j0][:, None] + g00[:, None]) * rest
        floor = _PIVOT_TOL * np.where(on, diag[live], 0.0).max(axis=1)
        y, solved = _solve_checked(a, rhs, np.where(rest, floor[:, None], -1.0))
        z = y.copy()
        z[idx, j0] = 1.0 - y.sum(axis=1)

        outside = np.where(on, z, np.inf).min(axis=1) <= -FEASIBILITY_TOL
        # restricted optimum left the simplex: step toward it until the first
        # support coordinate hits zero, then drop what vanished
        neg = on & (z <= 0.0) & outside[:, None]
        denom = xs - z
        ratios = np.full(xs.shape, np.inf)
        ratios[neg] = 0.0
        np.divide(xs, denom, out=ratios, where=neg & (denom > 0.0))
        step = np.where(outside, ratios.min(axis=1), 0.0)
        stepped = xs + step[:, None] * (z - xs)
        keep = on & (stepped > _DROP_TOL)
        stuck = outside & (keep == on).all(axis=1)
        # fp dust kept everything positive; force out the blocker
        keep[stuck, ratios[stuck].argmin(axis=1)] = False
        moved = np.where(keep, stepped, 0.0)

        # restricted optimum feasible: take it, then let the most violated
        # off-support coordinate enter
        fitted = np.where(on, np.clip(z, 0.0, None), 0.0)
        grad = 2.0 * ((g * fitted[:, None, :]).sum(axis=2) - h)
        lam = np.where(on, grad, 0.0).sum(axis=1) / on.sum(axis=1)
        viol = np.where(on, np.inf, grad - lam[:, None])
        pick = viol.argmin(axis=1)
        done = ~outside & (viol[idx, pick] >= -_ENTER_TOL)
        enter = ~outside & ~done
        grown = on.copy()
        grown[idx[enter], pick[enter]] = True

        # a singular restricted system leaves the problem where it stands
        step_x = np.where(outside[:, None], moved, fitted)
        x[live] = np.where(solved[:, None], step_x, xs)
        step_on = np.where(outside[:, None], keep, grown)
        support[live] = np.where(solved[:, None], step_on, on)
        finished[live[solved & done]] = True
        live = live[solved & ~done]

    x = np.clip(x, 0.0, None)
    x /= x.sum(axis=1, keepdims=True)
    return x, finished


def simplex_gram_bounds(
    gram, lin, residuals, *, max_iter: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Bracket the simplex LSQ optimum of every problem in a stack, from its
    Gram form.

    Parameters
    ----------
    gram : (b, n, n) array_like
        ``M'M`` of each problem.
    lin : (b, n) array_like
        ``M'beta`` of each problem.
    residuals : callable
        Maps feasible points x, a (b, n) array, to the exact residuals
        ``r = M x - beta`` (shape (b, r)) and ``M'r`` (shape (b, n)).
        It is called once, on the final points.
    max_iter : int, optional
        Iteration cap, default 50 * n, as in ``simplex_lsq``.

    Returns
    -------
    (upper, lower) : two (b,) arrays
        ``upper`` is |r| at a feasible point x of each problem and
        ``lower = sqrt(max(0, upper^2 - gap))`` with the Frank-Wolfe duality
        gap ``gap = grad . x - min(grad)``, ``grad = 2 M'r``. By convexity
        the optimum lies between them for any feasible x. Both come from
        the exact residuals, never from x'Gx - 2h'x + |beta|^2, which
        cancels: rounding moves either bound by about 1e-14.

    x follows ``simplex_lsq``'s active set (lowest-index elimination, the
    same step, drop and entry tolerances) on (G, h), so each iteration
    solves stacked n x n systems whatever the row count. The restricted
    systems are solved by elimination, never by a pseudo-inverse. A
    problem whose restricted system has a pivot at or below 1e-12 times its
    largest support diagonal of G stops there, at its last feasible x,
    which still brackets the optimum. Every operation acts on each problem
    alone, so a problem's bounds are the same bytes whatever else is in
    the stack.
    """
    gram = np.asarray_chkfinite(gram, dtype=np.float64)
    lin = np.asarray_chkfinite(lin, dtype=np.float64)
    if gram.ndim != 3 or gram.shape[1] != gram.shape[2]:
        raise ValueError("Gram stack must have shape (b, n, n)")
    count, n, _ = gram.shape
    if lin.shape != (count, n):
        raise ValueError(f"linear terms must have shape {(count, n)}")
    if n < 1:
        raise ValueError("problems need at least one variable")

    x, _ = _gram_active_set(gram, lin, max_iter)
    resid, mtr = residuals(x)
    upper = np.sqrt((resid * resid).sum(axis=1))
    grad = 2.0 * mtr
    # sum of nonnegative terms, so the gap is never negative in floating point
    gap = (x * (grad - grad.min(axis=1, keepdims=True))).sum(axis=1)
    lower = np.minimum(upper, np.sqrt(np.maximum(0.0, upper * upper - gap)))
    return upper, lower


def kkt_residuals(m_matrix, beta, x) -> dict[str, float]:
    """Optimality certificate for a claimed simplex LSQ solution.

    Returns feasibility and stationarity measures:

    * ``sum_error``: |sum(x) - 1|
    * ``min_coord``: smallest coordinate of x
    * ``multiplier``: mean gradient (2 M'(Mx - beta)) over the support
    * ``stationarity_gap``: max |gradient - multiplier| over the support
    * ``dual_gap``: min (gradient - multiplier) off the support (0 when the
      support is everything); optimality requires it to be >= -tolerance
    * ``residual``: |M x - beta|

    A point is optimal (global, by convexity) when sum_error and min_coord
    pass feasibility and the two gaps pass the KKT tolerance.
    """
    m = np.asarray_chkfinite(m_matrix, dtype=np.float64)
    b = np.asarray_chkfinite(beta, dtype=np.float64).ravel()
    xv = np.asarray_chkfinite(x, dtype=np.float64).ravel()
    grad = 2.0 * (m.T @ (m @ xv - b))
    on = xv > 0.0
    lam = float(grad[on].mean()) if on.any() else 0.0
    stationarity = float(np.abs(grad[on] - lam).max()) if on.any() else 0.0
    dual = float((grad[~on] - lam).min()) if (~on).any() else 0.0
    return {
        "sum_error": float(abs(xv.sum() - 1.0)),
        "min_coord": float(xv.min()),
        "multiplier": lam,
        "stationarity_gap": stationarity,
        "dual_gap": dual,
        "residual": float(np.linalg.norm(m @ xv - b)),
    }
