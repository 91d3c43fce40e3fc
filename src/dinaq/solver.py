"""Least squares over the probability simplex.

Solves min |M x - beta| subject to x >= 0 and sum(x) = 1 with one
active-set method, Lawson & Hanson's NNLS (1974) with the equality
constraint eliminated inside each restricted solve (the lowest-index
support variable is expressed through the others). Restricted optima with
negative coordinates trigger the usual step-and-drop inner loop, and a
variable enters only while its dual violation is meaningful. Pivoting is
deterministic, lowest index first, so identical inputs produce identical
solutions.

The method runs on the Gram form (G, h) = (M'M, M'beta), on a stack of
same-shape problems in lockstep (``_gram_active_set``): each iteration
solves stacked n x n systems whatever the row count, by an elimination
whose pivots are checked, never by a pseudo-inverse. Every operation acts
on each problem alone, so a problem's solution is the same bytes whatever
else is in the stack. A restricted system that turns singular right after
an entry is undone and the column is blocked; the docstring of
``_gram_active_set`` proves that this loses nothing. ``simplex_lsq`` is the
solve of one problem given by its rows: a stack of one, with the residual
read off the rows. The searches call the same solve on closed-form Gram
systems that build no design.

The problem is convex, so the certificate in ``kkt_residuals`` (common
gradient multiplier on the support, no profitable coordinate off it) is both
necessary and sufficient for global optimality.
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
        The solve of ``_gram_active_set`` on (M'M, M'beta), a stack of one:
        it starts from the first vertex and stops after at most 50 * n
        iterations; hitting that cap returns the last feasible iterate with
        status "iteration-cap". x is exactly nonnegative, sums to 1 within
        1e-12, and on status "optimal" satisfies the simplex KKT conditions
        at 1e-8. The residual is |M x - beta|, read off the rows.
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
    x, finished, iterations = _gram_active_set((m.T @ m)[None], (m.T @ b)[None])
    return LsqSolution(
        x=x[0],
        residual=float(np.linalg.norm(m @ x[0] - b)),
        iterations=int(iterations[0]),
        status="optimal" if finished[0] else "iteration-cap",
    )


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
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Minimize x'Gx - 2h'x over the probability simplex for every problem
    of a checked stack of Gram forms (G, h) = (M'M, M'beta), shapes
    (b, n, n) and (b, n), with the iteration cap ``max_iter``, default
    50 * n.

    Returns the final feasible points, shape (b, n), per problem whether
    it finished (no off-support coordinate may enter) rather than stopping
    at the cap, and its iteration count. Every operation acts on each
    problem alone, so a problem's results are the same bytes whatever else
    is in the stack.

    A restricted system is singular when a pivot of its elimination is at
    or below 1e-12 times the largest diagonal entry of G on the support.
    One that turns singular right after column j entered is undone: j
    leaves the support again, x stays where it was, and j is blocked, so
    that it may not enter again until some column leaves the support,
    which clears every block. This loses nothing. Column j enters only
    from the restricted optimum x of the support S, where the gradient
    grad = 2 (G x - h) takes one value lam on S. If m_j lies in aff(S),
    m_j = sum_S w_i m_i with sum_S w_i = 1, then
    grad_j = 2 m_j'(M x - beta) = sum_S w_i grad_i = lam: j shows no dual
    violation, so in exact arithmetic it never enters, and a singular
    system after its entry was caused by rounding. While j is blocked no
    column of S leaves the support (an undo removes only the column that
    has just entered), so j stays in the affine hull of the support, and
    by the same identity its dual violation at the final point is zero
    again: the final point meets the KKT conditions of the problem with j,
    not only of the problem without it. An exactly duplicated column is
    the extreme case: the solve ends at the optimum of the problem without
    the duplicate. Any other singular system would need an affinely
    independent support to turn dependent by dropping columns, which
    cannot happen in exact arithmetic; such a problem stays where it
    stands and ends at the cap, unfinished.
    """
    count, n, _ = gram.shape
    if max_iter is None:
        max_iter = 50 * n
    diag = np.diagonal(gram, axis1=1, axis2=2)
    eye = np.eye(n)
    x = np.zeros((count, n))
    x[:, 0] = 1.0
    support = np.zeros((count, n), dtype=bool)
    support[:, 0] = True
    blocked = np.zeros((count, n), dtype=bool)
    # the column that entered on a problem's last iteration, -1 for none
    entered = np.full(count, -1)
    finished = np.zeros(count, dtype=bool)
    iterations = np.zeros(count, dtype=int)
    live = np.arange(count)
    # every live problem has run the same number of iterations
    while live.size and iterations[live[0]] < max_iter:
        iterations[live] += 1
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
        a = np.where(rest[:, :, None] & rest[:, None, :], a, eye)
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
        # off-support coordinate that is not blocked enter
        fitted = np.where(on, np.clip(z, 0.0, None), 0.0)
        grad = 2.0 * ((g * fitted[:, None, :]).sum(axis=2) - h)
        lam = np.where(on, grad, 0.0).sum(axis=1) / on.sum(axis=1)
        viol = np.where(on | blocked[live], np.inf, grad - lam[:, None])
        pick = viol.argmin(axis=1)
        done = ~outside & (viol[idx, pick] >= -_ENTER_TOL)
        enter = ~outside & ~done
        grown = on.copy()
        grown[idx[enter], pick[enter]] = True

        step_x = np.where(outside[:, None], moved, fitted)
        step_on = np.where(outside[:, None], keep, grown)
        # a singular system right after an entry undoes it and blocks the
        # column; any other leaves the problem where it stands
        failed = idx[~solved]
        if failed.size:
            step_x[failed], step_on[failed] = xs[failed], on[failed]
            last = entered[live[failed]]
            undo = last >= 0
            step_on[failed[undo], last[undo]] = False
            blocked[live[failed[undo]], last[undo]] = True
        x[live], support[live] = step_x, step_on
        # a column leaving the support clears every block
        blocked[live[solved & outside]] = False
        entered[live] = np.where(solved & enter, pick, -1)
        finished[live[solved & done]] = True
        live = live[~(solved & done)]

    x = np.clip(x, 0.0, None)
    x /= x.sum(axis=1, keepdims=True)
    return x, finished, iterations


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
