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
``_gram_active_set`` proves that this loses nothing. The iterations are
kept cheap without moving a byte: the first solves nothing, since the start
vertex is its own restricted optimum; each elimination pivots only at the
positions that some problem's restricted support holds, eliminating the
right-hand side as one more column (a skipped position moves only the sign
of an exact zero, and the clip of the restricted optimum keeps z only where
it is positive, so each zero it gives is the literal +0.0); and finished
problems stay in the stack, as the fixed points they are, until half of it
has finished.
``simplex_lsq`` is the solve of one problem given by its rows: a stack of
one, with the residual read off the rows. The searches call the same solve
on closed-form Gram systems that build no design.

The stack runs with the problem axis last: (n, n, b) Gram and eliminated
systems, (n, b) points, supports and gradients. The systems are small
(n = 2^k, 4 at k = 2), so with the problems innermost each array
operation's inner loop runs over the stack instead of over n numbers.
Elementwise operations give the same bytes in either layout; a sum over n
does not, since numpy sums a contiguous last axis pairwise (eight
accumulators from 8 terms on) and a leading axis left to right. The sums
over n therefore add in the order of numpy's last-axis sum
(``_sum_leading``), and the results are the bytes of the same method run
on (b, n, n) stacks.

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


def _sum_leading(v: np.ndarray) -> np.ndarray:
    """Sum over the first axis of ``v`` in the order of numpy's sum over a
    contiguous last axis, so that the result is the same bytes as that sum
    of the transposed array.

    numpy's order, by the number of terms: fewer than 8, left to right
    from +0.0, which is also how it sums a leading axis, so its own sum
    serves; 8 to 128, eight accumulators, the j-th taking every eighth term
    from the j-th, combined as ((a0 + a1) + (a2 + a3)) + ((a4 + a5) + (a6 + a7)),
    then the terms past the last multiple of 8 left to right; more, the
    two halves (the first a multiple of 8 long) summed alone, then added.
    Adding 0.0 to the first accumulator stands for the start from +0.0:
    it turns a sum of negative zeros into +0.0 and changes nothing else.
    """
    n = v.shape[0]
    if n < 8:
        return v.sum(axis=0)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _sum_leading(v[:half]) + _sum_leading(v[half:])
    full = n - n % 8
    acc = v[:8] if full == 8 else v[:8] + v[8:16]
    for i in range(16, full, 8):
        acc += v[i : i + 8]
    total = ((acc[0] + 0.0 + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
    for row in v[full:]:
        total += row
    return total


def _solve_checked(
    a: np.ndarray, rhs: np.ndarray, floor: np.ndarray, pivots: list[int] | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Solve stacked symmetric positive semidefinite systems a y = rhs by
    elimination without pivoting, with the problem axis last: ``a`` of
    shape (n, n, b), ``rhs`` and ``floor`` (n, b), one floor per pivot.

    Returns y, shape (n, b), and, per system, whether every pivot stayed
    above its floor.
    A pivot of a positive definite system is the squared distance of its
    column from the span of the earlier ones, so a pivot at or below the
    floor means the system is singular to working precision; such a
    system's y is meaningless. Every operation acts on each system alone.
    y is eliminated as column n of the augmented system [a | rhs], so that
    each pivot makes one trailing update, with the arithmetic of two.

    ``pivots``, ascending positions, limits the forward and back steps to
    them (default: all). Every other position must be a unit row and
    column of every system, with a floor below 1 and a right-hand side of
    zero. Its pivot is then 1, its elimination factors are zeros, and its
    y stays zero, so skipping it changes an entry only by the sign of an
    exact zero: adding or subtracting a signed zero leaves every nonzero
    number as it is. The back steps still sum over every position, so
    that ``_sum_leading`` keeps its accumulators at n >= 8.
    """
    n = a.shape[0]
    aug = np.concatenate((a, rhs[:, None]), axis=1)
    ok = np.ones(a.shape[-1], dtype=bool)
    steps = range(n) if pivots is None else pivots
    for j in steps:
        pivot = aug[j, j]
        good = pivot > floor[j]
        if not good.all():
            # a failed system goes on as an identity with a zero right-hand
            # side from its failed pivot on, only to keep the arithmetic
            # finite; its y is discarded
            failed = np.flatnonzero(ok & ~good)
            ok &= good
            aug[j:, j:, failed] = np.eye(n - j, n + 1 - j)[:, :, None]
        if j + 1 < n:
            factor = aug[j + 1 :, j] / pivot
            # below the pivot only the trailing block is read again
            aug[j + 1 :, j + 1 :] -= factor[:, None] * aug[j, None, j + 1 :]
    y = aug[:, n]
    for j in reversed(steps):
        if j + 1 < n:
            y[j] -= _sum_leading(aug[j, j + 1 : n] * y[j + 1 :])
        y[j] /= aug[j, j]
    return y, ok


def _eliminated(
    gram: np.ndarray, lin: np.ndarray, j0: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The restricted normal equations with support variable j0 eliminated,
    before they are masked to the support: with a_j = m_j - m_j0 they read
    (a'a) y = a'(beta - m_j0). Shapes (n, n, b) and (n, b), as ``gram``
    and ``lin``."""
    lanes = np.arange(j0.size)
    g0 = gram[:, j0, lanes]
    g00 = g0[j0, lanes]
    return (
        gram - g0[:, None] - g0[None, :] + g00,
        lin - g0 - lin[j0, lanes] + g00,
    )


def _boundary_step(
    xs: np.ndarray, z: np.ndarray, on: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Step from the feasible points xs toward restricted optima z that
    left the simplex, until the first support coordinate hits zero, and
    drop what vanished. Shapes (n, b); returns the points and supports."""
    neg = on & (z <= 0.0)
    denom = xs - z
    ratios = np.full(xs.shape, np.inf)
    ratios[neg] = 0.0
    np.divide(xs, denom, out=ratios, where=neg & (denom > 0.0))
    stepped = xs + ratios.min(axis=0) * (z - xs)
    keep = on & (stepped > _DROP_TOL)
    stuck = np.flatnonzero((keep == on).all(axis=0))
    # fp dust kept everything positive; force out the blocker
    keep[ratios[:, stuck].argmin(axis=0), stuck] = False
    return np.where(keep, stepped, 0.0), keep


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

    The state runs with the problem axis last, (n, n, b) and (n, b), so
    that each array operation's inner loop runs over the problems rather
    than over n = 2^k numbers: the stack is moved to that layout on entry
    and x back on exit. Elementwise operations give the same bytes in
    either layout; a sum over n adds in the order numpy's sum over a
    contiguous last axis would (``_sum_leading``), so the results are the
    bytes of the same method run on the (b, n, n) stack. Each problem's
    eliminated system is cached until its lowest-index support column
    changes, and the step to the boundary runs only on the problems whose
    restricted optimum left the simplex.

    Three savings keep every byte. Iteration 1 solves no system: every
    support is {0}, whose restricted optimum is the start vertex e_0
    itself, which the elimination would also return, with its pivots all 1.
    The elimination pivots only at positions that some problem's restricted
    support holds (``_solve_checked``); every other position is a unit row
    and column of every problem, and skipping it moves only the signs of
    exact zeros, which the clip of z at zero clears before they can reach
    x, the gradient or a step: the clip keeps z only where it is positive,
    so every zero it gives is the literal +0.0, whatever sign the zero of z
    had (``test_clip_at_zero_makes_negative_zero_positive`` pins this). And
    a finished problem stays held, with its x, flag and iteration count
    recorded as it finishes: it is a fixed point, which solves the same
    support to the same point and lets nothing enter, so its later
    iterations change nothing that is read. The held problems are gathered
    down to the unfinished ones only once at least half of them have
    finished: a stack pays one gather each time its held count halves, not
    one on every iteration in which some problem finishes, and a stack
    whose problems all finish together, as a stack of one does, pays none.

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
    # a (b, n, n) view of an (n, n, b) array, as pattern_gram returns, moves
    # without a copy
    g = np.ascontiguousarray(gram.transpose(1, 2, 0))
    h = np.ascontiguousarray(lin.T)
    diag = g[np.arange(n), np.arange(n)]
    eye = np.eye(n)[:, :, None]
    x_out = np.empty((n, count))
    finished = np.zeros(count, dtype=bool)
    iterations = np.zeros(count, dtype=int)
    # the state of the held problems, which are ``ids``; those of them that
    # have finished (``over``) stay until half of them have
    ids = lanes = np.arange(count)
    over = np.zeros(count, dtype=bool)
    x = np.zeros((n, count))
    x[0] = 1.0
    on = np.zeros((n, count), dtype=bool)
    on[0] = True
    blocked = np.zeros((n, count), dtype=bool)
    # the column that entered on a problem's last iteration, -1 for none
    entered = np.full(count, -1)
    # each problem's eliminated system before masking, and the j0 it is for
    cached = np.zeros(count, dtype=int)
    elim, base = _eliminated(g, h, cached)
    it = 0
    while not over.all() and it < max_iter:
        it += 1
        if it == 1:
            # the start vertex e_0 is the restricted optimum of its support
            # {0}, with nothing to eliminate
            z, solved = x, np.ones(ids.size, dtype=bool)
        else:
            # eliminate the lowest-index support variable j0
            j0 = on.argmax(axis=0)
            stale = np.flatnonzero(j0 != cached)
            if stale.size:
                elim[:, :, stale], base[:, stale] = _eliminated(
                    g[:, :, stale], h[:, stale], j0[stale]
                )
                cached[stale] = j0[stale]
            rest = on.copy()
            rest[j0, lanes] = False
            # unit rows and columns off the support keep y there at 0; a
            # position off every problem's support needs no pivot
            a = np.where(rest[:, None] & rest[None, :], elim, eye)
            floor = _PIVOT_TOL * np.where(on, diag, 0.0).max(axis=0)
            z, solved = _solve_checked(
                a, base * rest, np.where(rest, floor, -1.0),
                np.flatnonzero(rest.any(axis=1)).tolist(),
            )
            z[j0, lanes] = 1.0 - _sum_leading(z)
        outside = np.where(on, z, np.inf).min(axis=0) <= -FEASIBILITY_TOL

        # restricted optimum feasible: take it, then let the most violated
        # off-support coordinate that is not blocked enter
        step_x = np.where(on & (z > 0.0), z, 0.0)
        grad = 2.0 * (_sum_leading((g * step_x[None]).transpose(1, 0, 2)) - h)
        lam = _sum_leading(np.where(on, grad, 0.0)) / on.sum(axis=0)
        viol = np.where(on | blocked, np.inf, grad - lam)
        pick = viol.argmin(axis=0)
        done = ~outside & (viol[pick, lanes] >= -_ENTER_TOL)
        enter = ~outside & ~done
        step_on = on.copy()
        step_on[pick[enter], lanes[enter]] = True
        # restricted optimum left the simplex: step toward it instead
        out = np.flatnonzero(outside)
        if out.size:
            step_x[:, out], step_on[:, out] = _boundary_step(x[:, out], z[:, out], on[:, out])
        # a singular system right after an entry undoes it and blocks the
        # column; any other leaves the problem where it stands
        failed = np.flatnonzero(~solved)
        if failed.size:
            step_x[:, failed], step_on[:, failed] = x[:, failed], on[:, failed]
            last = entered[failed]
            undo = last >= 0
            step_on[last[undo], failed[undo]] = False
            blocked[last[undo], failed[undo]] = True
        x, on = step_x, step_on
        # a column leaving the support clears every block
        blocked[:, solved & outside] = False
        entered = np.where(solved & enter, pick, -1)
        # a finished problem is a fixed point: it solves the same support to
        # the same point and lets nothing enter, so it may stay held
        now = solved & done & ~over
        if now.any():
            x_out[:, ids[now]] = x[:, now]
            finished[ids[now]] = True
            iterations[ids[now]] = it
            over |= now
            go = np.flatnonzero(~over)
            if go.size and 2 * go.size <= over.size:
                ids, entered, cached, over = ids[go], entered[go], cached[go], over[go]
                lanes = np.arange(ids.size)
                x, on, blocked, h, diag, base = (
                    v[:, go] for v in (x, on, blocked, h, diag, base)
                )
                g, elim = g[:, :, go], elim[:, :, go]
    live = ~over
    x_out[:, ids[live]] = x[:, live]
    iterations[ids[live]] = it

    x = np.clip(np.ascontiguousarray(x_out.T), 0.0, None)
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
