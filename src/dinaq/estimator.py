"""Q-matrix estimation from joint success rates.

The estimators never look at raw response rows: everything is driven by the
vector of joint success rates over item combinations (see
``simulator.compute_alpha``). A candidate Q-matrix is scored by how closely
some distribution over attribute profiles reproduces those rates through the
candidate's slip-guess design; the fitted Q-matrix is the score minimizer
over canonical candidates.

Both searches rank their candidates with one certified screen that builds
no design: it iterates on each candidate's closed-form Gram system and
brackets its score between bounds read from exact residuals through the
pattern lattice (``tmatrix.pattern_gram``, ``pattern_rates``,
``pattern_moments``). Only candidates that could win or tie get an exact
solve on their own design, so every reported winner, score and tie is
exact.

When capable success rates are unknown they are recovered per candidate
before scoring: a moment estimator handles every item whose attributes are
jointly covered by other items, and a bounded quasi-Newton profile search
fills in the rest. That search minimizes the squared score with its exact
gradient, which the envelope theorem reads off the simplex fit itself.

``check_identifiability`` probes the model in population: a complete
Q-matrix should leave every non-equivalent candidate at a strictly positive
fit distance no matter how that candidate tunes its capable rates. A
candidate that holds every capability pattern the population uses fits it
exactly and is flagged without numerics; every other candidate's distance
comes from the same gradient rate search, over all of its capable rates.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .core import (
    DEFAULT_BUDGET,
    ProfileDistribution,
    QMatrix,
    canonicalize,
    enumerate_candidates,
    equivalent,
    is_complete,
)
from .simulator import AlphaVector, ResponseData, compute_alpha, population_alpha
from .solver import LsqSolution, simplex_gram_bounds, simplex_lsq
from .tmatrix import (
    ComboOrder,
    DinaParams,
    design,
    difference_pass,
    pattern_gram,
    pattern_moments,
    pattern_rates,
    patterns,
    rate_vector,
    unit_rates,
)

DEFAULT_TIE_TOL = 1e-7
DEGENERATE_TOL = 1e-12
IDENTIFIABILITY_TOL = 1e-6

# deterministic multi-start levels for the bounded profile search
_SLIP_STARTS = (0.5, 0.85, 0.25)
# The profile search minimizes _SLIP_SCALE * score^2. ``minimize`` stops once a
# step gains less than ftol * max(|objective|, 1), an absolute test below 1:
# on score^2 itself that leaves near-exact fits at scores up to about 3e-8. The
# scale keeps the test relative down to a score of 1e-4 and makes it 1e-21
# on score^2 below that; gtol is 1e-12 on the gradient of score^2.
_SLIP_SCALE = 1e8
_SLIP_OPTIONS = {"ftol": 1e-13, "gtol": 1e-4, "maxfun": 4000}
# ``minimize``: widest epsilon-active band at a bound, Armijo sufficient
# decrease, and trial points per line search before it gives up
_ACTIVE_BAND = 1e-3
_ARMIJO = 1e-4
_MAX_TRIALS = 30

# candidates per screened chunk: a chunk's screen holds a few arrays of
# chunk x 2^m floats for its residual passes, so this bounds memory
_CANDIDATE_CHUNK = 512
# the screen's bounds sit within about 1e-14 of the exact residual; this
# margin keeps that rounding from ever excluding a contender
_BOUND_SLACK = 1e-12


class DegenerateSampleError(RuntimeError):
    """A moment denominator vanished: the sample cannot pin the slip rate."""


class AlignmentError(RuntimeError):
    """Split estimates cannot be stitched into a unique column arrangement."""


def _require_saturated(alpha: AlphaVector) -> None:
    if not alpha.order.is_saturated:
        raise ValueError("this operation requires success rates on a saturated order")


def _fit(q: QMatrix, c, g, alpha: AlphaVector) -> LsqSolution:
    """The exact simplex fit of ``q`` to ``alpha`` at per-item rates (c, g):
    ``simplex_lsq`` on the candidate's own design. ``score``, ``estimate_p``,
    the screen's re-score and the identifiability probe's delta all read
    this one solve. ``design`` raises ValueError when q, the rates and the
    combination order disagree on m."""
    return simplex_lsq(design(q, c, g, alpha.order), alpha.rates)


def score(q: QMatrix, alpha: AlphaVector, params: DinaParams) -> float:
    """Fit distance of a candidate Q-matrix to observed success rates.

    The minimum euclidean distance between ``alpha`` and the success rates
    the candidate can produce with *some* profile distribution at the given
    per-item rates. Zero means the candidate explains the rates exactly.
    Invariant under column permutation of ``q`` (up to solver tolerance),
    and computable on any combination order, saturated or not.

    The design's leading column is the zero profile's contribution (guess
    products); with g = 0 it is identically zero and that variable is pure
    slack, which turns the sum-to-one constraint into "at most mass one on
    the nonzero profiles" for the noiseless score.
    """
    return _fit(q, params.c, params.g, alpha).residual


def estimate_p(q: QMatrix, alpha: AlphaVector, params: DinaParams) -> ProfileDistribution:
    """Fitted profile distribution behind the score of ``q``.

    The full simplex minimizer of the same solve as ``score``: zero-profile
    mass first, nonzero profiles in the canonical column order of ``q``'s
    attribute arrangement. When the design has full column rank (complete
    q, separated rates) the minimizer is unique; otherwise it is the
    solver's deterministic representative.
    """
    return ProfileDistribution(q.k, _fit(q, params.c, params.g, alpha).x)


@dataclass(frozen=True, eq=False)
class EstimationResult:
    """Outcome of a Q-matrix search.

    ``ties`` lists every canonical candidate scoring within the tie tolerance
    of the winner, winner included; more than one entry means the data do not
    single out a class and downstream consumers should treat the result as
    ambiguous. Among candidates whose fits agree to rounding, ``q_hat`` may
    be any member of the tie set, chosen by the last bits of the solves;
    only the tie set, and so exit code 2 in the CLI, is reproducible.
    ``c_hat`` is populated only by the unknown-slip search.
    ``p_tilde`` is the winner's exact simplex minimizer. In both searches a
    batched screen decides which candidates get an exact solve, so the
    winner's score and every tie are exact. ``diagnostics`` holds only the
    lists of candidates whose fit is suspect, still ranked, each present
    when nonempty: ``"capped"`` (exact solve stopped at the solver's
    iteration cap), ``"degenerate"`` and ``"unconverged"``.
    """

    q_hat: QMatrix
    score: float
    ties: tuple[QMatrix, ...]
    p_tilde: ProfileDistribution
    n_candidates: int
    c_hat: np.ndarray | None = None
    diagnostics: dict | None = None


def _certify(upper: np.ndarray, lower: np.ndarray, exact, tol: float) -> np.ndarray:
    """Ranking scores for one screened chunk.

    ``exact(i)``, an exact solve, replaces ``upper[i]`` wherever ``lower[i]``
    is within ``tol`` of the best exact score so far, until no new entry
    qualifies. Every other entry's exact score then exceeds that best by
    more than ``tol``, so the first minimum and every score within ``tol``
    of it are exact, as if every entry had been solved exactly. A chunk's
    best is never below the best over all chunks, so chunks certified
    separately still rank together exactly.
    """
    scores = upper.copy()
    pending = np.ones(scores.size, dtype=bool)
    best = scores.min()
    while True:
        # "not above" re-scores a NaN bound too
        todo = np.flatnonzero(pending & ~(lower > best + tol + _BOUND_SLACK))
        if not todo.size:
            return scores
        for i in todo:
            scores[i] = exact(int(i))
        pending[todo] = False
        best = scores[~pending].min()


def _by_mask(alpha: AlphaVector) -> np.ndarray:
    """Saturated success rates as a (2^m,) array indexed by combination
    bitmask, with 0 for the empty combination."""
    target = np.zeros(1 << alpha.order.m)
    target[list(alpha.order.combos)] = alpha.rates
    return target


def _pattern_bounds(
    pats: np.ndarray, c: np.ndarray, g: np.ndarray, target: np.ndarray, moments: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``simplex_gram_bounds`` for the saturated-order designs of a stack of
    candidates, given by their (b, n) patterns, without building them.

    ``c`` is an (m,) vector or a (b, m) stack, ``target`` the rates by
    bitmask (``_by_mask``) and ``moments`` its ``pattern_moments`` at the
    same rates, one row or a row per candidate. The iterations run on the
    closed-form Gram systems; the bounds come from the exact residuals,
    read through the pattern lattice: weights to rates (``pattern_rates``)
    and residual to gradient (``pattern_moments``).
    """
    count, size = pats.shape[0], target.size
    lin = np.take_along_axis(np.atleast_2d(moments), pats, axis=1)
    slots = (np.arange(count)[:, None] * size + pats).ravel()

    def residuals(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # sum each candidate's weights by pattern; equal patterns share a cell
        weights = np.bincount(slots, x.ravel(), count * size).reshape(count, size)
        resid = pattern_rates(weights, c, g) - target
        # entry 0 is the total mass, not a combination's rate
        resid[:, 0] = 0.0
        return resid, np.take_along_axis(pattern_moments(resid, c, g), pats, axis=1)

    return simplex_gram_bounds(pattern_gram(pats, c, g), lin, residuals)


def _screen(
    cands: list[QMatrix],
    c: np.ndarray,
    g: np.ndarray,
    alpha: AlphaVector,
    tie_tol: float,
) -> list[tuple[float, str | None, np.ndarray | None]]:
    """Certified scores of same-shape candidates at known rates.

    Candidate i is scored at capable rates ``c[i]`` when ``c`` is a stack,
    ``c`` otherwise. Consecutive chunks of at most ``_CANDIDATE_CHUNK``
    candidates are screened in turn: ``_pattern_bounds`` brackets a chunk's
    scores without building a design, then ``_certify`` decides which of
    them get the exact solve, ``_fit``, the same solve as ``score``.

    Returns one (score, note, x) per candidate, in candidate order: x is
    the exact minimizer for the re-scored candidates and None for the
    others, and the note is "capped" where that solve stopped at the
    iteration cap.
    """
    target = _by_mask(alpha)
    fits = []
    for start in range(0, len(cands), _CANDIDATE_CHUNK):
        chunk = cands[start : start + _CANDIDATE_CHUNK]
        rates = c[start : start + _CANDIDATE_CHUNK] if c.ndim == 2 else c
        moments = pattern_moments(target, rates, g)
        upper, lower = _pattern_bounds(patterns(chunk), rates, g, target, moments)
        solutions: dict[int, LsqSolution] = {}

        def exact(i: int) -> float:
            sol = _fit(chunk[i], rates[i] if rates.ndim == 2 else rates, g, alpha)
            solutions[i] = sol
            return sol.residual

        for i, s in enumerate(_certify(upper, lower, exact, tie_tol)):
            sol = solutions.get(i)
            if sol is None:
                fits.append((float(s), None, None))
            else:
                fits.append((float(s), "capped" if sol.status == "iteration-cap" else None, sol.x))
    return fits


def _check_tie_tol(tie_tol: float) -> None:
    if not tie_tol >= 0.0:
        raise ValueError(f"tie_tol must be a nonnegative number, got {tie_tol}")


def _result(
    candidates: list[QMatrix],
    fits: list[tuple],
    tie_tol: float,
    rates: list[np.ndarray | None] | None = None,
) -> EstimationResult:
    """The result of a search from its candidates and their (score, note, x)
    fits: the winner is the least score, first in candidate order on exact
    ties, its x gives ``p_tilde`` and, for the unknown-c search, its entry
    of ``rates`` gives ``c_hat``. Under each note that some fit carries
    ("capped", "degenerate", "unconverged") ``diagnostics`` lists the
    candidates carrying it."""
    scores = np.array([f[0] for f in fits])
    best = int(np.argmin(scores))
    diagnostics = {
        note: tuple(qc for qc, f in zip(candidates, fits) if f[1] == note)
        for note in sorted({f[1] for f in fits} - {None})
    }
    return EstimationResult(
        q_hat=candidates[best],
        score=fits[best][0],
        ties=tuple(qc for qc, s in zip(candidates, scores) if s <= scores[best] + tie_tol),
        p_tilde=ProfileDistribution(candidates[best].k, fits[best][2]),
        n_candidates=len(candidates),
        c_hat=None if rates is None else rates[best],
        diagnostics=diagnostics,
    )


def estimate_q(
    alpha: AlphaVector,
    params: DinaParams,
    k: int,
    *,
    budget: int = DEFAULT_BUDGET,
    tie_tol: float = DEFAULT_TIE_TOL,
) -> EstimationResult:
    """Exhaustive Q-matrix search with known per-item rates.

    Scores one canonical representative per equivalence class of zero-row
    free m x k matrices against saturated success rates and returns the
    minimizer (first in enumeration order on exact ties), the tie set at
    ``tie_tol``, and the fitted profile distribution of the winner.

    The search works on stacks of candidates without building their
    designs: the candidates arrive from ``enumerate_candidates`` unpacked
    and checked as one stack, and each chunk of candidates is screened by
    one batched solve on its closed-form Gram systems
    (``simplex_gram_bounds``). Only candidates whose lower bound comes
    within ``tie_tol`` of the best exact score get an exact ``simplex_lsq``
    solve on their own design, and the winner's solve gives ``p_tilde``.
    Winner, score, ties and ``p_tilde`` are therefore exactly those of
    solving every candidate exactly. A re-scored candidate whose exact
    solve stopped at the solver's iteration cap keeps its rank and is
    listed in diagnostics["capped"], the only list this search can fill.

    Raises ValueError, before any work, for a negative or NaN ``tie_tol``,
    and BudgetExceededError when the enumeration exceeds ``budget``.
    """
    _check_tie_tol(tie_tol)
    _require_saturated(alpha)
    m = alpha.order.m
    if params.m != m:
        raise ValueError(f"params cover {params.m} items, rates cover {m}")
    candidates = list(enumerate_candidates(m, k, budget))
    fits = _screen(candidates, params.c, params.g, alpha, tie_tol)
    return _result(candidates, fits, tie_tol)


def find_cover_combo(q: QMatrix, item: int) -> int | None:
    """Smallest set of other items whose attributes jointly dominate the
    target item's requirement; returns its bitmask, or None when no set of
    other items suffices. Ties at equal size break lexicographically by the
    sorted item tuple.
    """
    if not 0 <= item < q.m:
        raise ValueError(f"item index {item} out of range for m={q.m}")
    target = q.row_masks[item]
    others = [i for i in range(q.m) if i != item]
    for size in range(1, len(others) + 1):
        for idx in itertools.combinations(others, size):
            union = 0
            for i in idx:
                union |= q.row_masks[i]
            if union & target == target:
                mask = 0
                for i in idx:
                    mask |= 1 << i
                return mask
    return None


def decontaminate(alpha: AlphaVector, g) -> np.ndarray:
    """De-contaminated success rates ``D(g) @ [alpha; 1]``.

    A read-only array of shape (2^m,) indexed by combination bitmask: entry
    S estimates the rate at which subjects clear every item of S by
    capability, at per-item rates c - g (see ``build_d``); entry 0 is 1, the
    total mass. It depends on the data and g only, never on a candidate.
    One pass per item over the 2^m lattice (``difference_pass``), so the
    operator itself is never built.
    """
    _require_saturated(alpha)
    v = _by_mask(alpha)
    v[0] = 1.0
    beta = difference_pass(v, g)
    beta.setflags(write=False)
    return beta


def moment_slip(q: QMatrix, g, beta: np.ndarray, item: int, cover: int) -> float:
    """Moment estimate of the capable success rate of one item.

    Contrasts the cover combination's de-contaminated success rate
    ``beta[cover]`` (``beta`` from ``decontaminate``) with the same rate
    after adjoining the item: their ratio estimates c_item - g_item when the
    cover's attributes dominate the item's. The estimate is clamped to
    [0, 1].

    Raises DegenerateSampleError when the denominator is below 1e-12 (no
    subjects effectively clear the cover).
    """
    g = rate_vector(g, q.m, "g")
    if np.shape(beta) != (1 << q.m,):
        raise ValueError(f"de-contaminated rates must have length {1 << q.m}")
    if not 0 <= item < q.m:
        raise ValueError(f"item index {item} out of range for m={q.m}")
    if not 0 < cover < (1 << q.m):
        raise ValueError("cover must be a nonempty combination of the items")
    if cover & (1 << item):
        raise ValueError("cover must not contain the target item")
    union = 0
    for i in range(q.m):
        if (cover >> i) & 1:
            union |= q.row_masks[i]
    if union & q.row_masks[item] != q.row_masks[item]:
        raise ValueError("cover attributes must dominate the item's requirement")
    den = float(beta[cover])
    if abs(den) < DEGENERATE_TOL:
        raise DegenerateSampleError(
            f"cover combination {cover:b} has vanishing de-contaminated rate; "
            "sample cannot identify the slip rate"
        )
    num = float(beta[cover | (1 << item)])
    return float(np.clip(g[item] + num / den, 0.0, 1.0))


def _rate_objective(
    q: QMatrix, g: np.ndarray, alpha: AlphaVector, c: np.ndarray, free: list[int]
):
    """``_SLIP_SCALE`` times the squared score of ``q``, and its gradient, as
    a function of the capable rates of the ``free`` items, the other rates
    held at ``c``. ``g`` comes checked from the rate search's caller, so
    no evaluation re-checks it.

    By the envelope theorem the gradient needs no re-fit: with x* the
    simplex minimizer and r = M x* - alpha, d score^2 / d c_i equals
    2 r' (dM/dc_i) x*. Entry (S, A) of M holds the factor c_i exactly when
    S contains item i and profile A masters it, and it is linear in c_i, so
    dM/dc_i is the design at c_i = 1 masked to those entries. One stacked
    design gives M and every free item's derivative.
    """
    masters = (patterns(q)[None, :] >> np.array(free)[:, None]) & 1 == 1
    holds = alpha.order._members[free][:, :, None] & masters[:, None, :]
    unit = np.arange(1, len(free) + 1)

    def objective(v: np.ndarray) -> tuple[float, np.ndarray]:
        stack = np.repeat(c[None, :], len(free) + 1, axis=0)
        stack[:, free] = np.clip(v, 0.0, 1.0)
        stack[unit, free] = 1.0
        designs = design(q, stack, g, alpha.order)
        x = simplex_lsq(designs[0], alpha.rates).x
        r = designs[0] @ x - alpha.rates
        grad = 2.0 * ((designs[1:] * holds) @ x @ r)
        return _SLIP_SCALE * float(r @ r), _SLIP_SCALE * grad

    return objective


@dataclass(eq=False)
class SearchResult:
    """One run of ``minimize``: the best point found, its objective value,
    whether a stopping test was met, and the objective evaluations spent."""

    x: np.ndarray
    fun: float
    success: bool
    nfev: int


def minimize(objective, x0: np.ndarray) -> SearchResult:
    """Minimize ``objective`` (value and gradient) over the box [0, 1]^n
    from ``x0`` by projected BFGS (Bertsekas, SIAM J. Control Optim. 1982).

    Each step holds the epsilon-active coordinates, those within
    min(``_ACTIVE_BAND``, |P(x - g) - x|) of a bound that the gradient g
    pushes out, on a projected gradient step, and moves the others by the
    quasi-Newton step of the BFGS model restricted to them. An Armijo
    backtracking search along the projection arc P(x + t d) takes the
    step; the model skips its update when the step shows no positive
    curvature, and restarts from a scaled identity when its step cannot
    move.

    The stopping tests, with ``_SLIP_OPTIONS``, are L-BFGS-B's: converged
    when |P(x - g) - x|_inf <= gtol, or when one step gains at most
    ftol * max(|f_old|, |f_new|, 1); unconverged once ``maxfun``
    evaluations are spent, or when a gradient step cannot move. A
    converged run returns the point that met its test, an unconverged one
    the best point it evaluated.
    """
    ftol, gtol, maxfun = (_SLIP_OPTIONS[key] for key in ("ftol", "gtol", "maxfun"))
    x = np.clip(np.asarray(x0, dtype=float), 0.0, 1.0)
    f, grad = objective(x)
    # hess is the BFGS model of the Hessian; scale, its curvature along the
    # first step that showed one, also scales the gradient steps
    nfev, hess, scale = 1, None, None
    best_f, best_x = f, x
    while True:
        pgrad = np.clip(x - grad, 0.0, 1.0) - x
        if np.abs(pgrad).max() <= gtol:
            return SearchResult(x, f, True, nfev)
        band = min(_ACTIVE_BAND, float(np.linalg.norm(pgrad)))
        held = ((x <= band) & (grad > 0.0)) | ((x >= 1.0 - band) & (grad < 0.0))
        step = -grad if scale is None else -grad / scale
        if hess is not None and not held.all():
            move = ~held
            try:
                step[move] = np.linalg.solve(hess[np.ix_(move, move)], -grad[move])
            except np.linalg.LinAlgError:
                hess = None
        # the first step is one unit long, as in L-BFGS-B
        t = min(1.0, 1.0 / float(np.linalg.norm(step))) if scale is None else 1.0
        for _ in range(_MAX_TRIALS):
            if nfev >= maxfun:
                return SearchResult(best_x, best_f, False, nfev)
            trial = np.clip(x + t * step, 0.0, 1.0)
            slope = float(grad @ (trial - x))
            if slope >= 0.0:
                t *= 0.5
                continue
            f_new, grad_new = objective(trial)
            nfev += 1
            if f_new < best_f:
                best_f, best_x = f_new, trial
            if f_new <= f + _ARMIJO * slope:
                break
            # safeguarded minimizer of the quadratic through f, slope and f_new
            t *= min(0.5, max(0.1, -slope / (2.0 * (f_new - f - slope))))
        else:
            if hess is None:
                return SearchResult(best_x, best_f, False, nfev)
            hess = None
            continue
        s, y = trial - x, grad_new - grad
        sy = float(s @ y)
        if sy > 0.0:
            if hess is None:
                scale = float(y @ y) / sy
                hess = scale * np.eye(x.size)
            bs = hess @ s
            hess += np.outer(y, y) / sy - np.outer(bs, bs) / float(s @ bs)
        f_old, x, f, grad = f, trial, f_new, grad_new
        if f_old - f <= ftol * max(abs(f_old), abs(f), 1.0):
            return SearchResult(x, f, True, nfev)


def _rate_search(
    q: QMatrix, g: np.ndarray, alpha: AlphaVector, c: np.ndarray, free: list[int]
) -> tuple[np.ndarray, bool]:
    """Capable rates of ``q`` from ``minimize`` over the ``free`` items, run
    from each of ``_SLIP_STARTS``, with every other item held at its entry
    of ``c``. Writes the best point found into the free entries of ``c``
    and returns ``c`` with whether any start converged. ``g`` and ``c``
    come checked from the caller, so nothing is re-checked here."""
    if not free:
        return c, True

    objective = _rate_objective(q, g, alpha, c, free)
    best_f, best_x, converged = np.inf, None, False
    for level in _SLIP_STARTS:
        res = minimize(objective, np.full(len(free), level))
        converged = converged or bool(res.success)
        if res.fun < best_f:
            best_f, best_x = float(res.fun), np.asarray(res.x)
    c[free] = np.clip(best_x, 0.0, 1.0)
    return c, converged


def profile_slip(
    q: QMatrix,
    g,
    alpha: AlphaVector,
    fixed: Mapping[int, float] | None = None,
) -> np.ndarray:
    """Capable success rates by direct score minimization.

    Keeps the ``fixed`` coordinates (e.g. moment estimates) and minimizes the
    squared fit distance over the remaining ones with a bounded quasi-Newton
    search (``minimize``, projected BFGS) from several deterministic starts,
    using the exact gradient that the envelope theorem gives at the simplex
    fit. Every coordinate of the result lies in [0, 1]; the best point found
    is always returned. Raises ValueError for a ``g`` entry outside [0, 1]
    and for a ``fixed`` item or rate out of range.
    """
    g = unit_rates(g, q.m, "g")
    fixed = dict(fixed or {})
    c = np.zeros(q.m)
    for i, v in fixed.items():
        if not 0 <= int(i) < q.m:
            raise ValueError(f"fixed item index {i} out of range")
        if not 0.0 <= float(v) <= 1.0:
            raise ValueError(f"fixed rate {v} outside [0, 1]")
        c[int(i)] = float(v)
    free = [i for i in range(q.m) if i not in fixed]
    return _rate_search(q, g, alpha, c, free)[0]


def _fit_rates(
    q: QMatrix, alpha: AlphaVector, g: np.ndarray, beta: np.ndarray
) -> tuple[np.ndarray | None, str | None]:
    # moment-estimate every covered item; rate-search the rest
    c = np.zeros(q.m)
    free = []
    for i in range(q.m):
        cover = find_cover_combo(q, i)
        if cover is None:
            free.append(i)
            continue
        try:
            c[i] = moment_slip(q, g, beta, i, cover)
        except DegenerateSampleError:
            return None, "degenerate"
    c, converged = _rate_search(q, g, alpha, c, free)
    return c, None if converged else "unconverged"


def estimate_q_unknown_c(
    alpha: AlphaVector,
    g,
    k: int,
    *,
    budget: int = DEFAULT_BUDGET,
    tie_tol: float = DEFAULT_TIE_TOL,
) -> EstimationResult:
    """Q-matrix search when capable success rates are unknown.

    Per candidate: moment-estimate the rate of every item covered by its
    peers and recover uncovered coordinates by bounded profile search. The
    final scores, each candidate at its own recovered rates, are then
    ranked by the certified screen of ``estimate_q``: only candidates that
    could be the winner or tie with it get an exact solve, so winner, score,
    ties and ``p_tilde`` are those of scoring every candidate exactly.
    Candidates with degenerate moment denominators score +inf and are
    listed in diagnostics["degenerate"].
    Candidates whose profile search converged from no start are still
    ranked at the best point found, and are listed in
    diagnostics["unconverged"]; a re-scored candidate whose exact solve
    stopped at the iteration cap, and carries no other note, is listed in
    diagnostics["capped"].

    Returns the winner with its recovered ``c_hat``; ties are judged on the
    final scores exactly as in ``estimate_q``. Raises ValueError, before
    any work, for a negative or NaN ``tie_tol`` or a ``g`` entry outside
    [0, 1].
    """
    _check_tie_tol(tie_tol)
    _require_saturated(alpha)
    m = alpha.order.m
    g = unit_rates(g, m, "g")
    candidates = list(enumerate_candidates(m, k, budget))
    beta = decontaminate(alpha, g)
    rates = [_fit_rates(q, alpha, g, beta) for q in candidates]
    fitted = [i for i, (c, _) in enumerate(rates) if c is not None]
    if not fitted:
        raise DegenerateSampleError("every candidate has a degenerate moment system")
    cs = np.array([rates[i][0] for i in fitted])
    screened = _screen([candidates[i] for i in fitted], cs, g, alpha, tie_tol)
    fits = [(np.inf, note, None) for _, note in rates]
    for i, (s, capped, x) in zip(fitted, screened):
        fits[i] = (s, rates[i][1] or capped, x)
    return _result(candidates, fits, tie_tol, [c for c, _ in rates])


def _align_columns(
    base_rows: np.ndarray,
    base_known: np.ndarray,
    sub_items: list[int],
    sub_entries: np.ndarray,
) -> np.ndarray:
    """Column permutation of ``sub_entries`` matching the stitched rows on
    shared items. Raises AlignmentError when no arrangement is consistent or
    several genuinely different ones are."""
    k = sub_entries.shape[1]
    overlap_pos = [t for t, it in enumerate(sub_items) if base_known[it]]
    base_sig = [
        tuple(int(base_rows[sub_items[t], j]) for t in overlap_pos) for j in range(k)
    ]
    sub_sig = [tuple(int(sub_entries[t, j]) for t in overlap_pos) for j in range(k)]
    if sorted(base_sig) != sorted(sub_sig):
        raise AlignmentError(
            "overlap rows disagree between groups: no column arrangement is consistent"
        )
    perm: list[int | None] = [None] * k
    for sig in set(base_sig):
        base_slots = [j for j in range(k) if base_sig[j] == sig]
        sub_cols = [j for j in range(k) if sub_sig[j] == sig]
        if len(base_slots) > 1:
            full_cols = {tuple(int(v) for v in sub_entries[:, j]) for j in sub_cols}
            if len(full_cols) > 1:
                raise AlignmentError(
                    "overlap rows do not pin a unique column matching "
                    f"(signature {sig} is shared by {len(base_slots)} columns)"
                )
        for slot, col in zip(base_slots, sub_cols):
            perm[slot] = col
    return sub_entries[:, [int(p) for p in perm]]


def split_estimate(
    responses: ResponseData,
    groups: Sequence[Iterable[int]],
    k: int,
    *,
    params: DinaParams | None = None,
    g=None,
    budget: int = DEFAULT_BUDGET,
    tie_tol: float = DEFAULT_TIE_TOL,
) -> QMatrix:
    """Estimate a large Q-matrix by splitting items into overlapping groups.

    Each group is estimated on its own restricted responses (saturated rates
    over group items only), then the per-group matrices are stitched: shared
    items force the column matching between a group and the rows already
    merged. Groups must cover every item; with k > 1 each group after the
    first needs enough overlap to pin the matching or AlignmentError is
    raised ("ambiguous" when several matchings work, "disagree" when none
    does).

    Exactly one of ``params`` (known per-item rates, sliced per group) or
    ``g`` (guessing rates only; slip rates recovered per group) must be
    given. Returns the canonical stitched matrix.
    """
    _check_tie_tol(tie_tol)
    if (params is None) == (g is None):
        raise ValueError("pass exactly one of params or g")
    m = responses.m
    group_lists = [[int(i) for i in grp] for grp in groups]
    if not group_lists:
        raise ValueError("need at least one group")
    covered: set[int] = set()
    for grp in group_lists:
        if not grp:
            raise ValueError("groups must be nonempty")
        for i in grp:
            if not 0 <= i < m:
                raise ValueError(f"item index {i} out of range for m={m}")
        if len(set(grp)) != len(grp):
            raise ValueError("duplicate item inside a group")
        covered.update(grp)
    if covered != set(range(m)):
        raise ValueError("groups must cover every item")
    if params is not None and params.m != m:
        raise ValueError(f"params cover {params.m} items, responses have {m}")
    if g is not None:
        g = unit_rates(g, m, "g")

    rows = np.zeros((m, k), dtype=np.uint8)
    known = np.zeros(m, dtype=bool)
    for grp in group_lists:
        sub = responses.restrict(grp)
        sub_alpha = compute_alpha(sub, ComboOrder.saturated(len(grp)))
        if params is not None:
            res = estimate_q(sub_alpha, params.subset(grp), k, budget=budget, tie_tol=tie_tol)
        else:
            res = estimate_q_unknown_c(sub_alpha, g[grp], k, budget=budget, tie_tol=tie_tol)
        if known.any():
            aligned = _align_columns(rows, known, grp, res.q_hat.entries)
        else:
            # first group fixes the global column frame
            aligned = res.q_hat.entries
        for t, item in enumerate(grp):
            rows[item] = aligned[t]
            known[item] = True
    return canonicalize(QMatrix(rows))


@dataclass(frozen=True, eq=False)
class IdentifiabilityReport:
    """Outcome of the numerical identifiability probe.

    ``deltas`` pairs each non-equivalent canonical candidate with its
    smallest achievable fit distance to the population rates (over capable
    rates): exactly 0.0 for a candidate certified by its capability
    patterns, otherwise the exact score at the best point the rate search
    found. ``flagged`` collects candidates at or below ``threshold``, which
    is always ``IDENTIFIABILITY_TOL``. ``notes`` holds warnings about the
    inputs, and names every candidate whose rate search converged from no
    start or whose delta solve stopped at the solver's iteration cap. An
    incomplete Q-matrix short-circuits: ``complete`` is False and no
    candidates are evaluated.
    """

    q: QMatrix
    complete: bool
    threshold: float
    deltas: tuple[tuple[QMatrix, float], ...]
    flagged: tuple[QMatrix, ...]
    min_delta: float | None
    notes: tuple[str, ...]

    @property
    def identifiable(self) -> bool:
        return self.complete and not self.flagged


def check_identifiability(
    q: QMatrix,
    params: DinaParams,
    p_star: ProfileDistribution,
    *,
    budget: int = DEFAULT_BUDGET,
) -> IdentifiabilityReport:
    """Probe whether any non-equivalent candidate mimics the population rates.

    Builds the analytic success rates of (q, params, p_star), then for every
    non-equivalent canonical candidate minimizes the fit distance over the
    candidate's capable rates, guessing rates held at the truth. A delta at
    or below ``IDENTIFIABILITY_TOL`` flags the candidate as
    indistinguishable in population, i.e. the configuration is not
    identifiable.

    A candidate whose capability patterns (``tmatrix.patterns``) include
    every pattern that the support of ``p_star`` induces under ``q`` gets
    delta 0.0 without a search: at the true capable rates its pattern
    columns are those of the truth, so it reproduces the population rates
    exactly. Every other candidate gets the rate search of the unknown-c
    estimator (projected BFGS from three starts, exact envelope gradient)
    over all of its capable rates, and its delta is the exact fit
    (``_fit``, the solve behind ``score``) at the best point found. A
    search that converged from no start is still counted at that point,
    and so is a delta whose solve stopped at the solver's iteration cap,
    which can only over-estimate it; each such candidate is named in
    ``notes``.

    Distributions with zero-mass profiles are allowed but noted: they are the
    classic source of non-identifiability. An incomplete ``q`` skips the
    probe entirely and reports complete=False.
    """
    if params.m != q.m:
        raise ValueError(f"params cover {params.m} items, Q-matrix has {q.m}")
    notes: list[str] = []
    if not is_complete(q):
        return IdentifiabilityReport(
            q=q,
            complete=False,
            threshold=IDENTIFIABILITY_TOL,
            deltas=(),
            flagged=(),
            min_delta=None,
            notes=(
                "Q-matrix is incomplete (some attribute has no single-attribute item); "
                "identifiability probe skipped",
            ),
        )
    if (p_star.probs == 0.0).any():
        notes.append(
            "profile distribution has zero-mass profiles; identifiability may degenerate"
        )
    order = ComboOrder.saturated(q.m)
    alpha = population_alpha(q, params, p_star, order)
    support = set(patterns(q)[p_star.probs > 0.0].tolist())
    deltas: list[tuple[QMatrix, float]] = []
    for cand in enumerate_candidates(q.m, q.k, budget):
        if equivalent(cand, q):
            continue
        if support <= set(patterns(cand).tolist()):
            deltas.append((cand, 0.0))
            continue
        c, converged = _rate_search(cand, params.g, alpha, np.zeros(q.m), list(range(q.m)))
        sol = _fit(cand, c, params.g, alpha)
        deltas.append((cand, sol.residual))
        name = ",".join(cand.row_strings())
        if not converged:
            notes.append(
                f"rate search for candidate {name} converged "
                "from no start; its delta is the best point found"
            )
        if sol.status == "iteration-cap":
            notes.append(
                f"delta solve for candidate {name} stopped at the iteration cap; "
                "its delta may be an over-estimate"
            )
    flagged = tuple(c for c, dlt in deltas if dlt <= IDENTIFIABILITY_TOL)
    min_delta = min((dlt for _, dlt in deltas), default=None)
    return IdentifiabilityReport(
        q=q,
        complete=True,
        threshold=IDENTIFIABILITY_TOL,
        deltas=tuple(deltas),
        flagged=flagged,
        min_delta=min_delta,
        notes=tuple(notes),
    )
