"""Q-matrix estimation from joint success rates.

The estimators never look at raw response rows: everything is driven by the
vector of joint success rates over item combinations (see
``simulator.compute_alpha``). A candidate Q-matrix is scored by how closely
some distribution over attribute profiles reproduces those rates through the
candidate's slip-guess design; the fitted Q-matrix is the score minimizer
over canonical candidates.

Both searches and the identifiability probe are three configurations of
one pipeline (``_search``): a candidate source, the entry blocks of the
enumeration of canonical candidates, less the truth for the probe; a
rate policy, which gives each candidate its capable rates, the items
whose rates are still free and whether it is fitted at all; then one
rate search over the candidates with a free item and one exact screen of
the fitted ones. The policies are fixed rates (``estimate_q``), a moment
stage followed by a search of the uncovered items
(``estimate_q_unknown_c``), and a search of every item
(``check_identifiability``). A candidate's fit depends on it only
through the capability patterns its profiles induce, so the pipeline
joins the blocks once into (b, m, k) entries, takes their (b, 2^k)
patterns, and every stage reads rows of those stacks. It runs for one
or more groups of items of one size at once, one row per group and
candidate, each group with its own target and rates (``_Targets``), as
many groups in a pass as fit one chunk of rows; a search of all the
items is the one-group case. It returns one array
record per group: the scores, the fits, the rates and a (b, 4) array of
flags of what went wrong in each fit; the search results' notes and the
probe's sentences are read from those flags through one table
(``_NOTES``). A QMatrix is built only for a candidate that a result
names.

``split_estimate`` reads the response rows once, into their observed
patterns and counts, takes each group's rates from them
(``simulator._group_alpha``), and searches all groups of one size in one
pipeline call; the groups' results are then stitched in order.

The screen builds no design: it runs the simplex solver on a stack of
candidates' closed-form Gram systems and reads each score from the exact
residual through the pattern lattice (``tmatrix.pattern_gram``,
``pattern_rates``, ``pattern_moments``). The winner is the first
candidate in enumeration order within 1e-12 of the least score, a rule
that rounding cannot move.

When capable success rates are unknown the moment stage estimates, for a
whole chunk of candidates in array passes, every item whose attributes
are jointly covered by other items, and a bounded quasi-Newton rate
search fills in the rest. That search minimizes the squared score with
its exact gradient, which the envelope theorem reads off the simplex fit
itself. The searches of all candidates and starts run in lockstep: one
driver keeps every run's state in arrays and steps them all with masked
array operations, each round evaluates every pending trial point with one
batched objective that, like the screen, builds no design, and a
candidate's search ends where it would end alone.

``check_identifiability`` probes the model in population: a complete
Q-matrix should leave every non-equivalent candidate at a strictly positive
fit distance no matter how that candidate tunes its capable rates. A
candidate that holds every capability pattern the population uses fits it
exactly and is flagged without numerics; every other candidate's distance
comes from the same lockstep rate search, over all of its capable rates,
and the same screen.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .core import (
    DEFAULT_BUDGET,
    MAX_ITEMS,
    BudgetExceededError,
    ProfileDistribution,
    QMatrix,
    _candidate_blocks,
    canonicalize,
    is_complete,
)
from .simulator import (
    AlphaVector,
    ResponseData,
    _group_alpha,
    _response_patterns,
    population_alpha,
)
from .solver import LsqSolution, _gram_active_set, simplex_lsq
from .tmatrix import (
    ComboOrder,
    DinaParams,
    design,
    difference_pass,
    pattern_gram,
    pattern_moments,
    pattern_rates,
    patterns,
    unit_rates,
)

DEFAULT_TIE_TOL = 1e-7
DEGENERATE_TOL = 1e-12
IDENTIFIABILITY_TOL = 1e-6

# deterministic multi-start levels for the bounded profile search
_SLIP_STARTS = (0.5, 0.85, 0.25)
# The profile search minimizes _SLIP_SCALE * score^2. ``_lockstep`` stops
# once a step gains less than ftol * max(|objective|, 1), an absolute test
# below 1: on score^2 itself that leaves near-exact fits at scores up to
# about 3e-8. The scale keeps the test relative down to a score of 1e-4 and
# makes it 1e-21 on score^2 below that; gtol is 1e-12 on the gradient of
# score^2.
_SLIP_SCALE = 1e8
_SLIP_OPTIONS = {"ftol": 1e-13, "gtol": 1e-4, "maxfun": 4000}
# ``_lockstep``: widest epsilon-active band at a bound, Armijo sufficient
# decrease, and trial points per line search before it gives up
_ACTIVE_BAND = 1e-3
_ARMIJO = 1e-4
_MAX_TRIALS = 30

# candidates per screened chunk, and per lockstep rate search: a chunk's
# screen holds a few arrays of chunk x 2^m floats for its residual passes
# and of chunk x 4^k for its Gram systems, and its rate search, three
# starts per candidate, three times as many, so this bounds memory
_CANDIDATE_CHUNK = 512
# the winner is the first candidate in enumeration order whose score is
# within this of the least score, so that rounding in the solves, about
# 1e-14, cannot pick it
_WINNER_TOL = 1e-12
# the flags of a search record (``_search``), in the order their notes are
# made: the candidate is not fitted, its rate search converged from no
# start, its screen solve stopped at the solver's iteration cap, a solve of
# its rate search did. Each flag's note in a search result, where the first
# set flag gives a candidate's one note (only a degenerate candidate of the
# unknown-c search goes unfitted there), and its sentence in the probe's
# notes, one per set flag
_NOTES = (
    ("degenerate", None),
    ("unconverged", "rate search for candidate {} converged from no start; "
     "its delta is the best point found"),
    ("capped", "delta solve for candidate {} stopped at the iteration cap; "
     "its delta may be an over-estimate"),
    ("capped", "a rate-search solve for candidate {} stopped at the iteration cap; "
     "its delta may be an over-estimate"),
)


class DegenerateSampleError(RuntimeError):
    """A moment denominator vanished: the sample cannot pin the slip rate."""


class AlignmentError(RuntimeError):
    """Split estimates cannot be stitched into a unique column arrangement."""


def _require_saturated(alpha: AlphaVector) -> None:
    if not alpha.order.is_saturated:
        raise ValueError("this operation requires success rates on a saturated order")


def _fit(q: QMatrix, c, g, alpha: AlphaVector) -> LsqSolution:
    """The exact simplex fit of ``q`` to ``alpha`` at per-item rates (c, g):
    ``simplex_lsq`` on the candidate's own design. Only ``score`` and
    ``estimate_p`` read it, since they accept any combination order; the
    searches fit on closed-form Gram systems (``_pattern_fits``) and build
    no design. ``design`` raises ValueError when q, the rates and the
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
    ambiguous. ``q_hat`` is the first candidate in enumeration order whose
    score is within 1e-12 of the least score, so rounding in the solves
    cannot move it. ``c_hat`` is populated only by the unknown-slip search.
    ``score`` and ``p_tilde`` are the winner's exact simplex fit, from the
    same stacked solve that scores every candidate. ``diagnostics`` holds
    only the lists of candidates whose fit is suspect, still ranked, each
    present when nonempty: ``"capped"`` (the candidate's fit, or a solve of
    its unknown-c rate search, stopped at the solver's iteration cap),
    ``"degenerate"`` and ``"unconverged"``.
    """

    q_hat: QMatrix
    score: float
    ties: tuple[QMatrix, ...]
    p_tilde: ProfileDistribution
    n_candidates: int
    c_hat: np.ndarray | None = None
    diagnostics: dict | None = None


def _by_mask(alpha: AlphaVector) -> np.ndarray:
    """Saturated success rates as a (2^m,) array indexed by combination
    bitmask, with 0 for the empty combination."""
    target = np.zeros(1 << alpha.order.m)
    target[list(alpha.order.combos)] = alpha.rates
    return target


@dataclass(frozen=True, eq=False)
class _Targets:
    """What a stack of candidate rows is fitted to, one entry per group of
    items: ``rates``, the (G, 2^m) saturated success rates by bitmask
    (``_by_mask``), ``g``, the (G, m) guessing rates, and ``c``, the (G, m)
    capable rates where they are fixed, else None. ``own`` is the (b,)
    group of each row, nondecreasing; indexing takes rows."""

    rates: np.ndarray
    g: np.ndarray
    c: np.ndarray | None
    own: np.ndarray

    def __getitem__(self, rows) -> "_Targets":
        return _Targets(self.rates, self.g, self.c, self.own[rows])

    def segments(self) -> list[tuple[int, slice]]:
        """The group and the slice of each run of rows that share a group."""
        cuts = (np.flatnonzero(self.own[1:] != self.own[:-1]) + 1).tolist()
        ends = [0, *cuts, len(self.own)]
        return [(int(self.own[lo]), slice(lo, hi)) for lo, hi in zip(ends, ends[1:])]

    def by_row(self, values: np.ndarray) -> np.ndarray:
        """The rows' entries of a per-group (G, m) array, a (b, m) stack."""
        return values[self.own]


def _as_targets(alpha: AlphaVector, g, count: int, fixed=None) -> _Targets:
    """The targets of a stack of ``count`` rows of one group: every row
    fitted to ``alpha`` at guessing rates ``g``, and at capable rates
    ``fixed`` when they are given."""
    return _Targets(
        _by_mask(alpha)[None],
        np.asarray(g, dtype=float)[None],
        None if fixed is None else np.asarray(fixed, dtype=float)[None],
        np.zeros(count, dtype=np.intp),
    )


def _pattern_fits(
    pats: np.ndarray, c: np.ndarray | None, targets: _Targets
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The exact simplex fits of a stack of candidate rows, given by their
    (b, n) patterns, to the saturated rates of their groups (``targets``),
    without building their designs.

    ``c`` holds the rows' (b, m) capable rates, or is None for the fixed
    rates of their groups. The solve runs on the closed-form Gram systems
    (``pattern_gram``) with ``pattern_moments`` of each group's target
    gathered by pattern, one pass per group at fixed rates and one per row
    otherwise, and every row in one stacked solve. The residual is read
    through the pattern lattice (``pattern_rates`` of the weights of x on
    the patterns, equal patterns sharing a cell, less each group's
    target), never from the Gram form, with the empty combination's entry,
    the total mass, put to 0. The passes run per group, at the group's
    (m,) guessing rates, which numpy applies as one scalar per pass rather
    than one per row. Returns the minimizers x, whether each solve
    finished rather than stopping at the iteration cap, and the pattern
    weights and residuals of x. Every operation acts on each row alone.
    """
    segments = [
        (j, rows, targets.c[j] if c is None else c[rows]) for j, rows in targets.segments()
    ]
    lin = np.empty(pats.shape)
    for j, rows, rates in segments:
        moments = np.atleast_2d(pattern_moments(targets.rates[j], rates, targets.g[j]))
        lin[rows] = np.take_along_axis(moments, pats[rows], axis=1)
    gram = pattern_gram(
        pats,
        targets.by_row(targets.c) if c is None else c,
        targets.by_row(targets.g),
    )
    x, finished, _ = _gram_active_set(gram, lin)
    count, size = pats.shape[0], targets.rates.shape[1]
    slots = (np.arange(count)[:, None] * size + pats).ravel()
    weights = np.bincount(slots, x.ravel(), count * size).reshape(count, size)
    resid = np.empty(weights.shape)
    for j, rows, rates in segments:
        resid[rows] = pattern_rates(weights[rows], rates, targets.g[j]) - targets.rates[j]
    resid[:, 0] = 0.0
    return x, finished, weights, resid


def _screen(
    pats: np.ndarray, c: np.ndarray | None, targets: _Targets
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact scores of same-shape candidate rows at known rates.

    The rows are those of a (b, 2^k) pattern stack (``patterns``),
    possibly empty, each fitted to its group of ``targets``. Row i is
    scored at capable rates ``c[i]`` when ``c`` is a (b, m) stack, and at
    its group's fixed rates when it is None. Consecutive chunks of at most
    ``_CANDIDATE_CHUNK`` rows, across groups, are fitted in turn, each by
    one stacked exact solve (``_pattern_fits``) that builds no design.

    Returns three arrays in row order: the (b,) scores, each |r| at the
    minimizer, the (b,) flags of the solves that finished rather than
    stopping at the iteration cap, and the (b, 2^k) minimizers x.
    """
    b = len(pats)
    scores, finished, x = np.empty(b), np.empty(b, dtype=bool), np.empty(pats.shape)
    for start in range(0, b, _CANDIDATE_CHUNK):
        chunk = slice(start, start + _CANDIDATE_CHUNK)
        rates = None if c is None else c[chunk]
        x[chunk], finished[chunk], _, resid = _pattern_fits(pats[chunk], rates, targets[chunk])
        scores[chunk] = np.sqrt((resid * resid).sum(axis=1))
    return scores, finished, x


def _check_tie_tol(tie_tol: float) -> None:
    if not tie_tol >= 0.0:
        raise ValueError(f"tie_tol must be a nonnegative number, got {tie_tol}")


def _result(
    entries: np.ndarray,
    scores: np.ndarray,
    x: np.ndarray,
    flags: np.ndarray,
    rates: np.ndarray,
    tie_tol: float,
) -> EstimationResult:
    """The result of a search from its (b, m, k) candidate entries and its
    array record (``_search``): the (b,) scores, the (b, 2^k) fits x, the
    (b, 4) ``_NOTES`` flags and the rates. The winner is the first
    candidate whose score is within ``_WINNER_TOL`` of the least, the ties
    are the candidates within ``tie_tol`` of the winner's score, the
    winner's x gives ``p_tilde`` and, where the search recovered each
    candidate's rates (a (b, m) stack, the unknown-c search), a copy of the
    winner's row gives ``c_hat``; known rates, one (m,) vector, give none.
    A candidate's note is that of its first set flag ("degenerate",
    "unconverged", "capped"), and under each note that some candidate
    carries ``diagnostics`` lists the candidates carrying it. Only the
    candidates the result names, the winner, the ties and those listed,
    become QMatrix objects. Raises DegenerateSampleError when no candidate
    was fitted, which only the moment policy's degenerate candidates
    leave."""
    if flags[:, 0].all():
        raise DegenerateSampleError("every candidate has a degenerate moment system")
    best = int(np.argmax(scores <= scores.min() + _WINNER_TOL))
    names = np.array([name for name, _ in _NOTES])
    notes = np.where(flags.any(axis=1), names[flags.argmax(axis=1)], "")
    return EstimationResult(
        q_hat=QMatrix(entries[best]),
        score=float(scores[best]),
        ties=tuple(QMatrix._from_stack(entries[scores <= scores[best] + tie_tol])),
        p_tilde=ProfileDistribution(entries.shape[2], x[best]),
        n_candidates=len(entries),
        c_hat=rates[best].copy() if rates.ndim == 2 else None,
        diagnostics={
            note: tuple(QMatrix._from_stack(entries[notes == note]))
            for note in sorted(set(notes.tolist()) - {""})
        },
    )


def _covers(entries: np.ndarray) -> np.ndarray:
    """The cover of every item of a (b, m, k) stack of Q-matrix entries:
    the bitmask of the first smallest set of other items, in
    ``itertools.combinations`` order, whose rows jointly dominate the
    item's row, or 0 where no set of other items does.

    The row masks come from the stack in one product. Set sizes s = 1, 2,
    ... are walked until every (candidate, item) pair is resolved, which
    is by s = k, since one item per attribute suffices: a size's (b, C)
    unions are ORed one set position at a time, and each pair still open
    takes the argmax of its dominating sets that leave it out, the one
    step that chooses a cover. A pair is free from the start when the OR
    of all the other rows misses its row.
    """
    rows = entries @ (1 << np.arange(entries.shape[2]))
    m = rows.shape[1]
    covers = np.zeros(rows.shape, dtype=np.int64)
    others = np.bitwise_or.reduce(np.where(np.eye(m, dtype=bool), 0, rows[:, None, :]), axis=2)
    pending = others & rows == rows
    for size in range(1, m):
        todo = np.flatnonzero(pending.any(axis=1))
        if not todo.size:
            break
        sets = np.array(list(itertools.combinations(range(m), size)))
        part = rows[todo]
        union = part[:, sets[:, 0]]
        for pos in range(1, size):
            union |= part[:, sets[:, pos]]
        masks = (1 << sets).sum(axis=1)
        want = part[:, :, None]
        # dominating[j, i, s]: set s leaves item i out and dominates its row
        dominating = (union[:, None, :] & want == want) & (masks >> np.arange(m)[:, None] & 1 == 0)
        hit = pending[todo] & dominating.any(axis=2)
        covers[todo] = np.where(hit, masks[dominating.argmax(axis=2)], covers[todo])
        pending[todo] &= ~hit
    return covers


def find_cover_combo(q: QMatrix, item: int) -> int | None:
    """Smallest set of other items whose attributes jointly dominate the
    target item's requirement; returns its bitmask, or None when no set of
    other items suffices. Ties at equal size break lexicographically by the
    sorted item tuple. This is the batched cover search of the unknown-c
    search (``_covers``) on a stack of one. Raises ValueError for an item
    index out of range.
    """
    if not 0 <= item < q.m:
        raise ValueError(f"item index {item} out of range for m={q.m}")
    return int(_covers(q.entries[None])[0, item]) or None


def decontaminate(alpha: AlphaVector, g) -> np.ndarray:
    """De-contaminated success rates ``D(g) @ [alpha; 1]``.

    A read-only array of shape (2^m,) indexed by combination bitmask: entry
    S estimates the rate at which subjects clear every item of S by
    capability, at per-item rates c - g (see ``build_d``); entry 0 is 1, the
    total mass. It depends on the data and g only, never on a candidate.
    One pass per item over the 2^m lattice (``difference_pass``), so the
    operator itself is never built. Raises ValueError for a ``g`` entry
    outside [0, 1].
    """
    _require_saturated(alpha)
    v = _by_mask(alpha)
    v[0] = 1.0
    beta = difference_pass(v, unit_rates(g, alpha.order.m, "g"))
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
    subjects effectively clear the cover), and ValueError for a ``g`` entry
    outside [0, 1].
    """
    g = unit_rates(g, q.m, "g")
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


def _rate_objective(pats: np.ndarray, targets: _Targets):
    """The rate searches' objective for the candidate rows of a (b, 2^k)
    pattern stack: ``_SLIP_SCALE`` times the squared score, and its
    gradient in every item's capable rate, built from no design.

    Each row is fitted to its group of ``targets``. Returns
    ``evaluate(rows, c)``: for each j, row ``rows[j]`` of the stack at the
    capable rates ``c[j]``, a (b, m) stack. It gives the (b,) values, the
    (b, m) gradients and whether a solve stopped at the solver's iteration
    cap. The rows are fitted in the order of their groups and the results
    put back in the order asked.

    The simplex fit x is the screen's exact solve on the closed-form Gram
    systems (``_pattern_fits``), and the residual is read through the
    pattern lattice (``pattern_rates`` of the weights w, x summed by
    pattern). By the envelope theorem the gradient needs no re-fit:
    d score^2 / d c_i is 2 r' (dM/dc_i) x. Entry (S, A) of the design M holds the factor c_i
    exactly when S contains item i and profile A masters it, and it is
    linear in c_i, so entry i is 2 sum_P w_P [P masters i] times
    ``pattern_moments`` of r restricted to the combinations holding i,
    taken at c_i = 1: one pass over an (m, 2^m) stack per problem, run on
    slices of ``_CANDIDATE_CHUNK // m`` problems. Every operation acts on
    each problem alone, so a problem's results are the same bytes whatever
    else is in the stack.
    """
    m, size = targets.g.shape[1], targets.rates.shape[1]
    # bits[i, S]: item i belongs to combination S, or pattern S masters it
    bits = (np.arange(size) >> np.arange(m)[:, None]) & 1 == 1
    unit = np.eye(m, dtype=bool)
    # the gradient pass holds m x 2^m floats per problem: take it a slice
    # of problems at a time, so that it holds no more than the screen
    span = max(1, _CANDIDATE_CHUNK // m)

    def evaluate(rows: np.ndarray, c: np.ndarray):
        order = np.argsort(targets.own[rows], kind="stable")
        rows, c = rows[order], c[order]
        part_targets = targets[rows]
        _, finished, weights, resid = _pattern_fits(pats[rows], c, part_targets)
        grad = np.empty(c.shape)
        for j, seg in part_targets.segments():
            for lo in range(seg.start, seg.stop, span):
                part = slice(lo, min(lo + span, seg.stop))
                # row i of each stack: the residual on the combinations
                # holding item i, read through the rates with c_i = 1
                held = resid[part, None, :] * bits
                rates = np.where(unit, 1.0, c[part, None, :])
                moments = pattern_moments(held, rates, targets.g[j])
                grad[part] = 2.0 * (weights[part, None, :] * bits * moments).sum(axis=2)
        out = _SLIP_SCALE * (resid * resid).sum(axis=1), _SLIP_SCALE * grad, ~finished
        back = np.argsort(order)
        return tuple(v[back] for v in out)

    return evaluate


@dataclass(eq=False)
class SearchResult:
    """One run of ``_lockstep``: the best point found, its objective value,
    whether a stopping test was met, and the objective evaluations spent."""

    x: np.ndarray
    fun: float
    success: bool
    nfev: int


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products of two (b, n) stacks: entry j is the same
    bytes as ``a[j] @ b[j]``, which a row-sum is not."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


class _Runs:
    """The runs of ``_lockstep`` that share a length n, as arrays.

    Row j holds the state of run ``ids[j]``: its iterate (x, f, grad), the
    point it waits on, its best evaluation, its evaluation count, the BFGS
    model of the Hessian ``hess`` where ``modelled`` is set, and the search
    direction ``step`` with its line-search state (t, slope, trials).
    ``scale``, where ``scaled`` is set, is the curvature y.y / s.y along
    the step that started the current or last model: it scales the
    gradient steps. Every operation acts on each row alone, in forms that
    give the bytes of the same operation on that row's 1-D arrays (a
    stacked ``np.matmul`` for a dot or a matrix-vector product, one
    ``np.linalg.solve`` per stack of runs that hold the same coordinates),
    so a run ends where it would end alone.
    """

    def __init__(self, ids: np.ndarray, starts: np.ndarray, results: list):
        b, n = starts.shape
        self.ids, self.results = ids, results
        self.point = np.clip(starts, 0.0, 1.0)
        self.x, self.best_x = self.point.copy(), self.point.copy()
        self.grad, self.step, self.hess = np.zeros((b, n)), np.zeros((b, n)), np.zeros((b, n, n))
        self.f, self.best_f, self.scale, self.t, self.slope = np.zeros((5, b))
        self.nfev, self.trials = np.zeros(b, dtype=int), np.zeros(b, dtype=int)
        self.live = np.ones(b, dtype=bool)
        self.modelled, self.scaled = np.zeros((2, b), dtype=bool)

    def advance(self, idx: np.ndarray, f_new: np.ndarray, grad_new: np.ndarray) -> None:
        """Give runs ``idx`` the (value, gradient) of the points they wait
        on, and step each until it waits on its next point or ends."""
        if self.nfev.any():
            plan, trying = self._take(idx, f_new, grad_new)
        else:  # every start's evaluation becomes its iterate
            self.f, self.best_f, self.grad = f_new.copy(), f_new.copy(), grad_new.copy()
            self.nfev[:] = 1
            plan, trying = idx, idx[:0]
        while plan.size or trying.size:
            if plan.size:
                trying = np.concatenate([trying, self._plan(plan)])
            plan, trying = self._try(trying)

    def _finish(self, idx: np.ndarray, success: bool) -> None:
        """End runs ``idx``: a converged run at its iterate, an unconverged
        one at the best point it evaluated. A run whose iterate has no
        finite value has not converged, whatever test it met."""
        for j in idx:
            won = success and bool(np.isfinite(self.f[j]))
            x, f = (self.x, self.f) if won else (self.best_x, self.best_f)
            result = SearchResult(x[j].copy(), float(f[j]), won, int(self.nfev[j]))
            self.results[self.ids[j]] = result
        self.live[idx] = False

    def _take(self, idx, f_new, grad_new) -> tuple[np.ndarray, np.ndarray]:
        """Record the evaluations of the trial points of runs ``idx``: a
        point is accepted on the Armijo test, updating the model, or
        shortens the step. Returns the runs to plan a step from and the
        runs to try a shorter one."""
        self.nfev[idx] += 1
        self.trials[idx] += 1
        better = f_new < self.best_f[idx]
        self.best_f[idx[better]], self.best_x[idx[better]] = f_new[better], self.point[idx[better]]
        ok = f_new <= self.f[idx] + _ARMIJO * self.slope[idx]
        back, slope = idx[~ok], self.slope[idx[~ok]]
        # safeguarded minimizer of the quadratic through f, slope and f_new
        with np.errstate(divide="ignore", invalid="ignore"):
            cut = -slope / (2.0 * (f_new[~ok] - self.f[back] - slope))
        cut = np.where(cut > 0.1, cut, 0.1)
        self.t[back] *= np.where(cut < 0.5, cut, 0.5)
        idx, f_new, grad_new = idx[ok], f_new[ok], grad_new[ok]
        s, y = self.point[idx] - self.x[idx], grad_new - self.grad[idx]
        sy = _dot(s, y)
        curved = sy > 0.0
        fresh = curved & ~self.modelled[idx]
        if fresh.any():
            self.scale[idx[fresh]] = _dot(y[fresh], y[fresh]) / sy[fresh]
            self.hess[idx[fresh]] = self.scale[idx[fresh], None, None] * np.eye(s.shape[1])
            self.modelled[idx[fresh]], self.scaled[idx[fresh]] = True, True
        s, y, sy, up = s[curved], y[curved], sy[curved], idx[curved]
        bs = np.matmul(self.hess[up], s[:, :, None])[:, :, 0]
        yy = y[:, :, None] * y[:, None, :] / sy[:, None, None]
        self.hess[up] += yy - bs[:, :, None] * bs[:, None, :] / _dot(s, bs)[:, None, None]
        f_old = self.f[idx]
        self.x[idx], self.f[idx], self.grad[idx] = self.point[idx], f_new, grad_new
        top = np.maximum(np.maximum(np.abs(f_old), np.abs(f_new)), 1.0)
        with np.errstate(invalid="ignore"):  # inf - inf from an infinite start
            small = f_old - f_new <= _SLIP_OPTIONS["ftol"] * top
        self._finish(idx[small], True)
        return idx[~small], back

    def _plan(self, idx: np.ndarray) -> np.ndarray:
        """End runs ``idx`` that meet the projected-gradient test, and give
        the others their next direction and first step length; returns
        the runs to try it."""
        x, grad = self.x[idx], self.grad[idx]
        pgrad = np.clip(x - grad, 0.0, 1.0) - x
        done = np.abs(pgrad).max(axis=1) <= _SLIP_OPTIONS["gtol"]
        self._finish(idx[done], True)
        idx, x, grad, pgrad = idx[~done], x[~done], grad[~done], pgrad[~done]
        root = np.sqrt(_dot(pgrad, pgrad))[:, None]
        band = np.where(root < _ACTIVE_BAND, root, _ACTIVE_BAND)
        held = ((x <= band) & (grad > 0.0)) | ((x >= 1.0 - band) & (grad < 0.0))
        step, scaled = -grad, self.scaled[idx]
        step[scaled] /= self.scale[idx[scaled], None]
        solve = (self.modelled[idx] & ~held.all(axis=1)).nonzero()[0]
        keys = held[solve] @ (1 << np.arange(held.shape[1]))
        for key in set(keys.tolist()):
            rows = solve[keys == key]
            move = (~held[rows[0]]).nonzero()[0]
            lhs, rhs = self.hess[idx[rows]][:, move][:, :, move], -grad[rows][:, move]
            try:
                step[rows[:, None], move] = np.linalg.solve(lhs, rhs[:, :, None])[:, :, 0]
            except np.linalg.LinAlgError:
                # retry one run at a time: only a singular model is dropped
                for j, a, b in zip(rows, lhs, rhs):
                    try:
                        step[j, move] = np.linalg.solve(a, b)
                    except np.linalg.LinAlgError:
                        self.modelled[idx[j]] = False
        # the first step is one unit long, as in L-BFGS-B
        with np.errstate(divide="ignore"):
            unit = 1.0 / np.sqrt(_dot(step, step))
        self.t[idx] = np.where(scaled | ~(unit < 1.0), 1.0, unit)
        self.step[idx], self.trials[idx] = step, 0
        return idx

    def _try(self, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """One line-search trial of runs ``idx``. A run that has spent its
        trials drops its model to plan again, or ends if it has none; a
        run that has spent ``maxfun`` evaluations ends. Each other run
        waits on its trial point if that descends, and halves its step if
        not. Returns the runs to plan and the runs to try again."""
        spent = idx[self.trials[idx] >= _MAX_TRIALS]
        self._finish(spent[~self.modelled[spent]], False)
        plan = spent[self.modelled[spent]]
        self.modelled[plan] = False
        idx = idx[self.trials[idx] < _MAX_TRIALS]
        capped = self.nfev[idx] >= _SLIP_OPTIONS["maxfun"]
        self._finish(idx[capped], False)
        idx = idx[~capped]
        x = self.x[idx]
        trial = np.clip(x + self.t[idx, None] * self.step[idx], 0.0, 1.0)
        slope = _dot(self.grad[idx], trial - x)
        flat = slope >= 0.0
        self.t[idx[flat]] *= 0.5
        self.trials[idx[flat]] += 1
        self.point[idx[~flat]], self.slope[idx[~flat]] = trial[~flat], slope[~flat]
        return plan, idx[flat]


def _lockstep(evaluate, starts: list[np.ndarray]) -> list[SearchResult]:
    """Minimize an objective (value and gradient) over the box [0, 1]^n
    from each of ``starts`` at once by projected BFGS (Bertsekas, SIAM J.
    Control Optim. 1982), as one array driver.

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
    evaluations are spent, or when a gradient step cannot move, and so is
    a run that meets a test at a point without a finite value. A
    converged run returns the point that met its test, an unconverged one
    the best point it evaluated.

    The runs are grouped by length n, and each group keeps the state of
    all of its runs in arrays (``_Runs``) that masked array operations
    step. Each round makes one call ``evaluate(runs, points)`` for the L
    runs still going: ``runs`` is an (L,) array of their indices into
    ``starts``, group after group in ascending n, and ``points`` the
    points they wait on in one 1-D array, run after run: an (L, n) stack
    raveled, with groups of different n laid end to end. It returns the
    (L,) values and the gradients in the layout of ``points``. Returns
    one ``SearchResult`` per start, in start order, and calls nothing for
    no starts. A run's steps depend on its own evaluations only, so it
    ends where it would end alone.
    """
    results: list[SearchResult | None] = [None] * len(starts)
    sizes = np.array([len(x0) for x0 in starts], dtype=int)
    groups = []
    for n in np.unique(sizes):
        ids = np.flatnonzero(sizes == n)
        points = np.array([starts[j] for j in ids], dtype=float).reshape(ids.size, n)
        groups.append(_Runs(ids, points, results))
    while True:
        live = [(grp, grp.live.nonzero()[0]) for grp in groups if grp.live.any()]
        if not live:
            return results
        f, grad = evaluate(
            np.concatenate([grp.ids[idx] for grp, idx in live]),
            np.concatenate([grp.point[idx].ravel() for grp, idx in live]),
        )
        at = 0
        for grp, idx in live:
            n = grp.x.shape[1]
            grp.advance(idx, f[: idx.size], grad[at : at + idx.size * n].reshape(idx.size, n))
            f, at = f[idx.size :], at + idx.size * n


def _rate_searches(
    pats: np.ndarray, targets: _Targets, c: np.ndarray, free: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Capable rates of the candidate rows of a (b, 2^k) pattern stack from
    the rate search, each row fitted to its group of ``targets``
    (``_rate_objective``).

    Candidate j's search runs from each of ``_SLIP_STARTS`` over the items
    set in row j of the (b, m) mask ``free``, at least one per row, with
    its other items held at their entries of row j of ``c``. The searches
    of consecutive chunks of ``_CANDIDATE_CHUNK`` rows, across groups, are
    stepped by one ``_lockstep``, every start of every row at once, against
    one ``_rate_objective``: each round writes the points of the runs
    still going into the free entries of their candidates' rates, whose
    row-major order is the order ``_lockstep`` lays the points in, and
    reads the gradients back from the same entries. A candidate's results
    are the same bytes alone or in any stack.

    Returns the rates, with each candidate's best point over its starts in
    its free entries (``_lockstep`` keeps every point inside [0, 1]),
    whether any start converged, and whether a solve of its search stopped
    at the iteration cap. ``c`` comes checked from the caller.
    """
    c = np.array(c, dtype=float)
    converged = np.zeros(len(pats), dtype=bool)
    capped = np.zeros(len(pats), dtype=bool)
    tries = len(_SLIP_STARTS)
    for first in range(0, len(pats), _CANDIDATE_CHUNK):
        chunk = slice(first, first + _CANDIDATE_CHUNK)
        base, mask, hit = c[chunk], free[chunk], capped[chunk]
        objective = _rate_objective(pats[chunk], targets[chunk])
        owner = np.repeat(np.arange(len(base)), tries)
        starts = [np.full(int(on.sum()), level) for on in mask for level in _SLIP_STARTS]

        def evaluate(runs: np.ndarray, points: np.ndarray):
            rows = owner[runs]
            rates, on = base[rows], mask[rows]
            rates[on] = points
            f, grad, cap = objective(rows, rates)
            hit[rows[cap]] = True
            return f, grad[on]

        results = _lockstep(evaluate, starts)
        for j in range(len(base)):
            tried = results[j * tries : (j + 1) * tries]
            converged[first + j] = any(res.success for res in tried)
            # the first start wins an exact tie
            base[j, mask[j]] = min(tried, key=lambda res: res.fun).x
    return c, converged, capped


def profile_slip(
    q: QMatrix,
    g,
    alpha: AlphaVector,
    fixed: Mapping[int, float] | None = None,
) -> np.ndarray:
    """Capable success rates by direct score minimization.

    Keeps the ``fixed`` coordinates (e.g. moment estimates) and minimizes the
    squared fit distance over the remaining ones with the rate search of
    both searches: projected BFGS from each of ``_SLIP_STARTS``, the runs
    stepped as arrays by one driver (``_lockstep``) against one batched
    objective that fits on the closed-form Gram system and reads the exact
    envelope-theorem gradient through the pattern lattice. The result is
    the same bytes as that of the same candidate inside the unknown-c
    search. Every coordinate lies in [0, 1], and the best point found is
    always returned. The objective reads the fit on every combination, so
    ``alpha`` must hold rates on a saturated order. Raises ValueError for
    an unsaturated order, for a ``g`` entry outside [0, 1] and for a
    ``fixed`` item or rate out of range.
    """
    _require_saturated(alpha)
    g = unit_rates(g, q.m, "g")
    fixed = dict(fixed or {})
    c = np.zeros(q.m)
    free = np.ones((1, q.m), dtype=bool)
    for i, v in fixed.items():
        if not 0 <= int(i) < q.m:
            raise ValueError(f"fixed item index {i} out of range")
        if not 0.0 <= float(v) <= 1.0:
            raise ValueError(f"fixed rate {v} outside [0, 1]")
        c[int(i)], free[0, int(i)] = float(v), False
    if not free.any():
        return c
    return _rate_searches(patterns(q)[None], _as_targets(alpha, g, 1), c[None], free)[0][0]


def _moment_stage(
    entries: np.ndarray, g: np.ndarray, beta: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The moment stage of the unknown-c search for a nonempty (b, m, k)
    stack of Q-matrix entries, in array passes: the covers over
    consecutive chunks of ``_CANDIDATE_CHUNK``, then the estimates at once.

    ``g`` and ``beta`` (``decontaminate``) are one group's (m,) and (2^m,)
    vectors, or G groups' (G, m) and (G, 2^m) stacks; they come checked
    from the caller. The covers depend on the entries alone and are found
    once. Returns, with the rows of group 0's candidates first, then group
    1's, the (G b, m) capable rates, the (G b, m) mask of the free items
    (those with no cover, ``_covers``), left at 0 for the rate search,
    and the (G b,) flags of the degenerate rows, where some cover's
    de-contaminated rate is below ``DEGENERATE_TOL``. Every other entry
    is ``moment_slip``'s estimate from the item's cover, to the byte;
    a degenerate row's rates are not read.
    """
    covers = np.concatenate([
        _covers(entries[start : start + _CANDIDATE_CHUNK])
        for start in range(0, len(entries), _CANDIDATE_CHUNK)
    ])
    g, beta = np.atleast_2d(g), np.atleast_2d(beta)
    groups, m = g.shape
    free, den, bits = covers == 0, beta[:, covers], 1 << np.arange(m)
    with np.errstate(divide="ignore", invalid="ignore"):
        c = np.where(free, 0.0, np.clip(g[:, None, :] + beta[:, covers | bits] / den, 0.0, 1.0))
    degenerate = (~free & (np.abs(den) < DEGENERATE_TOL)).any(axis=2)
    return c.reshape(-1, m), np.tile(free, (groups, 1)), degenerate.ravel()


def _search(alphas, k, budget, tie_tol=0.0, *, params=None, g=None, truth=None, support=None):
    """The one search pipeline: a candidate source, a rate policy, then one
    rate search and one exact screen shared by every configuration, for
    one or more groups of items of one size m at once.

    ``alphas`` holds each group's success rates, and ``params`` its
    DinaParams or ``g`` its guessing rates; a search of all the items is
    the one-group case. The entry checks ``tie_tol``, the saturated orders,
    and each ``params`` or ``g`` against the rates' m, before any work.
    The candidates are ``enumerate_candidates``' in enumeration order,
    less ``truth`` when it is given, read once as the entry blocks of its
    source (``_candidate_blocks``) and joined, with no QMatrix built for
    them; their (b, 2^k) patterns (``patterns``) are taken once. The groups
    then go through ``_pass`` as many at a time as fit one chunk of
    ``_CANDIDATE_CHUNK`` rows, one row per group and candidate, and one at
    a time where a group's candidates fill a chunk: grouping pays for the
    fixed cost of each solve where b is small, and where b is large a pass
    holds no more rows than a search of one group.

    Returns the (b, m, k) candidate entries and one array record per
    group (``_pass``), each the same bytes as in a search of the group
    alone.
    """
    _check_tie_tol(tie_tol)
    for alpha in alphas:
        _require_saturated(alpha)
    m = alphas[0].order.m
    if params is not None:
        for group in params:
            if group.m != m:
                raise ValueError(f"params cover {group.m} items, rates cover {m}")
        g = np.array([group.g for group in params])
    else:
        g = np.array([unit_rates(v, m, "g") for v in g])
    entries = np.concatenate(list(_candidate_blocks(m, k, budget)))
    if truth is not None:
        entries = entries[(entries != truth.entries).any(axis=(1, 2))]
    b = len(entries)
    pats = patterns(entries)
    fixed = params is not None and support is None
    per = max(1, _CANDIDATE_CHUNK // max(b, 1))
    records = []
    for lo in range(0, len(alphas), per):
        part = slice(lo, lo + per)
        groups = len(alphas[part])
        targets = _Targets(
            np.array([_by_mask(alpha) for alpha in alphas[part]]), g[part],
            np.array([group.c for group in params[part]]) if fixed else None,
            np.repeat(np.arange(groups), b),
        )
        beta = None
        if params is None:
            beta = np.array([decontaminate(alpha, v) for alpha, v in zip(alphas[part], g[part])])
        records += _pass(entries, pats, targets, beta, support)
    return entries, records


def _pass(entries, pats, targets, beta, support) -> list:
    """The rate policy, the rate search and the screen of ``_search`` for
    the (b, m, k) candidate entries and their (b, 2^k) patterns, for the
    groups of ``targets``: row r is candidate r % b of group r // b, fitted
    to that group's rates. The rate policy gives each row its capable
    rates, the mask of its free items and whether it is fitted:

    - fixed rates in ``targets`` (``estimate_q``): each group's rates,
      fixed for every candidate; no item is free and every row is fitted;
    - ``beta``, each group's ``decontaminate`` rates
      (``estimate_q_unknown_c``): the moment stage (``_moment_stage``),
      whose uncovered items are free; a degenerate row is not fitted;
    - ``support`` (``check_identifiability``): every item free, from
      rates 0; a candidate whose patterns include every pattern of the
      array ``support`` is not fitted.

    Then one ``_rate_searches`` call runs the searches of the fitted rows
    with a free item and writes their best points into the rates, and one
    ``_screen`` call fits every fitted row at its rates, each in chunks of
    rows across groups, each row gathering its candidate's patterns. A
    2^m-wide pass that depends on a group alone runs once per group, and
    no row holds a copy of its group's target.

    Returns one array record per group: the (b,) scores, the (b, 2^k) fits
    x, the (b, 4) ``_NOTES`` flags and the rates, a (b, m) stack or, where
    they are fixed, the group's (m,) vector. An unfitted candidate has x 0
    and scores +inf, or 0.0 in the probe, where its patterns certify an
    exact fit.
    """
    (b, m, _), groups = entries.shape, len(targets.rates)
    rows = groups * b
    flags = np.zeros((rows, len(_NOTES)), dtype=bool)
    # the rate policy: each row's rates and free items, and which rows go
    # unfitted (flag 0)
    if support is not None:
        rates, free = np.zeros((rows, m)), np.ones((rows, m), dtype=bool)
        certified = (pats[:, :, None] == support).any(axis=1).all(axis=1)
        flags[:, 0] = np.tile(certified, groups)
    elif beta is None:
        rates, free = None, np.zeros((rows, m), dtype=bool)
    else:
        rates, free, flags[:, 0] = _moment_stage(entries, targets.g, beta)
    fitted = np.flatnonzero(~flags[:, 0])
    searched = fitted[free[fitted].any(axis=1)]
    if searched.size:
        rates[searched], converged, flags[searched, 3] = _rate_searches(
            pats[searched % b], targets[searched], rates[searched], free[searched]
        )
        flags[searched, 1] = ~converged
    scores = np.full(rows, np.inf if support is None else 0.0)
    x = np.zeros((rows, pats.shape[1]))
    fitted_rates = None if rates is None else rates[fitted]
    scores[fitted], finished, x[fitted] = _screen(pats[fitted % b], fitted_rates, targets[fitted])
    flags[fitted, 2] = ~finished
    cuts = [slice(j * b, (j + 1) * b) for j in range(groups)]
    return [
        (scores[cut], x[cut], flags[cut], targets.c[j] if rates is None else rates[cut])
        for j, cut in enumerate(cuts)
    ]


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
    minimizer (the first in enumeration order within 1e-12 of the least
    score), the tie set at ``tie_tol``, and the fitted profile distribution
    of the winner.

    This is the search pipeline (``_search``) at the fixed rates of
    ``params``: the candidates arrive as checked blocks of entries, none
    is searched, and each chunk of candidates is scored by one stacked
    exact solve on its closed-form Gram systems (``_screen``), with each
    score read from the exact residual through the pattern lattice. The
    winner's solve gives ``p_tilde``. A candidate whose solve stopped at
    the solver's iteration cap keeps its rank and is listed in
    diagnostics["capped"], the only list this search can fill.

    Raises ValueError, before any work, for a negative or NaN ``tie_tol``,
    and BudgetExceededError when the enumeration exceeds ``budget``.
    """
    entries, (record,) = _search([alpha], k, budget, tie_tol, params=[params])
    return _result(entries, *record, tie_tol)


def estimate_q_unknown_c(
    alpha: AlphaVector,
    g,
    k: int,
    *,
    budget: int = DEFAULT_BUDGET,
    tie_tol: float = DEFAULT_TIE_TOL,
) -> EstimationResult:
    """Q-matrix search when capable success rates are unknown.

    This is the search pipeline (``_search``) with the moment policy.
    First the moment stage (``_moment_stage``) estimates the rate of every
    item covered by its peers, ``moment_slip``'s estimate from
    ``find_cover_combo``'s cover to the byte, for a whole chunk of
    candidates in array passes. Then the uncovered coordinates of every
    candidate that has any are recovered by the rate search of
    ``profile_slip``, all candidates' searches in lockstep, chunk by chunk;
    each ends where it would end alone. The final scores, each candidate
    at its own recovered rates, are then the exact fits of the stacked
    solve of ``estimate_q`` (``_screen``), and are ranked by the same
    rule. Candidates with
    degenerate moment denominators score +inf and are listed in
    diagnostics["degenerate"]. Candidates whose rate search converged from
    no start are still ranked at the best point found, and are listed in
    diagnostics["unconverged"]. A candidate carrying no other
    note is listed in diagnostics["capped"] when a solve of its rate search
    or its final fit stopped at the iteration cap.

    Returns the winner with its recovered ``c_hat``; ties are judged on the
    final scores exactly as in ``estimate_q``. Raises ValueError, before
    any work, for a negative or NaN ``tie_tol`` or a ``g`` entry outside
    [0, 1].
    """
    entries, (record,) = _search([alpha], k, budget, tie_tol, g=[g])
    return _result(entries, *record, tie_tol)


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


def _group_results(
    responses: ResponseData,
    groups: list[list[int]],
    k: int,
    params: DinaParams | None,
    g: np.ndarray | None,
    budget: int,
    tie_tol: float,
) -> list:
    """The search result of each group of a split, in ``groups`` order, or
    the exception its search raised; the arguments come checked from
    ``split_estimate``.

    The response rows are read once (``_response_patterns``), and each
    group's saturated rates come from the observed patterns and their
    counts (``_group_alpha``). The groups of one size are one search
    (``_search``), and its record is cut into one result per group
    (``_result``). Each group's result, or error, is that of
    ``estimate_q`` or ``estimate_q_unknown_c`` on
    ``compute_alpha(responses.restrict(grp), ComboOrder.saturated(len(grp)))``
    at the group's rates. A budget or cap error that a size's search
    raises belongs to each of its groups, and neither it nor a group's
    degenerate moment system stops the other searches, so that the caller
    can raise the first error in ``groups`` order.
    """
    observed = _response_patterns(responses)
    results: list = [None] * len(groups)
    for size in dict.fromkeys(len(grp) for grp in groups):
        at = [j for j, grp in enumerate(groups) if len(grp) == size]
        try:
            order = ComboOrder.saturated(size)
            alphas = [_group_alpha(observed, responses.n, groups[j], order) for j in at]
            if params is not None:
                rates = {"params": [params.subset(groups[j]) for j in at]}
            else:
                rates = {"g": [g[groups[j]] for j in at]}
            entries, records = _search(alphas, k, budget, tie_tol, **rates)
        except (BudgetExceededError, ValueError) as err:
            # the enumeration's budget or caps, or the saturated order's
            # cap, refuse every group of this size
            for j in at:
                results[j] = err
            continue
        for j, record in zip(at, records):
            try:
                results[j] = _result(entries, *record, tie_tol)
            except DegenerateSampleError as err:
                results[j] = err
    return results


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

    Each group is estimated on its own saturated rates over its items,
    then the per-group matrices are stitched: shared items force the
    column matching between a group and the rows already merged. Groups
    must cover every item; with k > 1 each group after the first needs
    enough overlap to pin the matching or AlignmentError is raised
    ("ambiguous" when several matchings work, "disagree" when none does),
    naming the group's 1-based position in ``groups``, its fitted rows,
    its score and the size of its tie set.

    The groups are estimated in one pass (``_group_results``): the
    response rows are counted once, and all groups of one size share one
    search. Each group's result is the same bytes as ``estimate_q`` or
    ``estimate_q_unknown_c`` on its restricted responses, and the first
    group in ``groups`` order whose search or alignment fails decides the
    error, as if the groups ran one after another.

    Exactly one of ``params`` (known per-item rates, sliced per group) or
    ``g`` (guessing rates only; slip rates recovered per group) must be
    given. Returns the canonical stitched matrix. Raises ValueError, before
    any work, for a nonpositive ``k`` and for more than ``MAX_ITEMS`` (20)
    items.
    """
    _check_tie_tol(tie_tol)
    if k < 1:
        raise ValueError("m and k must be positive")
    if (params is None) == (g is None):
        raise ValueError("pass exactly one of params or g")
    m = responses.m
    if m > MAX_ITEMS:
        raise ValueError(f"split estimation is capped at m <= {MAX_ITEMS} items, got {m}")
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

    results = _group_results(responses, group_lists, k, params, g, budget, tie_tol)
    rows = np.zeros((m, k), dtype=np.uint8)
    known = np.zeros(m, dtype=bool)
    for pos, (grp, res) in enumerate(zip(group_lists, results), 1):
        if isinstance(res, Exception):
            raise res
        # the first group fixes the global column frame
        aligned = res.q_hat.entries
        if known.any():
            try:
                aligned = _align_columns(rows, known, grp, aligned)
            except AlignmentError as err:
                raise AlignmentError(
                    f"group {pos} was fitted as {','.join(res.q_hat.row_strings())} "
                    f"(score {res.score:.6g}, tie set of {len(res.ties)}): {err}"
                ) from err
        rows[grp], known[grp] = aligned, True
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
    start or whose delta solve, or a solve of whose search, stopped at the
    solver's iteration cap. An incomplete Q-matrix short-circuits:
    ``complete`` is False and no candidates are evaluated.
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
    non-equivalent canonical candidate, every one but ``canonicalize(q)``,
    minimizes the fit distance over the candidate's capable rates, guessing
    rates held at the truth. A delta at
    or below ``IDENTIFIABILITY_TOL`` flags the candidate as
    indistinguishable in population, i.e. the configuration is not
    identifiable.

    A candidate whose capability patterns (``tmatrix.patterns``) include
    every pattern that the support of ``p_star`` induces under ``q`` gets
    delta 0.0 without a search: at the true capable rates its pattern
    columns are those of the truth, so it reproduces the population rates
    exactly. This is the search pipeline (``_search``) with every item
    free: every other candidate gets the rate search of the unknown-c
    estimator (projected BFGS from three starts, exact envelope gradient)
    over all of its capable rates, all of them in one lockstep call, and
    its delta is its exact fit at the best point found, from one stacked
    solve of every searched candidate (``_screen``, which scores the
    searches' candidates). A search that converged from no start is still
    counted at that point, and so is a delta whose search or delta solve
    stopped at the solver's iteration cap, which can only over-estimate
    it; each such candidate is named in ``notes``.

    Distributions with zero-mass profiles are allowed but noted: they are the
    classic source of non-identifiability. An incomplete ``q`` skips the
    probe entirely and reads nothing from ``p_star``: the report has
    complete=False, no deltas and one note saying why.
    """
    if params.m != q.m:
        raise ValueError(f"params cover {params.m} items, Q-matrix has {q.m}")
    complete = is_complete(q)
    notes: list[str] = []
    deltas: list[tuple[QMatrix, float]] = []
    if not complete:
        notes.append(
            "Q-matrix is incomplete (some attribute has no single-attribute item); "
            "identifiability probe skipped"
        )
    else:
        if (p_star.probs == 0.0).any():
            notes.append(
                "profile distribution has zero-mass profiles; identifiability may degenerate"
            )
        alpha = population_alpha(q, params, p_star, ComboOrder.saturated(q.m))
        support = np.unique(patterns(q)[p_star.probs > 0.0])
        entries, [(scores, _, flags, _)] = _search(
            [alpha], q.k, budget, params=[params], truth=canonicalize(q), support=support
        )
        deltas = list(zip(QMatrix._from_stack(entries), scores.tolist()))
        for i in np.flatnonzero(flags.any(axis=1)):
            name = ",".join(deltas[i][0].row_strings())
            notes += [text.format(name) for (_, text), on in zip(_NOTES, flags[i]) if on and text]
    return IdentifiabilityReport(
        q=q,
        complete=complete,
        threshold=IDENTIFIABILITY_TOL,
        deltas=tuple(deltas),
        flagged=tuple(c for c, dlt in deltas if dlt <= IDENTIFIABILITY_TOL),
        min_delta=min((dlt for _, dlt in deltas), default=None),
        notes=tuple(notes),
    )
