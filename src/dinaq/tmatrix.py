"""Response-rate design matrices for the conjunctive (DINA) response model.

One builder, ``design(q, c, g, order)``, makes every design matrix. Rows are
item combinations; columns are attribute profiles, the zero profile first and
then the nonzero profiles in canonical order. Entry (S, A) is the probability
that a subject with profile A answers every item in combination S correctly:
the product over the items i of S of c_i where A dominates item i and g_i
where it does not. That one product per entry is what makes joint success
rates over item combinations linear in the profile distribution and drives
every estimator in the package.

The classical variants (the ``dinaq tmatrix --variant`` labels) are choices
of (c, g) plus a choice of border:

* plain: (1, 0), zero-profile column dropped: the 0/1 ideal-response table,
* slip: (c, 0), zero-profile column dropped,
* slip-guess: (c, g), zero-profile column dropped,
* augmented: (c, g), zero-profile (guess-product) column kept and an all-ones
  (total mass) row appended.

The difference operator D(g) inverts the guessing contamination:

    D @ [design(q, c, g); 1] == [0 | design(q, c - g, 0)[:, 1:]]

It is the Kronecker product of the per-item factors [[1, 0], [-g_i, 1]], so
``difference_pass`` applies it in one pass per item; ``build_d`` gives it
as a matrix, for tests and display.

On a saturated order the design never needs to be built to fit against
it, because every column is a product of per-item factors. Write f_i(P)
for c_i when pattern P masters item i and g_i when it does not; then

* ``pattern_gram`` gives M'M entry by entry,
  G[A, B] = prod_i (1 + f_i(A) f_i(B)) - 1, in O(m) per entry;
* ``pattern_rates`` maps weights on the 2^m capability patterns to the
  success rates they produce (M x, read through the patterns), and
  ``pattern_moments`` maps values on the combinations to their inner
  product with every pattern column (M'v); each is one pass per item
  over the 2^m lattice, O(m 2^m), since the design over all patterns is
  the Kronecker product of the per-item 2 x 2 factors [[1, 1], [g_i, c_i]].

These passes run on one lattice pass, ``_kronecker_pass``, each with its
own per-item step. The empirical rates of ``simulator.compute_alpha`` are
the noiseless success map, ``pattern_rates`` at c = 1, g = 0, applied to
the counts of the response patterns: at those rates pattern P succeeds on
combination S exactly when P contains S.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .core import QMatrix, subsets_card_lex

# Saturated row sets grow as 2^m - 1; past this the matrices stop being
# practical to materialize.
MAX_SATURATED_ITEMS = 14


@dataclass(frozen=True, eq=False)
class ComboOrder:
    """An ordered list of item combinations (nonempty bitmasks over m items).

    The order fixes row indexing for every matrix built on top of it; two
    matrices are comparable only on a shared order.
    """

    m: int
    combos: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError("m must be positive")
        combos = tuple(int(s) for s in self.combos)
        if not combos:
            raise ValueError("order must contain at least one combination")
        seen = set()
        for s in combos:
            if not 1 <= s < (1 << self.m):
                raise ValueError(f"combination mask {s} out of range for m={self.m}")
            if s in seen:
                raise ValueError(f"duplicate combination mask {s}")
            seen.add(s)
        object.__setattr__(self, "combos", combos)

    def __len__(self) -> int:
        return len(self.combos)

    def __getstate__(self) -> dict:
        # cached views are rebuilt on first use, so an unpickled _members is
        # read-only like the original
        return {"m": self.m, "combos": self.combos}

    @cached_property
    def _index(self) -> dict[int, int]:
        return {s: i for i, s in enumerate(self.combos)}

    @cached_property
    def _members(self) -> np.ndarray:
        """Read-only (m, len(order)) boolean: is item i in combination r."""
        combos = np.array(self.combos, dtype=np.int64)
        members = (combos[None, :] >> np.arange(self.m)[:, None]) & 1 == 1
        members.setflags(write=False)
        return members

    def index(self, combo: int) -> int:
        """Row position of a combination mask; KeyError when absent."""
        return self._index[combo]

    @property
    def is_saturated(self) -> bool:
        """True when every nonempty combination of the m items is present."""
        return len(self.combos) == (1 << self.m) - 1

    def label(self, combo: int) -> str:
        """Human-facing label: comma-joined 1-based item indices, e.g. "1,3"."""
        return ",".join(str(i + 1) for i in range(combo.bit_length()) if combo >> i & 1)

    def labels(self) -> list[str]:
        return [self.label(s) for s in self.combos]

    @classmethod
    def singles(cls, m: int) -> "ComboOrder":
        """Just the m single-item combinations, in item order."""
        return cls(m, tuple(1 << i for i in range(m)))

    @classmethod
    def saturated(cls, m: int) -> "ComboOrder":
        """All 2^m - 1 combinations, cardinality ascending then lexicographic."""
        if m > MAX_SATURATED_ITEMS:
            raise ValueError(
                f"saturated order capped at m <= {MAX_SATURATED_ITEMS}, got {m}"
            )
        return cls(m, tuple(subsets_card_lex(m)))

    @classmethod
    def block(cls, m: int, lead: int) -> "ComboOrder":
        """Saturated order with every combination drawn from the first ``lead``
        items listed before any combination touching a later item.

        With a complete Q-matrix arranged so its first ``lead`` rows are the
        unit rows, the leading (2^lead - 1)-row block of the binary design is
        square upper block-triangular with identity diagonal blocks, hence
        nonsingular: completeness alone gives the leading block full rank.
        """
        if not 1 <= lead <= m:
            raise ValueError("lead must be in 1..m")
        # a stable sort keeps the saturated order within each part
        return cls(m, tuple(sorted(cls.saturated(m).combos, key=lambda s: s >= 1 << lead)))

    @classmethod
    def from_item_sets(cls, m: int, sets: Iterable[Iterable[int]]) -> "ComboOrder":
        """Build from explicit 0-based item index sets."""
        combos = []
        for items in sets:
            mask = 0
            for i in items:
                if not 0 <= int(i) < m:
                    raise ValueError(f"item index {i} out of range for m={m}")
                mask |= 1 << int(i)
            combos.append(mask)
        return cls(m, tuple(combos))


def unit_rates(v: Iterable[float], m: int, name: str) -> np.ndarray:
    """Per-item rates ``v`` as a finite float64 array of shape (m,) whose
    entries all lie in [0, 1].

    Raises ValueError for any other shape: a 2-d array holding m numbers is
    rejected, not flattened.
    """
    v = np.asarray_chkfinite(v, dtype=np.float64)
    if v.shape != (m,):
        raise ValueError(f"{name} must have length {m}")
    if v.min() < 0.0 or v.max() > 1.0:
        raise ValueError(f"{name} entries must lie in [0, 1]")
    return v


@dataclass(frozen=True, eq=False)
class DinaParams:
    """Per-item success probabilities: c for capable subjects, g for guessers.

    c_i is one minus the slipping probability; g_i is the guessing
    probability. Both live in [0, 1]. The c_i != g_i separation needed by the
    identifiability theory is validated at the call sites that require it,
    not here.
    """

    c: np.ndarray
    g: np.ndarray

    def __post_init__(self) -> None:
        m = np.size(self.c)
        if m == 0 or np.size(self.g) != m:
            raise ValueError("c and g must be nonempty vectors of equal length")
        # copies, so freezing them leaves the caller's arrays writable
        c = unit_rates(self.c, m, "c").copy()
        g = unit_rates(self.g, m, "g").copy()
        c.setflags(write=False)
        g.setflags(write=False)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "g", g)

    @property
    def m(self) -> int:
        return self.c.size

    @classmethod
    def noiseless(cls, m: int) -> "DinaParams":
        """c = 1, g = 0: the deterministic ideal-response model."""
        return cls(np.ones(m), np.zeros(m))

    def subset(self, items: Sequence[int]) -> "DinaParams":
        idx = list(items)
        return DinaParams(self.c[idx], self.g[idx])


def _single_item_indicators(entries: np.ndarray, profiles: Sequence[int]) -> np.ndarray:
    """(..., m, P) boolean: does each profile dominate each item's requirement,
    for (..., m, k) Q-matrix entries, one matrix or a stack."""
    reach = entries.dot(1 << np.arange(entries.shape[-1], dtype=np.int64))[..., None]
    return (np.array(profiles, dtype=np.int64) & reach) == reach


def patterns(q: QMatrix | np.ndarray) -> np.ndarray:
    """Capability pattern of every profile, in the design's column order.

    Entry A is the bitmask of the items that profile A masters (bit i for
    item i); the zero profile masters none. A design column depends on its
    profile only through this pattern, so two profiles with equal patterns
    have byte-identical columns at any (c, g). Shape (2^k,) for one
    Q-matrix, (b, 2^k) for a (b, m, k) stack of Q-matrix entries, which
    may be empty.
    """
    entries = q.entries if isinstance(q, QMatrix) else np.asarray(q)
    m, k = entries.shape[-2:]
    masters = _single_item_indicators(entries, subsets_card_lex(k, nonempty=False))
    return (masters.astype(np.int64) << np.arange(m)[:, None]).sum(axis=-2)


def _pattern_factors(pats: np.ndarray, c: np.ndarray, g: np.ndarray) -> np.ndarray:
    """(..., m, n) per-item factors f_i(P) of (..., n) patterns: c_i where P
    masters item i, g_i where it does not."""
    m = g.shape[-1]
    masters = (pats[..., None, :] >> np.arange(m)[:, None]) & 1 == 1
    return np.where(masters, c[..., :, None], g[..., :, None])


def pattern_gram(pats, c, g) -> np.ndarray:
    """Gram matrices M'M of saturated-order designs, from their columns'
    capability patterns.

    ``pats`` is a (..., n) integer array of patterns (``patterns``), and
    ``c`` and ``g`` each an (m,) vector or a (..., m) stack of them
    matching the leading axes. Entry [A, B] is the sum over every nonempty
    combination S of prod_{i in S} f_i(A) f_i(B), which is
    prod_i (1 + f_i(A) f_i(B)) - 1. The product is accumulated minus one,
    P <- P + t (1 + P) with t = f_i(A) f_i(B), so that no cancellation
    costs digits: with rates in [0, 1] every term is nonnegative. Shape
    (..., n, n); equal patterns give equal rows and columns exactly.

    The products are built with the stack axes last, the layout the
    solver runs in (``solver._gram_active_set``), and returned as a view in
    the (..., n, n) shape, so that the solver's move to its layout costs
    no copy.
    """
    c, g = _checked_rates(c, g)
    f = _pattern_factors(np.asarray(pats), c, g)
    # (m, n, ...): item, pattern, then the stack
    f = np.ascontiguousarray(np.moveaxis(f, (-2, -1), (0, 1)))
    gram = np.zeros(f.shape[1:2] * 2 + f.shape[2:])
    for fi in f:
        t = fi[:, None] * fi[None, :]
        gram += t * (1.0 + gram)
    return np.moveaxis(gram, (0, 1), (-2, -1))


def _kronecker_pass(values: np.ndarray, step, lead: tuple[int, ...] = ()) -> np.ndarray:
    """Apply a Kronecker product of per-item 2 x 2 factors to the last axis
    of ``values`` (length 2^m, indexed by bitmask), one pass per item.

    ``step(i, lo, hi, new_lo, new_hi)`` applies item i's factor: ``lo`` and
    ``hi`` hold the entries without and with item i, and it writes their
    images into ``new_lo`` and ``new_hi``. ``lead`` is the shape of any
    stack of factors the step holds; it broadcasts with the leading axes
    of ``values``.

    Each pass combines the two contiguous halves of the current top bit and
    writes the pair interleaved, which rotates that bit to the bottom, so
    after m passes, one per item from the highest, the bits are back in
    place and every read is contiguous.
    """
    m = values.shape[-1].bit_length() - 1
    lead = np.broadcast_shapes(values.shape[:-1], lead)
    out = np.broadcast_to(values, lead + values.shape[-1:])
    for i in range(m - 1, -1, -1):
        halves = out.reshape(lead + (2, -1))
        pair = np.empty(lead + (halves.shape[-1], 2), dtype=values.dtype)
        step(i, halves[..., 0, :], halves[..., 1, :], pair[..., 0], pair[..., 1])
        out = pair.reshape(lead + (-1,))
    return out


def _checked_rates(c, g) -> tuple[np.ndarray, np.ndarray]:
    # finite float64 rates: c and g each an (m,) vector or a stack of them
    g = np.asarray_chkfinite(g, dtype=np.float64)
    c = np.asarray_chkfinite(c, dtype=np.float64)
    if g.ndim < 1 or c.shape[-1:] != g.shape[-1:]:
        raise ValueError("c and g must hold one rate per item")
    return c, g


def _lead(c: np.ndarray, g: np.ndarray) -> tuple[int, ...]:
    # the stack shape that the rates of a pass hold
    return c.shape[:-1] if g.ndim == 1 else np.broadcast_shapes(c.shape[:-1], g.shape[:-1])


def _checked_pass(values, c, g) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # the inputs of the rate passes, checked; difference_pass has no c
    c, g = _checked_rates(c, g)
    values = np.asarray_chkfinite(values, dtype=np.float64)
    m = g.shape[-1]
    if values.shape[-1:] != (1 << m,):
        raise ValueError(f"rates for {m} items need values of last axis {1 << m}")
    return values, c, g


def pattern_rates(weights, c, g) -> np.ndarray:
    """Success rates produced by weights on the capability patterns.

    ``weights`` has a last axis of length 2^m indexed by pattern; entry S
    of the result (same last axis, indexed by combination bitmask) is
    sum_P weights[P] prod_{i in S} f_i(P), so entry 0 is the total weight.
    For a candidate's simplex weights x this is its design applied to x,
    ``design(q, c, g, order) @ x``, read at the order's combinations, once
    x is summed by pattern. ``c`` and ``g`` are each an (m,) vector or a
    stack matching the leading axes of ``weights``. O(m 2^m) per vector.
    """
    weights, c, g = _checked_pass(weights, c, g)

    def step(i, lo, hi, new_lo, new_hi):
        # combination without item i: lo + hi; with it: g_i lo + c_i hi
        np.add(lo, hi, out=new_lo)
        np.multiply(lo, g[..., i, None], out=new_hi)
        new_hi += c[..., i, None] * hi

    return _kronecker_pass(weights, step, _lead(c, g))


def pattern_moments(values, c, g) -> np.ndarray:
    """Inner products of values on the combinations with every pattern's
    design column.

    ``values`` has a last axis of length 2^m indexed by combination bitmask;
    entry P of the result is sum_S values[S] prod_{i in S} f_i(P), with S
    running over every bitmask including 0, so put the empty combination's
    value to 0 for M'v on a saturated order. A candidate gathers its
    entries of M'v by its patterns. ``c`` and ``g`` are each an (m,) vector
    or a stack matching the leading axes of ``values``. O(m 2^m) per
    vector.
    """
    values, c, g = _checked_pass(values, c, g)

    def step(i, lo, hi, new_lo, new_hi):
        # pattern without item i: lo + g_i hi; with it: lo + c_i hi
        np.multiply(hi, g[..., i, None], out=new_lo)
        new_lo += lo
        np.multiply(hi, c[..., i, None], out=new_hi)
        new_hi += lo

    return _kronecker_pass(values, step, _lead(c, g))


def difference_pass(values, g) -> np.ndarray:
    """The difference operator D(g) applied to the last axis of ``values``
    (length 2^m, indexed by combination bitmask), in O(m 2^m).

    Entry 0 of ``values`` stands for the all-ones row of the augmented
    design, entry S for combination S. Entry S of the result is
    sum_{U subset of S} values[U] prod_{i in S minus U} (-g_i), and entry 0
    is values[0]: D(g) is the Kronecker product of the per-item factors
    [[1, 0], [-g_i, 1]], applied as ``hi - g_i lo`` per item. ``g`` is one
    (m,) vector.
    """
    values, _, g = _checked_pass(values, g, g)
    if g.ndim != 1:
        raise ValueError("g must be one vector of rates")

    def step(i, lo, hi, new_lo, new_hi):
        new_lo[...] = lo
        np.multiply(lo, g[i], out=new_hi)
        np.subtract(hi, new_hi, out=new_hi)

    return _kronecker_pass(values, step)


def design(
    q: QMatrix,
    c: Iterable[float],
    g: Iterable[float],
    order: ComboOrder,
) -> np.ndarray:
    """Design matrix of ``q`` at per-item rates (c, g) over ``order``.

    Shape (len(order), 2^k), columns in ``subsets_card_lex(k,
    nonempty=False)``: column 0 is the zero profile, the others follow
    ``profile_order(k)``. Entry (S, A) is the product over the items i of S,
    formed left to right in ascending item order, of c_i if A dominates item
    i and g_i otherwise; entries are therefore bit-identical to the
    corresponding monomials in c and g. Q rows are nonzero, so the zero
    profile dominates no item and column 0 holds the guess products.

    Built in one pass per item: starting from ones, item i multiplies its
    factor row into the rows of the combinations that contain it. Since
    1.0 * x == x exactly, every entry is still that left-to-right product.

    c and g need not lie in [0, 1]: the difference identity evaluates the
    design at c - g.
    """
    m, k = q.m, q.k
    if order.m != m:
        raise ValueError(f"order is over {order.m} items but Q-matrix has {m}")
    c, g = _checked_rates(c, g)
    if g.shape != (m,) or c.shape != (m,):
        raise ValueError(f"c and g must be vectors of length {m}")
    factors = _pattern_factors(patterns(q), c, g)
    values = np.ones((len(order), 1 << k), dtype=np.float64)
    for i in range(m):
        np.multiply(values, factors[i], out=values, where=order._members[i][:, None])
    return values


def build_d(g: Iterable[float], order: ComboOrder) -> np.ndarray:
    """Build the difference operator for guessing rates ``g``.

    A read-only (n, n + 1) array over a saturated order of n = 2^m - 1
    combinations; the trailing column pairs with the all-ones row of the
    augmented design ``[design(q, c, g); 1]``. D depends on g alone, never
    on c. Row S carries, at each subset column U of S, the coefficient
    (-1)^(|S| - |U|) times the product of g over S minus U; the empty subset
    lands in the trailing ones-row column. All other entries are zero.
    The defining property, checked property-wise in the test suite, is

        D @ [design(q, c, g); 1] == [0 | design(q, c - g, 0)[:, 1:]]

    for every Q-matrix q and every c, which is what turns contaminated
    success rates back into pure capability rates.

    This is the operator form of ``difference_pass``, which gives its
    columns from the unit vectors. It holds 4^m numbers; the estimators
    run the pass instead.
    """
    if not order.is_saturated:
        raise ValueError("difference operator requires a saturated order")
    # row U of the pass over the identity is column U of D(g)
    columns = difference_pass(np.eye(1 << order.m), g)
    combos = list(order.combos)
    values = np.ascontiguousarray(columns[combos + [0]][:, combos].T)
    values.setflags(write=False)
    return values
