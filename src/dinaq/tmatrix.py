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

The difference operator ``build_d`` inverts the guessing contamination:

    D @ [design(q, c, g); 1] == [0 | design(q, c - g, 0)[:, 1:]]
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .core import QMatrix, profile_order, subsets_card_lex

# Saturated row sets grow as 2^m - 1; past this the matrices stop being
# practical to materialize.
MAX_SATURATED_ITEMS = 14


def _popcount(mask: int) -> int:
    return bin(mask).count("1")


def _mask_items(mask: int) -> tuple[int, ...]:
    return tuple(i for i in range(mask.bit_length()) if (mask >> i) & 1)


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
        return ",".join(str(i + 1) for i in _mask_items(combo))

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
        if m > MAX_SATURATED_ITEMS:
            raise ValueError(
                f"saturated order capped at m <= {MAX_SATURATED_ITEMS}, got {m}"
            )
        head = subsets_card_lex(lead)
        tail = [s for s in subsets_card_lex(m) if s >= (1 << lead)]
        return cls(m, tuple(head + tail))

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


def rate_vector(v: Iterable[float], m: int, name: str) -> np.ndarray:
    """Per-item rates ``v`` as a finite float64 array of shape (m,).

    Raises ValueError for any other shape: a 2-d array holding m numbers is
    rejected, not flattened.
    """
    v = np.asarray_chkfinite(v, dtype=np.float64)
    if v.shape != (m,):
        raise ValueError(f"{name} must have length {m}")
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
        c = rate_vector(self.c, m, "c").copy()
        g = rate_vector(self.g, m, "g").copy()
        for name, v in (("c", c), ("g", g)):
            if v.min() < 0.0 or v.max() > 1.0:
                raise ValueError(f"{name} entries must lie in [0, 1]")
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


def _single_item_indicators(q: QMatrix, profiles: Sequence[int]) -> np.ndarray:
    """(m, P) boolean: does each profile dominate each item's requirement."""
    reach = np.array(q.row_masks, dtype=np.int64)[:, None]
    pm = np.array(profiles, dtype=np.int64)[None, :]
    return (pm & reach) == reach


def design(q: QMatrix, c: Iterable[float], g: Iterable[float], order: ComboOrder) -> np.ndarray:
    """Design matrix of ``q`` at per-item rates (c, g) over ``order``.

    Shape (len(order), 2^k): column 0 is the zero profile, the others follow
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
    if order.m != q.m:
        raise ValueError(f"order is over {order.m} items but Q-matrix has {q.m}")
    c = np.asarray_chkfinite(c, dtype=np.float64)
    g = np.asarray_chkfinite(g, dtype=np.float64)
    for name, v in (("c", c), ("g", g)):
        if v.shape != (q.m,):
            raise ValueError(f"{name} must be a vector of length {q.m}")
    profiles = [0] + profile_order(q.k)
    factors = np.where(_single_item_indicators(q, profiles), c[:, None], g[:, None])
    values = np.ones((len(order), len(profiles)), dtype=np.float64)
    for i in range(q.m):
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
    """
    if not order.is_saturated:
        raise ValueError("difference operator requires a saturated order")
    g = rate_vector(g, order.m, "g")
    n = len(order)
    values = np.zeros((n, n + 1))
    for r, s in enumerate(order.combos):
        sub = s
        while True:
            rest = s & ~sub
            coef = 1.0
            for i in _mask_items(rest):
                coef *= g[i]
            if _popcount(rest) % 2:
                coef = -coef
            if sub == 0:
                values[r, n] = coef
                break
            values[r, order.index(sub)] = coef
            sub = (sub - 1) & s
    values.setflags(write=False)
    return values
