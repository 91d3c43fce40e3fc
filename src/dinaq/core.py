"""Q-matrix algebra for conjunctive cognitive diagnosis models.

A Q-matrix is an m x k binary matrix pairing m test items with k latent
attributes: entry (i, j) is 1 when item i requires attribute j. Under the
conjunctive (DINA) response rule a subject answers an item correctly, absent
noise, exactly when their attribute profile dominates the item's row.

Two Q-matrices that differ only by a column permutation induce identical
response laws once profiles are relabelled, so all searching happens over
canonical representatives of the column-permutation equivalence classes.

Conventions used across the package:

* items and attributes are 0-based in the Python API (1-based in CLI output),
* an attribute profile is a length-k 0/1 vector, often packed into an int
  bitmask with attribute j on bit j,
* profile labels are plain bitstrings, e.g. "10" for attribute 0 alone.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Mapping

import numpy as np

# Hard caps: the saturated machinery downstream is exponential in m, and the
# candidate spaces are exponential in both; these bounds keep every public
# operation representable in memory.
MAX_ITEMS = 20
MAX_ATTRIBUTES = 10

DEFAULT_BUDGET = 10**7


class BudgetExceededError(RuntimeError):
    """Raised when a candidate space exceeds the configured enumeration budget."""


def subsets_card_lex(n: int, *, nonempty: bool = True) -> list[int]:
    """Subsets of ``{0, ..., n-1}`` as bitmasks, smallest sets first.

    Ordered by cardinality ascending, then lexicographically by the sorted
    index tuple, e.g. for n=3: {0},{1},{2},{0,1},{0,2},{1,2},{0,1,2}.
    This single ordering fixes both item-combination rows and attribute-profile
    columns everywhere in the package.
    """
    out = [] if nonempty else [0]
    for card in range(1, n + 1):
        for idx in itertools.combinations(range(n), card):
            out.append(sum(1 << i for i in idx))
    return out


def profile_order(k: int) -> list[int]:
    """Canonical column order: all nonzero attribute profiles, card-then-lex."""
    return subsets_card_lex(k)


def mask_to_bits(mask: int, n: int) -> np.ndarray:
    """Unpack a bitmask into a length-n 0/1 vector (bit i at position i)."""
    return np.array([(mask >> i) & 1 for i in range(n)], dtype=np.uint8)


def bits_to_mask(bits: Iterable[int]) -> int:
    mask = 0
    for i, b in enumerate(bits):
        if b:
            mask |= 1 << i
    return mask


def bit_label(mask: int, n: int) -> str:
    """Bitstring label with position i showing bit i, e.g. mask 1, n=2 -> "10"."""
    return "".join("1" if (mask >> i) & 1 else "0" for i in range(n))


@dataclass(frozen=True, eq=False)
class QMatrix:
    """Binary m x k item-by-attribute incidence matrix.

    Rows must be nonzero: an item requiring no attribute has no discriminating
    power under the conjunctive rule and is excluded from the model space.
    Instances are immutable; ``entries`` is a read-only uint8 array.
    """

    entries: np.ndarray

    def __post_init__(self) -> None:
        a = np.asarray(self.entries)
        if a.ndim != 2 or a.size == 0:
            raise ValueError("Q-matrix must be a nonempty 2-d array")
        if not np.isin(a, (0, 1)).all():
            raise ValueError("Q-matrix entries must be 0 or 1")
        m, k = a.shape
        if m > MAX_ITEMS:
            raise ValueError(f"at most {MAX_ITEMS} items supported, got {m}")
        if k > MAX_ATTRIBUTES:
            raise ValueError(f"at most {MAX_ATTRIBUTES} attributes supported, got {k}")
        a = a.astype(np.uint8)
        if (a.sum(axis=1) == 0).any():
            raise ValueError("Q-matrix has a zero row (item requiring no attribute)")
        a.setflags(write=False)
        object.__setattr__(self, "entries", a)

    @property
    def m(self) -> int:
        return self.entries.shape[0]

    @property
    def k(self) -> int:
        return self.entries.shape[1]

    @cached_property
    def row_masks(self) -> tuple[int, ...]:
        """Per-item attribute requirements packed as bitmasks (bit j = attribute j)."""
        return tuple(bits_to_mask(row) for row in self.entries)

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int] | str]) -> "QMatrix":
        """Build from row bitstrings ("10") or per-row 0/1 iterables."""
        parsed = []
        for row in rows:
            if isinstance(row, str):
                if set(row) - {"0", "1"}:
                    raise ValueError(f"invalid Q-matrix row {row!r}")
                parsed.append([int(ch) for ch in row])
            else:
                parsed.append([int(v) for v in row])
        return cls(np.array(parsed, dtype=np.uint8))

    @classmethod
    def from_text(cls, text: str) -> "QMatrix":
        """Parse the file format: one line per item, k characters of 0/1."""
        lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
        if not lines:
            raise ValueError("empty Q-matrix text")
        width = len(lines[0])
        if any(len(ln) != width for ln in lines):
            raise ValueError("Q-matrix rows have inconsistent width")
        return cls.from_rows(lines)

    def to_text(self) -> str:
        """Serialize to the file format; round-trips bit-exactly."""
        return "\n".join("".join(str(v) for v in row) for row in self.entries) + "\n"

    def row_strings(self) -> list[str]:
        return ["".join(str(v) for v in row) for row in self.entries]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QMatrix):
            return NotImplemented
        return self.entries.shape == other.entries.shape and bool(
            (self.entries == other.entries).all()
        )

    def __hash__(self) -> int:
        return hash((self.entries.shape, self.entries.tobytes()))

    def __repr__(self) -> str:
        return f"QMatrix([{', '.join(self.row_strings())}])"


def ideal_response(profile: Iterable[int], q: QMatrix, item: int) -> int:
    """Deterministic conjunctive response of a profile to one item.

    Returns 1 exactly when the profile has every attribute listed in the
    item's Q-matrix row, else 0. ``item`` is a 0-based index.
    """
    bits = np.asarray(profile).ravel()
    if bits.shape != (q.k,):
        raise ValueError(f"profile must have length {q.k}")
    if not np.isin(bits, (0, 1)).all():
        raise ValueError("profile entries must be 0 or 1")
    if not 0 <= item < q.m:
        raise ValueError(f"item index {item} out of range for m={q.m}")
    return int((bits >= q.entries[item]).all())


def is_complete(q: QMatrix) -> bool:
    """True when every attribute appears as a single-attribute row.

    Completeness (each unit row e_j present) is what lets single-attribute
    profiles be told apart, and is the structural hypothesis behind every
    recovery guarantee in the estimators.
    """
    rows = set(q.row_masks)
    return all((1 << j) in rows for j in range(q.k))


def _column_keys(q: QMatrix) -> list[int]:
    # big-endian: item 0 is the most significant bit of a column's integer key
    m = q.m
    return [int(sum(int(q.entries[i, j]) << (m - 1 - i) for i in range(m))) for j in range(q.k)]


def _column_multiset(q: QMatrix) -> tuple[int, ...]:
    return tuple(sorted(_column_keys(q)))


def equivalent(q1: QMatrix, q2: QMatrix) -> bool:
    """True when the two matrices agree up to a column permutation."""
    if (q1.m, q1.k) != (q2.m, q2.k):
        raise ValueError("Q-matrices must have equal shapes to compare")
    return _column_multiset(q1) == _column_multiset(q2)


def canonicalize(q: QMatrix) -> QMatrix:
    """Canonical class representative: columns sorted as big-endian integers,
    descending (item 0 carries the most significant bit).

    Idempotent, and two matrices are equivalent iff their canonical forms are
    identical.
    """
    keys = _column_keys(q)
    idx = sorted(range(q.k), key=lambda j: -keys[j])
    return QMatrix(q.entries[:, idx])


def enumerate_candidates(
    m: int, k: int, budget: int = DEFAULT_BUDGET
) -> Iterator[QMatrix]:
    """Yield one canonical representative per equivalence class.

    Covers every zero-row-free m x k binary matrix: each such matrix is
    equivalent to exactly one yielded representative. Enumeration runs
    directly in canonical space (non-increasing column keys), so no dedup
    storage is needed and the order is deterministic.

    Raises BudgetExceededError when the raw candidate space (2^k - 1)^m
    exceeds ``budget``.
    """
    if m < 1 or k < 1:
        raise ValueError("m and k must be positive")
    if m > MAX_ITEMS or k > MAX_ATTRIBUTES:
        raise ValueError(f"enumeration capped at m <= {MAX_ITEMS}, k <= {MAX_ATTRIBUTES}")
    space = (2**k - 1) ** m
    if space > budget:
        raise BudgetExceededError(
            f"candidate space (2^{k}-1)^{m} = {space} exceeds budget {budget}"
        )
    full = (1 << m) - 1
    # Column keys are big-endian ints; tuples are generated non-increasing,
    # which is exactly the canonical form. Zero columns are legal as long as
    # every row stays covered.
    for cols in itertools.combinations_with_replacement(range(2**m - 1, -1, -1), k):
        covered = 0
        for v in cols:
            covered |= v
        if covered != full:
            continue
        entries = np.empty((m, k), dtype=np.uint8)
        for j, v in enumerate(cols):
            for i in range(m):
                entries[i, j] = (v >> (m - 1 - i)) & 1
        yield QMatrix(entries)


@dataclass(frozen=True, eq=False)
class ProfileDistribution:
    """Probability distribution over all 2^k attribute profiles.

    ``probs[0]`` is the all-zero profile; the remaining entries follow
    profile_order(k). This layout matches the variable order used by the
    simplex least-squares solver, so fitted vectors map straight through.
    """

    k: int
    probs: np.ndarray

    def __post_init__(self) -> None:
        p = np.asarray(self.probs, dtype=np.float64)
        if p.shape != (2**self.k,):
            raise ValueError(f"need 2^{self.k} = {2**self.k} probabilities, got {p.shape}")
        if not np.isfinite(p).all():
            raise ValueError("probabilities must be finite")
        if p.min() < -1e-9:
            raise ValueError(f"negative probability {p.min()}")
        if abs(p.sum() - 1.0) > 1e-6:
            raise ValueError(f"probabilities sum to {p.sum()}, not 1")
        p = np.clip(p, 0.0, None)
        p.setflags(write=False)
        object.__setattr__(self, "probs", p)

    @property
    def prob_zero(self) -> float:
        return float(self.probs[0])

    @property
    def nonzero_probs(self) -> np.ndarray:
        """Probabilities of the nonzero profiles, in profile_order(k)."""
        return self.probs[1:]

    def labels(self) -> list[str]:
        return ["0" * self.k] + [bit_label(mask, self.k) for mask in profile_order(self.k)]

    def as_dict(self) -> dict[str, float]:
        return {lab: float(p) for lab, p in zip(self.labels(), self.probs)}

    def mask_probs(self) -> np.ndarray:
        """Probabilities indexed by profile bitmask (position = mask value)."""
        out = np.zeros(2**self.k)
        out[0] = self.probs[0]
        for pos, mask in enumerate(profile_order(self.k)):
            out[mask] = self.probs[pos + 1]
        return out

    @classmethod
    def uniform(cls, k: int) -> "ProfileDistribution":
        return cls(k, np.full(2**k, 1.0 / 2**k))

    @classmethod
    def point_mass(cls, k: int, profile: Iterable[int] | str) -> "ProfileDistribution":
        """All mass on one profile, given as bits, a bitstring, or a mask."""
        if isinstance(profile, str):
            bits = [int(ch) for ch in profile]
        else:
            bits = [int(v) for v in profile]
        mask = bits_to_mask(bits)
        probs = np.zeros(2**k)
        if mask == 0:
            probs[0] = 1.0
        else:
            probs[1 + profile_order(k).index(mask)] = 1.0
        return cls(k, probs)

    @classmethod
    def from_dict(cls, k: int, mapping: Mapping[str, float]) -> "ProfileDistribution":
        """Build from a {bitstring label: probability} mapping.

        Missing labels default to 0; unknown labels are an error.
        """
        valid = {"0" * k} | {bit_label(mask, k) for mask in profile_order(k)}
        unknown = set(mapping) - valid
        if unknown:
            raise ValueError(f"unknown profile labels: {sorted(unknown)}")
        probs = np.zeros(2**k)
        labels = ["0" * k] + [bit_label(mask, k) for mask in profile_order(k)]
        for pos, lab in enumerate(labels):
            probs[pos] = float(mapping.get(lab, 0.0))
        return cls(k, probs)
