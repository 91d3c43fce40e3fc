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
import math
import numbers
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

# column-key tuples unpacked per vectorized step of _candidate_blocks;
# bounds the memory of one step whatever the size of the space
_ENUM_BLOCK = 1 << 14


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


def _checked_entries(a: np.ndarray) -> np.ndarray:
    """Read-only uint8 copy of nonempty Q-matrix entries, with (m, k) the
    last two axes; raises ValueError unless every matrix is a valid QMatrix."""
    if not ((a == 0) | (a == 1)).all():
        raise ValueError("Q-matrix entries must be 0 or 1")
    m, k = a.shape[-2:]
    if m > MAX_ITEMS:
        raise ValueError(f"at most {MAX_ITEMS} items supported, got {m}")
    if k > MAX_ATTRIBUTES:
        raise ValueError(f"at most {MAX_ATTRIBUTES} attributes supported, got {k}")
    a = a.astype(np.uint8)
    if (a.sum(axis=-1) == 0).any():
        raise ValueError("Q-matrix has a zero row (item requiring no attribute)")
    a.setflags(write=False)
    return a


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
        object.__setattr__(self, "entries", _checked_entries(a))

    @classmethod
    def _from_stack(cls, stack: np.ndarray) -> list["QMatrix"]:
        """One QMatrix per slice of a (b, m, k) stack of entries, in order;
        an empty stack gives [].

        The stack passes the constructor's checks once as a whole; each
        matrix holds a read-only view of its slice.
        """
        out = []
        for entries in _checked_entries(stack):
            q = object.__new__(cls)
            object.__setattr__(q, "entries", entries)
            out.append(q)
        return out

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


def equivalent(q1: QMatrix, q2: QMatrix) -> bool:
    """True when the two matrices agree up to a column permutation, that
    is, when their canonical forms (``canonicalize``) are identical."""
    if (q1.m, q1.k) != (q2.m, q2.k):
        raise ValueError("Q-matrices must have equal shapes to compare")
    return canonicalize(q1) == canonicalize(q2)


def canonicalize(q: QMatrix) -> QMatrix:
    """Canonical class representative: columns sorted as big-endian integers,
    descending (item 0 carries the most significant bit).

    Idempotent, and two matrices are equivalent iff their canonical forms are
    identical.
    """
    keys = _column_keys(q)
    idx = sorted(range(q.k), key=lambda j: -keys[j])
    return QMatrix(q.entries[:, idx])


def _candidate_blocks(m: int, k: int, budget: int) -> Iterator[np.ndarray]:
    """The canonical candidates of ``enumerate_candidates``, in its order,
    as checked read-only (b, m, k) uint8 stacks of entries, one per block
    of column-key tuples, empty where no tuple of the block covers every
    row; it raises the same errors at the same point."""
    if m < 1 or k < 1:
        raise ValueError("m and k must be positive")
    if budget != budget:
        raise ValueError("budget must be a number, got NaN")
    if m > MAX_ITEMS or k > MAX_ATTRIBUTES:
        raise ValueError(f"enumeration capped at m <= {MAX_ITEMS}, k <= {MAX_ATTRIBUTES}")
    space = (2**k - 1) ** m
    walk = math.comb(2**m + k - 1, k)
    if max(space, walk) > budget:
        raise BudgetExceededError(
            f"enumeration exceeds budget {budget}: candidate space (2^{k}-1)^{m} = {space}, "
            f"column-key walk C(2^{m}+{k}-1, {k}) = {walk} tuples"
        )
    full = (1 << m) - 1
    # Column keys are big-endian ints (row i is bit m - 1 - i); tuples are
    # generated non-increasing, which is exactly the canonical form. Zero
    # columns are legal as long as every row stays covered.
    shifts = np.arange(m - 1, -1, -1)[:, None]
    keys = itertools.chain.from_iterable(
        itertools.combinations_with_replacement(range(2**m - 1, -1, -1), k)
    )
    while True:
        block = np.fromiter(itertools.islice(keys, _ENUM_BLOCK * k), np.int64).reshape(-1, k)
        if not block.size:
            return
        block = block[np.bitwise_or.reduce(block, axis=1) == full]
        yield _checked_entries((block[:, None, :] >> shifts) & 1)


def enumerate_candidates(m: int, k: int, budget: int = DEFAULT_BUDGET) -> Iterator[QMatrix]:
    """Yield one canonical representative per equivalence class.

    Covers every zero-row-free m x k binary matrix: each such matrix is
    equivalent to exactly one yielded representative. Enumeration runs
    directly in canonical space (non-increasing column keys), so no dedup
    storage is needed and the order is deterministic.

    Column-key tuples are read in blocks of ``_ENUM_BLOCK``. A block keeps
    the tuples whose columns cover every row, unpacks all their entries
    with one vectorized shift of the keys and checks them as one stack
    (``_candidate_blocks``, the source the searches read without building
    a QMatrix per candidate); this wraps each row of each stack as it is
    reached. At m = 6, k = 2 all 365 candidates come from one block.

    Raises BudgetExceededError, before the walk starts, when either of its
    two counts exceeds ``budget``: the raw candidate space (2^k - 1)^m, or
    the C(2^m + k - 1, k) column-key tuples the walk reads to find the
    covering ones. Raises ValueError for a NaN budget, which no count would
    exceed.
    """
    for block in _candidate_blocks(m, k, budget):
        yield from QMatrix._from_stack(block)


@dataclass(frozen=True, eq=False)
class ProfileDistribution:
    """Probability distribution over all 2^k attribute profiles.

    ``probs`` follows ``subsets_card_lex(k, nonempty=False)``: the all-zero
    profile first, then the nonzero profiles in profile_order(k). This
    layout is the column order of every design matrix and so the variable
    order of the simplex least-squares solver, so fitted vectors map
    straight through.
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
        return [bit_label(mask, self.k) for mask in subsets_card_lex(self.k, nonempty=False)]

    def as_dict(self) -> dict[str, float]:
        return {lab: float(p) for lab, p in zip(self.labels(), self.probs)}

    def mask_probs(self) -> np.ndarray:
        """Probabilities indexed by profile bitmask (position = mask value)."""
        out = np.zeros(2**self.k)
        out[subsets_card_lex(self.k, nonempty=False)] = self.probs
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
        probs = np.zeros(2**k)
        probs[subsets_card_lex(k, nonempty=False).index(bits_to_mask(bits))] = 1.0
        return cls(k, probs)

    @classmethod
    def from_dict(cls, k: int, mapping: Mapping[str, float]) -> "ProfileDistribution":
        """Build from a {bitstring label: probability} mapping.

        Missing labels default to 0; unknown labels are an error, and so is
        a value that is not a real number (a bool or a string is not one).
        """
        labels = [bit_label(mask, k) for mask in subsets_card_lex(k, nonempty=False)]
        unknown = set(mapping) - set(labels)
        if unknown:
            raise ValueError(f"unknown profile labels: {sorted(unknown)}")
        probs = np.zeros(2**k)
        for pos, lab in enumerate(labels):
            value = mapping.get(lab, 0.0)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"probability of profile {lab} is not a number: {value!r}")
            try:
                probs[pos] = float(value)
            except OverflowError as exc:
                raise ValueError(f"probability of profile {lab} is out of range") from exc
        return cls(k, probs)
