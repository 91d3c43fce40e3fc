"""Synthetic data generation and success-rate aggregation for the DINA model.

Subjects draw attribute profiles iid from a profile distribution; item
responses are conditionally independent Bernoulli draws whose success rate is
c_i when the profile dominates the item's requirement and g_i otherwise.

Randomness is fully seeded through numpy's PCG64, which is platform
independent. A single run seed is split into two tagged streams, one for
profiles and one for responses, and within each stream subject r consumes a
fixed block of draws. Growing N therefore appends subjects without touching
the data of earlier ones, and regenerating with the same seed is bit
identical.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .core import MAX_ITEMS, ProfileDistribution, QMatrix
from .tmatrix import ComboOrder, DinaParams, _single_item_indicators, design, pattern_rates

_PROFILE_STREAM = 0
_RESPONSE_STREAM = 1


def _stream(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), tag]))


def _written_layout(raw: bytes | str) -> np.ndarray | None:
    """The (N, m) 0/1 cells of ``raw``, a file's bytes or text, when they
    are exactly the layout that ``ResponseData.to_text`` writes, else None.
    Text is read as its ASCII encoding, so a text and its bytes give the
    same answer; text that is not ASCII is not in the layout.

    The layout is an "m=<m>" header with m in canonical decimal, then N >= 1
    rows of m "0"/"1" bytes, each ending in "\\n". m is read off the first
    row; a header that does not spell it, a row of another length, or any
    other byte (a CR, a NUL, a byte of a multi-byte character) gives None,
    and ``ResponseData.from_text`` then reads the text line by line.

    The body is taken minus 48 in one whole-buffer pass, which turns "0"
    and "1" into 0 and 1, "\\n" into 218 and every other byte into something
    else. The cells are returned as an (N, m) view of that buffer with the
    newline column hidden (row stride m + 1, each row's cells contiguous),
    not a copy.
    """
    if isinstance(raw, str):
        if not raw.isascii():
            return None
        raw = raw.encode("ascii")
    # with no newline at all both finds give -1, and so m = -1
    head = raw.find(b"\n")
    m = raw.find(b"\n", head + 1) - head - 1
    if m < 1 or raw[:head] != b"m=%d" % m:
        return None
    body = np.frombuffer(raw, np.uint8, offset=head + 1)
    if body.size % (m + 1):
        return None
    rows = (body - np.uint8(ord("0"))).reshape(-1, m + 1)
    if not (rows[:, m] == 218).all():
        return None
    # with the newline column zeroed, one contiguous pass checks every cell
    rows[:, m] = 0
    return rows[:, :m] if rows.max() <= 1 else None


@dataclass(frozen=True, eq=False)
class SimConfig:
    """Everything a simulation run depends on; the seed is mandatory."""

    q: QMatrix
    params: DinaParams
    p_star: ProfileDistribution
    n: int
    seed: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if self.params.m != self.q.m:
            raise ValueError(f"params cover {self.params.m} items, Q-matrix has {self.q.m}")
        if self.p_star.k != self.q.k:
            raise ValueError(
                f"profile distribution is over {self.p_star.k} attributes, Q-matrix has {self.q.k}"
            )
        if (self.p_star.probs == 0.0).any():
            # estimation theory wants every profile reachable; simulation
            # itself is fine with zero-mass profiles; stacklevel 3 skips the
            # dataclass-generated __init__ and names the caller's line
            warnings.warn("profile distribution has zero-probability profiles", stacklevel=3)


@dataclass(frozen=True, eq=False)
class ResponseData:
    """N x m binary response matrix, one row per subject."""

    values: np.ndarray

    def __post_init__(self) -> None:
        a = np.asarray(self.values)
        if a.ndim != 2 or a.size == 0:
            raise ValueError("responses must be a nonempty 2-d array")
        if not ((a == 0) | (a == 1)).all():
            raise ValueError("responses must be 0 or 1")
        # C order keeps each row's cells contiguous, which the row masks read
        # a word at a time (``_response_patterns``)
        a = a.astype(np.uint8, order="C")
        a.setflags(write=False)
        object.__setattr__(self, "values", a)

    @classmethod
    def _from_checked(cls, values: np.ndarray) -> "ResponseData":
        """Wrap a fresh, nonempty 2-d uint8 array of 0s and 1s whose rows
        each hold their cells contiguously, which the caller has already
        checked, without checking or copying it again. The array is made
        read-only."""
        values.setflags(write=False)
        data = object.__new__(cls)
        object.__setattr__(data, "values", values)
        return data

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def m(self) -> int:
        return self.values.shape[1]

    def restrict(self, items: Iterable[int]) -> "ResponseData":
        """Responses on a subset of items (column selection, order kept)."""
        idx = [int(i) for i in items]
        for i in idx:
            if not 0 <= i < self.m:
                raise ValueError(f"item index {i} out of range for m={self.m}")
        if not idx:
            raise ValueError("responses must be a nonempty 2-d array")
        # take copies in C order (fancy indexing would lay the columns out
        # one after another), and the values were checked on the way in
        return ResponseData._from_checked(np.take(self.values, idx, axis=1))

    @classmethod
    def from_text(cls, text: str) -> "ResponseData":
        """Parse the response file format: an "m=<m>" header, then one line of
        exactly m characters, each "0" or "1", per subject.

        Lines are those of ``str.splitlines`` (LF, CRLF, CR and the other
        Unicode line breaks), each stripped of ``str.isspace`` whitespace at
        both ends, and blank lines are skipped. The first offending row, too
        short, too long or holding any other character, is named in the
        error.

        ASCII text in the layout that ``to_text`` writes (an "m=<m>" header,
        then rows of exactly m "0"/"1" bytes, each ending in "\\n", and
        nothing else) is encoded and read by ``_written_layout``, the check
        that the CLI runs on a response file's bytes before any decode. Any
        other text is split into stripped lines as above, and its rows are
        joined back into that layout and checked by ``_written_layout`` in
        one pass, each non-ASCII character one bad cell. Only when that check
        fails are the rows scanned one by one, to name the first bad row.
        """
        cells = _written_layout(text)
        if cells is not None:
            return cls._from_checked(cells)
        lines = [ln for ln in map(str.strip, text.splitlines()) if ln]
        header = lines[0] if lines else ""
        if not header.startswith("m="):
            raise ValueError('response text must start with an "m=<m>" header')
        try:
            m = int(header[2:])
        except ValueError as exc:
            raise ValueError(f"bad response header {header!r}") from exc
        rows = lines[1:]
        if not rows:
            raise ValueError("response file has no subject rows")
        # the rows rejoined in the written layout; "replace" makes each
        # non-ASCII character one "?" cell, which that layout refuses
        cells = _written_layout("\n".join([f"m={m}", *rows, ""]).encode("ascii", "replace"))
        if cells is None:
            row = next(row for row in rows if len(row) != m or row.strip("01"))
            raise ValueError(f"bad response row {row!r} (expected {m} binary characters)")
        return cls._from_checked(cells)

    def to_text(self) -> str:
        """The response file format read by ``from_text``: the header, then
        one "0"/"1" line per subject, each ending in a newline."""
        block = np.full((self.n, self.m + 1), ord("\n"), dtype=np.uint8)
        block[:, :-1] = self.values + ord("0")
        return f"m={self.m}\n" + block.tobytes().decode("ascii")


@dataclass(frozen=True, eq=False)
class AlphaVector:
    """Joint success rates: for each combination S in ``order``, the fraction
    of subjects (or the model probability) answering every item of S right.

    ``n_subjects`` is None for analytic population vectors.
    """

    order: ComboOrder
    rates: np.ndarray
    n_subjects: int | None = None

    def __post_init__(self) -> None:
        # a copy, so freezing it leaves the caller's array writable and unshared
        r = np.asarray_chkfinite(self.rates, dtype=np.float64).copy()
        if r.shape != (len(self.order),):
            raise ValueError(f"need {len(self.order)} rates, got {r.shape}")
        if r.min() < -1e-12 or r.max() > 1.0 + 1e-12:
            raise ValueError("success rates must lie in [0, 1]")
        r.setflags(write=False)
        object.__setattr__(self, "rates", r)


def sample_profiles(p_star: ProfileDistribution, n: int, seed: int) -> np.ndarray:
    """Draw n iid attribute profiles; returns an (n, k) uint8 array.

    Inverse-CDF sampling from a dedicated stream: subject r uses the r-th
    uniform, so prefixes are stable when n grows.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    k = p_star.k
    cdf = np.cumsum(p_star.mask_probs())
    cdf[-1] = 1.0  # guard the rounding dust at the top
    u = _stream(seed, _PROFILE_STREAM).random(n)
    masks = np.searchsorted(cdf, u, side="right")
    bits = (masks[:, None] >> np.arange(k)[None, :]) & 1
    return bits.astype(np.uint8)


def capability_matrix(profiles: np.ndarray, q: QMatrix) -> np.ndarray:
    """(n, m) 0/1 ideal responses: does each profile dominate each item."""
    p = np.asarray(profiles)
    if p.ndim != 2 or p.shape[1] != q.k:
        raise ValueError(f"profiles must be (n, {q.k})")
    masks = p.astype(np.int64) @ (1 << np.arange(q.k, dtype=np.int64))
    return _single_item_indicators(q.entries, masks).T.astype(np.uint8, order="C")


def dina_responses(
    profiles: np.ndarray, q: QMatrix, params: DinaParams, seed: int
) -> ResponseData:
    """Bernoulli responses given profiles: rate c_i where capable, g_i where not.

    Subject r consumes the r-th m-block of the response stream, so the first
    subjects' data are unchanged when more are appended.
    """
    if params.m != q.m:
        raise ValueError(f"params cover {params.m} items, Q-matrix has {q.m}")
    xi = capability_matrix(profiles, q)
    n = xi.shape[0]
    u = _stream(seed, _RESPONSE_STREAM).random((n, q.m))
    rates = np.where(xi == 1, params.c[None, :], params.g[None, :])
    return ResponseData((u < rates).astype(np.uint8))


def simulate(config: SimConfig) -> tuple[ResponseData, np.ndarray]:
    """Run a full simulation; returns (responses, profiles).

    Profiles and responses come from independently tagged streams of the one
    run seed, so the pair is reproducible from the config alone.
    """
    profiles = sample_profiles(config.p_star, config.n, config.seed)
    responses = dina_responses(profiles, config.q, config.params, config.seed)
    return responses, profiles


# Row masks are read off little-endian words of 8, 4, 2 and 1 cells. For a
# word of 0/1 bytes, the product with the multiplier holds cell t in bit
# shift + t (each cell times each bit of the multiplier lands on a bit of
# its own, so nothing carries), and the shift brings it down to bit t.
_WORDS = (
    (8, np.dtype("<u8"), np.uint64(0x0102040810204080), np.uint64(56)),
    (4, np.dtype("<u4"), np.uint32(0x01020408), np.uint32(24)),
    (2, np.dtype("<u2"), np.uint16(0x0102), np.uint16(8)),
    (1, np.dtype(np.uint8), np.uint8(1), np.uint8(0)),
)


def _response_patterns(responses: ResponseData) -> tuple[np.ndarray, np.ndarray]:
    """The distinct response patterns of the rows, ascending, as bitmasks
    (bit i for item i), and how many rows hold each.

    Each row's mask is built in the narrowest unsigned dtype that holds m
    bits (8, 16 or 32) from words of its cells: as many words of 8 cells as
    fit, then at most one each of 4, 2 and 1, each read in place as one
    little-endian integer (a row's cells are contiguous in every
    ``ResponseData``) and folded into bits by one multiply and one shift.
    The masks are bincounted into 2^m cells, so m is capped at
    ``MAX_ITEMS`` (20), the most any ``QMatrix`` holds; a wider matrix
    raises ``ValueError`` before any allocation.
    """
    m = responses.m
    if m > MAX_ITEMS:
        raise ValueError(
            f"counting all 2^m response patterns is capped at m <= {MAX_ITEMS}, got {m}"
        )
    width = np.uint8 if m <= 8 else np.uint16 if m <= 16 else np.uint32
    masks = np.zeros(responses.n, dtype=width)
    off = 0
    for size, dtype, multiplier, shift in _WORDS:
        while m - off >= size:
            word = responses.values[:, off : off + size].view(dtype)[:, 0] * multiplier
            word >>= shift
            masks |= word.astype(width, copy=False) << width(off)
            off += size
    counts = np.bincount(masks, minlength=1 << m)
    seen = np.flatnonzero(counts)
    return seen, counts[seen]


def _group_alpha(
    observed: tuple[np.ndarray, np.ndarray], n: int, items: Sequence[int], order: ComboOrder
) -> AlphaVector:
    """Empirical joint success rates of the group ``items`` over ``order``,
    whose bit t stands for item ``items[t]``, from the observed patterns
    and counts of N = ``n`` rows (``_response_patterns``).

    Each observed pattern is read on the group's bits and the counts are
    bincounted by what it reads, which gives the counts of the group's 2^s
    response patterns, s = len(items). The noiseless success map,
    ``pattern_rates`` at c = 1, g = 0, turns them into the number of rows
    that clear each combination: each pass adds the count of a pattern
    with item t to the one without it, exactly while N < 2^53. The result
    is ``compute_alpha(responses.restrict(items), order)`` to the byte.
    """
    seen, counts = observed
    size = len(items)
    sub = np.zeros(seen.size, dtype=np.int64)
    for t, i in enumerate(items):
        sub |= (seen >> i & 1) << t
    totals = pattern_rates(np.bincount(sub, counts, 1 << size), np.ones(size), np.zeros(size))
    rates = totals[np.fromiter(order.combos, np.int64, len(order))]
    return AlphaVector(order, rates / n, n_subjects=n)


def compute_alpha(responses: ResponseData, order: ComboOrder) -> AlphaVector:
    """Empirical joint success rates for every combination in ``order``.

    Counts are exact integer counts divided by N: a subject contributes to
    combination S when their response row dominates S. They are the
    noiseless success map, ``pattern_rates`` at c = 1, g = 0, applied to
    the counts of the 2^m response patterns (``_group_alpha`` on the group
    of all m items, the rule that a split estimate applies to each of its
    groups). Cost is O(N + m 2^m) rather than O(N |order|): each row's
    pattern is read from words of up to 8 of its cells, not one item at a
    time.

    The response patterns are counted in 2^m cells whatever the order
    (``_response_patterns``), so m is capped at ``MAX_ITEMS`` (20), the
    most any ``QMatrix`` holds; a wider matrix raises ``ValueError`` before
    any work.
    """
    m = responses.m
    if order.m != m:
        raise ValueError(f"order is over {order.m} items, responses have {m}")
    return _group_alpha(_response_patterns(responses), responses.n, range(m), order)


def population_alpha(
    q: QMatrix, params: DinaParams, p_star: ProfileDistribution, order: ComboOrder
) -> AlphaVector:
    """Analytic success rates under the model: the slip-guess design applied
    to the nonzero profile probabilities plus the guess-product column times
    the zero-profile mass."""
    if p_star.k != q.k:
        raise ValueError(f"profile distribution is over {p_star.k} attributes, Q-matrix has {q.k}")
    d = design(q, params.c, params.g, order)
    # two terms rather than d @ p_star.probs: the summation order fixes the
    # rounding, and this one keeps earlier releases' rates bit for bit
    rates = d[:, 1:] @ p_star.nonzero_probs + p_star.prob_zero * d[:, 0]
    return AlphaVector(order, np.clip(rates, 0.0, 1.0), n_subjects=None)
