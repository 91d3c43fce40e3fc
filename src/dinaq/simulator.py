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
from typing import Iterable

import numpy as np

from .core import ProfileDistribution, QMatrix
from .tmatrix import ComboOrder, DinaParams, design

_PROFILE_STREAM = 0
_RESPONSE_STREAM = 1


def _stream(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), tag]))


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
        if not np.isin(a, (0, 1)).all():
            raise ValueError("responses must be 0 or 1")
        a = a.astype(np.uint8)
        a.setflags(write=False)
        object.__setattr__(self, "values", a)

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
        return ResponseData(self.values[:, idx])

    @classmethod
    def from_text(cls, text: str) -> "ResponseData":
        """Parse the response file format: "m=<m>" header, then one m-character
        0/1 line per subject."""
        lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
        if not lines or not lines[0].startswith("m="):
            raise ValueError('response text must start with an "m=<m>" header')
        try:
            m = int(lines[0][2:])
        except ValueError as exc:
            raise ValueError(f"bad response header {lines[0]!r}") from exc
        body = lines[1:]
        if not body:
            raise ValueError("response file has no subject rows")
        rows = []
        for ln in body:
            if len(ln) != m or set(ln) - {"0", "1"}:
                raise ValueError(f"bad response row {ln!r} (expected {m} binary characters)")
            rows.append([int(ch) for ch in ln])
        return cls(np.array(rows, dtype=np.uint8))

    def to_text(self) -> str:
        lines = [f"m={self.m}"]
        lines.extend("".join(str(v) for v in row) for row in self.values)
        return "\n".join(lines) + "\n"


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
    reach = np.array(q.row_masks, dtype=np.int64)
    return ((masks[:, None] & reach[None, :]) == reach[None, :]).astype(np.uint8)


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


def compute_alpha(responses: ResponseData, order: ComboOrder) -> AlphaVector:
    """Empirical joint success rates for every combination in ``order``.

    Counts are exact integer counts divided by N: a subject contributes to
    combination S when their response row dominates S. Computed with a
    superset-sum transform over the 2^m pattern lattice, so cost is
    O(N + m 2^m) rather than O(N |order|).
    """
    if order.m != responses.m:
        raise ValueError(f"order is over {order.m} items, responses have {responses.m}")
    m = responses.m
    masks = responses.values.astype(np.int64) @ (1 << np.arange(m, dtype=np.int64))
    counts = np.bincount(masks, minlength=1 << m).astype(np.int64)
    # superset zeta transform: totals[s] = number of patterns dominating s;
    # the reshape round-trip keeps the flat bitmask indexing intact
    f = counts.reshape((2,) * m)
    for axis in range(m):
        lo, hi = np.split(f, 2, axis=axis)
        lo += hi
    totals = f.reshape(-1)
    rates = np.array([totals[s] for s in order.combos], dtype=np.float64)
    return AlphaVector(order, rates / responses.n, n_subjects=responses.n)


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
