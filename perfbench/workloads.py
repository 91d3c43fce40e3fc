"""Workload definitions: what each benchmark job asks `dinaq` to do, and why.

Every job draws its own dataset from the run seed, writes it to files, and
is then answered by one in-process call of ``dinaq.cli.main(argv)``; the
program sees only those files. The data generator below is the benchmark's
own DINA sampler, so a change to ``dinaq.simulator`` cannot change the
inputs.

Shared conventions:

* Per item, c ~ U[0.75, 0.95] and g ~ U[0.05, 0.25] (noiseless jobs use
  c = 1, g = 0).
* p* is full support: 0.8 Dirichlet(1, ..., 1) + 0.2 uniform, so every
  profile carries at least 5% of the mass at k = 2 and recovery does not
  hinge on a near-empty profile.
* A random Q-matrix is complete: every attribute has a single-attribute
  item; the other rows are drawn uniformly from the nonzero rows, redrawn
  until every attribute is required by at least two items. With an
  attribute on one item only, known-g recovery at m=4 became a coin toss
  (in 80 draws, all 8 misses were such matrices, and in three of the four
  misses checked the data fit the wrong class better than the truth at its
  true rates), so such jobs would measure sampling luck, not the program.
* Every job uses the CLI default ``--workers`` (serial scoring), because no
  caller outside the tests sets that flag, and the load comes from a single
  process. The process pool is deliberately left unmeasured: on a 2-core
  machine ``--workers 2`` was no clear win on cg-wide, once slower (median
  0.47 s against 0.36 s serial) and once slightly faster (0.46 s against
  0.50 s over 10 paired jobs, serial faster in 3 pairs).

A run does a fixed number of jobs, ``job_rate`` per second of ``--seconds``,
so the job list is a pure function of the seed and ``--seconds``: two
commits answer the same questions, and their answers can be digested and
compared. At ``--seconds 10`` the rates give 25 cg-wide, 15 g-unknown, 20
split-ingest and 3 verify-probe jobs, and a run lasts 15-30 s on a 2-core
x86-64 virtual machine (Xeon, 2.0 GHz).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

K = 2


@dataclass
class Job:
    """One CLI call: its argv, its expected answer, and its search size."""

    argv: list[str]
    out: Path
    expect: dict
    # (m, k) of every candidate search the job runs; split jobs run one per group
    searches: list[tuple[int, int]]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    job_rate: float  # jobs per second of --seconds
    make_job: Callable[[np.random.Generator, Path, int], Job]

    def n_jobs(self, seconds: float) -> int:
        return max(1, round(seconds * self.job_rate))


# ---------------------------------------------------------------------------
# data generation


def _label(mask: int, k: int) -> str:
    # profile labels put attribute j at position j, as dinaq's files do
    return "".join("1" if (mask >> j) & 1 else "0" for j in range(k))


def _rows(q: np.ndarray) -> list[str]:
    return ["".join(str(int(v)) for v in row) for row in q]


def _complete_q(rng: np.random.Generator, m: int, k: int) -> np.ndarray:
    units = [1 << j for j in range(k)]
    while True:
        rest = rng.integers(1, 1 << k, size=m - k).tolist()
        masks = np.array(units + rest)[rng.permutation(m)]
        q = ((masks[:, None] >> np.arange(k)[None, :]) & 1).astype(np.uint8)
        if q.sum(axis=0).min() >= 2:
            return q


def _pstar(rng: np.random.Generator, k: int) -> np.ndarray:
    """Full-support profile probabilities indexed by profile bitmask."""
    return 0.8 * rng.dirichlet(np.ones(1 << k)) + 0.2 / (1 << k)


def _rates(rng: np.random.Generator, m: int) -> tuple[np.ndarray, np.ndarray]:
    return rng.uniform(0.75, 0.95, m), rng.uniform(0.05, 0.25, m)


def _responses(rng, q, c, g, p, n) -> np.ndarray:
    k = q.shape[1]
    masks = rng.choice(1 << k, size=n, p=p)
    bits = (masks[:, None] >> np.arange(k)[None, :]) & 1
    capable = (bits[:, None, :] >= q[None, :, :]).all(axis=2)
    return (rng.random(capable.shape) < np.where(capable, c, g)).astype(np.uint8)


def _write_responses(path: Path, resp: np.ndarray) -> None:
    n, m = resp.shape
    body = np.empty((n, m + 1), dtype=np.uint8)
    body[:, :m] = resp + ord("0")
    body[:, m] = ord("\n")
    path.write_bytes(f"m={m}\n".encode() + body.tobytes())


def _csv(v: np.ndarray) -> str:
    return ",".join(repr(float(x)) for x in v)


# ---------------------------------------------------------------------------
# workloads


def _estimate_job(rng, work: Path, *, m: int, n: int, mode: str) -> Job:
    q = _complete_q(rng, m, K)
    c, g = _rates(rng, m)
    _write_responses(work / "resp.txt", _responses(rng, q, c, g, _pstar(rng, K), n))
    out = work / "report.json"
    argv = ["estimate", "--responses", str(work / "resp.txt"), "--k", str(K), "--mode", mode]
    if mode == "known-cg":
        argv += ["--c", _csv(c)]
    argv += ["--g", _csv(g), "--out", str(out)]
    return Job(argv, out, {"q": _rows(q)}, [(m, K)])


def _cg_wide(rng, work: Path, index: int) -> Job:
    return _estimate_job(rng, work, m=6, n=20_000, mode="known-cg")


def _g_unknown(rng, work: Path, index: int) -> Job:
    return _estimate_job(rng, work, m=4, n=50_000, mode="known-g")


SPLIT_M = 12
SPLIT_GROUPS = [list(range(s, s + 4)) for s in range(0, SPLIT_M - 2, 2)]  # 5 groups, overlap 2


def _split_ingest(rng, work: Path, index: int) -> Job:
    # rows cycle 10/01/11 from a random phase, so any 4 consecutive items
    # hold both unit rows (every group is complete) and any 2 adjacent items
    # differ (every overlap pins the column matching)
    phase = int(rng.integers(3))
    q = np.array([[(1, 0), (0, 1), (1, 1)][(i + phase) % 3] for i in range(SPLIT_M)], np.uint8)
    ones = np.ones(SPLIT_M)
    resp = _responses(rng, q, ones, 1.0 - ones, _pstar(rng, K), 100_000)
    _write_responses(work / "resp.txt", resp)
    out = work / "report.json"
    argv = ["estimate", "--responses", str(work / "resp.txt"), "--k", str(K), "--mode", "noiseless"]
    for grp in SPLIT_GROUPS:
        argv += ["--groups", ",".join(str(i + 1) for i in grp)]
    argv += ["--out", str(out)]
    return Job(argv, out, {"q": _rows(q)}, [(len(grp), K) for grp in SPLIT_GROUPS])


# m=3 is the smallest size at which the probe's verdict is stable: at m=2 a
# full-support population is flagged or passed depending on (c, g, p*). At
# 5-8 s a job, a run holds only a few verify jobs, too few for a tail.
VERIFY_M = 3
POINT_MASS_EVERY = 4  # the second of every four verify jobs is a degenerate population


def _verify_probe(rng, work: Path, index: int) -> Job:
    q = np.array([(1, 0), (0, 1), (1, 1)], np.uint8)[rng.permutation(VERIFY_M)]
    c, g = _rates(rng, VERIFY_M)
    if index % POINT_MASS_EVERY == 1:
        # all mass on the full profile: acceptance criterion 11's degenerate case
        pstar, identifiable = {_label((1 << K) - 1, K): 1.0}, False
    else:
        p = _pstar(rng, K)
        pstar, identifiable = {_label(s, K): float(p[s]) for s in range(1 << K)}, True
    (work / "q.txt").write_text("\n".join(_rows(q)) + "\n")
    (work / "pstar.json").write_text(json.dumps(pstar))
    out = work / "report.json"
    argv = [
        "verify", "--q", str(work / "q.txt"), "--c", _csv(c), "--g", _csv(g),
        "--pstar", str(work / "pstar.json"), "--out", str(out),
    ]
    return Job(argv, out, {"identifiable": identifiable}, [(VERIFY_M, K)])


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            "cg-wide",
            "known-cg search, m=6 k=2 N=20000: 365 candidates on 63-row designs; "
            "per-candidate design rebuilds (tmatrix) dominate, then the solver",
            2.5,
            _cg_wide,
        ),
        Workload(
            "g-unknown",
            "known-g search, m=4 k=2 N=50000: 41 candidates but ~1400 score calls, mostly "
            "Powell re-scoring one candidate as c moves; design rebuilds and solver share it",
            1.5,
            _g_unknown,
        ),
        Workload(
            "split-ingest",
            "noiseless split search, m=12 in 5 overlapping groups, N=100000: parsing "
            "the response file dominates; searches are tiny",
            2.0,
            _split_ingest,
        ),
        Workload(
            "verify-probe",
            "verify on permuted [10,01,11], 1 in 4 with a point-mass p*: 13 candidates "
            "x an 11^3 grid of score calls; the only workload for the identifiability probe",
            0.3,
            _verify_probe,
        ),
    ]
}
