"""Per-layer tracing for the traced benchmark run.

Wrappers replace the module attributes that callers look up (``dinaq.cli``
names for the CLI's direct calls, ``dinaq.estimator`` names for everything
the searches call) and are restored when the run ends. Each call records a
span: kind, function name, job id, start, end, parent span, and a little
result information (solver iterations and status, Powell evaluations and
success, the exception type a call raised). Spans stay in memory and are
aggregated per job afterwards.

A span's self time is its duration minus the durations of its direct
children. One thread runs every job, so children nest inside their parent
and never overlap, and the self times of a job's spans add up to the
duration of its root span (the ``cli.main`` call). What the job's wall
clock measures around that root is ``trace.unattributed_s``; the run checks
that, per job, the layer self times plus that remainder equal the wall time.
The speed samples taken during a job (``speed.py``, about 2% of its time)
land in the self time of whatever span they interrupt.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

# (module, attribute, span kind); "ResponseData.from_text" is a classmethod
TARGETS = [
    ("dinaq.cli", "main", "cli.main"),
    ("dinaq.simulator", "ResponseData.from_text", "cli.parse"),
    ("dinaq.cli", "estimate_q", "estimator.search"),
    ("dinaq.cli", "estimate_q_unknown_c", "estimator.search"),
    ("dinaq.cli", "split_estimate", "estimator.search"),
    ("dinaq.cli", "check_identifiability", "estimator.search"),
    ("dinaq.cli", "compute_alpha", "simulator.alpha"),
    ("dinaq.estimator", "estimate_q", "estimator.search"),
    ("dinaq.estimator", "estimate_q_unknown_c", "estimator.search"),
    ("dinaq.estimator", "score", "estimator.score"),
    ("dinaq.estimator", "simplex_lsq", "solver.lsq"),
    ("dinaq.estimator", "build_t_slip_guess", "tmatrix.design"),
    ("dinaq.estimator", "guess_vector", "tmatrix.design"),
    ("dinaq.estimator", "build_d", "tmatrix.build_d"),
    ("dinaq.estimator", "enumerate_candidates", "core.enumerate"),
    ("dinaq.estimator", "compute_alpha", "simulator.alpha"),
    ("dinaq.estimator", "population_alpha", "simulator.population"),
    ("dinaq.estimator", "moment_slip", "estimator.moment_slip"),
    ("dinaq.estimator", "profile_slip", "estimator.profile_slip"),
    ("dinaq.estimator", "minimize", "estimator.powell"),
]

# per-job sums, reported as per-job means: metric name -> unit
SUMS = {
    "cli.parse_s": "s",
    "cli.self_s": "s",
    "simulator.alpha_s": "s",
    "simulator.alpha_calls": "count",
    "simulator.population_s": "s",
    "core.enumerate_s": "s",
    "core.candidates": "count",
    "tmatrix.design_s": "s",
    "tmatrix.design_calls": "count",
    "tmatrix.build_d_s": "s",
    "solver.lsq_s": "s",
    "solver.lsq_calls": "count",
    "solver.cap_hits": "count",
    "estimator.score_calls": "count",
    "estimator.score_self_s": "s",
    "estimator.search_self_s": "s",
    "estimator.moment_slip_calls": "count",
    "estimator.moment_slip_s": "s",
    "estimator.degenerate": "count",
    "estimator.profile_slip_s": "s",
    "estimator.powell_runs": "count",
    "estimator.powell_nfev": "count",
    "estimator.powell_s": "s",
    "estimator.powell_self_s": "s",
    "estimator.probe_grid_calls": "count",
    "trace.unattributed_s": "s",
}

# self time of each span kind lands in exactly one of these; with
# trace.unattributed_s they add up to the job's wall time
SELF_METRIC = {
    "cli.main": "cli.self_s",
    "cli.parse": "cli.parse_s",
    "simulator.alpha": "simulator.alpha_s",
    "simulator.population": "simulator.population_s",
    "core.enumerate": "core.enumerate_s",
    "tmatrix.design": "tmatrix.design_s",
    "tmatrix.build_d": "tmatrix.build_d_s",
    "solver.lsq": "solver.lsq_s",
    "estimator.score": "estimator.score_self_s",
    "estimator.search": "estimator.search_self_s",
    "estimator.moment_slip": "estimator.moment_slip_s",
    "estimator.profile_slip": "estimator.profile_slip_s",
    "estimator.powell": "estimator.powell_self_s",
}

# run-level figures: metric name -> unit
RUN = {
    "solver.iters_mean": "count",
    "solver.iters_max": "count",
    "solver.optimal_ratio": "ratio",
    "estimator.powell_success_ratio": "ratio",
    "trace.jobs": "count",
    "trace.job_p50_s": "s",
    "trace.untraced_job_p50_s": "s",
    "trace.overhead_s": "s",
}

PER_LAYER = {**SUMS, **RUN}


class Span:
    __slots__ = ("kind", "name", "job", "parent", "start", "end", "info")

    def __init__(self, kind, name, job, parent):
        self.kind, self.name, self.job, self.parent = kind, name, job, parent
        self.info = None
        self.start = self.end = 0.0


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.job = None
        self.missing: list[str] = []
        self._stack: list[int] = []

    def _open(self, kind: str, name: str) -> Span:
        span = Span(kind, name, self.job, self._stack[-1] if self._stack else -1)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def wrap(self, kind: str, fn):
        if kind == "core.enumerate":
            return self._wrap_generator(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(kind, fn.__name__)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.info = type(exc).__name__
                raise
            finally:
                self._close(span)
            if kind == "solver.lsq":
                span.info = (result.iterations, result.status)
            elif kind == "estimator.powell":
                span.info = (int(result.nfev), bool(result.success))
            return result

        return wrapper

    def _wrap_generator(self, fn):
        # the call only builds the generator; time each step of its iteration
        tracer = self

        class Steps:
            def __init__(self, it):
                self._it = it

            def __iter__(self):
                return self

            def __next__(self):
                span = tracer._open("core.enumerate", fn.__name__)
                try:
                    item = next(self._it)
                except BaseException as exc:
                    span.info = type(exc).__name__
                    raise
                finally:
                    tracer._close(span)
                span.info = "yield"
                return item

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return Steps(fn(*args, **kwargs))

        return wrapper


def _resolve(module: str, attr: str):
    """(owner object, attribute name, raw attribute as stored on the owner),
    or None when the program no longer has that name."""
    owner = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    if name not in getattr(owner, "__dict__", {}):
        return None
    return owner, name, owner.__dict__[name]


def originals() -> dict[tuple[str, str], object]:
    found = {(mod, attr): _resolve(mod, attr) for mod, attr, _ in TARGETS}
    return {key: hit[2] for key, hit in found.items() if hit is not None}


@contextmanager
def patched(tracer: Tracer):
    """Install the wrappers for the duration of the block. A target the
    program no longer has is skipped and named in ``tracer.missing``; its
    counts read 0 and its time stays in its caller's self time."""
    saved = []
    try:
        for mod, attr, kind in TARGETS:
            hit = _resolve(mod, attr)
            if hit is None:
                tracer.missing.append(f"{mod}.{attr}")
                continue
            owner, name, raw = hit
            saved.append((owner, name, raw))
            if isinstance(raw, classmethod):
                setattr(owner, name, classmethod(tracer.wrap(kind, raw.__func__)))
            else:
                setattr(owner, name, tracer.wrap(kind, raw))
        yield tracer
    finally:
        for owner, name, raw in reversed(saved):
            setattr(owner, name, raw)


def job_figures(
    spans: list[Span], index: dict[int, int], wall: float
) -> tuple[dict[str, float], float, float]:
    """Per-job sums (every key of SUMS) from the spans of one job; the
    add-up gap, wall time minus the reported layer self times and the
    unattributed remainder; and the smallest span self time, negative only
    when a child span sticks out of its parent.

    ``index`` maps a global span position to its position in ``spans``.
    """
    fig = dict.fromkeys(SUMS, 0.0)
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[index[s.parent]] += s.end - s.start
    min_self = 0.0
    for pos, s in enumerate(spans):
        self_s = (s.end - s.start) - child[pos]
        min_self = min(min_self, self_s)
        fig[SELF_METRIC[s.kind]] += self_s
        if s.kind == "simulator.alpha":
            fig["simulator.alpha_calls"] += 1
        elif s.kind == "core.enumerate":
            fig["core.candidates"] += s.info == "yield"
        elif s.kind == "tmatrix.design":
            fig["tmatrix.design_calls"] += 1
        elif s.kind == "solver.lsq":
            fig["solver.lsq_calls"] += 1
            fig["solver.cap_hits"] += s.info is not None and s.info[1] == "iteration-cap"
        elif s.kind == "estimator.score":
            fig["estimator.score_calls"] += 1
            if _in_probe_grid(spans, index, s):
                fig["estimator.probe_grid_calls"] += 1
        elif s.kind == "estimator.moment_slip":
            fig["estimator.moment_slip_calls"] += 1
            fig["estimator.degenerate"] += s.info == "DegenerateSampleError"
        elif s.kind == "estimator.powell":
            fig["estimator.powell_runs"] += 1
            fig["estimator.powell_s"] += s.end - s.start
            if isinstance(s.info, tuple):
                fig["estimator.powell_nfev"] += s.info[0]
    root = sum(s.end - s.start for s in spans if s.parent < 0)
    fig["trace.unattributed_s"] = wall - root
    layers = sum(fig[name] for name in set(SELF_METRIC.values()))
    return fig, wall - layers - fig["trace.unattributed_s"], min_self


def _in_probe_grid(spans, index, s: Span) -> bool:
    # a score call made by check_identifiability outside any Powell run
    while s.parent >= 0:
        s = spans[index[s.parent]]
        if s.kind == "estimator.powell":
            return False
        if s.name == "check_identifiability":
            return True
    return False


def aggregate(
    tracer: Tracer, walls: list[float]
) -> tuple[dict[str, float], list[tuple[dict, float, float]]]:
    """Per-job means of SUMS plus the run-level solver and Powell figures.

    Returns the run metrics (without the trace.*_p50 and overhead figures,
    which need the untraced pass), and per job its figures, add-up gap and
    smallest span self time.
    """
    by_job: dict[int, list[int]] = defaultdict(list)
    for pos, s in enumerate(tracer.spans):
        by_job[s.job].append(pos)
    per_job = []
    for job, wall in enumerate(walls):
        positions = by_job.get(job, [])
        spans = [tracer.spans[p] for p in positions]
        per_job.append(job_figures(spans, {p: i for i, p in enumerate(positions)}, wall))
    figs = [f for f, _, _ in per_job]
    metrics = {name: statistics.fmean(f[name] for f in figs) for name in SUMS}
    solves = [s.info for s in tracer.spans if s.kind == "solver.lsq" and s.info is not None]
    iters = [it for it, _ in solves]
    metrics["solver.iters_mean"] = statistics.fmean(iters) if iters else 0.0
    metrics["solver.iters_max"] = float(max(iters, default=0))
    metrics["solver.optimal_ratio"] = (
        sum(st == "optimal" for _, st in solves) / len(solves) if solves else 1.0
    )
    runs = [s.info for s in tracer.spans if s.kind == "estimator.powell" and isinstance(s.info, tuple)]
    # with no Powell runs nothing failed: the ratio reads 1
    metrics["estimator.powell_success_ratio"] = (
        sum(ok for _, ok in runs) / len(runs) if runs else 1.0
    )
    metrics["trace.jobs"] = float(len(walls))
    return metrics, per_job
