"""Benchmark of `dinaq estimate` and `dinaq verify`, end to end and per layer.

Usage, from the repository root::

    python3 perfbench/run.py --workload cg-wide --seed 1 --seconds 10 --trace 0

Workloads and the reasons for them are in ``perfbench/workloads.py``. One
process runs the jobs one after another (a closed loop with one client);
each job writes its generated inputs to ``.bench_work/`` and calls
``dinaq.cli.main(argv)`` in-process, so interpreter start-up is paid once
and reported as ``setup_s`` rather than in job time. Every job's output is
checked (``perfbench/check.py``).

``--trace 0`` prints the end-to-end metrics, measured with tracing off.
Times are scaled to a reference machine speed measured alongside them
(``perfbench/speed.py``); the raw figures are printed on a text line.

* ``job_p50_s``: median wall seconds of one CLI job;
* ``candidates_per_s``: canonical candidates searched or probed (counted
  from each search's (m, k) with ``dinaq.core.enumerate_candidates``) per
  second of summed job wall time;
* ``recovery_rate``: jobs whose answer matches the generating truth;
* ``setup_s``: median wall time of ``import dinaq.cli`` in a fresh
  interpreter, which every CLI call pays;
* ``peak_rss_mb``: peak resident memory of this process.

Two more end-to-end figures are text lines, not result metrics, because a
result metric must exist on every workload: ``job_tail_s``, the wall
seconds at the highest percentile that has ten jobs beyond it, with that
percentile and the job count (omitted below 20 jobs, as on verify-probe);
and the fail rate, ``failed / attempted`` in the result line, which is 0
when the program is sound. The result is ``correct`` when no job failed and
at least 90% of jobs recovered the truth. ``--trace 1`` runs the same jobs untraced and
then traced (``perfbench/tracing.py``) and prints the per-layer metrics:
per-job means of layer self times (raw seconds) and exact counts, run-level
solver and Powell figures, and the tracing overhead. The last line of
standard output is the JSON result.
"""

import os

# numpy links a threaded OpenBLAS: pin it to one thread before it is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import zlib  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import speed  # noqa: E402
import tracing  # noqa: E402
from check import Checker, digest  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_SAMPLES = 5
TAIL_BEYOND = 10
ADDUP_TOL = 1e-6  # seconds
# a run is correct only if no job fails and at least this share of jobs
# recovers the truth; at the commit that added the benchmark every job did,
# and the floor leaves room for sampling error on the noisy workloads
RECOVERY_FLOOR = 0.9
# a pass stops early past this many times --seconds, so that a machine far
# slower than the reference cannot stretch a run without bound
DEADLINE_FACTOR = 2.0

END_TO_END = {
    "job_p50_s": "s",
    "candidates_per_s": "candidates/s",
    "recovery_rate": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def measure_setup() -> tuple[float, float]:
    """Median wall time of importing the CLI module in a fresh interpreter,
    at the reference speed and raw."""
    code = (
        "import time; t = time.perf_counter(); import dinaq.cli; "
        "print(repr(time.perf_counter() - t))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))

    def import_s() -> float:
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, cwd=ROOT,
            capture_output=True, text=True, timeout=120, check=True,
        )
        return float(proc.stdout.strip().splitlines()[-1])

    raw, scaled = zip(*(speed.scale_around(import_s) for _ in range(SETUP_SAMPLES)))
    return statistics.median(scaled), statistics.median(raw)


def environment(seed: int, workload: str) -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        openblas = "unknown"
    load = " ".join(f"{v:.2f}" for v in os.getloadavg())
    return (
        f"env nproc={os.cpu_count()} python={sys.version.split()[0]} numpy={np.__version__} "
        f"scipy={scipy.__version__} blas=\"{openblas}\" threads=1 loadavg=\"{load}\" "
        f"seed={seed} workload={workload}"
    )


def tail_line(times: list[float]) -> str:
    """The highest percentile with TAIL_BEYOND jobs beyond it, from p50 up."""
    if len(times) < 2 * TAIL_BEYOND:
        return f"job_tail_s omitted: {len(times)} jobs, fewer than {2 * TAIL_BEYOND}"
    ordered = sorted(times)
    pos = len(ordered) - TAIL_BEYOND - 1
    pct = 100.0 * (pos + 1) / len(ordered)
    return f"job_tail_s {ordered[pos]!r} s at p{pct:.1f} of {len(ordered)} jobs ({TAIL_BEYOND} beyond)"


class Runner:
    """Generates, runs and checks the fixed job list of one workload."""

    def __init__(self, workload, seed: int, seconds: float, work: Path):
        # the program is imported only once main has checked that it exists
        import dinaq.cli
        from dinaq.core import enumerate_candidates

        self.cli = dinaq.cli
        self.workload = workload
        self.seed = seed
        self.tag = zlib.crc32(workload.name.encode())
        self.n_jobs = workload.n_jobs(seconds)
        self.deadline_s = DEADLINE_FACTOR * seconds
        self.work = work
        self.checker = Checker(SRC / "dinaq" / "schemas")
        self._count = {}
        self._enumerate = enumerate_candidates

    def candidates(self, m: int, k: int) -> int:
        if (m, k) not in self._count:
            self._count[(m, k)] = sum(1 for _ in self._enumerate(m, k))
        return self._count[(m, k)]

    def job(self, stream: int, index: int):
        rng = np.random.default_rng([self.seed, self.tag, stream, index])
        return self.workload.make_job(rng, self.work, index)

    def _main(self, argv: list[str]) -> int | None:
        try:
            return self.cli.main(argv)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            return None

    def call(self, job) -> tuple[int | None, float, float]:
        """Exit code (None on an exception), raw and reference-speed seconds."""
        job.out.unlink(missing_ok=True)
        # start every job with no garbage, and keep the collector from
        # scanning what earlier jobs and the tracer's spans left alive
        gc.collect()
        gc.freeze()
        return speed.timed(lambda: self._main(job.argv))

    def run(self, before_job=None, jobs: int | None = None) -> dict:
        """Run the job list. With ``jobs``, run exactly that many jobs, with
        no warm-up and no deadline: the traced pass repeats the jobs the
        untraced pass got through."""
        # one uncounted job first, so that first-call costs stay out of the
        # figures; a job of several seconds hides them anyway
        if jobs is None and self.workload.job_rate >= 1.0:
            self.call(self.job(1, 0))
        walls, scaled, outputs = [], [], []
        failed = recovered = candidates = 0
        start = time.perf_counter()
        for i in range(self.n_jobs if jobs is None else jobs):
            if jobs is None and i and time.perf_counter() - start > self.deadline_s:
                print(f"stopped early: {i} of {self.n_jobs} jobs after {self.deadline_s:g} s")
                break
            job = self.job(0, i)
            if before_job is not None:
                before_job(i)
            code, wall, at_reference = self.call(job)
            bad, ok, out = self.checker.check(job.expect, code, job.out)
            walls.append(wall)
            scaled.append(at_reference)
            outputs.append(out)
            failed += bad
            recovered += ok
            candidates += sum(self.candidates(m, k) for m, k in job.searches)
        return {
            "walls": walls, "scaled": scaled, "outputs": outputs, "failed": failed,
            "recovered": recovered, "candidates": candidates,
        }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "dinaq" / "cli.py").is_file():
        print(f"error: no dinaq sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; pick one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    print(environment(args.seed, workload.name), flush=True)

    work = WORK / f"{workload.name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(workload, args.seed, args.seconds, work)
        if args.trace:
            plain = runner.run()
            metrics, traced = traced_metrics(runner, plain)
            print(f"digest traced {workload.name} {digest(traced['outputs'])}")
        else:
            setup = measure_setup()
            plain = runner.run()
            metrics = end_to_end(plain, setup)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    attempted, failed = len(plain["walls"]), plain["failed"]
    if args.trace:
        attempted += len(traced["walls"])
        failed += traced["failed"]
        # the traced pass must answer exactly as the untraced one
        failed += sum(a != b for a, b in zip(plain["outputs"], traced["outputs"]))
    print(f"digest {workload.name} {digest(plain['outputs'])}")
    print(f"fail_rate {failed}/{attempted} = {failed / attempted:.4f}")
    result = {
        "correct": failed == 0 and plain["recovered"] >= RECOVERY_FLOOR * len(plain["walls"]),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def end_to_end(plain: dict, setup: tuple[float, float]) -> dict:
    scaled = plain["scaled"]
    print(tail_line(scaled))
    print(f"raw job_p50_s {statistics.median(plain['walls'])!r} setup_s {setup[1]!r}")
    values = {
        "job_p50_s": statistics.median(scaled),
        "candidates_per_s": plain["candidates"] / sum(scaled),
        "recovery_rate": plain["recovered"] / len(scaled),
        "setup_s": setup[0],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def traced_metrics(runner: Runner, plain: dict) -> tuple[dict, dict]:
    tracer = tracing.Tracer()

    def before_job(i: int) -> None:
        tracer.job = i

    with tracing.patched(tracer):
        traced = runner.run(before_job, jobs=len(plain["walls"]))
    if tracer.missing:
        print(f"trace: not in the program, so not traced: {', '.join(tracer.missing)}")
    values, per_job = tracing.aggregate(tracer, traced["walls"])
    # a job whose layer times and remainder do not add up to its wall time,
    # or with a negative self time or remainder, has spans that do not nest
    gaps = [gap for _, gap, _ in per_job]
    bad = sum(
        abs(gap) > ADDUP_TOL or min_self < -ADDUP_TOL or f["trace.unattributed_s"] < 0.0
        for f, gap, min_self in per_job
    )
    print(f"trace add-up: max |gap| {max(map(abs, gaps)):.3g} s over {len(gaps)} jobs, "
          f"{bad} jobs off")
    traced["failed"] += bad
    per_job = [f for f, _, _ in per_job]
    # both passes at the reference speed, so drift between them cancels
    values["trace.job_p50_s"] = statistics.median(traced["scaled"])
    values["trace.untraced_job_p50_s"] = statistics.median(plain["scaled"])
    values["trace.overhead_s"] = values["trace.job_p50_s"] - values["trace.untraced_job_p50_s"]
    print(f"{'metric':34s} {'per job':>14s} {'run total':>14s}")
    for name in tracing.SUMS:
        total = sum(f[name] for f in per_job)
        print(f"{name:34s} {values[name]:14.6g} {total:14.6g}")
    for name in tracing.RUN:
        print(f"{name:34s} {values[name]:14.6g}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in tracing.PER_LAYER.items()}
    return metrics, traced


if __name__ == "__main__":
    sys.exit(main())
