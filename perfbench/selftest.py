"""Self-tests of the benchmark. From the repository root::

    python3 perfbench/selftest.py

(or ``python3 -m pytest perfbench/selftest.py``). Each workload runs at its
smallest size, one job, with tracing off and then twice with tracing on.
The tests check that every metric is printed with its unit, that the exact
counts repeat under the same seed, that the traced run adds up (checked
inside the run, which counts a job that does not as failed), and that every
wrapped name is the original object again afterwards. About two minutes
on a 2-core machine, most of it in the verify-probe jobs.
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (pins BLAS threads before numpy loads)

sys.path.insert(0, str(run.SRC))

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TINY = ["--seconds", "1e-9"]  # one job per pass
EXACT = [
    "core.candidates",
    "estimator.score_calls",
    "solver.lsq_calls",
    "solver.iters_max",
    "estimator.powell_nfev",
]
# canonical candidates one job enumerates, and counts its layers must show
CANDIDATES = {"cg-wide": 365, "g-unknown": 41, "split-ingest": 5 * 41, "verify-probe": 14}
NONZERO = {
    "cg-wide": ["tmatrix.design_calls", "solver.lsq_calls", "simulator.alpha_calls"],
    "g-unknown": ["estimator.powell_runs", "estimator.moment_slip_calls", "tmatrix.build_d_s"],
    "split-ingest": ["cli.parse_s", "simulator.alpha_calls"],
    "verify-probe": ["estimator.probe_grid_calls", "estimator.powell_runs", "simulator.population_s"],
}


def bench(workload: str, trace: int) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "1", *TINY, "--trace", str(trace)])
    assert code == 0, f"{workload} trace {trace} exited {code}"
    result = json.loads(out.getvalue().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, result
    return result["metrics"]


def units(metrics: dict) -> dict:
    return {name: m["unit"] for name, m in metrics.items()}


def check_workload(name: str) -> None:
    before = tracing.originals()
    assert units(bench(name, 0)) == run.END_TO_END
    first, second = bench(name, 1), bench(name, 1)
    after = tracing.originals()
    assert all(after[key] is before[key] for key in before), "a wrapped name was not restored"
    assert units(first) == units(second) == tracing.PER_LAYER
    for key in EXACT:
        assert first[key]["value"] == second[key]["value"], f"{name}: {key} differs"
    assert first["core.candidates"]["value"] == CANDIDATES[name]
    for key in NONZERO[name]:
        assert first[key]["value"] > 0, f"{name}: {key} is zero"


def test_cg_wide():
    check_workload("cg-wide")


def test_g_unknown():
    check_workload("g-unknown")


def test_split_ingest():
    check_workload("split-ingest")


def test_verify_probe():
    check_workload("verify-probe")


def test_benchmark_json_matches():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()
    }
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.PER_LAYER


def test_refuses_without_sources():
    # a directory holding only the benchmark must fail fast, printing no result
    bare = run.WORK / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "cg-wide",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        with contextlib.suppress(OSError):
            run.WORK.rmdir()
    assert proc.returncode != 0 and proc.stdout == ""


if __name__ == "__main__":
    tests = [(n, f) for n, f in sorted(globals().items()) if n.startswith("test_")]
    failures = 0
    for name, fn in tests:
        try:
            fn()
            print(f"ok   {name}", flush=True)
        except Exception as exc:
            failures += 1
            print(f"FAIL {name}: {type(exc).__name__}: {exc}", flush=True)
    sys.exit(1 if failures else 0)
