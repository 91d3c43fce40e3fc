"""Golden corpus of full ``dinaq`` outputs, and the code that replays it.

Run ``python tests/golden/make.py`` from the repository root to (re)write
``tests/golden/corpus.json``; ``tests/test_golden.py`` replays every case
and compares it with the file.

Every case is a pure function of the fixed specification below: a truth
Q-matrix, per-item rates drawn from the case seed, a profile distribution,
and either population rates (``population_alpha``) or a sample drawn with
``simulate``. Each case records

* structural fields, which must replay exactly on any machine: ``q_hat``,
  ties, ``n_candidates``, the note lists, the flagged set, the CLI exit
  code and the error a search raised;
* float fields, as ``float.hex`` so every bit is kept: score, ``p_tilde``,
  ``c_hat``, and every probe delta.

Searches on sampled rates and on split groups also run through
``dinaq.cli.main`` on the written response file, which gives their exit
code; population-rate searches have no CLI form, and record ``exit`` as
null. The identifiability probe is read from the ``dinaq verify`` report.

Float bits depend on the BLAS kernels and so on the CPU. The file records
the environment it was made in (Python, numpy and scipy versions, machine
and CPU model); only there must the float fields match to the byte.
"""

from __future__ import annotations

import json
import platform
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import scipy

from dinaq import (
    ComboOrder,
    DegenerateSampleError,
    DinaParams,
    ProfileDistribution,
    QMatrix,
    SimConfig,
    compute_alpha,
    estimate_q,
    estimate_q_unknown_c,
    population_alpha,
    simulate,
)
from dinaq.cli import main as cli_main

CORPUS = Path(__file__).with_name("corpus.json")

# name, mode, truth rows, search k, rates ("population" or a sample size),
# p* ("dirichlet", "uniform", or a mapping of profile label to mass), seed.
# Optional: "zero_g" puts g = 0 on every item; "groups" (1-based) makes a
# split run; "verify" runs the identifiability probe instead of a search.
CASES = [
    dict(name="cg-population-m4-k2", mode="known-cg", q=["10", "01", "11", "10"],
         k=2, rates="population", pstar="dirichlet", seed=101),
    dict(name="cg-sampled-m6-k2", mode="known-cg", q=["10", "01", "11", "10", "01", "11"],
         k=2, rates=4000, pstar="dirichlet", seed=102),
    dict(name="cg-sampled-m4-k3", mode="known-cg", q=["100", "010", "001", "110"],
         k=3, rates=4000, pstar="dirichlet", seed=103),
    dict(name="cg-population-m5-k3", mode="known-cg", q=["100", "010", "001", "011", "101"],
         k=3, rates="population", pstar="uniform", seed=104),
    dict(name="cg-population-m8-k2", mode="known-cg",
         q=["10", "01", "11", "10", "01", "11", "10", "01"],
         k=2, rates="population", pstar="dirichlet", seed=117),
    dict(name="noiseless-sampled-m5-k2", mode="noiseless", q=["10", "01", "11", "10", "01"],
         k=2, rates=2000, pstar="dirichlet", seed=105),
    # every subject masters everything: many candidates fit exactly and tie
    dict(name="noiseless-population-tie", mode="noiseless", q=["10", "01", "11"],
         k=2, rates="population", pstar={"11": 1.0}, seed=106),
    dict(name="g-sampled-m4-k2", mode="known-g", q=["10", "01", "11", "10"],
         k=2, rates=5000, pstar="dirichlet", seed=107),
    dict(name="g-population-m5-k2", mode="known-g", q=["10", "01", "11", "10", "01"],
         k=2, rates="population", pstar="dirichlet", seed=108),
    dict(name="g-sampled-m6-k2", mode="known-g", q=["10", "01", "11", "11", "10", "01"],
         k=2, rates=8000, pstar="dirichlet", seed=118),
    # nobody masters both attributes: covers that need both have a vanishing
    # de-contaminated rate, exactly 0 with g = 0, at rounding level with g > 0
    dict(name="g-degenerate-sampled", mode="known-g", q=["10", "01", "11", "10"],
         k=2, rates=3000, pstar={"00": 0.2, "10": 0.4, "01": 0.4}, seed=109, zero_g=True),
    dict(name="g-degenerate-population", mode="known-g", q=["10", "01", "11", "01"],
         k=2, rates="population", pstar={"00": 0.3, "10": 0.3, "01": 0.4}, seed=110),
    # only guessers, and nobody guesses: every candidate is degenerate
    dict(name="g-all-degenerate", mode="known-g", q=["10", "01", "11"],
         k=2, rates=500, pstar={"00": 1.0}, seed=111, zero_g=True),
    dict(name="split-noiseless-m6", mode="noiseless", q=["10", "01", "11", "10", "01", "11"],
         k=2, rates=3000, pstar="dirichlet", seed=112, groups=["1,2,3,4", "3,4,5,6"]),
    dict(name="split-known-g-m6", mode="known-g", q=["10", "01", "11", "10", "01", "11"],
         k=2, rates=6000, pstar="dirichlet", seed=113, groups=["1,2,3,4", "3,4,5,6"]),
    # n = 16 Gram systems: the solver's sums over 16 terms take two rounds of
    # numpy's eight pairwise accumulators
    dict(name="cg-population-m4-k4", mode="known-cg", q=["1000", "0100", "0010", "0001"],
         k=4, rates="population", pstar="dirichlet", seed=119),
    # the rate search's Gram solve with a (b, m) stack of c, at n = 8
    dict(name="g-sampled-m4-k3", mode="known-g", q=["100", "010", "001", "110"],
         k=3, rates=4000, pstar="dirichlet", seed=120),
    dict(name="probe-full-m3", q=["10", "01", "11"], pstar="uniform", seed=114, verify=True),
    dict(name="probe-point-mass-m3", q=["10", "01", "11"], pstar={"11": 1.0}, seed=115,
         verify=True),
    dict(name="probe-dirichlet-m4", q=["10", "01", "11", "10"], pstar="dirichlet", seed=116,
         verify=True),
]


def environment() -> dict:
    """What float bits depend on: interpreter, libraries, machine and CPU."""
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "cpu": cpu,
    }


def _truth(spec: dict) -> tuple[QMatrix, DinaParams, ProfileDistribution]:
    q = QMatrix.from_rows(spec["q"])
    rng = np.random.default_rng(spec["seed"])
    c = rng.uniform(0.75, 0.95, q.m)
    g = rng.uniform(0.05, 0.25, q.m)
    if spec.get("mode") == "noiseless":
        c, g = np.ones(q.m), np.zeros(q.m)
    if spec.get("zero_g"):
        g = np.zeros(q.m)
    pstar = spec["pstar"]
    if pstar == "uniform":
        p = ProfileDistribution.uniform(q.k)
    elif pstar == "dirichlet":
        p = ProfileDistribution(q.k, rng.dirichlet(np.ones(1 << q.k)))
    else:
        p = ProfileDistribution.from_dict(q.k, pstar)
    return q, DinaParams(c, g), p


def _rates_arg(v: np.ndarray) -> str:
    return ",".join(repr(float(x)) for x in v)


def _hex(values) -> list[str]:
    return [float(v).hex() for v in values]


def _cli(argv: list[str], work: Path) -> tuple[int, dict | None]:
    out = work / "report.json"
    out.unlink(missing_ok=True)
    code = cli_main(argv + ["--out", str(out)])
    return code, json.loads(out.read_text()) if out.exists() else None


def _estimate_argv(spec: dict, params: DinaParams, responses: Path) -> list[str]:
    argv = ["estimate", "--responses", str(responses), "--k", str(spec["k"]),
            "--mode", spec["mode"]]
    if spec["mode"] == "known-cg":
        argv += ["--c", _rates_arg(params.c)]
    if spec["mode"] != "noiseless":
        argv += ["--g", _rates_arg(params.g)]
    for grp in spec.get("groups", []):
        argv += ["--groups", grp]
    return argv


def _verify(spec: dict, work: Path) -> dict:
    q, params, p = _truth(spec)
    (work / "q.txt").write_text(q.to_text())
    code, report = _cli(
        ["verify", "--q", str(work / "q.txt"), "--c", _rates_arg(params.c),
         "--g", _rates_arg(params.g), "--pstar", json.dumps(p.as_dict())],
        work,
    )
    probe = report["checks"]["identifiability"]
    return {
        "exit": code,
        "passed": {name: chk["passed"] for name, chk in report["checks"].items()},
        "flagged": probe["flagged"],
        "notes": probe["notes"],
        "floats": {
            "deltas": {cand: float(d).hex() for cand, d in probe["deltas"].items()},
            "min_delta": float(probe["min_delta"]).hex(),
        },
    }


def _search(spec: dict, work: Path) -> dict:
    q, params, p = _truth(spec)
    order = ComboOrder.saturated(q.m)
    record: dict = {"exit": None}
    if spec["rates"] == "population":
        alpha = population_alpha(q, params, p, order)
    else:
        config = SimConfig(q=q, params=params, p_star=p, n=spec["rates"], seed=spec["seed"])
        responses, _ = simulate(config)
        (work / "responses.txt").write_text(responses.to_text())
        code, report = _cli(_estimate_argv(spec, params, work / "responses.txt"), work)
        record["exit"] = code
        if "groups" in spec:
            # a split report holds only the stitched matrix
            record["q_hat"] = None if report is None else report["q_hat"]
            return record
        alpha = compute_alpha(responses, order)
    try:
        if spec["mode"] == "known-g":
            res = estimate_q_unknown_c(alpha, params.g, spec["k"])
        else:
            res = estimate_q(alpha, params, spec["k"])
    except DegenerateSampleError as exc:
        record["error"] = f"{type(exc).__name__}: {exc}"
        return record
    record.update(
        q_hat=res.q_hat.row_strings(),
        ties=[t.row_strings() for t in res.ties],
        n_candidates=res.n_candidates,
        notes={note: [qc.row_strings() for qc in cands]
               for note, cands in res.diagnostics.items()},
        floats={
            "score": float(res.score).hex(),
            "p_tilde": _hex(res.p_tilde.probs),
            "c_hat": None if res.c_hat is None else _hex(res.c_hat),
        },
    )
    return record


def run_case(spec: dict) -> dict:
    """The outputs of one case, as the corpus records them."""
    with tempfile.TemporaryDirectory(prefix="dinaq-golden-") as tmp, warnings.catch_warnings():
        # zero-mass profiles are the point of some cases
        warnings.simplefilter("ignore")
        record = _verify(spec, Path(tmp)) if spec.get("verify") else _search(spec, Path(tmp))
    return {"name": spec["name"], **record}


def _leaves(value, path=()):
    """(path, value) for every leaf of nested dicts and lists."""
    if isinstance(value, dict):
        for key in sorted(value):
            yield from _leaves(value[key], path + (key,))
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield from _leaves(v, path + (i,))
    else:
        yield path, value


def compare(recorded: dict, replayed: dict) -> tuple[list[str], dict[str, tuple[float, float]]]:
    """Structural mismatches, and per float field the largest absolute and
    relative difference between the two records of one case.

    The shape of the float fields (keys, lengths, nulls) is structural. A
    difference of 0.0 does not prove equal bits, since a zero can change
    sign, so a byte-exact check compares the records themselves.
    """
    problems = []
    structure = [{k: v for k, v in r.items() if k != "floats"} for r in (recorded, replayed)]
    if structure[0] != structure[1]:
        problems.append(f"structural fields differ: {structure[0]} != {structure[1]}")
    want, got = dict(_leaves(recorded.get("floats"))), dict(_leaves(replayed.get("floats")))
    if {k: v is None for k, v in want.items()} != {k: v is None for k, v in got.items()}:
        problems.append("float fields differ in shape")
        return problems, {}
    diffs: dict[str, tuple[float, float]] = {}
    for path, a in want.items():
        if a is None:
            continue
        x, y = float.fromhex(a), float.fromhex(got[path])
        field = str(path[0])
        gap = abs(x - y) if x != y else 0.0
        rel = gap / max(abs(x), abs(y)) if gap else 0.0
        old = diffs.get(field, (0.0, 0.0))
        diffs[field] = (max(old[0], gap), max(old[1], rel))
    return problems, diffs


def main() -> None:
    corpus = {"environment": environment(), "cases": [run_case(spec) for spec in CASES]}
    CORPUS.write_text(json.dumps(corpus, indent=1) + "\n")
    print(f"wrote {len(CASES)} cases to {CORPUS}", file=sys.stderr)


if __name__ == "__main__":
    main()
