"""No runtime path of ``dinaq`` imports scipy.

scipy is a test-only dependency: the reference searches in the tests use
it as an oracle. A fresh interpreter blocks every scipy import and then
runs each subcommand through ``dinaq.cli.main``; a stray import anywhere
on those paths would end the script or change an exit code. The test
times nothing.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = r"""
import json
import sys

sys.modules["scipy"] = None  # any scipy import now raises ImportError

import dinaq.estimator
from dinaq.cli import main

search = dinaq.estimator._lockstep
searches = 0


def counted(*args, **kwargs):
    global searches
    searches += 1
    return search(*args, **kwargs)


dinaq.estimator._lockstep = counted
with open("q.txt", "w") as f:
    f.write("10\n01\n11\n")
with open("q6.txt", "w") as f:
    f.write("10\n01\n11\n10\n01\n11\n")
with open("pstar.json", "w") as f:
    f.write('{"00": 0.25, "10": 0.25, "01": 0.25, "11": 0.25}')
with open("point.json", "w") as f:
    f.write('{"10": 1.0}')
RATES = ["--c", "0.9,0.85,0.8", "--g", "0.15,0.2,0.25"]
RUNS = [
    ("simulate", ["simulate", "--q", "q.txt", "--pstar", "pstar.json", *RATES,
                  "--n", "2000", "--seed", "7", "--out", "resp.txt"]),
    ("simulate-noiseless", ["simulate", "--q", "q6.txt", "--pstar", "pstar.json",
                            "--c", "1", "--g", "0", "--n", "3000", "--seed", "4",
                            "--out", "clean.txt"]),
    ("estimate-known-cg", ["estimate", "--responses", "resp.txt", "--k", "2",
                           "--mode", "known-cg", *RATES, "--out", "cg.json"]),
    ("estimate-noiseless", ["estimate", "--responses", "clean.txt", "--k", "2",
                            "--mode", "noiseless", "--out", "noiseless.json"]),
    ("estimate-known-g", ["estimate", "--responses", "resp.txt", "--k", "2",
                          "--mode", "known-g", "--g", "0.15,0.2,0.25", "--out", "g.json"]),
    ("estimate-split", ["estimate", "--responses", "clean.txt", "--k", "2",
                        "--mode", "noiseless", "--groups", "1,2,3,4", "--groups", "3,4,5,6",
                        "--out", "split.json"]),
    ("verify-full", ["verify", "--q", "q.txt", *RATES, "--pstar", "pstar.json",
                     "--out", "verify.json"]),
    ("verify-point-mass", ["verify", "--q", "q.txt", *RATES, "--pstar", "point.json",
                           "--out", "point-verify.json"]),
    ("tmatrix", ["tmatrix", "--q", "q.txt", "--variant", "augmented", *RATES]),
    ("alpha", ["alpha", "--responses", "resp.txt"]),
]
codes, runs = {}, {}
for name, argv in RUNS:
    before = searches
    codes[name] = main(argv)
    runs[name] = searches - before
print(json.dumps({"codes": codes, "searches": runs}))
"""


def test_cli_runs_with_scipy_blocked(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], cwd=tmp_path, env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["codes"] == {
        "simulate": 0,
        "simulate-noiseless": 0,
        "estimate-known-cg": 0,
        "estimate-noiseless": 0,
        "estimate-known-g": 0,
        "estimate-split": 0,
        "verify-full": 0,
        "verify-point-mass": 2,
        "tmatrix": 0,
        "alpha": 0,
    }
    # the known-g search and both probes reached the rate search
    assert out["searches"]["estimate-known-g"] > 0
    assert out["searches"]["verify-full"] > 0
    assert out["searches"]["verify-point-mass"] > 0
