"""
The command line round trip
===========================

Everything in the library is reachable from the ``dinaq`` command. This
script shells out the full loop: simulate a dataset, sanity-check the design,
estimate the Q-matrix back, and read the machine-readable report. All item
labels on the command line are 1-based.
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

# removed with everything in it when the interpreter exits
_tmp = tempfile.TemporaryDirectory(prefix="dinaq-demo-")
workdir = Path(_tmp.name)
print("working in", workdir)

# the commands run inside workdir, where a relative PYTHONPATH no longer
# resolves; lead with this checkout's src directory by absolute path
SRC = Path(__file__).resolve().parents[1] / "src"
ENV = dict(os.environ)
ENV["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), ENV.get("PYTHONPATH")) if p)


def run(*args):
    cmd = [sys.executable, "-m", "dinaq.cli", *args]
    print("\n$ dinaq", " ".join(args))
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=workdir, env=ENV)
    if proc.stdout:
        print(proc.stdout.rstrip())
    if proc.stderr:
        print(proc.stderr.rstrip(), file=sys.stderr)
    return proc.returncode


(workdir / "q.txt").write_text("10\n01\n11\n")
(workdir / "pstar.json").write_text(
    '{"00": 0.25, "10": 0.25, "01": 0.25, "11": 0.25}'
)

# The design matrix for a quick eyeball.
run("tmatrix", "--q", "q.txt", "--variant", "plain")

# Verify the configuration before trusting any estimate: completeness, the
# augmented rank check, and the identifiability probe.
code = run(
    "verify", "--q", "q.txt", "--c", "0.9,0.85,0.8", "--g", "0.15,0.2,0.25",
    "--pstar", "pstar.json", "--out", "verify.json",
)
print("verify exit code:", code, "(0 = all checks passed)")

# Draw a seeded dataset; a .meta.json records the exact configuration.
run(
    "simulate", "--q", "q.txt", "--pstar", "pstar.json",
    "--c", "0.9,0.85,0.8", "--g", "0.15,0.2,0.25",
    "--n", "20000", "--seed", "7", "--out", "responses.txt",
)

# The empirical joint success rates the estimator actually consumes.
run("alpha", "--responses", "responses.txt")

# Estimate the Q-matrix back with the rates treated as known.
code = run(
    "estimate", "--responses", "responses.txt", "--k", "2",
    "--mode", "known-cg", "--c", "0.9,0.85,0.8", "--g", "0.15,0.2,0.25",
    "--out", "report.json",
)
print("estimate exit code:", code, "(2 would mean tied candidates)")

report = json.loads((workdir / "report.json").read_text())
print("\nestimated rows:", report["q_hat"])
print("fit distance:", round(report["score"], 5))
print("candidate classes searched:", report["n_candidates"])
