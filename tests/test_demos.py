"""Smoke runs of the demo scripts."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_demo(name, cwd, **extra_env):
    env = dict(os.environ, **extra_env)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        capture_output=True, text=True, cwd=cwd, env=env, timeout=120,
    )


def test_design_matrices_demo_runs(tmp_path):
    proc = run_demo("design_matrices.py", tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "GUESS" in proc.stdout


@pytest.mark.parametrize(
    "name",
    [
        "slip_recovery.py",
        "noiseless_recovery.py",
        "noisy_recovery.py",
        "split_and_merge.py",
        "identifiability.py",
    ],
)
def test_demo_runs(name, tmp_path):
    proc = run_demo(name, tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_cli_workflow_demo_cleans_up(tmp_path):
    proc = run_demo("cli_workflow.py", tmp_path, TMPDIR=str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert "estimated rows" in proc.stdout
    assert not list(tmp_path.glob("dinaq-demo-*"))
