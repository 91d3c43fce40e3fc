"""Command line behavior: subcommands, exit codes, report schemas."""

import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from dinaq.cli import main

SCHEMA_DIR = Path(__file__).resolve().parents[1] / "src" / "dinaq" / "schemas"

GOLDEN_Q = "10\n01\n11\n"
PSTAR = '{"00": 0.25, "10": 0.25, "01": 0.25, "11": 0.25}'


def load_schema(name):
    return json.loads((SCHEMA_DIR / name).read_text())


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "q.txt").write_text(GOLDEN_Q)
    (tmp_path / "pstar.json").write_text(PSTAR)
    return tmp_path


def run(args):
    return main(args)


def simulate_default(workdir, n=2000, seed=7, out="resp.txt"):
    code = run([
        "simulate", "--q", "q.txt", "--pstar", "pstar.json",
        "--c", "0.9,0.85,0.8", "--g", "0.15,0.2,0.25",
        "--n", str(n), "--seed", str(seed), "--out", out,
    ])
    assert code == 0
    return workdir / out


# ---------------------------------------------------------------------------
# simulate

def test_simulate_writes_data_and_meta(workdir):
    out = simulate_default(workdir)
    lines = out.read_text().splitlines()
    assert lines[0] == "m=3"
    assert len(lines) == 2001
    meta = json.loads((workdir / "resp.txt.meta.json").read_text())
    jsonschema.validate(meta, load_schema("simulate_meta.v1.schema.json"))
    assert meta["seed"] == 7
    assert meta["q"] == ["10", "01", "11"]


def test_simulate_reruns_byte_identical(workdir):
    a = simulate_default(workdir, out="a.txt").read_bytes()
    b = simulate_default(workdir, out="b.txt").read_bytes()
    assert a == b


def test_simulate_requires_seed(workdir, capsys):
    code = run([
        "simulate", "--q", "q.txt", "--pstar", "pstar.json",
        "--c", "0.9", "--g", "0.1", "--n", "10", "--out", "x.txt",
    ])
    assert code == 3
    assert "seed" in capsys.readouterr().err


def test_simulate_inline_pstar(workdir):
    code = run([
        "simulate", "--q", "q.txt", "--pstar", PSTAR,
        "--c", "0.9", "--g", "0.1", "--n", "10", "--seed", "1",
        "--out", "inline.txt",
    ])
    assert code == 0


# ---------------------------------------------------------------------------
# estimate

def test_estimate_known_cg_report(workdir):
    simulate_default(workdir)
    code = run([
        "estimate", "--responses", "resp.txt", "--k", "2", "--mode", "known-cg",
        "--c", "0.9,0.85,0.8", "--g", "0.15,0.2,0.25", "--out", "report.json",
    ])
    assert code == 0
    report = json.loads((workdir / "report.json").read_text())
    jsonschema.validate(report, load_schema("estimate_report.v1.schema.json"))
    assert report["q_hat"] == ["10", "01", "11"]
    assert report["n_candidates"] == 14
    assert report["ties"] == [["10", "01", "11"]]
    assert report["seed"] is None


def test_estimate_noiseless(workdir):
    code = run([
        "simulate", "--q", "q.txt", "--pstar", "pstar.json",
        "--c", "1", "--g", "0", "--n", "3000", "--seed", "9", "--out", "clean.txt",
    ])
    assert code == 0
    code = run([
        "estimate", "--responses", "clean.txt", "--k", "2", "--mode", "noiseless",
        "--out", "report.json",
    ])
    assert code == 0
    report = json.loads((workdir / "report.json").read_text())
    assert report["q_hat"] == ["10", "01", "11"]
    assert report["score"] <= 0.1


def test_estimate_known_g_recovers_c(workdir):
    simulate_default(workdir, n=50_000)
    code = run([
        "estimate", "--responses", "resp.txt", "--k", "2", "--mode", "known-g",
        "--g", "0.15,0.2,0.25", "--out", "report.json",
    ])
    assert code == 0
    report = json.loads((workdir / "report.json").read_text())
    jsonschema.validate(report, load_schema("estimate_report.v1.schema.json"))
    assert report["q_hat"] == ["10", "01", "11"]
    for got, want in zip(report["c_hat"], [0.9, 0.85, 0.8]):
        assert abs(got - want) < 0.05


def test_estimate_groups(workdir):
    (workdir / "q6.txt").write_text("10\n01\n11\n10\n01\n11\n")
    code = run([
        "simulate", "--q", "q6.txt", "--pstar", "pstar.json",
        "--c", "1", "--g", "0", "--n", "5000", "--seed", "4", "--out", "r6.txt",
    ])
    assert code == 0
    code = run([
        "estimate", "--responses", "r6.txt", "--k", "2", "--mode", "noiseless",
        "--groups", "1,2,3,4", "--groups", "3,4,5,6", "--out", "report.json",
    ])
    assert code == 0
    report = json.loads((workdir / "report.json").read_text())
    jsonschema.validate(report, load_schema("estimate_report.v1.schema.json"))
    assert report["groups"] == [[1, 2, 3, 4], [3, 4, 5, 6]]
    assert sorted(report["q_hat"]) == sorted(["10", "01", "11", "10", "01", "11"])


def test_estimate_tie_exit_code(workdir):
    (workdir / "qtie.txt").write_text("11\n11\n")
    code = run([
        "simulate", "--q", "qtie.txt", "--pstar", "pstar.json",
        "--c", "1", "--g", "0", "--n", "2000", "--seed", "2", "--out", "rt.txt",
    ])
    assert code == 0
    code = run([
        "estimate", "--responses", "rt.txt", "--k", "2", "--mode", "noiseless",
        "--out", "tie.json",
    ])
    assert code == 2
    report = json.loads((workdir / "tie.json").read_text())
    assert len(report["ties"]) > 1


def test_estimate_rejects_equal_rates(workdir, capsys):
    simulate_default(workdir, n=100)
    code = run([
        "estimate", "--responses", "resp.txt", "--k", "2", "--mode", "known-cg",
        "--c", "0.5,0.8,0.8", "--g", "0.5,0.2,0.2",
    ])
    assert code == 3
    assert "separate" in capsys.readouterr().err


def test_estimate_budget_exit_code(workdir):
    simulate_default(workdir, n=100)
    code = run([
        "estimate", "--responses", "resp.txt", "--k", "2", "--mode", "noiseless",
        "--budget", "5",
    ])
    assert code == 4
    # invalid search arguments are validation errors, not empty tie sets
    for flag, value in (("--tie-tol", "-1"), ("--tie-tol", "nan"), ("--workers", "0")):
        code = run([
            "estimate", "--responses", "resp.txt", "--k", "2", "--mode", "noiseless",
            flag, value,
        ])
        assert code == 3


def test_estimate_workers_equal_output(workdir):
    simulate_default(workdir)
    base = [
        "estimate", "--responses", "resp.txt", "--k", "2", "--mode", "known-cg",
        "--c", "0.9,0.85,0.8", "--g", "0.15,0.2,0.25",
    ]
    assert run(base + ["--out", "serial.json"]) == 0
    assert run(base + ["--workers", "2", "--out", "par.json"]) == 0
    a = json.loads((workdir / "serial.json").read_text())
    b = json.loads((workdir / "par.json").read_text())
    a.pop("wall_time"), b.pop("wall_time")
    assert a == b


def test_estimate_config_file(workdir):
    simulate_default(workdir)
    (workdir / "cfg.json").write_text(json.dumps({
        "responses": "resp.txt", "k": 2, "mode": "known-cg",
        "c": [0.9, 0.85, 0.8], "g": [0.15, 0.2, 0.25],
    }))
    code = run(["estimate", "--config", "cfg.json", "--out", "report.json"])
    assert code == 0
    assert json.loads((workdir / "report.json").read_text())["q_hat"] == [
        "10", "01", "11",
    ]


def test_config_rejects_unknown_keys(workdir, capsys):
    (workdir / "cfg.json").write_text('{"responses": "resp.txt", "bogus": 1}')
    code = run(["estimate", "--config", "cfg.json", "--k", "2", "--mode", "noiseless"])
    assert code == 3
    assert "bogus" in capsys.readouterr().err


def test_config_keys_are_the_options(workdir, capsys):
    # every option but --config and --help is a config key, and nothing else
    for key in ("config", "help", "handler", "config_keys"):
        (workdir / "cfg.json").write_text(json.dumps({key: 1}))
        assert run(["verify", "--config", "cfg.json"]) == 3
        assert f"unknown config keys: {key}" in capsys.readouterr().err
    (workdir / "cfg.json").write_text(json.dumps({
        "q": "q.txt", "c": 0.9, "g": 0.1, "pstar": "pstar.json",
        "budget": 1, "out": "verify.json",
    }))
    assert run(["verify", "--config", "cfg.json"]) == 4


def test_flags_override_config(workdir):
    simulate_default(workdir)
    (workdir / "cfg.json").write_text(json.dumps({
        "responses": "resp.txt", "k": 2, "mode": "known-cg",
        "c": [0.5, 0.5, 0.5], "g": [0.15, 0.2, 0.25],
    }))
    code = run([
        "estimate", "--config", "cfg.json", "--c", "0.9,0.85,0.8",
        "--out", "report.json",
    ])
    assert code == 0


# ---------------------------------------------------------------------------
# verify

def test_verify_good_configuration(workdir):
    code = run([
        "verify", "--q", "q.txt", "--c", "0.9,0.85,0.8", "--g", "0.15,0.2,0.25",
        "--pstar", "pstar.json", "--out", "verify.json",
    ])
    assert code == 0
    report = json.loads((workdir / "verify.json").read_text())
    jsonschema.validate(report, load_schema("verify_report.v2.schema.json"))
    assert report["all_passed"] is True


def test_verify_point_mass_flags_degeneracy(workdir):
    (workdir / "point.json").write_text('{"11": 1.0}')
    code = run([
        "verify", "--q", "q.txt", "--c", "1", "--g", "0",
        "--pstar", "point.json", "--out", "verify.json",
    ])
    assert code == 2
    report = json.loads((workdir / "verify.json").read_text())
    assert report["all_passed"] is False
    assert report["checks"]["identifiability"]["passed"] is False
    assert len(report["checks"]["identifiability"]["flagged"]) >= 1


def test_verify_incomplete_q(workdir):
    (workdir / "qinc.txt").write_text("10\n11\n11\n")
    code = run([
        "verify", "--q", "qinc.txt", "--c", "0.9", "--g", "0.1",
        "--pstar", "pstar.json", "--out", "verify.json",
    ])
    assert code == 2
    report = json.loads((workdir / "verify.json").read_text())
    jsonschema.validate(report, load_schema("verify_report.v2.schema.json"))
    assert report["checks"]["completeness"]["passed"] is False
    assert report["checks"]["identifiability"]["passed"] is None


# ---------------------------------------------------------------------------
# tmatrix and alpha dumps

def test_tmatrix_plain(workdir, capsys):
    assert run(["tmatrix", "--q", "q.txt", "--variant", "plain"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0] == "combo\t10\t01\t11"
    assert len(lines) == 8
    assert lines[1].startswith("1\t")
    assert lines[1].split("\t")[1:] == ["1.0", "0.0", "1.0"]


def test_tmatrix_variants_need_rates(workdir):
    assert run(["tmatrix", "--q", "q.txt", "--variant", "slip"]) == 3
    assert run(["tmatrix", "--q", "q.txt", "--variant", "plain", "--c", "0.9"]) == 3
    assert run(["tmatrix", "--q", "q.txt", "--variant", "bogus"]) == 3


def test_tmatrix_augmented(workdir, capsys):
    code = run([
        "tmatrix", "--q", "q.txt", "--variant", "augmented",
        "--c", "0.9,0.85,0.8", "--g", "0.15,0.2,0.25",
    ])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "combo\tGUESS\t10\t01\t11"
    assert lines[-1].split("\t")[0] == "ONES"
    assert len(lines) == 9
    assert lines[-1].split("\t")[1:] == ["1.0"] * 4
    # cells round-trip: row "1", profile "10" is c_1 exactly
    assert float(lines[1].split("\t")[2]) == 0.9


def test_alpha_dump(workdir, capsys):
    simulate_default(workdir, n=100)
    capsys.readouterr()
    assert run(["alpha", "--responses", "resp.txt"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "combo\trate"
    assert len(lines) == 8
    assert 0.0 <= float(lines[1].split("\t")[1]) <= 1.0


# ---------------------------------------------------------------------------
# plumbing

def test_missing_file_exit_code(workdir, capsys):
    assert run(["estimate", "--responses", "nope.txt", "--k", "2",
                "--mode", "noiseless"]) == 3
    assert "nope.txt" in capsys.readouterr().err


def test_bad_flag_exit_code(workdir):
    assert run(["estimate", "--responses", "resp.txt", "--nonsense"]) == 3


def test_entry_point_installed():
    # the source tree leads the child's path, as pytest's ``pythonpath``
    # setting leads this process's, so an uninstalled checkout runs too
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "dinaq.cli", "--version"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert "dinaq" in proc.stdout


def test_reports_stable_across_reruns(workdir):
    simulate_default(workdir)
    base = [
        "estimate", "--responses", "resp.txt", "--k", "2", "--mode", "known-cg",
        "--c", "0.9,0.85,0.8", "--g", "0.15,0.2,0.25",
    ]
    assert run(base + ["--out", "r1.json"]) == 0
    assert run(base + ["--out", "r2.json"]) == 0
    a = json.loads((workdir / "r1.json").read_text())
    b = json.loads((workdir / "r2.json").read_text())
    a.pop("wall_time"), b.pop("wall_time")
    assert a == b
