"""Command line behavior: subcommands, exit codes, report schemas."""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from dinaq import ComboOrder, ResponseData, compute_alpha, estimate_q_unknown_c
from dinaq import cli, simulator
from dinaq.cli import _COMMANDS, main

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


def test_long_inline_pstar_is_json(workdir):
    # an inline k = 5 distribution is longer than a file name may be
    pstar = json.dumps({f"{a:05b}": 1 / 32 for a in range(32)})
    assert len(pstar) > 255
    (workdir / "q5.txt").write_text("10000\n01000\n00100\n00010\n00001\n")
    (workdir / "p5.json").write_text(pstar)
    for value in (pstar, "p5.json"):
        code = run([
            "verify", "--q", "q5.txt", "--c", "0.9", "--g", "0.1", "--pstar", value,
            "--budget", "1", "--out", "verify.json",
        ])
        assert code == 4


@pytest.mark.parametrize("value", ["null", "[1]", "true", '"1"', "1" + "0" * 400])
@pytest.mark.parametrize("command", ["verify", "simulate"])
def test_non_numeric_pstar_exits_3(workdir, capsys, command, value):
    args = [command, "--q", "q.txt", "--c", "0.9", "--g", "0.1", "--pstar", f'{{"11": {value}}}']
    if command == "simulate":
        args += ["--n", "10", "--seed", "1"]
    code = run(args + ["--out", "out.txt"])
    assert code == 3
    assert "bad profile distribution: probability of profile 11" in capsys.readouterr().err


def test_undecodable_pstar_file(workdir, capsys):
    (workdir / "bad.json").write_bytes(b"\xff\xfe{}")
    code = run([
        "simulate", "--q", "q.txt", "--pstar", "bad.json",
        "--c", "0.9", "--g", "0.1", "--n", "10", "--seed", "1", "--out", "x.txt",
    ])
    assert code == 3
    assert "cannot read p* file bad.json: " in capsys.readouterr().err


def test_missing_pstar_file_exits_3(workdir, capsys):
    # a value that does not open with "{" is a path, so a misspelled one
    # is reported as a file that cannot be read, not as bad JSON
    code = run([
        "simulate", "--q", "q.txt", "--pstar", "missing.json",
        "--c", "0.9", "--g", "0.1", "--n", "10", "--seed", "1", "--out", "x.txt",
    ])
    assert code == 3
    assert "cannot read p* file missing.json: " in capsys.readouterr().err


def test_simulate_zero_mass_warning_is_one_line(workdir, capsys):
    code = run([
        "simulate", "--q", "q.txt", "--pstar", '{"11": 1}',
        "--c", "0.9", "--g", "0.1", "--n", "10", "--seed", "1", "--out", "x.txt",
    ])
    assert code == 0
    err = capsys.readouterr().err
    assert err == "warning: profile distribution has zero-probability profiles\n"


def test_undecodable_config_file(workdir, capsys):
    (workdir / "bad.json").write_bytes(b"\xff\xfe{}")
    code = run(["estimate", "--config", "bad.json"])
    assert code == 3
    assert "cannot read config file bad.json: " in capsys.readouterr().err


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


def test_estimate_known_g_one_attribute_at_fourteen_items(workdir):
    """One candidate at the saturated cap: de-contamination is one pass per
    item, not a 2^14 x 2^14 operator."""
    rng = np.random.default_rng(14)
    rows = (rng.random((300, 14)) < 0.6).astype(np.uint8)
    (workdir / "r14.txt").write_text(ResponseData(rows).to_text())
    code = run([
        "estimate", "--responses", "r14.txt", "--k", "1", "--mode", "known-g",
        "--g", "0.1", "--out", "report.json",
    ])
    assert code == 0
    report = json.loads((workdir / "report.json").read_text())
    assert report["n_candidates"] == 1
    assert report["q_hat"] == ["1"] * 14


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


def test_split_alignment_failure_names_the_group(workdir, capsys):
    """A known-g split whose second group is fitted in a frame that its
    overlap rows cannot match exits 3, and the message names the group's
    position and the rows, score and tie set of that group's fit."""
    (workdir / "q4.txt").write_text("10\n01\n11\n10\n")
    code = run([
        "simulate", "--q", "q4.txt", "--pstar", "pstar.json",
        "--c", "0.9", "--g", "0.1", "--n", "3000", "--seed", "1", "--out", "r4.txt",
    ])
    assert code == 0
    capsys.readouterr()
    code = run([
        "estimate", "--responses", "r4.txt", "--k", "2", "--mode", "known-g", "--g", "0.1",
        "--groups", "1,2,3", "--groups", "1,2,4", "--out", "split.json",
    ])
    assert code == 3
    err = capsys.readouterr().err
    sub = ResponseData.from_text((workdir / "r4.txt").read_text()).restrict([0, 1, 3])
    res = estimate_q_unknown_c(compute_alpha(sub, ComboOrder.saturated(3)), np.full(3, 0.1), 2)
    rows = ",".join(res.q_hat.row_strings())
    assert f"group 2 was fitted as {rows} (score {res.score:.6g}, " in err
    assert f"tie set of {len(res.ties)}): overlap rows disagree between groups" in err


def test_split_over_max_items_exits_3(workdir, capsys):
    """A split estimate over more items than a Q-matrix holds exits 3 with
    a message naming the cap, before any group is searched."""
    (workdir / "r22.txt").write_text("m=22\n" + "1" * 22 + "\n" + "0" * 22 + "\n")
    groups = []
    for s in range(0, 20, 2):
        groups += ["--groups", ",".join(str(i + 1) for i in range(s, s + 4))]
    code = run([
        "estimate", "--responses", "r22.txt", "--k", "2", "--mode", "noiseless",
        *groups, "--out", "split22.json",
    ])
    assert code == 3
    assert "m <= 20 items, got 22" in capsys.readouterr().err
    assert not (workdir / "split22.json").exists()


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


C3, G3 = ["--c", "0.9,0.85,0.8"], ["--g", "0.15,0.2,0.25"]


@pytest.mark.parametrize(
    "command, flags, names",
    [
        ("estimate", ["--mode", "noiseless"] + C3, "--c"),
        ("estimate", ["--mode", "noiseless"] + G3, "--g"),
        ("estimate", ["--mode", "known-g"] + C3 + G3, "--c"),
        ("estimate", ["--mode", "known-g"], "--g"),
        ("estimate", ["--mode", "known-cg"] + G3, "--c"),
        ("estimate", ["--mode", "known-cg"] + C3, "--g"),
        ("estimate", ["--mode", "bogus"], "mode"),
        ("tmatrix", ["--variant", "plain"] + G3, "--g"),
        ("tmatrix", ["--variant", "slip"] + C3 + G3, "--g"),
        ("tmatrix", ["--variant", "slip-guess"] + C3, "--g"),
        ("tmatrix", ["--variant", "slip-guess"] + G3, "--c"),
        ("tmatrix", ["--variant", "augmented"] + C3, "--g"),
        ("tmatrix", ["--variant", "augmented"] + G3, "--c"),
        ("tmatrix", ["--variant", "bogus"], "variant"),
    ],
    ids=[
        "noiseless-c", "noiseless-g", "known-g-c", "known-g-no-g", "known-cg-no-c",
        "known-cg-no-g", "unknown-mode", "plain-g", "slip-g", "slip-guess-no-g",
        "slip-guess-no-c", "augmented-no-g", "augmented-no-c", "unknown-variant",
    ],
)
def test_rate_flags_each_mode_and_variant_refuses(workdir, capsys, command, flags, names):
    # each --mode and --variant fixes some rates and reads the others from
    # --c and --g; a refused or missing flag exits 3 with a message naming it
    simulate_default(workdir, n=100)
    source = ["--responses", "resp.txt", "--k", "2"] if command == "estimate" else ["--q", "q.txt"]
    assert run([command] + source + flags) == 3
    assert names in capsys.readouterr().err


def test_estimate_budget_exit_code(workdir):
    simulate_default(workdir, n=100)
    base = ["estimate", "--responses", "resp.txt", "--k", "2", "--mode", "noiseless"]
    assert run(base + ["--budget", "5"]) == 4
    # invalid search arguments are validation errors, not empty tie sets, and
    # are refused before the enumeration's budget check
    for flags in (["--tie-tol", "-1"], ["--tie-tol", "nan"], ["--tie-tol", "nan", "--budget", "1"]):
        assert run(base + flags) == 3


def test_estimate_has_no_workers_option(workdir, capsys):
    # scoring is serial: neither the flag nor the config key exists
    simulate_default(workdir, n=100)
    base = ["estimate", "--responses", "resp.txt", "--k", "2", "--mode", "noiseless"]
    assert run(base + ["--workers", "2"]) == 3
    (workdir / "cfg.json").write_text(json.dumps({"workers": 2}))
    assert run(base + ["--config", "cfg.json"]) == 3
    assert "unknown config keys: workers" in capsys.readouterr().err


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


@pytest.mark.parametrize(
    "command, cfg, code, foreign",
    [
        ("simulate", {
            "q": "q.txt", "pstar": "pstar.json", "c": 0.9, "g": 0.1, "n": 10,
            "out": "sim.txt", "seed": 1,
        }, 0, "budget"),
        ("estimate", {
            "responses": "resp.txt", "k": 2, "mode": "known-cg", "c": 0.9, "g": 0.1,
            "groups": ["1,2", "2,3"], "budget": 1, "tie_tol": 1e-7, "seed": 1, "out": "est.json",
        }, 4, "pstar"),
        ("verify", {
            "q": "q.txt", "c": 0.9, "g": 0.1, "pstar": "pstar.json",
            "budget": 1, "out": "verify.json",
        }, 4, "seed"),
        ("tmatrix", {"q": "q.txt", "variant": "slip-guess", "c": 0.9, "g": 0.1, "out": "t.tsv"},
         0, "pstar"),
        ("alpha", {"responses": "resp.txt", "out": "alpha.tsv"}, 0, "k"),
    ],
    ids=["simulate", "estimate", "verify", "tmatrix", "alpha"],
)
def test_config_keys_are_the_options(workdir, capsys, command, cfg, code, foreign):
    # every option of the command but --config and --help is a config key,
    # and nothing else, not even an option of another command
    simulate_default(workdir, n=100)
    for key in ("config", "help", "handler", "config_keys", foreign):
        (workdir / "cfg.json").write_text(json.dumps({key: 1}))
        assert run([command, "--config", "cfg.json"]) == 3
        assert f"unknown config keys: {key}" in capsys.readouterr().err
    _, _, required, others = _COMMANDS[command]
    assert sorted(cfg) == sorted(required + others)
    (workdir / "cfg.json").write_text(json.dumps(cfg))
    assert run([command, "--config", "cfg.json"]) == code


def test_main_reuses_one_parser(workdir, capsys, monkeypatch):
    # main builds its parser on first use only, each command's --help
    # names every option of the command, and the top-level --help says
    # what dinaq does
    simulate_default(workdir, n=100)

    def refuse(*args, **kwargs):
        raise AssertionError("main built a parser again")

    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", refuse)
    assert run(["alpha", "--responses", "resp.txt"]) == 0
    capsys.readouterr()
    for command, (_, _, required, others) in _COMMANDS.items():
        with pytest.raises(SystemExit) as exc:
            run([command, "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        for name in required + others + ("config",):
            assert f"--{name.replace('_', '-')} " in text
    with pytest.raises(SystemExit) as exc:
        run(["--help"])
    assert exc.value.code == 0
    assert (
        "Learn the Q-matrix of a DINA model from item responses, and check its identifiability."
        in " ".join(capsys.readouterr().out.split())
    )


@pytest.mark.parametrize(
    "cfg, flags, message",
    [
        ({"c": [0.9, None, 0.9]}, [], "bad --c value [0.9, None, 0.9]: expected numbers"),
        ({"c": [0.9, True, 0.9]}, [], "bad --c value [0.9, True, 0.9]: expected numbers"),
        ({"c": "0.9,abc"}, [], "bad --c value '0.9,abc'"),
        ({"c": 10**400}, [], f"bad --c value {10**400!r}"),
        ({}, ["--c", "nan"], "--c values must lie in [0, 1]"),
        ({}, ["--c", "0.9,nan,0.9"], "--c values must lie in [0, 1]"),
        ({"groups": [[1, None]]}, [],
         "bad --groups value [1, None]: expected a list of item numbers"),
        ({"groups": [[1, 2.5]]}, [],
         "bad --groups value [1, 2.5]: expected a list of item numbers"),
        ({"groups": "1,2"}, [], "bad --groups value '1,2': expected a list of groups"),
        ({"k": [2]}, [], "bad --k value [2]: expected an integer"),
        ({"budget": [1]}, [], "bad --budget value [1]: expected an integer"),
        ({"k": 2.7}, [], "bad --k value 2.7: expected an integer"),
        ({"k": True}, [], "bad --k value True: expected an integer"),
        ({"seed": [1]}, [], "bad --seed value [1]: expected an integer"),
        ({"tie_tol": "0.1"}, [], "bad --tie-tol value '0.1': expected a number"),
        ({"tie_tol": False}, [], "bad --tie-tol value False: expected a number"),
        ({"responses": 5}, [], "bad --responses value 5: expected a string"),
        ({"mode": None}, [], "bad --mode value None: expected a string"),
        ({"k": "2"}, ["--k", "2"], "bad --k value '2': expected an integer"),
    ],
    ids=[
        "c-null", "c-bool", "c-text", "c-overflow", "c-nan", "c-nan-entry",
        "groups-null", "groups-float", "groups-string",
        "k-list", "budget-list", "k-float", "k-bool", "seed-list",
        "tie_tol-string", "tie_tol-bool", "responses-int", "mode-null",
        "k-overridden",
    ],
)
def test_config_value_types_exit_3(workdir, capsys, cfg, flags, message):
    # a value of the wrong type is a validation error naming its flag, never
    # a traceback with exit 1
    simulate_default(workdir, n=100)
    base = {"responses": "resp.txt", "k": 2, "mode": "known-cg", "c": 0.9, "g": 0.1}
    (workdir / "cfg.json").write_text(json.dumps({**base, **cfg}))
    code = run(["estimate", "--config", "cfg.json"] + flags)
    assert code == 3
    assert capsys.readouterr().err == f"error: {message}\n"


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


def test_verify_m5_k2_finishes_well_under_a_minute(workdir):
    # 121 non-equivalent candidates, each one rate search over five rates
    (workdir / "q5.txt").write_text("10\n01\n11\n10\n01\n")
    code = run([
        "verify", "--q", "q5.txt", "--c", "0.9,0.85,0.8,0.88,0.82",
        "--g", "0.15,0.2,0.25,0.1,0.18", "--pstar", "pstar.json", "--out", "verify.json",
    ])
    assert code == 0
    report = json.loads((workdir / "verify.json").read_text())
    assert len(report["checks"]["identifiability"]["deltas"]) == 121
    assert report["wall_time"] < 60.0


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


def test_bad_response_file_exit_code(workdir, capsys):
    (workdir / "bad.txt").write_text("m=3\n101\n1x1\n010\n")
    assert run(["estimate", "--responses", "bad.txt", "--k", "2",
                "--mode", "noiseless"]) == 3
    assert capsys.readouterr().err == (
        "error: bad response file bad.txt: "
        "bad response row '1x1' (expected 3 binary characters)\n"
    )


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


def _read_text_then_parse(path, kind, what):
    """The loader that reading from bytes replaced, kept as the reference:
    ``Path.read_text``, then ``kind.from_text``."""
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise cli.CliError(f"cannot read {what} file {path}: {exc}") from exc
    try:
        return kind.from_text(text)
    except ValueError as exc:
        raise cli.CliError(f"bad {what} file {path}: {exc}") from exc


RESPONSE_FILES = {
    "lf": lambda raw: raw,
    "crlf": lambda raw: raw.replace(b"\n", b"\r\n"),
    "bom": lambda raw: b"\xef\xbb\xbf" + raw,
    "latin-1": lambda raw: raw[:-2] + b"\xe9\n",
    "directory": None,
    "missing": None,
}


@pytest.mark.parametrize("command", ["estimate", "alpha"])
@pytest.mark.parametrize("variant", sorted(RESPONSE_FILES))
def test_response_bytes_read_like_read_text(workdir, capsys, monkeypatch, variant, command):
    """Reading a response file from its bytes gives the exit code, stderr
    and report of decoding it with ``read_text`` and parsing the text."""
    raw = simulate_default(workdir, n=500).read_bytes()
    path = workdir / f"resp-{variant}.txt"
    if variant == "directory":
        path.mkdir()
    elif variant != "missing":
        path.write_bytes(RESPONSE_FILES[variant](raw))
    argv = [command, "--responses", str(path)]
    if command == "estimate":
        argv += ["--k", "2", "--mode", "known-cg", "--c", "0.9,0.85,0.8", "--g", "0.15,0.2,0.25"]

    def outcome(out):
        capsys.readouterr()
        code = run(argv + ["--out", out])
        report = None
        if (workdir / out).exists():
            report = (workdir / out).read_text()
            if command == "estimate":
                report = json.loads(report)
                report.pop("wall_time")
        return code, capsys.readouterr(), report

    got = outcome("new.out")
    monkeypatch.setattr(cli, "_load", _read_text_then_parse)
    want = outcome("reference.out")
    assert got == want
    # the LF and CRLF files are read; every other one is a validation error
    assert (got[0] != 3) == (variant in ("lf", "crlf"))


def test_crlf_file_read_through_the_written_layout(workdir, monkeypatch):
    """A CRLF response file is not in the written layout as bytes, but its
    universal-newline decode is: ``from_text`` reads it through the layout
    check, not its line loop, and the report is the LF file's."""
    raw = simulate_default(workdir).read_bytes()
    (workdir / "resp-crlf.txt").write_bytes(raw.replace(b"\n", b"\r\n"))
    argv = ["estimate", "--k", "2", "--mode", "known-cg", "--c", "0.9,0.85,0.8", "--g", "0.15,0.2,0.25"]
    assert run(argv + ["--responses", "resp.txt", "--out", "lf.json"]) == 0
    layout = simulator._written_layout
    calls = []

    def spy(given):
        cells = layout(given)
        calls.append((given, cells))
        return cells

    # the CLI's call on the bytes and the one inside ``from_text``
    monkeypatch.setattr(cli, "_written_layout", spy)
    monkeypatch.setattr(simulator, "_written_layout", spy)
    assert run(argv + ["--responses", "resp-crlf.txt", "--out", "crlf.json"]) == 0
    (on_bytes, bytes_cells), (on_text, text_cells) = calls
    assert on_bytes == raw.replace(b"\n", b"\r\n") and bytes_cells is None
    assert on_text == raw.decode("ascii")
    assert np.array_equal(text_cells, layout(raw))
    lf, crlf = (json.loads((workdir / out).read_text()) for out in ("lf.json", "crlf.json"))
    lf.pop("wall_time"), crlf.pop("wall_time")
    assert lf == crlf
