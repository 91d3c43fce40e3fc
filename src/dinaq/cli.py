"""Learn the Q-matrix of a DINA model from item responses, and check its identifiability.

The ``dinaq`` command line interface.

Subcommands::

    simulate   draw synthetic response data from a DINA configuration
    estimate   fit a Q-matrix to a response file (exhaustive or split search)
    verify     completeness, augmented-rank and identifiability checks for a Q
    tmatrix    dump a response-rate design matrix as TSV
    alpha      dump empirical joint success rates as TSV

Every command is a pure function of its input files, flags, and seed. Exit
codes: 0 success, 2 ambiguity (estimation ties or failed verification
checks), 3 validation problems, 4 enumeration budget exceeded.

Item indices shown to users (combo labels, --groups) are 1-based; the Python
API underneath is 0-based throughout. Flags override values from an optional
--config JSON file; keys in that file must match flag names (dashes as
underscores), anything else is rejected.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import sys
import time
import warnings
from pathlib import Path

import numpy as np

from . import __version__
from .core import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    ProfileDistribution,
    QMatrix,
    bit_label,
    profile_order,
)
from .estimator import (
    DEFAULT_TIE_TOL,
    AlignmentError,
    DegenerateSampleError,
    EstimationResult,
    check_identifiability,
    estimate_q,
    estimate_q_unknown_c,
    split_estimate,
)
from .simulator import ResponseData, SimConfig, _written_layout, compute_alpha, simulate
from .tmatrix import ComboOrder, DinaParams, design

EXIT_OK = 0
EXIT_TIES = 2
EXIT_VALIDATION = 3
EXIT_BUDGET = 4

_RANK_TOL = 1e-10


class CliError(Exception):
    """User-facing validation failure; maps to exit code 3."""


class _Parser(argparse.ArgumentParser):
    # argparse usage errors are validation failures, not exit code 2
    def error(self, message: str) -> None:  # type: ignore[override]
        raise CliError(message)


def _read_bytes(path: str, what: str) -> bytes:
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise CliError(f"cannot read {what} file {path}: {exc}") from exc


def _decode(raw: bytes, path: str, what: str) -> str:
    """``raw`` decoded as ``Path.read_text`` decodes a file: in the default
    text encoding, with universal newlines."""
    try:
        return io.TextIOWrapper(io.BytesIO(raw), encoding=io.text_encoding(None)).read()
    except UnicodeDecodeError as exc:
        raise CliError(f"cannot read {what} file {path}: {exc}") from exc


def _read_text(path: str, what: str) -> str:
    return _decode(_read_bytes(path, what), path, what)


def _load(path: str, kind, what: str):
    """``kind.from_text`` of the ``what`` file at ``path`` (a QMatrix or
    ResponseData); a file it cannot read or parse is a CliError. A response
    file in the layout that ``simulate`` writes is read straight from its
    bytes, with no decode (``_written_layout``)."""
    raw = _read_bytes(path, what)
    cells = _written_layout(raw) if kind is ResponseData else None
    if cells is not None:
        return ResponseData._from_checked(cells)
    try:
        return kind.from_text(_decode(raw, path, what))
    except ValueError as exc:
        raise CliError(f"bad {what} file {path}: {exc}") from exc


def _is_number(v) -> bool:
    # JSON true/false arrive as bool, an int subclass; they are not numbers here
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _parse_rates(value, m: int, name: str) -> np.ndarray:
    """Rate vectors arrive as "0.8,0.7,...", a single broadcast value, or a
    JSON list via --config."""
    if value is None:
        raise CliError(f"--{name} is required here")
    try:
        if _is_number(value):
            vals = [float(value)] * m
        elif isinstance(value, str):
            vals = [float(p) for p in value.split(",") if p.strip()]
            if len(vals) == 1:
                vals = vals * m
        elif isinstance(value, list) and all(_is_number(v) for v in value):
            vals = [float(v) for v in value]
        else:
            raise CliError(f"bad --{name} value {value!r}: expected numbers")
    except (ValueError, OverflowError) as exc:
        raise CliError(f"bad --{name} value {value!r}") from exc
    if len(vals) != m:
        raise CliError(f"--{name} needs {m} values, got {len(vals)}")
    # NaN fails every comparison, so it is rejected here too
    if not all(0.0 <= v <= 1.0 for v in vals):
        raise CliError(f"--{name} values must lie in [0, 1]")
    return np.array(vals)


def _load_pstar(value, k: int) -> ProfileDistribution:
    mapping = value
    if isinstance(value, str):
        # inline JSON is an object, so it opens with "{"; any other string
        # names a file, and a failed read names it
        text = value if value.lstrip().startswith("{") else _read_text(value, "p*")
        try:
            mapping = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CliError(f"--pstar is not valid JSON: {exc}") from exc
    if not isinstance(mapping, dict):
        raise CliError("--pstar must be a JSON object of profile label to probability")
    try:
        return ProfileDistribution.from_dict(k, mapping)
    except ValueError as exc:
        raise CliError(f"bad profile distribution: {exc}") from exc


def _parse_groups(value) -> list[list[int]]:
    """1-based comma lists from flags (repeatable) or lists via config;
    returned 0-based."""
    if not isinstance(value, list):
        raise CliError(f"bad --groups value {value!r}: expected a list of groups")
    groups = []
    for grp in value:
        if isinstance(grp, str):
            try:
                items = [int(p) for p in grp.split(",") if p.strip()]
            except ValueError as exc:
                raise CliError(f"bad --groups value {grp!r}") from exc
        elif isinstance(grp, list) and all(
            isinstance(v, int) and not isinstance(v, bool) for v in grp
        ):
            items = grp
        else:
            raise CliError(f"bad --groups value {grp!r}: expected a list of item numbers")
        if any(i < 1 for i in items):
            raise CliError("group item indices are 1-based")
        groups.append([i - 1 for i in items])
    return groups


def _check_config_value(key: str, value) -> None:
    # a value must have its option's type, where the option has one
    kind = _OPTIONS[key].get("type")
    if kind is None:
        return
    if kind is int:
        ok, want = isinstance(value, int) and not isinstance(value, bool), "an integer"
    elif kind is float:
        ok, want = _is_number(value), "a number"
    else:
        ok, want = isinstance(value, str), "a string"
    if not ok:
        raise CliError(f"bad --{key.replace('_', '-')} value {value!r}: expected {want}")


def _apply_config(args: argparse.Namespace, keys: tuple[str, ...]) -> None:
    """Set each option in ``keys`` that no flag gave from the --config
    file, if there is one; a key outside ``keys`` or a value of the wrong
    type is a CliError."""
    if args.config is None:
        return
    try:
        cfg = json.loads(_read_text(args.config, "config"))
    except json.JSONDecodeError as exc:
        raise CliError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise CliError("config file must hold a JSON object")
    unknown = sorted(set(cfg) - set(keys))
    if unknown:
        raise CliError(f"unknown config keys: {', '.join(unknown)}")
    for key in keys:
        if key in cfg:
            _check_config_value(key, cfg[key])
            if getattr(args, key) is None:
                setattr(args, key, cfg[key])


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _emit_json(report: dict, out: str | None) -> None:
    _emit(json.dumps(report, indent=2, sort_keys=True) + "\n", out)


# The (c, g) that each estimate --mode and tmatrix --variant fixes: a number
# fixes that rate for every item, "flag" reads it from --c or --g, and None
# leaves it to the search. A flag is refused wherever it is not read.
_RATES = {
    "mode": {
        "noiseless": (1.0, 0.0),
        "known-cg": ("flag", "flag"),
        "known-g": (None, "flag"),
    },
    "variant": {
        "plain": (1.0, 0.0),
        "slip": ("flag", 0.0),
        "slip-guess": ("flag", "flag"),
        "augmented": ("flag", "flag"),
    },
}


def _load_model(args: argparse.Namespace) -> tuple[QMatrix, DinaParams, ProfileDistribution, dict]:
    """The (Q, params, p*) of --q, --c, --g and --pstar, and the report
    fields that echo them."""
    q = _load(args.q, QMatrix, "Q-matrix")
    params = DinaParams(_parse_rates(args.c, q.m, "c"), _parse_rates(args.g, q.m, "g"))
    p_star = _load_pstar(args.pstar, q.k)
    echo = {
        "q": q.row_strings(),
        "c": [float(v) for v in params.c],
        "g": [float(v) for v in params.g],
        "p_star": p_star.as_dict(),
    }
    return q, params, p_star, echo


def _table_rates(args: argparse.Namespace, m: int, what: str) -> list[np.ndarray | None]:
    """The (c, g) per-item rates that ``_RATES`` gives the --mode or
    --variant (``what``) in ``args``, None for a rate left to the search."""
    name = getattr(args, what)
    if name not in _RATES[what]:
        raise CliError(f"unknown {what} {name!r}")
    rules = list(zip(("c", "g"), _RATES[what][name]))
    for flag, rule in rules:
        if rule != "flag" and getattr(args, flag) is not None:
            raise CliError(f"{what} {name} takes no --{flag}")
    return [
        _parse_rates(getattr(args, flag), m, flag) if rule == "flag"
        else None if rule is None else np.full(m, rule)
        for flag, rule in rules
    ]


# ---------------------------------------------------------------------------
# subcommands

def _cmd_simulate(args: argparse.Namespace) -> int:
    if args.seed is None:
        raise CliError("--seed is required: every stochastic command must be seeded")
    q, params, p_star, echo = _load_model(args)
    # a warning about the configuration is one stable stderr line
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        config = SimConfig(q=q, params=params, p_star=p_star, n=int(args.n), seed=int(args.seed))
    for warning in caught:
        print(f"warning: {warning.message}", file=sys.stderr)
    responses, _ = simulate(config)
    out = Path(args.out)
    out.write_text(responses.to_text())
    meta = {
        "schema": "simulate_meta.v1",
        **echo,
        "n": config.n,
        "seed": config.seed,
        "m": q.m,
        "k": q.k,
        "out": str(out),
        "version": __version__,
    }
    _emit_json(meta, f"{out}.meta.json")
    print(f"wrote {out} ({config.n} subjects, {q.m} items) and {out}.meta.json")
    return EXIT_OK


def _estimate_report(
    mode: str,
    result: EstimationResult | None,
    *,
    q_hat: QMatrix,
    seed,
    wall: float,
    groups=None,
) -> dict:
    return {
        "schema": "estimate_report.v1",
        "mode": mode,
        "q_hat": q_hat.row_strings(),
        "score": None if result is None else float(result.score),
        "ties": [] if result is None else [t.row_strings() for t in result.ties],
        "p_tilde": None if result is None else result.p_tilde.as_dict(),
        "c_hat": (
            None
            if result is None or result.c_hat is None
            else [float(v) for v in result.c_hat]
        ),
        "n_candidates": None if result is None else result.n_candidates,
        "groups": groups,
        "seed": None if seed is None else int(seed),
        "wall_time": wall,
    }


def _cmd_estimate(args: argparse.Namespace) -> int:
    responses = _load(args.responses, ResponseData, "response")
    m, k = responses.m, int(args.k)
    if k < 1:
        raise CliError("--k must be positive")
    mode = args.mode
    c, g = _table_rates(args, m, "mode")
    # with c fixed the search takes the rates as params, else g alone
    params = None
    if c is not None:
        params, g = DinaParams(c, g), None
        if np.abs(params.c - params.g).min() == 0.0:
            raise CliError(
                f"mode {mode} requires c_i != g_i for every item "
                "(capable and guessing rates must separate)"
            )
    budget = DEFAULT_BUDGET if args.budget is None else int(args.budget)
    tie_tol = DEFAULT_TIE_TOL if args.tie_tol is None else float(args.tie_tol)
    t0 = time.perf_counter()

    if args.groups:
        groups = _parse_groups(args.groups)
        q_hat = split_estimate(
            responses, groups, k, params=params, g=g, budget=budget, tie_tol=tie_tol
        )
        report = _estimate_report(
            mode, None, q_hat=q_hat, seed=args.seed,
            wall=time.perf_counter() - t0,
            groups=[[i + 1 for i in grp] for grp in groups],
        )
        _emit_json(report, args.out)
        return EXIT_OK

    alpha = compute_alpha(responses, ComboOrder.saturated(m))
    if params is None:
        result = estimate_q_unknown_c(alpha, g, k, budget=budget, tie_tol=tie_tol)
    else:
        result = estimate_q(alpha, params, k, budget=budget, tie_tol=tie_tol)
    report = _estimate_report(
        mode, result, q_hat=result.q_hat, seed=args.seed,
        wall=time.perf_counter() - t0,
    )
    _emit_json(report, args.out)
    return EXIT_TIES if len(result.ties) > 1 else EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    q, params, p_star, echo = _load_model(args)
    budget = DEFAULT_BUDGET if args.budget is None else int(args.budget)
    t0 = time.perf_counter()
    order = ComboOrder.saturated(q.m)
    aug = np.vstack([design(q, params.c, params.g, order), np.ones((1, 1 << q.k))])
    aug_minsv = float(np.linalg.svd(aug, compute_uv=False).min())
    # an incomplete Q-matrix skips the probe, which says so in ``complete``
    report_id = check_identifiability(q, params, p_star, budget=budget)
    checks: dict[str, dict] = {
        "completeness": {"passed": bool(report_id.complete)},
        "augmented_rank": {
            "passed": aug_minsv > _RANK_TOL,
            "min_singular_value": aug_minsv,
            "min_rate_separation": float(np.abs(params.c - params.g).min()),
        },
    }
    if report_id.complete:
        checks["identifiability"] = {
            "passed": bool(report_id.identifiable),
            "min_delta": report_id.min_delta,
            "threshold": report_id.threshold,
            "flagged": [",".join(c.row_strings()) for c in report_id.flagged],
            "deltas": {
                ",".join(c.row_strings()): float(dlt) for c, dlt in report_id.deltas
            },
            "notes": list(report_id.notes),
        }
    else:
        checks["identifiability"] = {
            "passed": None,
            "skipped": "completeness check failed; identifiability probe needs a complete Q-matrix",
        }

    all_passed = all(chk.get("passed") is True for chk in checks.values())
    report = {
        "schema": "verify_report.v2",
        **echo,
        "all_passed": all_passed,
        "checks": checks,
        "wall_time": time.perf_counter() - t0,
    }
    _emit_json(report, args.out)
    return EXIT_OK if all_passed else EXIT_TIES


def _cmd_tmatrix(args: argparse.Namespace) -> int:
    q = _load(args.q, QMatrix, "Q-matrix")
    order = ComboOrder.saturated(q.m)
    c, g = _table_rates(args, q.m, "variant")
    values = design(q, c, g, order)
    row_labels = order.labels()
    col_labels = [bit_label(mask, q.k) for mask in profile_order(q.k)]
    # all but augmented drop the zero-profile column; augmented keeps it as
    # GUESS and appends a ONES row
    if args.variant == "augmented":
        values = np.vstack([values, np.ones(values.shape[1])])
        row_labels.append("ONES")
        col_labels.insert(0, "GUESS")
    else:
        values = values[:, 1:]
    lines = ["combo\t" + "\t".join(col_labels)]
    for lab, row in zip(row_labels, values):
        lines.append(lab + "\t" + "\t".join(repr(float(v)) for v in row))
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _cmd_alpha(args: argparse.Namespace) -> int:
    responses = _load(args.responses, ResponseData, "response")
    alpha = compute_alpha(responses, ComboOrder.saturated(responses.m))
    lines = ["combo\trate"]
    lines += [
        f"{lab}\t{repr(float(r))}"
        for lab, r in zip(alpha.order.labels(), alpha.rates)
    ]
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------


# Every option, once: the keyword arguments of its add_argument call. c, g,
# pstar and groups have no type, so a --config file may give them as JSON
# numbers, lists or objects, which their own parsers check.
_OPTIONS = {
    "q": dict(type=str, help="Q-matrix file (one 0/1 row per item)"),
    "responses": dict(type=str, help="response file"),
    "pstar": dict(help="profile distribution: JSON file or inline JSON"),
    "c": dict(help="capable success rates, comma separated or one broadcast value"),
    "g": dict(help="guessing rates, same format as --c"),
    "n": dict(type=int, help="number of subjects"),
    "k": dict(type=int, help="number of attributes to fit"),
    "mode": dict(type=str, help="noiseless | known-cg (reads --c, --g) | known-g (reads --g)"),
    "variant": dict(
        type=str, help="plain | slip (reads --c) | slip-guess, augmented (read --c, --g)"
    ),
    "groups": dict(
        action="append", help="split estimation: 1-based items like 1,2,3,4; repeat per group"
    ),
    "budget": dict(type=int, help="candidate enumeration budget"),
    "tie_tol": dict(type=float, help="tie tolerance on scores"),
    "seed": dict(type=int, help="run seed: simulate requires it, estimate echoes it"),
    "out": dict(type=str, help="output path (default stdout); simulate writes its responses here"),
}

# Each command: its help, its handler, the options it requires (checked in
# this order once --config is applied) and its other options. A command's
# options are also the keys of its --config file.
_COMMANDS = {
    "simulate": (
        "draw synthetic DINA response data", _cmd_simulate,
        ("q", "pstar", "c", "g", "n", "out"), ("seed",),
    ),
    "estimate": (
        "fit a Q-matrix to response data", _cmd_estimate,
        ("responses", "k", "mode"), ("c", "g", "groups", "budget", "tie_tol", "seed", "out"),
    ),
    "verify": (
        "rank and identifiability checks for a Q-matrix", _cmd_verify,
        ("q", "c", "g", "pstar"), ("budget", "out"),
    ),
    "tmatrix": (
        "dump a response-rate design matrix", _cmd_tmatrix, ("q", "variant"), ("c", "g", "out"),
    ),
    "alpha": ("dump empirical joint success rates", _cmd_alpha, ("responses",), ("out",)),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``dinaq`` parser, built from ``_COMMANDS`` and ``_OPTIONS`` on
    first use and shared by every later call."""
    parser = _Parser(prog="dinaq", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"dinaq {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (text, _, required, others) in _COMMANDS.items():
        p_cmd = sub.add_parser(command, help=text)
        for name in required + others:
            p_cmd.add_argument("--" + name.replace("_", "-"), **_OPTIONS[name])
        p_cmd.add_argument("--config", help="JSON config; flags override its keys")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _, handler, required, others = _COMMANDS[args.command]
        _apply_config(args, required + others)
        for name in required:
            if getattr(args, name) is None:
                raise CliError(f"--{name.replace('_', '-')} is required")
        return handler(args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (CliError, AlignmentError, DegenerateSampleError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
