"""Output checks for benchmark jobs.

A job fails on an exception, an exit code other than 0 (success) or 2
(ambiguity, or failed verify checks), or a report that is missing or fails
the JSON schema it names from ``src/dinaq/schemas``. A job recovers when its
answer matches the generating truth. Equivalence of Q-matrices is judged
here, not with the program's own helpers, so a defect in them cannot hide.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import jsonschema

EXIT_OK, EXIT_AMBIGUOUS = 0, 2


def _columns(rows: list[str]) -> list[str]:
    return sorted("".join(r[j] for r in rows) for j in range(len(rows[0])))


def equivalent(rows_a: list[str], rows_b: list[str]) -> bool:
    """Same Q-matrix up to a column permutation."""
    return len(rows_a) == len(rows_b) and _columns(rows_a) == _columns(rows_b)


class Checker:
    def __init__(self, schema_dir: Path):
        self._schema_dir = schema_dir
        self._validators: dict[str, jsonschema.protocols.Validator] = {}

    def _validator(self, name: str):
        if name not in self._validators:
            schema = json.loads((self._schema_dir / f"{name}.schema.json").read_text())
            cls = jsonschema.validators.validator_for(schema)
            self._validators[name] = cls(schema)
        return self._validators[name]

    def check(self, expect: dict, code: int | None, out: Path) -> tuple[bool, bool, dict]:
        """Returns (failed, recovered, discrete outputs for the digest)."""
        if code is None or code not in (EXIT_OK, EXIT_AMBIGUOUS):
            return True, False, {"code": code}
        try:
            report = json.loads(out.read_text())
            self._validator(str(report["schema"])).validate(report)
        except (OSError, ValueError, KeyError, TypeError, jsonschema.ValidationError):
            return True, False, {"code": code, "report": "invalid"}
        if "q" in expect:
            ties = report["ties"]
            recovered = code == EXIT_OK and len(ties) <= 1 and equivalent(report["q_hat"], expect["q"])
            return False, recovered, {"code": code, "q_hat": report["q_hat"], "ties": ties}
        ident = report["checks"]["identifiability"]
        flagged = sorted(ident.get("flagged", []))
        if expect["identifiable"]:
            recovered = code == EXIT_OK and report["all_passed"] is True
        else:
            recovered = code == EXIT_AMBIGUOUS and ident["passed"] is False and bool(flagged)
        passed = {name: chk.get("passed") for name, chk in sorted(report["checks"].items())}
        return False, recovered, {"code": code, "passed": passed, "flagged": flagged}


def digest(outputs: list[dict]) -> str:
    """Hash of the discrete outputs of every job, in job order."""
    blob = json.dumps(outputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]
