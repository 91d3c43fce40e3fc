"""Replay of the golden corpus (``tests/golden/make.py``).

Structural fields must replay exactly everywhere. Float fields must match
to the byte only in the environment that wrote the file; elsewhere BLAS
kernels may round differently, so the largest absolute and relative
difference of each float field is printed instead of checked.
"""

import importlib.util
import json
from pathlib import Path

import pytest

_MAKE = Path(__file__).with_name("golden") / "make.py"
_spec = importlib.util.spec_from_file_location("golden_make", _MAKE)
make = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make)

CORPUS = json.loads(make.CORPUS.read_text())
RECORDED = {case["name"]: case for case in CORPUS["cases"]}
SAME_ENVIRONMENT = CORPUS["environment"] == make.environment()


def test_corpus_lists_every_case():
    assert list(RECORDED) == [spec["name"] for spec in make.CASES]


@pytest.mark.parametrize("spec", make.CASES, ids=[spec["name"] for spec in make.CASES])
def test_golden_case_replays(spec):
    recorded = RECORDED[spec["name"]]
    replayed = make.run_case(spec)
    problems, diffs = make.compare(recorded, replayed)
    for field, (gap, rel) in sorted(diffs.items()):
        print(f"{spec['name']}: {field}: max abs diff {gap:.3g}, max rel diff {rel:.3g}")
    assert not problems, problems
    if SAME_ENVIRONMENT:
        assert replayed == recorded
