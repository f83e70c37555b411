"""The CLI's canonical outputs on the fixture models match stored references.

``tests/golden/`` holds the stdout of ``pio spectrum``, ``pio discrete`` and
``pio delta-trace --path 1|2`` on ``models/fixture_{a,b,c}.json``, written
before the operator entry points shared one admission rule.  The trace
window crosses the guard bands, so it holds NaN rows.  Keys, lengths and
NaN positions must match exactly, and every number to within the default
``search.root_tol``, relative: a change that moves a result by more than
the search's own resolution fails here.

Rewrite the files only for a deliberate output change, and say so in
CHANGES.md: ``PYTHONPATH=src python tests/test_golden.py``.
"""

import contextlib
import io
import json
import math
from pathlib import Path

import pytest

from pio.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
TOL = 1e-10  # default search.root_tol, relative to max(1, |reference|)
WINDOW = ["--lmin", "-0.5", "--lmax", "5.5", "--samples", "13"]

CASES = {}
for which in "abc":
    model = ["--model", str(ROOT / "models" / f"fixture_{which}.json")]
    CASES[f"spectrum_fixture_{which}.json"] = ["spectrum", *model]
    CASES[f"discrete_fixture_{which}.json"] = ["discrete", *model]
    for path in "12":
        CASES[f"delta-trace_fixture_{which}_path{path}.csv"] = [
            "delta-trace", *model, *WINDOW, "--path", path]


def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


def parse(name, text):
    if name.endswith(".json"):
        return json.loads(text)
    header, *rows = text.splitlines()
    return {"header": header, "rows": [[float(v) for v in row.split(",")] for row in rows]}


def assert_close(got, ref, where="$"):
    if isinstance(ref, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(ref), where
        for key in ref:
            assert_close(got[key], ref[key], f"{where}.{key}")
    elif isinstance(ref, list):
        assert isinstance(got, list) and len(got) == len(ref), where
        for i, (g, r) in enumerate(zip(got, ref)):
            assert_close(g, r, f"{where}[{i}]")
    elif isinstance(ref, (bool, str)) or ref is None:
        assert got == ref, where
    else:
        assert isinstance(got, (int, float)) and not isinstance(got, bool), where
        assert math.isnan(got) == math.isnan(ref), where
        if not math.isnan(ref):
            assert abs(got - ref) <= TOL * max(1.0, abs(ref)), (where, got, ref)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name):
    ref = parse(name, (GOLDEN / name).read_text(encoding="utf-8"))
    assert_close(parse(name, run(CASES[name])), ref)


if __name__ == "__main__":
    for name, argv in CASES.items():
        (GOLDEN / name).write_text(run(argv), encoding="utf-8")
