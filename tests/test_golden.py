"""The CLI's canonical outputs on the fixture models match stored references.

``tests/golden/`` holds the stdout of ``pio spectrum``, ``pio discrete`` and
``pio delta-trace --path 1|2`` on ``models/fixture_{a,b,c}.json``.  The trace
window crosses the guard bands, so it holds NaN rows.  It also holds
``legendre_trig_model.json``, whose bases are ``legendre(0..3)`` and
``trig(0..2)`` and whose weights have odd and even literal powers, a
piecewise weight and literal ones, with the stdout of ``pio validate`` and
``pio spectrum`` on it, written before its expressions were sampled once
per model.  Keys, lengths and
NaN positions must match exactly, and every number to within the
root width of the search (``spectrum._ROOT_TOL``), relative: a change that moves a result by more than
the search's own resolution fails here.

``PYTHONPATH=src python tests/test_golden.py`` rewrites nothing: it prints
the name of each file whose bytes differ from what the CLI prints now (a
last digit may be stale and still within the tolerance), with the number in
it that moved most, relative as above, and how far, such as
``spectrum_legendre_trig.json $.discrete[0][0] 5.4e-11`` (``inf`` where the
two differ in more than numbers), or ``NAME text only`` where every number
parses to the same value and only its text changed.  Rewrite a file
only for a deliberate output change, and say so in CHANGES.md:
``PYTHONPATH=src python tests/test_golden.py NAME...`` rewrites the named
files and no other.
"""

import contextlib
import io
import json
import math
import sys
from pathlib import Path

import pytest

from pio.cli import main
from pio.spectrum import _ROOT_TOL

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
TOL = _ROOT_TOL  # relative to max(1, |reference|)
WINDOW = ["--lmin", "-0.5", "--lmax", "5.5", "--samples", "13"]

CASES = {}
for which in "abc":
    model = ["--model", str(ROOT / "models" / f"fixture_{which}.json")]
    CASES[f"spectrum_fixture_{which}.json"] = ["spectrum", *model]
    CASES[f"discrete_fixture_{which}.json"] = ["discrete", *model]
    for path in "12":
        CASES[f"delta-trace_fixture_{which}_path{path}.csv"] = [
            "delta-trace", *model, *WINDOW, "--path", path]
for command in ("validate", "spectrum"):
    CASES[f"{command}_legendre_trig.json"] = [
        command, "--model", str(GOLDEN / "legendre_trig_model.json")]


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


def largest_move(got, ref, where="$"):
    """``(move, where)`` of the number in ``ref`` that moved most in ``got``, relative as in
    ``assert_close``; the move is ``inf`` where the two differ in anything but numbers."""
    if isinstance(ref, dict) and isinstance(got, dict) and sorted(got) == sorted(ref):
        moves = (largest_move(got[key], ref[key], f"{where}.{key}") for key in ref)
    elif isinstance(ref, list) and isinstance(got, list) and len(got) == len(ref):
        moves = (largest_move(g, r, f"{where}[{i}]") for i, (g, r) in enumerate(zip(got, ref)))
    elif all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (got, ref)):
        if math.isnan(got) or math.isnan(ref):
            return (0.0 if math.isnan(got) and math.isnan(ref) else math.inf), where
        return abs(got - ref) / max(1.0, abs(ref)), where
    else:
        return (0.0 if got == ref else math.inf), where
    return max(moves, default=(0.0, where))


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name):
    ref = parse(name, (GOLDEN / name).read_text(encoding="utf-8"))
    assert_close(parse(name, run(CASES[name])), ref)


if __name__ == "__main__":
    unknown = sorted(set(sys.argv[1:]) - set(CASES))
    if unknown:
        sys.exit(f"no golden case named {', '.join(unknown)}")
    for name in sys.argv[1:]:
        (GOLDEN / name).write_text(run(CASES[name]), encoding="utf-8")
    if len(sys.argv) == 1:
        for name, argv in CASES.items():
            ref, got = (GOLDEN / name).read_text(encoding="utf-8"), run(argv)
            if ref != got:
                move, where = largest_move(parse(name, got), parse(name, ref))
                print(f"{name} {where} {move:.1e}" if move else f"{name} text only")
