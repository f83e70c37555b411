"""Command line behavior: outputs, exit codes, determinism, fuzzing."""

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pio.cli import _build_parser, main
from pio.expr import parse_expr2
from pio.model import load_model_file
from pio.pie import solve_pie
from pio.spectrum import sigma_full

from conftest import fixture_a_dict, fixture_b_dict, fixture_c_dict
from test_inputs import refusal


@pytest.fixture()
def model_a(tmp_path):
    path = tmp_path / "a.json"
    path.write_text(json.dumps(fixture_a_dict()))
    return str(path)


@pytest.fixture()
def model_b(tmp_path):
    path = tmp_path / "b.json"
    path.write_text(json.dumps(fixture_b_dict()))
    return str(path)


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    return lines[0], [line.split(",") for line in lines[1:]]


def test_validate_ok(model_a, capsys):
    assert main(["validate", "--model", model_a]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True
    assert len(payload["checks"]) == 6


def test_validate_bad_model_exits_2(tmp_path, capsys):
    doc = fixture_a_dict()
    doc["channel1"]["weights"] = ["1/t"]  # blows up at the left edge
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", "--model", str(path)]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is False


@pytest.mark.parametrize("axis,point", [("x", 5.0), ("x", 0.0), ("y", 1.0), ("y", -2.0)])
def test_an_extra_breakpoint_outside_its_interval_exits_1(tmp_path, axis, point, capsys):
    # it was dropped without a word, and validate exited 0
    doc = fixture_a_dict()
    doc["quadrature"] = {f"extra_breakpoints_{axis}": [point]}
    path = tmp_path / "breakpoint.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", "--model", str(path)]) == 1
    assert capsys.readouterr() == ("", f"input error: breakpoint {point!r} is not interior to [0.0, 1.0]\n")


def test_missing_model_file_exits_1(capsys):
    assert main(["spectrum", "--model", "/no/such/file.json"]) == 1
    assert "input error" in capsys.readouterr().err


def test_malformed_json_exits_1(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["validate", "--model", str(path)]) == 1


def test_schema_violation_exits_1(tmp_path):
    doc = fixture_a_dict()
    doc["channel1"]["basis"] = "1"  # must be a list
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["spectrum", "--model", str(path)]) == 1


def test_usage_errors_exit_1(capsys):
    assert main([]) == 1
    assert main(["bogus"]) == 1
    assert main(["spectrum"]) == 1  # --model required
    assert main(["solve", "--model", "x.json"]) == 1  # --tau and --rhs required


def test_spectrum_report(model_a, tmp_path):
    out = tmp_path / "rep.json"
    assert main(["spectrum", "--model", model_a, "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["essential"]["points"] == [0, 2, 3]
    (lam, mult), = payload["discrete"]
    assert abs(lam - 5.0) < 1e-8 and mult == 1
    assert payload["bound"] == 5


def test_spectrum_deterministic_bytes(model_b, tmp_path):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["spectrum", "--model", model_b, "--out", str(out1)]) == 0
    assert main(["spectrum", "--model", model_b, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def model_with_search(tmp_path, search):
    doc = fixture_a_dict()
    doc["search"] = search
    path = tmp_path / "searched.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_spectrum_search_overrides(tmp_path):
    # search settings come from the model file's search block, and are echoed
    model = model_with_search(tmp_path, {"scan_points": 128, "margin": 0.01})
    out = tmp_path / "rep.json"
    assert main(["spectrum", "--model", model, "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["settings"]["scan_points"] == 128
    assert payload["settings"]["margin"] == 0.01


@pytest.mark.parametrize("key,value", [("root_tol", 0), ("scan_points", 1), ("margin", -1)])
def test_bad_search_override_exits_1(tmp_path, key, value):
    # a child process with a timeout: root_tol 0 used to hang the bisection;
    # the search now locates roots to a fixed width, so root_tol is an unknown key
    model = model_with_search(tmp_path, {key: value})
    proc = subprocess.run(
        [sys.executable, "-m", "pio.cli", "spectrum", "--model", model],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 1
    expected = "search: unknown keys ['root_tol']" if key == "root_tol" else f"search.{key} "
    assert f"input error: {expected}" in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("command", [["spectrum"], ["solve", "--tau", "0.1", "--rhs", "1"]],
                         ids=["spectrum", "solve"])
def test_out_into_a_missing_directory_exits_1(tmp_path, model_a, command, capsys):
    # the OSError of an --out file that cannot be written is an input error, no traceback
    out = tmp_path / "missing" / "x.out"
    assert main([command[0], "--model", model_a, "--out", str(out), *command[1:]]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error: ") and captured.err.count("\n") == 1
    assert str(out) in captured.err and not out.parent.exists()


def test_rank_tol_in_the_search_block_is_an_unknown_key(tmp_path, capsys):
    # the rank rule of the solvers is a constant, no search setting
    model = model_with_search(tmp_path, {"rank_tol": 1e-8})
    assert main(["spectrum", "--model", model]) == 1
    captured = capsys.readouterr()
    assert "search: unknown keys ['rank_tol']" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("flag", ["--margin", "--scan-points", "--root-tol", "--rank-tol"])
@pytest.mark.parametrize("command", ["spectrum", "discrete"])
def test_search_flags_are_gone(model_a, command, flag, capsys):
    # settings live in the model file only; the old flags are unrecognised
    assert main([command, "--model", model_a, flag, "0.1"]) == 1
    assert f"unrecognized arguments: {flag} 0.1" in capsys.readouterr().err


def test_discrete_list(model_b, capsys):
    assert main(["discrete", "--model", model_b]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload) == 1
    assert abs(payload[0][0] - 1.2550009749) < 1e-6


def test_solve_csv_and_residual(model_a, tmp_path, capsys):
    out = tmp_path / "sol.csv"
    assert main(["solve", "--model", model_a, "--tau", "0.1",
                 "--rhs", "1", "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == "x,y,value"
    assert len(rows) == 32 * 32
    vals = np.array([float(r[2]) for r in rows])
    assert np.allclose(vals, 2.0, atol=1e-10)
    info = json.loads(capsys.readouterr().out)
    assert info["residual"] < 1e-10
    assert info["tau"] == 0.1


def test_solve_accepts_two_variable_rhs(model_b, tmp_path):
    out = tmp_path / "sol.csv"
    code = main(["solve", "--model", model_b, "--tau", "0.3",
                 "--rhs", "x*y + sin(x) + 1", "--out", str(out)])
    assert code == 0
    header, rows = read_csv(out)
    assert header == "x,y,value" and len(rows) == 32 * 32


def test_solve_eigen_parameter_exits_3(model_a, capsys):
    assert main(["solve", "--model", model_a, "--tau", "0.2", "--rhs", "1"]) == 3
    assert "NonUniqueSolution" in capsys.readouterr().err


def test_solve_singular_channel_exits_3(model_a, capsys):
    assert main(["solve", "--model", model_a, "--tau", "0.5", "--rhs", "1"]) == 3
    assert "OutsideTheory" in capsys.readouterr().err


@pytest.mark.parametrize("tau,rhs", [("0.1", "log(x-0.5)"), ("1e-310", "1")], ids=["rhs log", "tau 1e-310"])
def test_solve_model_errors_exit_2(model_a, tau, rhs, capsys):
    # a right-hand side that is not finite on the grid, and a tau whose
    # reciprocal overflows: DomainError, which no narrower handler takes
    assert main(["solve", "--model", model_a, "--tau", tau, "--rhs", rhs]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("model error: ")


def test_solve_bad_rhs_exits_1(model_a, capsys):
    assert main(["solve", "--model", model_a, "--tau", "0.1", "--rhs", "x +"]) == 1
    assert main(["solve", "--model", model_a, "--tau", "0.1", "--rhs", "q*2"]) == 1


def test_grid_csv_is_the_loop_over_the_nodes(model_b, tmp_path):
    # the writer builds one numpy table; the reference is a loop over the nodes, x slowest
    model = load_model_file(model_b)
    f = solve_pie(model, 0.3, model.grid(parse_expr2("x*y + sin(x) + 1"))).values
    xs, ys = model.rule_x.nodes, model.rule_y.nodes
    expected = "x,y,value\n" + "".join(
        ",".join(str(float(v)) for v in (x, y, f[i, j])) + "\n"
        for i, x in enumerate(xs) for j, y in enumerate(ys))
    out = tmp_path / "sol.csv"
    assert main(["solve", "--model", model_b, "--tau", "0.3", "--rhs", "x*y + sin(x) + 1",
                 "--out", str(out)]) == 0
    assert out.read_text() == expected


def test_delta_trace_golden_row(model_a, tmp_path):
    out = tmp_path / "trace.csv"
    assert main(["delta-trace", "--model", model_a, "--lmin", "3.5",
                 "--lmax", "6", "--samples", "6", "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == "lambda,re_delta,im_delta,path"
    row4 = rows[1]
    assert float(row4[0]) == 4.0
    assert abs(float(row4[1]) - 8.0) < 1e-9
    assert float(row4[2]) == 0.0
    assert row4[3] == "1"


def test_delta_trace_nan_in_guard_band(model_a, tmp_path):
    out = tmp_path / "trace.csv"
    assert main(["delta-trace", "--model", model_a, "--lmin", "1.9",
                 "--lmax", "2.1", "--samples", "21", "--out", str(out)]) == 0
    _, rows = read_csv(out)
    center = [r for r in rows if abs(float(r[0]) - 2.0) < 1e-9]
    assert center and np.isnan(float(center[0][1]))


def test_delta_trace_path_flag(model_b, tmp_path):
    out = tmp_path / "trace.csv"
    assert main(["delta-trace", "--model", model_b, "--lmin", "1.5",
                 "--lmax", "2.0", "--samples", "3", "--path", "2",
                 "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert all(r[3] == "2" for r in rows)


def test_delta_trace_bad_window_exits_1(model_a, capsys):
    # the one check that spans two flags, in delta_trace_rows's words
    assert main(["delta-trace", "--model", model_a, "--lmin", "5",
                 "--lmax", "4", "--samples", "6"]) == 1
    assert capsys.readouterr() == ("", "input error: need lmin < lmax, got 5.0 and 4.0\n")


@pytest.mark.parametrize("argv", [
    ["solve", "--tau", "inf", "--rhs", "1"],
    ["solve", "--tau", "nan", "--rhs", "1"],
    ["eigenfunction", "--lambda", "nan"],
    ["eigenfunction", "--lambda=-inf"],
    ["delta-trace", "--lmin", "nan", "--lmax", "2", "--samples", "4"],
    ["delta-trace", "--lmin", "1.1", "--lmax", "inf", "--samples", "4"],
    ["oracle-check", "--nx", "0"],
    ["oracle-check", "--ny=-3"],
    ["oracle-check", "--nx", "2.5"],
    ["oracle-check", "--tol-disc", "nan"],
    ["oracle-check", "--tol-ess", "inf"],
    ["oracle-check", "--tol-disc=-1e-9"],
], ids=" ".join)
def test_numeric_flags_are_checked_at_parse_time(model_b, argv, capsys):
    # were: solve --tau inf exit 3, oracle-check --nx 0 exit 2, delta-trace
    # --lmin nan NaN rows with exit 0, --tol-disc nan "ok": true
    assert main([argv[0], "--model", model_b, *argv[1:]]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "error: argument --" in err and "Traceback" not in err


# every option that has a type: the library parameter it is converted as, its kind in
# test_inputs.refusal, and a value below its bound with the refusal of it
FLAGS = {
    "--tau": ("tau", "real", None),
    "--lambda": ("lam0", "real", None),
    "--lmin": ("lmin", "real", None),
    "--lmax": ("lmax", "real", None),
    "--samples": ("samples", "whole", ("1", "samples must be >= 2, got 1")),
    "--path": ("path", "whole", ("0", "path must be >= 1, got 0")),
    "--nx": ("Nx", "whole", ("0", "Nx must be >= 1, got 0")),
    "--ny": ("Ny", "whole", ("-3", "Ny must be >= 1, got -3")),
    "--tol-disc": ("tol_disc", "real", ("-1e-9", "tol_disc must be finite and >= 0, got -1e-09")),
    "--tol-ess": ("tol_ess", "real", ("-0.5", "tol_ess must be finite and >= 0, got -0.5")),
}


def typed_options():
    """``{option: subcommand}`` for every option of the parser that has a type."""
    commands = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {option: name for name, sub in commands.choices.items()
            for action in sub._actions if action.type is not None for option in action.option_strings}


def test_every_typed_option_is_in_the_flag_table():
    assert sorted(typed_options()) == sorted(FLAGS)


# flag texts and the value, under its key in test_inputs.VALUES, that each is read as
BAD_TEXTS = {"nan": ("nan", float("nan")), "inf": ("inf", float("inf")), "1e400": ("inf", float("inf")),
             "1" * 400: ("10**400", int("1" * 400)), "abc": ("str", "abc"), "2.5": ("2.5", 2.5),
             # past the 4,300 digits that Python's int() reads: they were read as inf
             "1" * 5000: ("10**400", (10**5000 - 1) // 9), "-" + "1" * 5000: ("10**400", -(10**5000 - 1) // 9),
             # an exponent past what an exact decimal reads: float reads it as inf
             "1e99999999999999999999": ("inf", float("inf")), "-1e99999999999999999999": ("-inf", float("-inf"))}


@pytest.mark.parametrize("option,command", typed_options().items())
def test_flag_refusal_matrix(model_b, option, command, capsys):
    # each flag is converted by the library's rule as the library's parameter, so a refusal
    # is the library's message; a 400-digit --nx passed the parser and exited 2
    name, kind, below = FLAGS[option]
    cases = [below] if below else []
    for text, (key, value) in BAD_TEXTS.items():
        expected = refusal(name, kind, name, key, value)
        if expected:  # 2.5 is no refusal for a real flag
            cases.append((text, expected[1]))
    for text, message in cases:
        assert main([command, "--model", model_b, f"{option}={text}"]) == 1, text
        out, err = capsys.readouterr()
        assert out == "" and "Traceback" not in err, text
        assert f"error: argument {option}: {message}\n" in err, text


@pytest.mark.parametrize("command,flag", [(["delta-trace", "--lmin", "3.5", "--lmax", "6"], "--samples"),
                                          (["oracle-check"], "--nx")], ids=["--samples", "--nx"])
def test_whole_valued_float_flags_are_whole_numbers(model_a, command, flag, capsys):
    # argparse's int refused --samples 2.0, which delta_trace_rows takes
    outs = []
    for value in ("6", "6.0"):
        assert main([*command, "--model", model_a, flag, value]) == 0
        outs.append(capsys.readouterr())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("flag,text,same", [("--nx", "0" * 5000 + "6", "6"), ("--ny", "-" + "0" * 5000, "-0"),
                                            ("--tol-disc", "1e-99999999999999999999", "0")],
                         ids=["--nx leading zeros", "--ny -0", "--tol-disc tiny"])
def test_long_flag_texts_are_read_as_their_value(model_a, flag, text, same, capsys):
    # an integer text past int()'s 4,300 digits is read exactly, and a float text as float reads it
    outs = []
    for value in (text, same):
        code = main(["oracle-check", "--model", model_a, "--nx", "6", "--ny", "6", f"{flag}={value}"])
        outs.append((code, *capsys.readouterr()))
    assert outs[0] == outs[1]
    assert outs[0][0] == (1 if flag == "--ny" else 0)


def test_oracle_check_fixture_a(model_a, tmp_path):
    out = tmp_path / "oracle.json"
    assert main(["oracle-check", "--model", model_a, "--nx", "10", "--ny", "10",
                 "--tol-disc", "1e-9", "--tol-ess", "1e-9", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["ok"] is True
    assert payload["mismatches"] == []
    assert payload["nystrom"] == {"Nx": 10, "Ny": 10}
    assert abs(payload["eigs_head"][0] - 5.0) < 1e-10


def test_oracle_check_reports_the_grid_it_built(tmp_path):
    # fixture c's y axis has two panels, and each gets a node: Ny = 1 builds two y nodes
    model = tmp_path / "c.json"
    model.write_text(json.dumps(fixture_c_dict()))
    out = tmp_path / "oracle.json"
    assert main(["oracle-check", "--model", str(model), "--nx", "1", "--ny", "1", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["nystrom"] == {"Nx": 1, "Ny": 2}


def test_oracle_check_deterministic(model_a, tmp_path):
    outs = []
    for name in ("o1.json", "o2.json"):
        out = tmp_path / name
        assert main(["oracle-check", "--model", model_a, "--nx", "8",
                     "--ny", "8", "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_oracle_check_head_is_the_sorted_reference(model_a, tmp_path, monkeypatch):
    # the 16 largest in magnitude, ties (+-e, repeated values) in input order,
    # as Python's stable sorted(eigs, key=abs, reverse=True) gives them
    rng = np.random.default_rng(0)
    eigs = rng.permutation(np.concatenate([[5.0, -5.0, 3.0, -3.0, 3.0, 2.0, -2.0, 2.0, -0.0],
                                           rng.choice([-1.0, 1.0, 0.5, -0.5, 0.0], 20)]))
    # the runner reads oracle_eigs from its home module when it runs
    monkeypatch.setattr("pio.oracle.oracle_eigs", lambda sysm: eigs)
    out = tmp_path / "oracle.json"
    assert main(["oracle-check", "--model", model_a, "--nx", "4", "--ny", "4", "--out", str(out)]) == 0
    head = json.loads(out.read_text())["eigs_head"]
    reference = sorted(eigs, key=abs, reverse=True)
    assert head == [float(e) for e in reference[:16]]
    # the cut falls inside a tie of both signs, so the order of ties decides it
    tie = abs(reference[15])
    assert abs(reference[16]) == tie and {np.sign(e) for e in reference[:16] if abs(e) == tie} == {-1, 1}


def test_eigenfunction_csv(model_a, tmp_path):
    out = tmp_path / "ef.csv"
    assert main(["eigenfunction", "--model", model_a, "--lambda", "5.0",
                 "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == "x,y,f1"
    vals = np.array([float(r[2]) for r in rows])
    assert np.allclose(vals, 1.0, atol=1e-9)


def test_eigenfunction_not_eigenvalue_exits_3(model_a, capsys):
    assert main(["eigenfunction", "--model", model_a, "--lambda", "4.2"]) == 3
    assert "NotAnEigenvalue" in capsys.readouterr().err


def test_eigenfunction_essential_hit_exits_3(model_a, capsys):
    assert main(["eigenfunction", "--model", model_a, "--lambda", "2.0"]) == 3
    assert capsys.readouterr().err == (
        "refused: SpectrumHit: lambda 2.0 is within 0.000e+00 of the essential spectrum\n"
    )


def test_fuzzed_model_files_never_crash(tmp_path, capsys):
    rng = np.random.default_rng(101)
    path = tmp_path / "fuzz.json"

    def mutate(doc):
        choice = rng.integers(0, 8)
        if choice == 0:
            doc.pop("channel1", None)
        elif choice == 1:
            doc["channel1"]["basis"] = 42
        elif choice == 2:
            doc["channel1"]["weights"] = ["@#$"]
        elif choice == 3:
            doc["extra"] = {"junk": 1}
        elif choice == 4:
            doc["quadrature"] = {"order": -3}
        elif choice == 5:
            doc["domain"]["x"] = [1.0, 0.0]
        elif choice == 6:
            doc["channel2"]["basis"] = ["1", "t"]  # length mismatch
        elif choice == 7:
            doc["search"] = {"scan_points": 1}
        return doc

    for _ in range(30):
        doc = mutate(fixture_a_dict())
        path.write_text(json.dumps(doc))
        code = main(["spectrum", "--model", str(path), "--out", str(tmp_path / "o.json")])
        err = capsys.readouterr().err
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in err


FIXTURES = Path(__file__).resolve().parent.parent / "models"
# the pio modules each subcommand loads: validation needs the model, the others the library
# functions they call
_BASE = {"pio", "pio.errors", "pio.expr", "pio.quadrature", "pio.model"}
LOADS = {
    "validate": ([], _BASE),
    "spectrum": ([], _BASE | {"pio.spectrum"}),
    "discrete": ([], _BASE | {"pio.spectrum"}),
    "delta-trace": (["--lmin", "3.5", "--lmax", "6", "--samples", "5"], _BASE | {"pio.spectrum"}),
    "eigenfunction": (["--lambda", "5"], _BASE | {"pio.spectrum"}),
    "solve": (["--tau", "0.1", "--rhs", "x*y"], _BASE | {"pio.spectrum", "pio.operators", "pio.pie"}),
    "oracle-check": (["--nx", "8", "--ny", "8"], _BASE | {"pio.spectrum", "pio.oracle"}),
}
# ``python -m pio.cli``, then the exit code and the sorted pio modules loaded, as the last line
_LOADED = """
import json, runpy, sys
try:
    runpy.run_module("pio.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    print(json.dumps([exc.code, sorted(name for name in sys.modules if name.split(".")[0] == "pio")]))
"""


@pytest.mark.parametrize("sub", list(LOADS))
def test_each_subcommand_loads_only_the_modules_it_runs(sub, tmp_path):
    flags, expected = LOADS[sub]
    argv = [sub, "--model", str(FIXTURES / "fixture_a.json"), *flags, "--out", str(tmp_path / "out")]
    proc = subprocess.run([sys.executable, "-c", _LOADED, *argv], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    code, loaded = json.loads(proc.stdout.splitlines()[-1])
    assert code == 0, proc.stderr
    assert loaded == sorted(expected)


def test_console_script_wiring(model_a, tmp_path):
    # one true subprocess round-trip through the installed entry point
    proc = subprocess.run(
        [sys.executable, "-m", "pio.cli", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "spectrum" in proc.stdout
    out = tmp_path / "rep.json"
    proc = subprocess.run(
        [sys.executable, "-m", "pio.cli", "spectrum", "--model", model_a,
         "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(out.read_text())["essential"]["points"] == [0, 2, 3]


def exact(value):
    """``value`` with each float as its hex text, so that two floats match only bit for bit
    (``-0.0`` and ``0.0`` differ, NaN matches NaN), and each tuple as a list."""
    if isinstance(value, dict):
        return {key: exact(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [exact(v) for v in value]
    return float(value).hex() if isinstance(value, float) else value


@pytest.mark.parametrize("path", [*(FIXTURES / f"fixture_{w}.json" for w in "abc"),
                                  Path(__file__).resolve().parent / "golden" / "legendre_trig_model.json"],
                         ids=["fixture_a", "fixture_b", "fixture_c", "legendre_trig"])
def test_spectrum_json_reads_back_as_the_report_bit_for_bit(path, capsys):
    assert main(["spectrum", "--model", str(path)]) == 0
    got = json.loads(capsys.readouterr().out)
    assert exact(got) == exact(sigma_full(load_model_file(str(path))).as_dict())


def run_cli(argv, tmp_path, doc):
    """``python -m pio.cli`` on the model ``doc``: the exit code, stdout and stderr."""
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    proc = subprocess.run([sys.executable, "-m", "pio.cli", *argv, "--model", str(path)],
                          capture_output=True, text=True, timeout=60)
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.parametrize("kind", ["legendre", "trig"])
@pytest.mark.parametrize("digits", [400, 5001])
def test_a_huge_shorthand_degree_exits_1(tmp_path, kind, digits):
    # it ended in a traceback: OverflowError (400 digits) or ValueError (5,001, past int()'s limit)
    doc = fixture_a_dict()
    doc["channel1"]["basis"] = [f"{kind}(1{'0' * (digits - 1)})"]
    code, out, err = run_cli(["validate"], tmp_path, doc)
    assert (code, out) == (1, "")
    assert err.startswith("input error: channel1.basis: ") and "Traceback" not in err
    assert err.endswith(f"{kind} degree is beyond the range of a double\n")


def test_an_overflowing_gram_is_reported_as_json(tmp_path):
    # stdout held "deviation": inf, which no JSON parser reads, and stderr a RuntimeWarning
    doc = fixture_a_dict()
    doc["channel1"]["basis"] = ["1e200"]
    code, out, err = run_cli(["validate"], tmp_path, doc)
    assert (code, err) == (2, "")
    report = json.loads(out)
    assert report["ok"] is False
    assert report["checks"][4] == {"name": "channel1.basis orthonormal", "passed": False,
                                   "deviation": float("inf"),
                                   "detail": "max Gram deviation inf (tolerance 1e-08)"}
