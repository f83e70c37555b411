"""Command line behavior: outputs, exit codes, determinism, fuzzing."""

import json
import subprocess
import sys

import numpy as np
import pytest

from pio.cli import main

from conftest import fixture_a_dict, fixture_b_dict


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


def test_solve_bad_rhs_exits_1(model_a, capsys):
    assert main(["solve", "--model", model_a, "--tau", "0.1", "--rhs", "x +"]) == 1
    assert main(["solve", "--model", model_a, "--tau", "0.1", "--rhs", "q*2"]) == 1


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


def test_delta_trace_bad_window_exits_1(model_a):
    assert main(["delta-trace", "--model", model_a, "--lmin", "5",
                 "--lmax", "4", "--samples", "6"]) == 1


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


def test_oracle_check_fixture_a(model_a, tmp_path):
    out = tmp_path / "oracle.json"
    assert main(["oracle-check", "--model", model_a, "--nx", "10", "--ny", "10",
                 "--tol-disc", "1e-9", "--tol-ess", "1e-9", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["ok"] is True
    assert payload["mismatches"] == []
    assert payload["nystrom"] == {"Nx": 10, "Ny": 10}
    assert abs(payload["eigs_head"][0] - 5.0) < 1e-10


def test_oracle_check_deterministic(model_a, tmp_path):
    outs = []
    for name in ("o1.json", "o2.json"):
        out = tmp_path / name
        assert main(["oracle-check", "--model", model_a, "--nx", "8",
                     "--ny", "8", "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


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
