"""Tests of the benchmark itself: ``python3 -m pytest bench/test_bench.py``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import cases as C  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload, trace, seed=1, cwd=ROOT):
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return out


def test_spec_lists_the_metrics_the_runner_emits():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == run.PER_LAYER
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_short_run_emits_every_metric_and_passes_its_checks(workload, trace):
    out = bench(workload, trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    assert "env {" in out.stdout and '"git_sha"' in out.stdout
    if trace:
        lines = (ROOT / ".bench_work" / f"spans-{workload}-seed1.jsonl").read_text().splitlines()
        ops = json.loads(lines[0])["ops"]
        spans = [json.loads(line) for line in lines[1:]]
        assert ops and spans
        assert all(s["end"] >= s["start"] for s in spans)
        assert {s["op"] for s in spans if isinstance(s["op"], int)} <= set(range(len(ops)))


def test_wrong_reference_is_a_counted_failure(monkeypatch, capsys):
    monkeypatch.setattr(C, "fixture_b_eigenvalue", lambda: 1.3)
    def sample(self):  # no set-up process: one second, at the reference speed
        self.times.append(1.0)
        for speed in self.speeds:
            speed.seconds += [speed.ref_s] * 2

    monkeypatch.setattr(run.SetupTimer, "sample", sample)
    assert run.main(["--workload", "spectrum", "--seed", "3", "--seconds", "0"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert result["metrics"]["correct_share"]["value"] < 1.0


def test_times_are_scaled_by_the_nearest_kernel_runs():
    sp = speed.Speed()
    sp.starts = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    sp.seconds = [1.0, 1.0, 2.0, 2.0, 4.0, 4.0, 1.0]
    assert sp.scale(3.5) == pytest.approx(sp.ref_s / 3.0)  # runs at 2, 3, 4 and 5
    assert sp.scale(-1.0) == pytest.approx(sp.ref_s / 1.5)  # the first four
    assert sp.scale(9.0) == pytest.approx(sp.ref_s / 2.75)  # the last four


def test_latency_quantiles_weigh_every_case_alike():
    labels = ["a"] * 9 + ["b"]
    assert run.case_quantile(labels, [2.0] * 9 + [8.0], 0.5) == pytest.approx(4.0)


def test_known_defect_is_only_a_strict_subset_of_correct_values():
    case = C.coarse4()
    ref = case.eigenvalues
    assert C.match_eigenvalues(case, [(lam, 1) for lam in ref]) == "pass"
    assert C.match_eigenvalues(case, [(ref[-1], 1)]) == "known"
    assert C.match_eigenvalues(case, [(ref[-1] + 1e-3, 1)]) == "fail"
    assert C.match_eigenvalues(C.ramp(4), [(ref[-1], 1)]) == "fail"


def test_same_seed_gives_the_same_inputs():
    def inputs(seed):
        wl = WORKLOADS["solve"](str(ROOT), np.random.default_rng(seed))
        wl.setup()
        return [(op.label, op.args["lam"]) for op in wl.round()]

    assert inputs(5) == inputs(5)
    assert inputs(5) != inputs(6)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    out = bench("spectrum", 0, cwd=tmp_path)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
