"""Tests of the benchmark itself: the output gate and the span recorder.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import copy
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import gate  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

import incred.cli  # noqa: E402

SIM_CALL = workloads.simulate_call(workloads.SIM_POOL[0])


@pytest.fixture(scope="module")
def golden():
    return gate.load_golden()


@pytest.fixture
def in_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def test_golden_covers_every_call_a_seed_can_make(golden):
    assert set(golden) == {gate.call_key(c) for c in workloads.all_calls()}
    for seed in range(50):
        for w in workloads.NAMES:
            for argv in workloads.calls(w, seed):
                assert gate.call_key(argv) in golden


def test_simulate_states_are_drawn_by_the_seed():
    assert workloads.calls("simulate", 3) == workloads.calls("simulate", 3)
    assert workloads.calls("simulate", 3) != workloads.calls("simulate", 4)


def test_gate_accepts_seed_output_and_trips_on_tampering(golden, in_root,
                                                         tmp_path):
    out = tmp_path / "out"
    rc, stdout, _ = gate.run_call(incred.cli.main, SIM_CALL, out)
    observed = gate.observe(rc, stdout, out)
    expected = golden[gate.call_key(SIM_CALL)]
    assert gate.mismatches(observed, expected) == []

    # A report that differs by one byte.
    report = out / "trajectory.csv"
    report.write_bytes(report.read_bytes() + b"\n")
    tampered = gate.observe(rc, stdout, out)
    assert gate.mismatches(tampered, expected) == [
        f"trajectory.csv: sha256 {tampered['files']['trajectory.csv']} != "
        f"{expected['files']['trajectory.csv']}"]

    # A reference digest, exit code or verdict that differs.
    for field, value in (("files", {**expected["files"],
                                    "diagnostics.json": "0" * 64}),
                         ("exit", 1), ("verdict", "simulate: 1 steps")):
        assert gate.mismatches(observed, {**expected, field: value})
    assert gate.mismatches(observed, None)


def test_runner_counts_failed_ops(golden, in_root, tmp_path):
    bad = copy.deepcopy(golden)
    argv = workloads.calls("simulate", 0)[1]
    entry = bad[gate.call_key(argv)]
    entry["files"]["trajectory.csv"] = "0" * 64
    runner = run.Runner("simulate", 0, bad, tmp_path)
    runner.run_pass()
    assert (runner.attempted, runner.failed) == (
        workloads.SIM_STATES_PER_PASS, 1)
    assert runner.failures[0]["call"] == gate.call_key(argv)


def test_span_recorder_self_time_and_restore(in_root, tmp_path):
    original_main = incred.cli.main
    original_value = incred.setmaps.PiecewiseBoxMap.value
    recorder = spans.SpanRecorder()
    recorder.install()
    try:
        rc, _, _ = gate.run_call(incred.cli.main, SIM_CALL, tmp_path / "out")
    finally:
        recorder.uninstall()
    assert rc == 0
    assert incred.cli.main is original_main
    assert incred.setmaps.PiecewiseBoxMap.value is original_value

    summary = recorder.summary()
    assert summary["overcovered"] == 0
    by_name = summary["by_name"]
    assert by_name["cli.main"]["calls"] == 1
    # Looked up by name in other modules: still seen.
    assert by_name["setmaps.load_system"]["calls"] == 1
    assert by_name["setmaps.eval_map"]["calls"] > 10_000
    assert recorder.counts["simulate.steps"] == 10_000
    assert recorder.counts["intervals.Interval.__init__"] > 0
    for stats in by_name.values():
        assert -1e-9 <= stats["self_s"] <= stats["s"] + 1e-9
    assert 0.0 < summary["report_s"] < by_name["cli.main"]["s"]

    a = recorder.arrays()
    child = a["parent"] >= 0
    parent = a["parent"][child]
    assert (a["start"][child] >= a["start"][parent]).all()
    assert (a["end"][child] <= a["end"][parent]).all()


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "simulate",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
