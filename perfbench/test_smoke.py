"""Smoke test of the benchmark at tiny sizes.

Run from the repository root with ``python3 -m pytest perfbench``.  Every
workload runs once untraced and once traced; the printed metrics must be
exactly those of ``BENCHMARK.json`` with their units, and each workload's
output check must run and must reject a corrupted output.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3", "--seconds", "0.2",
         "--trace", str(trace), "--size", "smoke"],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == tracing.LAYER_METRICS


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in line["metrics"].items()} == {m["name"]: m["unit"] for m in expected}
    assert all(math.isfinite(v["value"]) for v in line["metrics"].values())
    record = json.loads((BENCH_DIR / "out" / f"{workload}-seed3-trace{trace}.json").read_text())
    assert record["checks_run"] == line["attempted"]
    assert record["missing_entry_points"] == []


def _corrupt(name: str, output):
    if name == "certify-n4":
        res, dim = output
        return dataclasses.replace(res, status="time_limit"), dim
    if name == "bound-modes-n3":
        return [dataclasses.replace(output[0], incumbent_value=0.5 * output[0].incumbent_value), *output[1:]]
    if name == "langevin-n15":
        return dataclasses.replace(output, evaluations=output.evaluations + 1)
    sample, c, back, dim = output
    return sample, c, dataclasses.replace(back, m2=back.m2 + 1e-9), dim


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_output_check_accepts_the_pass_and_rejects_a_corrupted_one(name, tmp_path):
    wl = workloads.make(name, scratch=tmp_path, size="smoke")
    state = wl.setup(5, tracing.untraced_call)
    output = wl.run_pass(state, tracing.untraced_call)
    wl.check(state, output)
    with pytest.raises(workloads.CheckFailed):
        wl.check(state, _corrupt(name, output))


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("certify-n4", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_speed_clock_samples_inside_an_interval_and_restores_the_handler():
    import signal
    import time

    import speed

    previous = signal.getsignal(signal.SIGALRM)
    with speed.SpeedClock(("interp",), period=0.02) as clock:
        with clock.interval() as iv:
            end = time.perf_counter() + 0.2
            while time.perf_counter() < end:
                pass
    assert signal.getsignal(signal.SIGALRM) is previous
    # the samples before and after the interval, and the timer's inside it
    assert len(iv.samples["interp"]) >= 4
    assert 0.0 < iv.wall_s < 0.2
    assert iv.scaled_s("interp") == iv.wall_s * speed.NOMINAL_S["interp"] / iv.reference_s("interp")
