"""Smoke test of the benchmark on tiny inputs; each run takes seconds.

    python -m pytest benchmarks/test_smoke.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import run as bench
from qcorr import linalg, sim

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_tiny(workload: str, trace: int) -> tuple[list[str], dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_end_to_end_metric_is_printed_with_its_unit(workload):
    lines, result = run_tiny(workload, 0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == want
    for name, unit in want.items():
        assert result["metrics"][name]["value"] > 0
        assert any(line.startswith(f"metric {name} ") and f" {unit} " in line
                   for line in lines), name
    assert any(line.startswith("failed_share 0 share") for line in lines)
    assert any(line.startswith("speed probe: ") for line in lines)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(workload):
    lines, result = run_tiny(workload, 1)
    assert result["correct"]
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == want
    assert result["metrics"]["trace.overhead_s"]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_output_counts_in_failed_share(workload, monkeypatch, capsys):
    # Every workload checks a fidelity; report one far below any target.
    monkeypatch.setattr(sim, "fidelity", lambda rho, sigma: 0.5)
    monkeypatch.setattr(linalg, "fidelity", lambda rho, sigma: 0.5)
    for var in bench.THREAD_VARS:
        monkeypatch.setenv(var, "1")
    assert bench.main(["--workload", workload, "--seed", "3", "--seconds", "0.1",
                       "--trace", "0", "--tiny"]) == 0
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert not result["correct"]
    assert result["attempted"] >= 1 and result["failed"] == result["attempted"]
    assert any(line.startswith("failed_share 1 share") for line in lines)
