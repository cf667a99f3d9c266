"""Smoke test of the benchmark harness at tiny size.

    python3 -m pytest perfbench/test_smoke.py

Every workload must emit every metric that BENCHMARK.json names, with its
unit, traced and untraced; op_tail_s must be a percentile with 10 ops beyond
it; an op that fails must show in fail_frac; and the benchmark must refuse
to run without the ctlsim sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = ["--seed", "7", "--seconds", "0.5"]


def _result(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_emitted_with_its_unit(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, *TINY, "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = _result(proc.stdout)
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in expected}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert "fail_frac = 0 ratio" in proc.stdout
    if not trace:  # the timed loop runs on until op_tail_s has its 10 ops beyond it
        assert result["attempted"] >= run.TAIL_BEYOND + 1
        assert "UNRESOLVED" not in proc.stdout


def test_tail_needs_ten_ops_beyond_it():
    assert run.tail([1.0] * run.TAIL_BEYOND) is None
    assert run.tail([float(x) for x in range(1, 12)]) == (1.0, 100.0 / 11)
    assert run.tail([float(x) for x in range(1, 101)]) == (90.0, 90.0)


def test_injected_failure_raises_fail_frac(monkeypatch, capsys):
    op = workloads.Pulses.op

    def failing_first_op(self, i):
        if i == 0:
            raise RuntimeError("injected failure")
        return op(self, i)

    monkeypatch.setattr(workloads.Pulses, "op", failing_first_op)
    assert run.main(["--workload", "pulses", *TINY, "--trace", "0"]) == 0
    out = capsys.readouterr().out
    result = _result(out)
    assert result["failed"] >= 1 and not result["correct"]
    assert f"fail_frac = {result['failed'] / result['attempted']:.6g} ratio" in out
    assert "injected failure" in out


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", ".work", "results"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scan", *TINY, "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
