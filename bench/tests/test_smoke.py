"""Tiny-scale runs of every workload through bench/run.py.

Run from the repository root:  PYTHONPATH=src python3 -m pytest bench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "11",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=180,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_and_no_failures(workload, trace):
    proc = bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def _checkout(tmp_path: Path, with_sources: bool) -> Path:
    root = tmp_path / "checkout"
    shutil.copytree(BENCH, root / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", root)
    if with_sources:
        shutil.copytree(ROOT / "src", root / "src", ignore=shutil.ignore_patterns("__pycache__"))
    return root


def test_without_sources_fails_without_a_result(tmp_path):
    proc = bench(_checkout(tmp_path, with_sources=False), WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_a_wrong_output_is_counted(tmp_path):
    root = _checkout(tmp_path, with_sources=True)
    evaluation = root / "src" / "lexsweep" / "evaluation.py"
    # every evaluated row reports half its true precision
    evaluation.write_text(
        evaluation.read_text()
        + "\n\nimport dataclasses as _dc\n_evaluate = evaluate\n\n\n"
        "def evaluate(*args, **kwargs):\n"
        "    row = _evaluate(*args, **kwargs)\n"
        "    return _dc.replace(row, precision=row.precision / 2)\n"
    )
    for workload in WORKLOADS:
        proc = bench(root, workload, 0)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert result["correct"] is False and result["failed"] >= 1
