"""Smoke tests of the benchmark itself, at ``--tiny`` size.

Run from the repository root::

    python3 -m pytest perfbench -q

Each workload runs once plain and once traced and must print exactly
the metrics ``BENCHMARK.json`` declares; a forced digest mismatch must
show up as a failed operation; without ``src/`` the benchmark must fail
without printing a result.
"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import suite  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", suite.WORKLOADS)
def test_tiny_run_reports_every_declared_metric(workload, trace):
    proc = _bench(
        "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_forced_digest_mismatch_counts_as_failed(monkeypatch):
    plan = run.Plan("sweep", 3, suite.TINY)
    wrong = suite.spec_key(plan.specs[0])
    monkeypatch.setattr(run, "load_reference", lambda: {wrong: "0" * 64})
    stdout = io.StringIO()
    with redirect_stdout(stdout):
        assert run.main(["--workload", "sweep", "--seed", "3", "--seconds", "0", "--tiny"]) == 0
    lines = stdout.getvalue().strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is False
    # The mismatching cell failed in every unit; nothing else did.
    assert result["failed"] == run.MIN_UNITS
    assert result["attempted"] == run.MIN_UNITS * len(plan.specs)
    assert any("differs from reference.json" in line for line in lines)


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
