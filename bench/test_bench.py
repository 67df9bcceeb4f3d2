"""Smoke test of the benchmark at tiny sizes.

Runs every workload of BENCHMARK.json with and without tracing and asserts
that every named metric is reported with its unit and every output check
passes.  Run with: python -m pytest bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
REPORTED = ("setup_s", "steps_per_s", "peak_rss_mb", "failed_frac", "theta_err_stable",
            "reward_gap")


def _run(bench_dir, *args):
    return subprocess.run([sys.executable, str(bench_dir / "run.py"), *args],
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_reports_every_metric(workload, tmp_path):
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        done = _run(BENCH, "--workload", workload, "--seed", "3", "--seconds", "0",
                    "--trace", str(trace), "--size", "smoke", "--out", str(tmp_path))
        assert done.returncode == 0, done.stderr
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] >= 1
        reported = {name: m["unit"] for name, m in result["metrics"].items()}
        assert reported == {m["name"]: m["unit"] for m in SPEC[kind]}
        if trace == 0:
            for name in REPORTED:
                assert any(line.split()[:1] == [name] for line in lines), name


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    done = _run(tmp_path / BENCH.name, "--workload", SPEC["workloads"][0]["name"],
                "--seed", "0", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert done.stdout.strip() == ""
