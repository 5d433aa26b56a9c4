"""Smoke tests of the benchmark itself.

Run from the repository root: python3 -m pytest -q bench/test_bench.py
Each workload runs one block, untraced and traced, at the default seed.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd, *args):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_metric_is_reported(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "0", "--seconds", "0",
                "--trace", str(trace))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_workloads_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, "--workload", "scan-p5-d4", "--seed", "0",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tracer_restores_the_library():
    from run import import_library
    from tracer import Tracer

    eo = import_library()
    modules = [m for name, m in sorted(sys.modules.items())
               if name == "eotypes" or name.startswith("eotypes.")]
    before = [dict(vars(m)) for m in modules] + [dict(vars(eo.GF))]
    tracer = Tracer(eo)
    tracer.install()
    assert eo.hwtriple.poly_pow is not before[0]["poly_pow"]
    tracer.uninstall()
    after = [dict(vars(m)) for m in modules] + [dict(vars(eo.GF))]
    assert after == before
