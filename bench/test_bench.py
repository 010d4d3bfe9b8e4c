"""Self-test of the benchmark harness, on the tiny ``smoke`` workload.

Run from the root of the repository::

    python3 -m pytest -q bench/test_bench.py
"""

import importlib.util
import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "bench", "run.py")


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _load_run():
    spec = importlib.util.spec_from_file_location("bench_run", RUN)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable, RUN, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=170)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_emits_every_metric_with_its_unit(trace, section):
    proc = _run(["--workload", "smoke", "--seed", "1", "--seconds", "1", "--trace", str(trace)])
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in _benchmark_json()[section]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == wanted
    assert all(isinstance(v["value"], (int, float)) for v in line["metrics"].values())


def test_wrong_golden_digest_counts_as_failure(monkeypatch):
    run = _load_run()
    monkeypatch.chdir(ROOT)
    golden = dict(run.load_golden(), **{"hecke 3 3": "0" * 64})
    line, record = run.run_workload("smoke", 0, 1.0, False, golden=golden)
    assert line["correct"] is False
    assert line["failed"] >= 1
    assert all(note.startswith("hecke 3 3:") for note in record["failures"])


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "bench"), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "dim-q",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
