"""Tests for ``tools/ab.py``, the alternating A/B bench runner, on fixed
numbers: tier-1 runs no benchmark."""

import importlib.util
import json
from pathlib import Path

import pytest

AB_PATH = Path(__file__).resolve().parent.parent / "tools" / "ab.py"


def _load_ab():
    spec = importlib.util.spec_from_file_location("ab", AB_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compare_counts_strict_wins_and_the_parent_spread():
    ab = _load_ab()
    pairs = [(1.0, 0.9), (1.2, 1.1), (1.1, 1.1), (0.9, 1.0)]
    s = ab.compare(pairs)
    # Sorted parent runs 0.9, 1.0, 1.1, 1.2: inclusive quartiles at
    # 0.975 and 1.125.  The tie at 1.1 counts for neither side.
    assert s["parent"] == pytest.approx(1.05)
    assert s["change"] == pytest.approx(1.05)
    assert s["spread"] == pytest.approx(0.15)
    assert (s["wins"], s["pairs"]) == (2, 4)
    assert ab.compare(pairs, better="higher")["wins"] == 1
    assert ab.compare([(2.0, 1.0)]) == {"parent": 2.0, "change": 1.0, "spread": 0.0,
                                        "wins": 1, "pairs": 1}


def test_read_run_reports_failed_and_incorrect_runs():
    ab = _load_ab()
    line = {"correct": True, "attempted": 4, "failed": 0,
            "metrics": {"wall_s": {"value": 0.5, "unit": "s"}}}
    out = "# meta {}\n# dim-q ...\n" + json.dumps(line) + "\n"
    assert ab.read_run(0, out) == ({"wall_s": 0.5}, None)
    line.update(correct=False, failed=1)
    assert ab.read_run(0, json.dumps(line)) == ({"wall_s": 0.5},
                                                "correct: false (1/4 failed)")
    assert ab.read_run(1, "") == (None, "exit status 1")
