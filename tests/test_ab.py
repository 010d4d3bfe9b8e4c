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


def test_beyond_bound_reads_the_bound_as_a_fraction_of_the_parent():
    ab = _load_ab()
    assert not ab.beyond_bound({"parent": 1.0, "change": 1.25}, "lower", 0.25)
    assert ab.beyond_bound({"parent": 1.0, "change": 1.26}, "lower", 0.25)
    assert not ab.beyond_bound({"parent": 1.0, "change": 0.1}, "lower", 0.25)
    assert ab.beyond_bound({"parent": 1.0, "change": 0.8}, "higher", 0.1)
    assert not ab.beyond_bound({"parent": 1.0, "change": 2.0}, "higher", 0.1)


def test_main_flags_a_median_worse_than_its_bound(tmp_path, monkeypatch, capsys):
    # Fixed runs: wall_s is 30 % worse at the change, beyond its 25 %
    # bound; peak_rss_mb is 5 % worse, within its 10 %.  The wall_s row
    # is marked, listed after the table, and the exit status is 1.
    ab = _load_ab()
    spec = {"workloads": [{"name": "w"}],
            "end_to_end": [{"name": "wall_s", "better": "lower", "bound": 0.25},
                           {"name": "peak_rss_mb", "better": "lower", "bound": 0.1}]}
    parent, change = tmp_path / "parent", tmp_path / "change"
    for side in (parent, change):
        side.mkdir()
    (change / "BENCHMARK.json").write_text(json.dumps(spec), encoding="utf-8")
    runs = {parent: {"wall_s": 1.0, "peak_rss_mb": 20.0},
            change: {"wall_s": 1.3, "peak_rss_mb": 21.0}}
    monkeypatch.setattr(ab, "_run", lambda checkout, *args: (runs[checkout], None))
    assert ab.main([str(parent), str(change), "--pairs", "3"]) == 1
    lines = capsys.readouterr().out.splitlines()
    rows = {line.split()[1]: line for line in lines[1:3]}
    assert rows["wall_s"].endswith(" !") and not rows["peak_rss_mb"].endswith("!")
    assert lines[3:] == ["# w wall_s: change median +30.0% against the parent's, "
                         "beyond its bound of 25%"]
    runs[change]["wall_s"] = 1.2
    assert ab.main([str(parent), str(change), "--pairs", "3"]) == 0
    assert "!" not in capsys.readouterr().out


def test_main_writes_every_run_as_json(tmp_path, monkeypatch):
    # Three pairs with fixed runs: the record keeps each side's runs in
    # pair order, their inclusive quartiles, the change's wins and its
    # median change, and the attempted and failed counts of every run
    # summed per side, one pair's failed run included.
    ab = _load_ab()
    spec = {"workloads": [{"name": "w"}],
            "end_to_end": [{"name": "wall_s", "better": "lower", "bound": 0.25}]}
    parent, change = tmp_path / "parent", tmp_path / "change"
    for side in (parent, change):
        side.mkdir()
    (change / "BENCHMARK.json").write_text(json.dumps(spec), encoding="utf-8")
    runs = {parent: iter([1.0, 1.2, 1.1, 1.4]), change: iter([0.9, 1.0, None, 0.8])}

    def run(checkout, *args):
        value = next(runs[checkout])
        if value is None:
            return None, "exit status 1"
        return {"wall_s": value, "attempted": 10, "failed": int(checkout == change)}, None

    monkeypatch.setattr(ab, "_run", run)
    out = tmp_path / "ab.json"
    assert ab.main([str(parent), str(change), "--pairs", "4", "--seed", "3",
                    "--seconds", "6", "--json", str(out)]) == 1
    record = json.loads(out.read_text(encoding="utf-8"))
    assert record["command"] == "python3 bench/run.py --workload W --seed 3 --seconds 6 --trace 0"
    assert (record["seed"], record["pairs"]) == (3, 4)
    assert record["attempted"] == {"parent": 40, "change": 30}
    assert record["failed"] == {"parent": 0, "change": 3}
    wall = record["workloads"]["w"]["wall_s"]
    # The third pair lost its change run, so it has no values.
    assert (wall["parent"]["runs"], wall["change"]["runs"]) == ([1.0, 1.2, 1.4], [0.9, 1.0, 0.8])
    for side, quartiles in (("parent", (1.1, 1.2, 1.3)), ("change", (0.85, 0.9, 0.95))):
        assert [wall[side][k] for k in ("q1", "median", "q3")] == pytest.approx(quartiles)
    assert wall["change_lower_in_pairs"] == "3/3"
    assert wall["median_change_pct"] == -25.0
    assert ab.runs_summary([2.0]) == {"q1": 2.0, "median": 2.0, "q3": 2.0, "runs": [2.0]}
