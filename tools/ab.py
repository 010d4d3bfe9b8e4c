"""Alternating A/B runs of the benchmark on two checkouts, stdlib only.

For each workload, runs ``bench/run.py --workload W --seed S --seconds T
--trace 0`` in a parent checkout and in a change checkout, N pairs of
runs, alternating which side runs first.  For each end-to-end metric of
``BENCHMARK.json`` it prints both medians, the distance between the
parent's quartiles (its run-to-run spread), the change's median
relative to the parent's, and the pairs the change won; a tie counts
for neither side.  A row whose change median is worse than the
parent's by more than the metric's ``bound`` in the change's
``BENCHMARK.json`` (a fraction of the parent's median) is marked ``!``.
Those rows, and any run that exits non-zero or reports ``"correct":
false``, are listed after the table, and make the exit status 1.

With ``--json PATH`` it also writes every run to PATH, in the layout of
one seed of a ``BENCH_<k>.json``: for each workload and metric, each
side's inclusive quartiles, median and runs in pair order (the pairs in
which both sides ran), the pairs the change won and its median relative
to the parent's in percent; and for each side the operations attempted
and failed, summed over the last output lines of all its runs.

Run from anywhere::

    python3 tools/ab.py PARENT CHANGE [--workload W ...] [--seed 0]
                        [--seconds 25] [--pairs 10] [--json PATH]

The workloads default to those of the change's ``BENCHMARK.json``.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def compare(pairs, better="lower"):
    """Summary of one metric over ``pairs`` of (parent, change) values,
    one per pair of runs: the two medians, the parent's quartile spread
    (inclusive quartiles; 0 for one pair), and the pairs in which the
    change is strictly better, lower or higher as ``better`` says."""
    parent = runs_summary([p for p, _ in pairs])
    sign = 1 if better == "lower" else -1
    return {"parent": parent["median"], "change": statistics.median(c for _, c in pairs),
            "spread": parent["q3"] - parent["q1"],
            "wins": sum(sign * (p - c) > 0 for p, c in pairs), "pairs": len(pairs)}


def runs_summary(values):
    """One side's values of one metric: their inclusive quartiles (both
    the one value for a single run), median, and the values."""
    q1, q3 = (statistics.quantiles(values, n=4, method="inclusive")[::2]
              if len(values) > 1 else values * 2)
    return {"q1": q1, "median": statistics.median(values), "q3": q3, "runs": list(values)}


def beyond_bound(summary, better, bound):
    """Whether the change's median in ``summary`` (see :func:`compare`)
    is worse than the parent's, in the direction ``better`` says, by
    more than ``bound`` times the parent's median."""
    worse = summary["change"] - summary["parent"]
    if better != "lower":
        worse = -worse
    return worse > bound * abs(summary["parent"])


def read_run(returncode, stdout):
    """(metrics, problem) of one bench run: the end-to-end values of its
    last output line, None if it exited non-zero; and a note when it
    exited non-zero or was not correct, else None."""
    if returncode != 0:
        return None, f"exit status {returncode}"
    line = json.loads(stdout.strip().splitlines()[-1])
    metrics = {name: m["value"] for name, m in line["metrics"].items()}
    if line["correct"]:
        return metrics, None
    return metrics, f"correct: false ({line['failed']}/{line['attempted']} failed)"


def _run(checkout, workload, seed, seconds):
    """(metrics, problem) of one bench run as :func:`read_run` gives
    them, the metrics with the run's ``attempted`` and ``failed``
    counts added."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=False)
    metrics, problem = read_run(proc.returncode, proc.stdout)
    if metrics is not None:
        line = json.loads(proc.stdout.strip().splitlines()[-1])
        metrics.update(attempted=line["attempted"], failed=line["failed"])
    return metrics, problem


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--json", type=Path, metavar="PATH")
    args = parser.parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = {m["name"]: m for m in spec["end_to_end"]}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    sides = {"parent": args.parent, "change": args.change}
    problems = []
    counts = {name: dict.fromkeys(sides, 0) for name in ("failed", "attempted")}
    rows = {}
    print(f"{'workload':<14}{'metric':<13}{'parent':>10}{'change':>10}"
          f"{'parent IQR':>12}{'change/parent':>15}{'wins':>8}")
    for workload in workloads:
        pairs = []
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            got = {}
            for side in order:
                metrics, problem = _run(sides[side], workload, args.seed, args.seconds)
                if problem:
                    problems.append(f"{workload} pair {i + 1} {side}: {problem}")
                for name, count in counts.items():
                    count[side] += (metrics or {}).get(name, 0)
                got[side] = metrics
            if got["parent"] is not None and got["change"] is not None:
                pairs.append((got["parent"], got["change"]))
        for name, metric in end_to_end.items():
            values = [(p[name], c[name]) for p, c in pairs if name in p and name in c]
            if not values:
                continue
            s = compare(values, metric["better"])
            ratio = s["change"] / s["parent"] - 1 if s["parent"] else float("nan")
            flag = beyond_bound(s, metric["better"], metric["bound"])
            if flag:
                problems.append(f"{workload} {name}: change median {ratio:+.1%} against "
                                f"the parent's, beyond its bound of {metric['bound']:.0%}")
            print(f"{workload:<14}{name:<13}{s['parent']:>10.4f}{s['change']:>10.4f}"
                  f"{s['spread']:>12.4f}{ratio:>14.1%} {s['wins']:>4}/{s['pairs']}"
                  f"{' !' if flag else ''}")
            rows.setdefault(workload, {})[name] = {
                "parent": runs_summary([p for p, _ in values]),
                "change": runs_summary([c for _, c in values]),
                f"change_{metric['better']}_in_pairs": f"{s['wins']}/{s['pairs']}",
                "median_change_pct": round(100 * ratio, 2) if s["parent"] else None}
    for problem in problems:
        print(f"# {problem}")
    if args.json:
        record = {"command": f"python3 bench/run.py --workload W --seed {args.seed} "
                             f"--seconds {args.seconds:g} --trace 0",
                  "seed": args.seed, "pairs": args.pairs, **counts, "workloads": rows}
        args.json.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
