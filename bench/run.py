"""Benchmark harness for schuralg.

Run from the root of a checkout::

    python3 bench/run.py --workload dim-q --seed 0 --seconds 25 --trace 0
    python3 bench/run.py --workload all              # every workload, one table

Each workload pass runs in its own fresh ``python3 -I -S`` process
(``bench/worker.py``) that imports the package from ``./src``.

``--trace 0`` measures the end-to-end metrics: the workload repeats
for up to ``--seconds`` (at least once), and ``wall_s`` is the median
repetition in reference seconds, the wall time rescaled to a fixed
machine speed that ``bench/speed.py`` samples while the work runs.
``--trace 1`` runs three one-repetition passes, each in its own
process: plain, spans and counters; it reports the per-layer metrics
and the tracing overhead (spans minus plain wall time).

Every operation is checked: CLI JSON against the golden digests in
``bench/golden.json``, and each structure-constant expansion exactly.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller record
of the run, with its metadata, goes to ``bench/out/``.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
GOLDEN = os.path.join(HERE, "golden.json")
OUT = os.path.join(HERE, "out")

WORKLOADS = ("dim-q", "corner-c", "structural-c", "structconst-q")
IMPORT_SAMPLES = 10
# A run must end within 180 s; each worker gets what is left of this.
RUN_BUDGET_S = 170.0

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "tensormodel.build_model.s": "s",
    "bases.enumerate_basis.s": "s",
    "tensormodel.matmul.calls": "count",
    "tensormodel.matmul.self_s": "s",
    "tensormodel.matmul.mults": "count",
    "tensormodel.matmul.entries_out": "count",
    "tensormodel.matmul.ns_per_mult": "ns",
    "tensormodel.peak_op_entries": "count",
    "ring.fraction_new": "count",
    "ring.poly_new": "count",
    "rootvectors.eval_label.calls": "count",
    "rootvectors.eval_label.self_s": "s",
    "rootvectors.eval_label.distinct": "count",
    "rootvectors.eval_label.repeat_ratio": "ratio",
    "rootvectors.divided_power.self_s": "s",
    "hecke.omega_truncation.self_s": "s",
    "hecke.corner_yield": "ratio",
    "bases.rank_add.calls": "count",
    "bases.rank_add.self_s": "s",
    "bases.rank_add.useful_ratio": "ratio",
    "bases.rank_add.row_entries": "count",
    "bases.rank_of_family.self_s": "s",
    "bases.coordinates.calls": "count",
    "bases.coordinates.self_s": "s",
    "verify.check_structural_facts.self_s": "s",
    "verify.items": "count",
    "cli.main.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


class WorkerError(RuntimeError):
    """A worker process failed or printed no result."""


def _deadline_left(deadline):
    left = deadline - time.monotonic()
    if left <= 0:
        raise WorkerError("run budget exhausted")
    return left


def run_worker(spec, deadline):
    """Run one pass in a fresh interpreter and return its JSON result."""
    proc = subprocess.run(
        [sys.executable, "-I", "-S", WORKER, json.dumps(spec)],
        capture_output=True, text=True, timeout=_deadline_left(deadline),
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(
            f"worker {spec['workload']}/{spec['pass']} exited {proc.returncode}: "
            + proc.stderr.strip()[-2000:]
        )
    return json.loads(lines[-1])


def import_seconds(count, deadline):
    """Raw and reference-speed times to import the package, one
    [raw, ref] pair per fresh interpreter, ``count`` of them."""
    code = ("import sys; sys.path[:0] = ['src', %r]; import speed; "
            "_, raw, ref = speed.measure(lambda: __import__('schuralg.cli')); "
            "print(raw, ref)" % HERE)
    samples = []
    for _ in range(count):
        proc = subprocess.run([sys.executable, "-I", "-S", "-c", code], capture_output=True,
                              text=True, timeout=_deadline_left(deadline))
        if proc.returncode != 0:
            raise WorkerError("importing schuralg failed: " + proc.stderr.strip()[-2000:])
        samples.append([float(v) for v in proc.stdout.split()])
    return samples


def judge(outcomes, golden):
    """Return (attempted, failed, failure notes) for operation outcomes.

    A CLI operation fails on an exception, a non-zero exit, a FAIL
    verdict or a digest other than the golden one; a structure-constant
    operation fails on an exception or an inexact expansion.
    """
    failed, notes = 0, []
    digests = {}
    for out in outcomes:
        if out["kind"] == "cli":
            ok = ("error" not in out and out["rc"] == 0 and out["pass"] is True
                  and out["digest"] == golden.get(out["op"]))
        else:
            ok = "error" not in out and out["exact"]
            # Every pass and repetition must reproduce the same expansion.
            ok = ok and digests.setdefault(out["op"], out["digest"]) == out["digest"]
        if not ok:
            failed += 1
            notes.append(f"{out['op']}: {json.dumps(out, sort_keys=True)}")
    return len(outcomes), failed, notes


def load_golden():
    with open(GOLDEN, encoding="utf-8") as handle:
        return json.load(handle)["digests"]


def metadata(seed):
    sha = "unknown"
    if os.path.isdir(".git") and shutil.which("git"):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
        if proc.returncode == 0:
            sha = proc.stdout.strip()
    src_lines = 0
    pkg = os.path.join("src", "schuralg")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), encoding="utf-8") as handle:
                src_lines += sum(1 for _ in handle)
    return {"git_sha": sha, "python": platform.python_version(), "nproc": os.cpu_count(),
            "seed": seed, "src_lines": src_lines}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(plain, spans, counters):
    """Per-layer metrics from the three passes of a traced run."""
    totals = spans["spans"]
    c = counters["counters"]

    def total_s(name):
        return totals.get(name, [0, 0.0, 0.0])[1]

    def self_s(name):
        return totals.get(name, [0, 0.0, 0.0])[2]

    m = {
        "tensormodel.build_model.s": total_s("tensormodel.build_model"),
        "bases.enumerate_basis.s": total_s("bases.enumerate_basis"),
        "tensormodel.matmul.self_s": self_s("tensormodel.matmul"),
        "tensormodel.matmul.ns_per_mult": _ratio(self_s("tensormodel.matmul") * 1e9,
                                                 c["tensormodel.matmul.mults"]),
        "rootvectors.eval_label.self_s": self_s("rootvectors.eval_label"),
        "rootvectors.eval_label.distinct": c["rootvectors.eval_label.distinct"],
        "rootvectors.eval_label.repeat_ratio": _ratio(c["rootvectors.eval_label.calls"],
                                                      c["rootvectors.eval_label.distinct"]),
        "rootvectors.divided_power.self_s": self_s("rootvectors.divided_power"),
        "hecke.omega_truncation.self_s": self_s("hecke.omega_truncation"),
        "hecke.corner_yield": _ratio(c["hecke.corner_images"], c["hecke.labels_evaluated"]),
        "bases.rank_add.self_s": self_s("bases.rank_add"),
        "bases.rank_add.useful_ratio": _ratio(c["bases.rank_add.useful"],
                                              c["bases.rank_add.calls"]),
        "bases.rank_of_family.self_s": self_s("bases.rank_of_family"),
        "bases.coordinates.self_s": self_s("bases.coordinates"),
        "verify.check_structural_facts.self_s": self_s("verify.check_structural_facts"),
        "cli.main.self_s": self_s("cli.main"),
        "trace.wall_s": spans["walls"][0],
        "trace.overhead_s": spans["walls"][0] - plain["walls"][0],
    }
    for key in ("tensormodel.matmul.calls", "tensormodel.matmul.mults",
                "tensormodel.matmul.entries_out", "tensormodel.peak_op_entries",
                "ring.fraction_new", "ring.poly_new", "rootvectors.eval_label.calls",
                "bases.rank_add.calls", "bases.rank_add.row_entries",
                "bases.coordinates.calls", "verify.items"):
        m[key] = c[key]
    return m


def run_workload(workload, seed, seconds, trace, golden=None):
    """Run one workload; return (result line dict, full record dict)."""
    golden = load_golden() if golden is None else golden
    deadline = time.monotonic() + RUN_BUDGET_S
    os.makedirs(OUT, exist_ok=True)
    base = {"workload": workload, "seed": seed, "seconds": seconds}
    record = {"meta": metadata(seed), "workload": workload, "trace": trace}
    if not trace:
        # Import samples on both sides of the workload, as in worker.py.
        imp_samples = import_seconds(IMPORT_SAMPLES // 2, deadline)
        plain = run_worker(dict(base, **{"pass": "plain"}), deadline)
        imp_samples += import_seconds(IMPORT_SAMPLES - IMPORT_SAMPLES // 2, deadline)
        passes = [plain]
        setup_s = (statistics.median(ref for _, ref in imp_samples)
                   + statistics.median(plain["setup_samples"]))
        metrics = {"wall_s": statistics.median(plain["refs"]), "setup_s": setup_s,
                   "peak_rss_mb": plain["peak_rss_mb"]}
        units = END_TO_END_UNITS
        record["import_samples"] = imp_samples
    else:
        spans_file = os.path.join(OUT, f"{workload}-seed{seed}-spans.jsonl")
        passes = [run_worker(dict(base, once=True, spans_file=spans_file, **{"pass": p}),
                             deadline)
                  for p in ("plain", "spans", "count")]
        metrics = layer_metrics(*passes)
        units = PER_LAYER_UNITS
        record["spans_file"] = os.path.relpath(spans_file)
    outcomes = [out for p in passes for out in p["outcomes"]]
    attempted, failed, notes = judge(outcomes, golden)
    record["passes"] = [{k: v for k, v in p.items() if k != "outcomes"} for p in passes]
    record["failures"] = notes
    line = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    record["result"] = line
    path = os.path.join(OUT, f"{workload}-seed{seed}-trace{int(trace)}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
    return line, record


def _summary(workload, line, record):
    m = {k: v["value"] for k, v in line["metrics"].items()}
    frac = line["failed"] / line["attempted"]
    walls = record["passes"][0]["walls"]
    if record["trace"]:
        shown = " ".join(f"{k}={m[k]:.6g}" for k in sorted(m))
    else:
        shown = (f"wall_s={m['wall_s']:.4f} (median of {len(walls)}; raw "
                 f"{statistics.median(walls):.4f}) "
                 f"setup_s={m['setup_s']:.4f} peak_rss_mb={m['peak_rss_mb']:.1f}")
    return (f"# {workload} seed={record['meta']['seed']} {shown} fail_frac={frac:.4g} "
            f"({line['failed']}/{line['attempted']})")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all", "smoke"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "schuralg", "__init__.py")):
        print("bench: run from the root of a schuralg checkout (no src/schuralg here)",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    meta = metadata(args.seed)
    print("# meta " + json.dumps(meta, sort_keys=True))
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for name in names:
            line, record = run_workload(name, args.seed, args.seconds, bool(args.trace))
            print(_summary(name, line, record))
            for note in record["failures"]:
                print(f"# FAILED {note}", file=sys.stderr)
            total["correct"] = total["correct"] and line["correct"]
            total["attempted"] += line["attempted"]
            total["failed"] += line["failed"]
            prefix = "" if len(names) == 1 else f"{name}."
            total["metrics"].update({prefix + k: v for k, v in line["metrics"].items()})
    except (WorkerError, subprocess.TimeoutExpired) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(total, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
