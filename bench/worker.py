"""One benchmark pass of one workload, in a fresh interpreter.

``bench/run.py`` starts this file with ``python3 -I -S`` from the root
of a checkout and passes one JSON argument::

    {"workload": "dim-q", "seed": 0, "seconds": 25, "pass": "plain"}

``pass`` is ``plain`` (no probe, set-up samples), ``spans`` or
``count`` (under the probe of that name).  The workload repeats for up
to ``seconds`` (at least once), or runs once when ``once`` is true, as
in a traced run.  The last line of standard output is one JSON object
with the raw and reference-speed time of every repetition (see
``speed.py``), the outcome of every operation and, for a probed pass,
the probe's numbers.  Judging the outcomes against the
golden digests is left to ``run.py``.
"""

import contextlib
import hashlib
import io
import json
import os
import random
import resource
import statistics
import sys
import time

CHECKOUT = os.getcwd()
sys.path.insert(0, os.path.join(CHECKOUT, "src"))
sys.path.insert(1, os.path.dirname(os.path.abspath(__file__)))

import schuralg  # noqa: E402
import speed  # noqa: E402
from schuralg import bases, cli, rootvectors, tensormodel  # noqa: E402

if not os.path.abspath(schuralg.__file__).startswith(os.path.join(CHECKOUT, "src")):
    raise SystemExit(f"imported schuralg from {schuralg.__file__}, not from ./src")

SETUP_SAMPLES = 10

# Spec-point pairs for dim-q.  Seed 0 takes the CLI default 7/5,11/7;
# every pair is 7/a,11/b with a from 4 to 6 and b from 7 to 9, so the
# specialized rows' integers have the same height and the specialized
# rank work costs about the same for every seed.
SPEC_POOL = ("7/5,11/7", "7/4,11/8", "7/6,11/9", "7/5,11/8",
             "7/4,11/7", "7/6,11/8", "7/5,11/9", "7/6,11/7")

# Workload -> CLI commands (without --spec-points), set-up calls
# (n, d, mode, enumerates B1) and, for structure constants, the grid
# point and the block-size stratum the pairs are drawn from.
WORKLOADS = {
    "dim-q": {
        "commands": ["dim 2 7 --quantum", "dim 3 4 --quantum", "dim 4 3 --quantum"],
        "setup": [(2, 7, "quantum", True), (3, 4, "quantum", True), (4, 3, "quantum", True)],
    },
    "corner-c": {
        "commands": ["hecke 5 4"],
        "setup": [(5, 4, "classical", True)],
    },
    "structural-c": {
        "commands": ["verify 4 4 --suite structural"],
        "setup": [(4, 4, "classical", False)],
    },
    "structconst-q": {
        "structconst": {"n": 3, "d": 5, "sizes": (4, 5), "step": 1},
        "setup": [(3, 5, "quantum", True)],
    },
    "smoke": {
        "commands": ["dim 2 2 --quantum", "hecke 3 3", "verify 2 3 --suite structural"],
        "structconst": {"n": 2, "d": 3, "sizes": (2, 9), "step": 2},
        "setup": [(2, 2, "quantum", True), (2, 3, "quantum", True)],
    },
}


def spec_points(seed):
    return SPEC_POOL[seed % len(SPEC_POOL)]


def _block_shift(roots, lam, exponents):
    out = list(lam)
    for (i, j), m in zip(roots, exponents):
        out[i - 1] += m
        out[j - 1] -= m
    return tuple(out)


def choose_pairs(n, d, seed, sizes, step):
    """Seeded (left, right) B1 index pairs with nonzero products.

    A B1 label e_A 1_lam f_C maps weight lam + shift(C) to
    lam + shift(A), where shift sums m * (eps_i - eps_j) over the roots.
    The product blocks are fixed: every ``step``-th block, in sorted
    order, whose B1 label count lies in ``sizes``.  For each, the seed
    draws a right factor leaving the block's source and a left factor
    entering its target; a pair is kept once its classical product is
    nonzero, which implies the quantum product is nonzero too.
    """
    labels = bases.enumerate_basis(n, d, "B1")
    roots = tensormodel.RootData.for_rank(n).positive_roots
    src = [_block_shift(roots, lab.lam, lab.C) for lab in labels]
    dst = [_block_shift(roots, lab.lam, lab.A) for lab in labels]
    sizes_by_block = {}
    for block in zip(src, dst):
        sizes_by_block[block] = sizes_by_block.get(block, 0) + 1
    lo, hi = sizes
    blocks = [b for b in sorted(sizes_by_block) if lo <= sizes_by_block[b] <= hi][::step]
    classical = tensormodel.build_model(n, d, "classical")
    rng = random.Random(seed)
    pairs = []
    for source, target in blocks:
        rights = [k for k in range(len(labels)) if src[k] == source]
        for _ in range(200):
            right = rng.choice(rights)
            lefts = [k for k in range(len(labels)) if src[k] == dst[right] and dst[k] == target]
            if not lefts:
                continue
            left = rng.choice(lefts)
            product = (rootvectors.eval_label(classical, labels[left])
                       @ rootvectors.eval_label(classical, labels[right]))
            if not product.is_zero():
                pairs.append((left, right))
                break
    return pairs


def _integral(op):
    return {(j, i): s.as_laurent() for j, col in op.cols.items() for i, s in col.items()}


def expansion_is_exact(model, labels, left, right, coeffs):
    """Sum of coefficient * eval_label equals the product, computed over
    integer Laurent polynomials; non-integral coefficients raise."""
    product = (rootvectors.eval_label(model, labels[left])
               @ rootvectors.eval_label(model, labels[right]))
    total = {}
    for label, s in coeffs.items():
        c = s.as_laurent()
        for key, t in _integral(rootvectors.eval_label(model, label)).items():
            total[key] = total.get(key, 0) + c * t
    return {k: t for k, t in total.items() if t} == _integral(product)


class Workload:
    """The inputs of one workload for one seed, and one repetition."""

    def __init__(self, name, seed):
        spec = WORKLOADS[name]
        self.name = name
        self.seed = seed
        self.commands = []
        for command in spec.get("commands", []):
            argv = command.split()
            if command.startswith("dim") and "--quantum" in argv:
                argv += ["--spec-points", spec_points(seed)]
            self.commands.append((command, argv + ["--format", "json"]))
        self.setup = spec["setup"]
        self.structconst = spec.get("structconst")
        self.pairs = []
        if self.structconst:
            sc = self.structconst
            self.pairs = choose_pairs(sc["n"], sc["d"], seed, sc["sizes"], sc["step"])
        self.checked = {}

    def set_up_once(self):
        for n, d, mode, with_basis in self.setup:
            tensormodel.build_model(n, d, mode)
            if with_basis:
                bases.enumerate_basis(n, d, "B1")

    def repeat(self, probe):
        """One repetition; returns (wall seconds, reference seconds,
        operation outcomes).  Under a probe the speed is not sampled and
        the reference time is the wall time."""
        outcomes = []
        meter = None if probe else speed.SpeedMeter()
        if meter:
            meter.start()
        t0 = time.perf_counter()
        for op, (key, argv) in enumerate(self.commands):
            if probe:
                probe.op = op
            outcomes.append(self._run_command(key, argv))
        if self.pairs:
            model, labels, results = self._run_structconst(probe, len(self.commands))
        wall = time.perf_counter() - t0
        ref = wall
        if meter:
            wall, ref = meter.stop()
        if self.pairs:
            if probe:
                probe.paused = True
            outcomes.extend(self._check_structconst(model, labels, results))
            if probe:
                probe.paused = False
        return wall, ref, outcomes

    @staticmethod
    def _run_command(key, argv):
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                rc = cli.main(argv)
            text = out.getvalue()
            verdict = json.loads(text).get("pass")
        except Exception as exc:  # an exception is a failed operation
            return {"op": key, "kind": "cli", "error": repr(exc)}
        return {"op": key, "kind": "cli", "rc": rc, "pass": verdict,
                "digest": hashlib.sha256(text.encode()).hexdigest()}

    def _run_structconst(self, probe, first_op):
        """Expand every pair; returns the model, the labels and, per pair,
        (pair, coefficients or the exception raised)."""
        sc = self.structconst
        model = tensormodel.build_model(sc["n"], sc["d"], "quantum")
        labels = bases.enumerate_basis(sc["n"], sc["d"], "B1")
        results = []
        for op, (left, right) in enumerate(self.pairs, start=first_op):
            if probe:
                probe.op = op
            try:
                coeffs = bases.structure_constants(model, labels, left, right)
            except Exception as exc:  # an exception is a failed operation
                coeffs = exc
            results.append(((left, right), coeffs))
        return model, labels, results

    def _check_structconst(self, model, labels, results):
        """Outcomes of the structure-constant operations.

        The first repetition checks every expansion exactly; a later one
        must reproduce the first one's digest of the coefficients.
        """
        sc = self.structconst
        outcomes = []
        for (left, right), coeffs in results:
            key = f"structconst {sc['n']} {sc['d']} --quantum --left {left} --right {right}"
            outcome = {"op": key, "kind": "structconst"}
            outcomes.append(outcome)
            if isinstance(coeffs, Exception):
                outcome["error"] = repr(coeffs)
                continue
            rendered = sorted(
                (rootvectors.label_key(lab, model.root_data), model.scalars.render(s))
                for lab, s in coeffs.items()
            )
            digest = hashlib.sha256(json.dumps(rendered).encode()).hexdigest()
            if key not in self.checked:
                try:
                    exact = expansion_is_exact(model, labels, left, right, coeffs)
                except Exception as exc:  # e.g. NotDivisible: not integral
                    outcome["error"] = repr(exc)
                    exact = False
                self.checked[key] = (digest, exact)
            first_digest, exact = self.checked[key]
            outcome["exact"] = exact and digest == first_digest
            outcome["digest"] = digest
        return outcomes


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(spec):
    workload = Workload(spec["workload"], spec["seed"])
    result = {"workload": workload.name, "seed": workload.seed, "pass": spec["pass"],
              "pairs": len(workload.pairs)}
    probe = None
    setup_samples, setup_raw = [], []

    def sample_setup(count):
        for _ in range(count):
            _, raw, ref = speed.measure(workload.set_up_once)
            setup_raw.append(raw)
            setup_samples.append(ref)

    if spec["pass"] == "plain":
        sample_setup(SETUP_SAMPLES // 2)
    else:
        import probes

        probe = probes.Spans() if spec["pass"] == "spans" else probes.Counters()
        probe.install()
    walls, refs, outcomes = [], [], []
    start = time.perf_counter()
    # Stop when another repetition would end past ``seconds``; a run
    # measures at least one repetition, however long.
    while True:
        wall, ref, ops = workload.repeat(probe)
        walls.append(wall)
        refs.append(ref)
        outcomes.extend(ops)
        elapsed = time.perf_counter() - start
        if spec.get("once") or elapsed + statistics.median(walls) > spec["seconds"]:
            break
    if spec["pass"] == "plain":
        # Machine speed drifts over seconds; sampling on both sides of the
        # repetitions keeps one slow spell from setting the median.
        sample_setup(SETUP_SAMPLES - SETUP_SAMPLES // 2)
        result["setup_samples"] = setup_samples
        result["setup_raw"] = setup_raw
    result["walls"] = walls
    result["refs"] = refs
    result["outcomes"] = outcomes
    result["peak_rss_mb"] = _peak_rss_mb()
    if spec["pass"] == "spans":
        result["spans"] = {name: list(v) for name, v in probe.totals().items()}
        if spec.get("spans_file"):
            probe.write(spec["spans_file"])
        result["span_count"] = len(probe.records)
    elif spec["pass"] == "count":
        result["counters"] = probe.snapshot()
    return result


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
