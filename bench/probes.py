"""Layer probes installed from outside the package.

The package has no tracing of its own yet, so the benchmark wraps the
public functions of each layer after import.  Modules bind names with
``from .x import y``, so a function is replaced in every module that
binds it, not only in the one that defines it.  Methods are replaced on
their class, which every module shares.

Two probes exist, and a traced run uses each in its own process:

* :class:`Spans` records one span per wrapped call (name, start, end,
  parent span, operation id) and derives self times from them;
* :class:`Counters` counts work (scalar constructions, multiply-adds,
  entries produced, rank growth, ...).  Counting a few million scalar
  constructions costs seconds, so it never shares a process with the
  timed spans.
"""

import functools
import json
import time

import schuralg
from schuralg import bases, cli, hecke, ring, rootvectors, tensormodel, verify

MODULES = (schuralg, ring, tensormodel, rootvectors, bases, verify, hecke, cli)

# Span name -> (owner, attribute).  A module owner means a function that
# is rebound in every module of MODULES; a class owner means a method.
SPAN_TARGETS = {
    "tensormodel.build_model": (tensormodel, "build_model"),
    "tensormodel.matmul": (tensormodel.SparseOperator, "__matmul__"),
    "bases.enumerate_basis": (bases, "enumerate_basis"),
    "rootvectors.eval_label": (rootvectors, "eval_label"),
    "rootvectors.divided_power": (rootvectors, "divided_power"),
    "bases.rank_add": (bases.RankAccumulator, "add"),
    "bases.rank_of_family": (bases, "rank_of_family"),
    "bases.coordinates": (bases, "coordinates"),
    "hecke.omega_truncation": (hecke, "omega_truncation"),
    "verify.check_structural_facts": (verify, "check_structural_facts"),
    "cli.main": (cli, "main"),
}


def _replace(owner, attr, make):
    """Replace ``owner.attr`` by ``make(original)`` wherever it is bound."""
    original = getattr(owner, attr)
    wrapper = make(original)
    if isinstance(owner, type):
        setattr(owner, attr, wrapper)
        return
    for module in MODULES:
        for name, value in list(vars(module).items()):
            if value is original:
                setattr(module, name, wrapper)


class Spans:
    """In-memory span recorder.

    Each record is ``[name, start, end, parent, op]``; ``parent`` is the
    index of the enclosing span or -1, and ``op`` is the operation id
    the caller set in :attr:`op` (-1 outside any operation).
    """

    def __init__(self):
        self.records = []
        self.op = -1
        self.paused = False
        self._stack = []

    def install(self):
        for name, (owner, attr) in SPAN_TARGETS.items():
            _replace(owner, attr, functools.partial(self._wrap, name))

    def _wrap(self, name, fn):
        records, stack, clock = self.records, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(records))
            records.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = clock()

        return traced

    def totals(self):
        """Per name: call count, total duration and self time (s)."""
        child = [0.0] * len(self.records)
        for _, start, end, parent, _ in self.records:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for idx, (name, start, end, _, _) in enumerate(self.records):
            calls, total, self_s = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, total + end - start,
                         self_s + end - start - child[idx])
        return out

    def write(self, path):
        """Write the spans as JSON lines, one span per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for idx, (name, start, end, parent, op) in enumerate(self.records):
                handle.write(json.dumps({
                    "id": idx, "name": name, "start": start, "end": end,
                    "parent": parent, "op": op,
                }) + "\n")


class Counters:
    """Work counters taken in a pass of their own."""

    def __init__(self):
        self.c = dict.fromkeys((
            "ring.poly_new", "ring.fraction_new",
            "tensormodel.matmul.calls", "tensormodel.matmul.mults",
            "tensormodel.matmul.entries_out", "tensormodel.peak_op_entries",
            "rootvectors.eval_label.calls", "bases.rank_add.calls",
            "bases.rank_add.useful", "bases.rank_add.row_entries",
            "bases.coordinates.calls", "hecke.corner_images",
            "hecke.labels_evaluated", "verify.items",
        ), 0)
        self.distinct_labels = set()
        self.op = -1
        self.paused = False

    def install(self):
        for cls, key in ((ring.LaurentPoly, "ring.poly_new"),
                         (ring.LaurentFraction, "ring.fraction_new")):
            _replace(cls, "__init__", functools.partial(self._count_init, key))
        _replace(tensormodel.SparseOperator, "__matmul__", self._count_matmul)
        _replace(rootvectors, "eval_label", self._count_eval_label)
        _replace(bases.RankAccumulator, "add", self._count_rank_add)
        _replace(bases, "coordinates", self._count_calls("bases.coordinates.calls"))
        _replace(hecke, "omega_truncation", self._count_omega)
        for attr in ("add", "append"):
            _replace(verify.CheckReport, attr, self._count_calls("verify.items"))

    def _count_init(self, key, init):
        c = self.c

        def counted(obj, *args, **kwargs):
            if not self.paused:
                c[key] += 1
            init(obj, *args, **kwargs)

        return counted

    def _count_calls(self, key):
        def make(fn):
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                if not self.paused:
                    self.c[key] += 1
                return fn(*args, **kwargs)

            return counted

        return make

    def _count_matmul(self, matmul):
        c = self.c

        def counted(a, b):
            out = matmul(a, b)
            if self.paused or not isinstance(b, tensormodel.SparseOperator):
                return out
            acols = a.cols
            mults = 0
            for bcol in b.cols.values():
                for mid in bcol:
                    acol = acols.get(mid)
                    if acol:
                        mults += len(acol)
            entries = out.entry_count()
            c["tensormodel.matmul.calls"] += 1
            c["tensormodel.matmul.mults"] += mults
            c["tensormodel.matmul.entries_out"] += entries
            if entries > c["tensormodel.peak_op_entries"]:
                c["tensormodel.peak_op_entries"] = entries
            return out

        return counted

    def _count_eval_label(self, eval_label):
        c = self.c

        @functools.wraps(eval_label)
        def counted(model, label):
            out = eval_label(model, label)
            if not self.paused:
                c["rootvectors.eval_label.calls"] += 1
                self.distinct_labels.add((id(model), model.n, model.d, model.mode, label))
                entries = out.entry_count()
                if entries > c["tensormodel.peak_op_entries"]:
                    c["tensormodel.peak_op_entries"] = entries
            return out

        return counted

    def _count_rank_add(self, add):
        c = self.c

        @functools.wraps(add)
        def counted(acc, op):
            grew = add(acc, op)
            if not self.paused:
                c["bases.rank_add.calls"] += 1
                c["bases.rank_add.useful"] += bool(grew)
                c["bases.rank_add.row_entries"] += op.entry_count()
            return grew

        return counted

    def _count_omega(self, omega_truncation):
        c = self.c

        @functools.wraps(omega_truncation)
        def counted(model):
            result = omega_truncation(model)
            if self.paused:
                return result
            c["hecke.corner_images"] += len(result.family)
            c["hecke.labels_evaluated"] += len(bases.enumerate_basis(model.n, model.d, "B1"))
            return result

        return counted

    def snapshot(self):
        out = dict(self.c)
        out["rootvectors.eval_label.distinct"] = len(self.distinct_labels)
        return out
