"""The package names that the benchmark binds still resolve.

``bench/probes.py`` wraps the functions and methods named in its
``SPAN_TARGETS`` and its ``Counters``, and ``bench/worker.py`` calls a
few more.  The benchmark lies outside these tests, so a name deleted
from the package would break it unnoticed; this test loads the probes
as the benchmark does and resolves every name.
"""

import importlib.util
from pathlib import Path

from schuralg import bases, cli, hecke, ring, rootvectors, tensormodel, verify
from schuralg.rootvectors import BasisLabel
from schuralg.tensormodel import build_model

PROBES = Path(__file__).resolve().parent.parent / "bench" / "probes.py"

# (owner, attribute) of the names that the counters wrap and that the
# worker calls.
BENCH_NAMES = [
    (ring.LaurentPoly, "__init__"),
    (ring.LaurentFraction, "__init__"),
    (tensormodel, "build_model"),
    (tensormodel.RootData, "for_rank"),
    (tensormodel.SparseOperator, "__matmul__"),
    (tensormodel.SparseOperator, "is_zero"),
    (tensormodel.SparseOperator, "entry_count"),
    (rootvectors, "eval_label"),
    (rootvectors, "label_key"),
    (bases, "enumerate_basis"),
    (bases, "structure_constants"),
    (bases, "coordinates"),
    (bases.RankAccumulator, "add"),
    (hecke, "omega_truncation"),
    (verify.CheckReport, "add"),
    (verify.CheckReport, "append"),
    (cli, "main"),
]


def _load_probes():
    spec = importlib.util.spec_from_file_location("probes", PROBES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_target_resolves():
    targets = _load_probes().SPAN_TARGETS
    assert targets
    missing = [name for name, (owner, attr) in targets.items()
               if not callable(getattr(owner, attr, None))]
    assert missing == []


def test_every_name_the_worker_and_counters_use_resolves():
    missing = [(getattr(owner, "__name__", owner), attr) for owner, attr in BENCH_NAMES
               if not callable(getattr(owner, attr, None))]
    assert missing == []
    # The worker multiplies label operators and reads their columns.
    model = build_model(2, 2)
    op = rootvectors.eval_label(model, BasisLabel("B1", (1,), (1, 1), (1,)))
    assert isinstance((op @ op).is_zero(), bool)
    assert isinstance(op.cols, dict) and op.entry_count() > 0
