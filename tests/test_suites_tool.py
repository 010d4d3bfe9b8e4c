"""Smoke test of ``tools/suites.py``, the suite timer whose numbers the
ROADMAP quotes."""

import hashlib
import importlib.util
import io
from contextlib import redirect_stdout
from pathlib import Path

from schuralg import cli, verify

SUITES_PATH = Path(__file__).resolve().parent.parent / "tools" / "suites.py"


def _load_suites():
    spec = importlib.util.spec_from_file_location("suites", SUITES_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _digest(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        cli.main(argv)
    return hashlib.sha256(out.getvalue().encode()).hexdigest()[:16]


def test_suites_prints_one_row_per_point_and_suite():
    suites = _load_suites()
    out = io.StringIO()
    with redirect_stdout(out):
        suites.main(points=[("classical", 2, 2), ("quantum", 2, 2)],
                    suites=["idempotent", "reduction"])
    header, *rows = out.getvalue().splitlines()
    assert header.split() == ["point", "suite", "cpu_s", "calls", "pass", "digest"]
    assert len(rows) == 4
    for row, (mode, suite) in zip(rows, [(m, s) for m in ("classical", "quantum")
                                          for s in ("idempotent", "reduction")]):
        cells = row.split()
        assert cells[:4] == [mode, "(2,", "2)", suite]
        assert float(cells[4]) >= 0 and int(cells[5]) > 0 and cells[6] == "yes"
        argv = ["verify", "2", "2", "--suite", suite, "--format", "json"]
        assert cells[7] == _digest(argv + (["--quantum"] if mode == "quantum" else []))
    # The tool puts the real _apply_sum back.
    assert verify._apply_sum.__name__ == "_apply_sum"


def test_measure_counts_the_apply_sum_calls():
    # Classical (2, 2) has 3 weights: S1 reads 3 * 3 + 3 images, S2 makes
    # 4 instances per weight less the 2 whose source is no weight, and
    # S3 one per weight.
    suites = _load_suites()
    _, calls, passed, _ = suites.measure(verify, cli, "classical", 2, 2, "idempotent",
                                         rounds=1)
    assert passed and calls == 12 + (12 - 2) + 3
