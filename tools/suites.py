"""Time and count the ``verify`` suites, stdlib only.

For each grid point and each single suite, prints the in-process CPU
time of ``verify.suite_reports`` (``time.process_time``, best of three,
model build included), the number of ``verify._apply_sum`` calls it
makes (one per evaluation of a relation at a word, and one per
application of a sum of maps inside a term), whether every report
passed, and the first 16 hex digits of the sha256 of the JSON that
``verify N D --suite SUITE --format json`` prints, which the digests of
``tests/test_golden.py`` use.

It runs at classical (4, 3), quantum (4, 4) and quantum (3, 5), the
points of the ROADMAP's suite table, and each of the suites relations,
idempotent, reduction, structural and specialize.  The package is
imported from ``PYTHONPATH`` when it is there, else from this tree's
``src``, so the same tool measures another checkout::

    python3 tools/suites.py
    PYTHONPATH=OTHER/src python3 tools/suites.py
"""

import hashlib
import io
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
POINTS = (("classical", 4, 3), ("quantum", 4, 4), ("quantum", 3, 5))
SUITES = ("relations", "idempotent", "reduction", "structural", "specialize")


def measure(verify, cli, mode, n, d, suite, rounds=3):
    """(best CPU seconds, ``_apply_sum`` calls, passed, digest) of one
    suite at one point."""
    calls = [0]
    real = verify._apply_sum

    def counted(*args):
        calls[0] += 1
        return real(*args)

    verify._apply_sum = counted
    try:
        passed = all(r.passed for r in verify.suite_reports(n, d, mode=mode, suite=suite))
    finally:
        verify._apply_sum = real
    best = float("inf")
    for _ in range(rounds):
        start = time.process_time()
        verify.suite_reports(n, d, mode=mode, suite=suite)
        best = min(best, time.process_time() - start)
    out = io.StringIO()
    argv = ["verify", str(n), str(d), "--suite", suite, "--format", "json"]
    with redirect_stdout(out):
        cli.main(argv + (["--quantum"] if mode == "quantum" else []))
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()[:16]
    return best, calls[0], passed, digest


def main(points=POINTS, suites=SUITES):
    sys.path.append(str(SRC))
    from schuralg import cli, verify

    print(f"{'point':<16} {'suite':<11} {'cpu_s':>7} {'calls':>7}  {'pass':<4}  digest")
    for mode, n, d in points:
        for suite in suites:
            best, calls, passed, digest = measure(verify, cli, mode, n, d, suite)
            print(f"{f'{mode} ({n}, {d})':<16} {suite:<11} {best:7.3f} {calls:7d}  "
                  f"{'yes' if passed else 'NO':<4}  {digest}")


if __name__ == "__main__":
    main()
