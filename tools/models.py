"""Time the model build and the Hecke certificate, stdlib only.

For each grid point, prints the in-process time of
``tensormodel.build_model`` and of ``certify_hecke_commutation`` on a
freshly built model, each the best of 40 rounds (``time.perf_counter``,
garbage collection off while timing), in milliseconds, and their sum:
the fixed cost that every command pays before its first image.

It runs at classical (5, 4), the model of the corner-c workload, and at
quantum (2, 7), (3, 4), (4, 3) and (3, 5), the models of dim-q and
structconst-q.  The package is imported from ``PYTHONPATH`` when it is
there, else from this tree's ``src``, so the same tool measures another
checkout::

    python3 tools/models.py
    PYTHONPATH=OTHER/src python3 tools/models.py
"""

import gc
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
POINTS = (("classical", 5, 4), ("quantum", 2, 7), ("quantum", 3, 4),
          ("quantum", 4, 3), ("quantum", 3, 5))


def measure(tensormodel, mode, n, d, rounds=40):
    """(best build seconds, best certificate seconds) at one point."""
    build, certify = float("inf"), float("inf")
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(rounds):
            start = time.perf_counter()
            model = tensormodel.build_model(n, d, mode=mode)
            mid = time.perf_counter()
            tensormodel.certify_hecke_commutation(model)
            end = time.perf_counter()
            build, certify = min(build, mid - start), min(certify, end - mid)
            del model  # freed here, not inside the next round's timed build
    finally:
        if enabled:
            gc.enable()
    return build, certify


def main(points=POINTS, rounds=40):
    sys.path.append(str(SRC))
    from schuralg import tensormodel

    print(f"{'point':<16} {'build_ms':>9} {'cert_ms':>9} {'total_ms':>9}")
    for mode, n, d in points:
        build, certify = measure(tensormodel, mode, n, d, rounds)
        print(f"{f'{mode} ({n}, {d})':<16} {build * 1e3:9.3f} {certify * 1e3:9.3f} "
              f"{(build + certify) * 1e3:9.3f}")


if __name__ == "__main__":
    main()
