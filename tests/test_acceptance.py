"""End-to-end acceptance checks.

Each test covers one acceptance criterion and prints a single
``[acceptance] <k> <name>: PASS/FAIL`` line (visible with ``pytest -s``
or in the captured-output section of a failure).  With ``pytest -v``
the per-test result lines give the same one-line-per-criterion view.

Every numeric expectation here is recomputed by an independent oracle
inside the test (stars-and-bars counting by dynamic programming,
factorials, explicit enumerations); nothing is compared against values
produced by the code under test alone.
"""

import io
import json
import random
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from math import factorial

from schuralg.bases import enumerate_basis, rank_of_family, structure_constants
from schuralg.cli import main as cli_main
from schuralg.errors import NotDivisible
from schuralg.hecke import hecke_summary
from schuralg.rootvectors import eval_label
from schuralg.tensormodel import build_model
from schuralg.verify import (
    REDUCTION_FAMILIES,
    check_rank_one_presentation,
    check_reduction_formulas,
    check_specialization,
    check_structural_facts,
    suite_reports,
)

from oracle import operator_row

CLASSICAL_GRID = ((2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (4, 2))
QUANTUM_GRID = ((2, 2), (2, 3), (3, 2), (3, 3))


def _announce(number, name, ok):
    print(f"[acceptance] {number} {name}: {'PASS' if ok else 'FAIL'}")


def _monomial_count(symbols, degree):
    """Monomials of total degree <= degree in the given number of symbols.

    Counting oracle: in-place generating-function product of `symbols`
    geometric series, no binomial formula involved.
    """
    ways = [1] + [0] * degree
    for _ in range(symbols):
        for t in range(1, degree + 1):
            ways[t] += ways[t - 1]
    return sum(ways)


def test_criterion_1_relation_suites():
    failures = []
    start = time.perf_counter()
    for mode, grid in (("classical", CLASSICAL_GRID), ("quantum", QUANTUM_GRID)):
        for n, d in grid:
            for suite in ("relations", "idempotent"):
                for report in suite_reports(n, d, mode=mode, suite=suite):
                    failures.extend(
                        f"{mode}({n},{d}) {report.name}:{item.id}"
                        for item in report.failures()
                    )
    seconds = time.perf_counter() - start
    ok = not failures
    _announce(1, f"relation suites on the full grid ({seconds:.1f}s)", ok)
    assert ok, failures


def test_criterion_2_dimension_and_rank():
    failures = []
    for mode, grid in (("classical", CLASSICAL_GRID), ("quantum", QUANTUM_GRID)):
        for n, d in grid:
            model = build_model(n, d, mode=mode)
            expected = _monomial_count(n * n - 1, d)
            families = {
                "B1": enumerate_basis(n, d, "B1"),
                "B2": enumerate_basis(n, d, "B2"),
                "PBW(1)": enumerate_basis(n, d, "PBW", k0=1),
                f"PBW({n})": enumerate_basis(n, d, "PBW", k0=n),
            }
            for name, labels in families.items():
                if len(labels) != expected:
                    failures.append(
                        f"{mode}({n},{d}) |{name}| = {len(labels)} != {expected}"
                    )
                    continue
                rank = rank_of_family(model, [
                    operator_row(model, eval_label(model, label)) for label in labels
                ])
                if rank != expected:
                    failures.append(
                        f"{mode}({n},{d}) rank {name} = {rank} != {expected}"
                    )
    ok = not failures
    _announce(2, "basis counts and certified ranks match the counting oracle", ok)
    assert ok, failures


def test_criterion_3_specialization():
    failures = []
    for n, d in ((2, 2), (3, 2), (2, 3)):
        models = build_model(n, d), build_model(n, d, mode="quantum")
        report = check_specialization(*models)
        failures.extend(f"({n},{d}) {item.id}" for item in report.failures())
    ok = not failures
    _announce(3, "v = 1 specialization matches the classical operators", ok)
    assert ok, failures


def test_criterion_4_reduction_formulas():
    failures = []
    for n, d in ((2, 2), (2, 3), (3, 2)):
        for family in REDUCTION_FAMILIES:
            mode = "quantum" if family == "quantum-idempotent" else "classical"
            report = check_reduction_formulas(build_model(n, d, mode=mode), family)
            failures.extend(
                f"({n},{d}) {family}:{item.id}" for item in report.failures()
            )
            if d >= 2 and not any(not item.vacuous for item in report.items):
                failures.append(f"({n},{d}) {family}: no non-vacuous instance")
    ok = not failures
    _announce(4, "reduction formulas hold in all three families", ok)
    assert ok, failures


def test_criterion_5_rank_one_presentations():
    failures = []
    for d in range(1, 6):
        models = build_model(2, d), build_model(2, d, mode="quantum")
        report = check_rank_one_presentation(*models)
        failures.extend(f"d={d} {item.id}" for item in report.failures())
        # Counting oracle for the truncated monomial family.
        card = sum(
            1
            for a in range(d + 1)
            for b in range(d + 1)
            for c in range(d + 1)
            if a + b + c <= d
        )
        item = next(
            i for i in report.items if i.id == "classical:truncated-monomials"
        )
        if f"count {card}, rank {card}" not in item.detail:
            failures.append(f"d={d} truncated family: {item.detail}")
    ok = not failures
    _announce(5, "rank-one presentations for d = 1..5", ok)
    assert ok, failures


def test_criterion_6_structural_facts():
    failures = []
    for mode, grid in (("classical", CLASSICAL_GRID), ("quantum", QUANTUM_GRID)):
        for n, d in grid:
            report = check_structural_facts(build_model(n, d, mode=mode))
            failures.extend(
                f"{mode}({n},{d}) {item.id}" for item in report.failures()
            )
    ok = not failures
    _announce(6, "nilpotency, Cartan products, idempotents, triangularity", ok)
    assert ok, failures


def test_criterion_7_hecke():
    failures = []
    for n, d in ((2, 2), (3, 3)):
        for mode in ("classical", "quantum"):
            data = hecke_summary(build_model(n, d, mode=mode))
            if data["dim"] != factorial(d) or not data["pass"]:
                failures.append(f"{mode}({n},{d}) dim {data['dim']}")
            generation = data["generation"]
            if generation is None or not (generation["EF"] and generation["FE"]):
                failures.append(f"{mode}({n},{d}) generation {generation}")
    ok = not failures
    _announce(7, "corner truncation has rank d! and both families generate", ok)
    assert ok, failures


def _integral(mode, scalar):
    if mode == "classical":
        if isinstance(scalar, int):
            return True
        return isinstance(scalar, Fraction) and scalar.denominator == 1
    try:
        poly = scalar.as_laurent()
    except NotDivisible:
        return False
    return all(isinstance(c, int) for c in poly.coeffs.values())


def test_criterion_8_integrality_of_structure_constants():
    failures = []
    for mode in ("classical", "quantum"):
        model = build_model(2, 2, mode=mode)
        basis = enumerate_basis(2, 2, "B1")
        for i in range(len(basis)):
            for j in range(len(basis)):
                coeffs = structure_constants(model, basis, i, j)
                for label, scalar in coeffs.items():
                    if not _integral(mode, scalar):
                        failures.append(f"{mode}(2,2) [{i}][{j}] -> {scalar}")
    rng = random.Random(1729)
    basis32 = enumerate_basis(3, 2, "B1")
    pairs = [
        (rng.randrange(len(basis32)), rng.randrange(len(basis32)))
        for _ in range(50)
    ]
    for mode in ("classical", "quantum"):
        model = build_model(3, 2, mode=mode)
        for i, j in pairs:
            coeffs = structure_constants(model, basis32, i, j)
            for label, scalar in coeffs.items():
                if not _integral(mode, scalar):
                    failures.append(f"{mode}(3,2) [{i}][{j}] -> {scalar}")
    ok = not failures
    _announce(8, "structure constants are integral in both modes", ok)
    assert ok, failures


def _run_cli(argv):
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli_main(argv)
    return code, out.getvalue().encode()


def test_criterion_9_cli_determinism():
    failures = []
    for argv in (
        ["dim", "2", "2", "--format", "json"],
        ["dim", "2", "2", "--quantum", "--format", "json"],
        ["basis", "2", "3", "--kind", "pbw", "--format", "json"],
        ["verify", "3", "2", "--quantum", "--suite", "relations", "--format", "json"],
        ["verify", "2", "2", "--suite", "all", "--format", "json"],
        ["structconst", "2", "2", "--left", "0", "--right", "5", "--format", "json"],
        ["hecke", "3", "3", "--format", "json"],
    ):
        code1, bytes1 = _run_cli(argv)
        code2, bytes2 = _run_cli(argv)
        if code1 != 0 or code2 != 0:
            failures.append(f"{argv}: exit codes {code1}, {code2}")
        elif bytes1 != bytes2:
            failures.append(f"{argv}: outputs differ")
        else:
            json.loads(bytes1)  # well-formed JSON
    ok = not failures
    _announce(9, "repeated CLI runs emit byte-identical JSON", ok)
    assert ok, failures
