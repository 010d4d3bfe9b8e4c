"""Tests for basis enumeration, rank certification, coordinates, and
structure constants."""

import random
from fractions import Fraction
from functools import partial
from math import comb

import pytest

from schuralg.errors import NotInSpan
from schuralg.bases import (
    RankAccumulator,
    _certified_solve,
    _label_block,
    _op_blocks,
    _operator_row,
    basis_csv,
    basis_json,
    block_dimension,
    block_index,
    content,
    content_low,
    coordinates,
    enumerate_basis,
    rank_of_family,
    root_sum,
    structure_constants,
    structure_table_json,
)
from schuralg.ring import LaurentFraction, LaurentPoly
from schuralg.rootvectors import BasisLabel, eval_label
from schuralg.tensormodel import SparseOperator, build_model, compositions


def monomial_count(symbols, degree):
    """Stars-and-bars oracle: monomials of degree <= degree in the
    given number of commuting symbols."""
    return comb(symbols + degree, degree)


def test_content_examples():
    m = build_model(3, 2)
    rd = m.root_data  # roots (1,2), (1,3), (2,3)
    assert content(rd, (1, 0, 0)) == (0, 1, 0)
    assert content(rd, (0, 2, 1)) == (0, 0, 3)
    assert content(rd, (0, 0, 0)) == (0, 0, 0)
    assert content_low(rd, (1, 0, 0)) == (1, 0, 0)
    assert content_low(rd, (0, 2, 1)) == (2, 1, 0)
    assert root_sum(rd, (1, 0, 1)) == (1, 0, -1)
    assert root_sum(rd, (0, 1, 0)) == (1, 0, -1)
    assert root_sum(rd, (2, 0, 0)) == (2, -2, 0)


def test_b1_count_2_2():
    labels = enumerate_basis(2, 2, "B1")
    assert len(labels) == 10
    # Per-weight breakdown: (2,0) allows only A=C=0; (1,1) allows
    # a+c <= 1; (0,2) allows a+c <= 2.
    by_lam = {}
    for label in labels:
        by_lam.setdefault(label.lam, 0)
        by_lam[label.lam] += 1
    assert by_lam == {(2, 0): 1, (1, 1): 3, (0, 2): 6}


def test_b2_count_2_2_mirrors_b1():
    # The B2 admissibility measure charges the first root coordinate, so
    # the per-weight breakdown is the reverse of B1's.
    by_lam = {}
    for label in enumerate_basis(2, 2, "B2"):
        by_lam.setdefault(label.lam, 0)
        by_lam[label.lam] += 1
    assert by_lam == {(2, 0): 6, (1, 1): 3, (0, 2): 1}


@pytest.mark.parametrize("n,d", [(2, 2), (2, 3), (3, 2), (2, 4)])
def test_basis_counts_match_monomial_oracle(n, d):
    expected = monomial_count(n * n - 1, d)
    assert len(enumerate_basis(n, d, "B1")) == expected
    assert len(enumerate_basis(n, d, "B2")) == expected
    assert len(enumerate_basis(n, d, "PBW", k0=1)) == expected
    assert len(enumerate_basis(n, d, "PBW", k0=n)) == expected


def test_plus_minus_zero_counts():
    roots = 3  # n = 3
    assert len(enumerate_basis(3, 2, "PLUS")) == monomial_count(roots, 2)
    assert len(enumerate_basis(3, 2, "MINUS")) == monomial_count(roots, 2)
    assert len(enumerate_basis(3, 2, "ZERO")) == 6
    assert len(enumerate_basis(2, 2, "BOREL_UP")) == 6
    assert len(enumerate_basis(2, 2, "BOREL_DOWN")) == 6


def test_enumeration_is_deterministic_and_admissible():
    labels = enumerate_basis(3, 2, "B1")
    assert labels == enumerate_basis(3, 2, "B1")
    m = build_model(3, 2)
    for label in labels:
        total = tuple(
            a + c
            for a, c in zip(content(m.root_data, label.A), content(m.root_data, label.C))
        )
        assert all(t <= l for t, l in zip(total, label.lam))
    for label in enumerate_basis(3, 2, "B2"):
        total = tuple(
            a + c
            for a, c in zip(
                content_low(m.root_data, label.A), content_low(m.root_data, label.C)
            )
        )
        assert all(t <= l for t, l in zip(total, label.lam))


@pytest.mark.parametrize("mode", ["classical", "quantum"])
@pytest.mark.parametrize("kind", ["B1", "B2", "ZERO", "PLUS", "MINUS", "BOREL_UP", "BOREL_DOWN"])
def test_families_have_full_rank(mode, kind):
    n, d = 2, 2
    m = build_model(n, d, mode=mode)
    labels = enumerate_basis(n, d, kind)
    ops = [eval_label(m, label) for label in labels]
    assert rank_of_family(m, ops) == len(labels), (mode, kind)


@pytest.mark.parametrize("mode", ["classical", "quantum"])
def test_pbw_full_rank_both_k0(mode):
    m = build_model(2, 3, mode=mode)
    for k0 in (1, 2):
        labels = enumerate_basis(2, 3, "PBW", k0=k0)
        ops = [eval_label(m, label) for label in labels]
        assert rank_of_family(m, ops) == len(labels)


def test_rank_detects_dependence():
    m = build_model(2, 2)
    e = m.generator("e", 1)
    f = m.generator("f", 1)
    assert rank_of_family(m, [e, f, e + f]) == 2
    assert rank_of_family(m, [e, e.scale(3)]) == 1
    assert rank_of_family(m, [m.zero_op()]) == 0
    assert rank_of_family(m, [e, f], stop_at=1) == 1


def test_rank_exact_fallback_when_specializations_disagree():
    """Rows (1, 1) and (5v, 7) are dependent at v = 7/5 but not at 11/7,
    so the rank comes from exact elimination over Q(v)."""
    m = build_model(2, 1, mode="quantum", spec_points=(Fraction(7, 5), Fraction(11, 7)))
    one = LaurentPoly.one()
    ops = [
        SparseOperator({0: {0: one, 1: one}}),
        SparseOperator({0: {0: LaurentPoly({1: 5}), 1: LaurentPoly.constant(7)}}),
    ]
    acc = RankAccumulator(m)
    for op in ops:
        acc.add(op)
    assert acc.ranks == (1, 2)
    assert rank_of_family(m, ops) == 2


def test_coordinates_of_basis_elements_are_unit_vectors():
    m = build_model(2, 2)
    labels = enumerate_basis(2, 2, "B1")
    for idx in (0, 3, 7):
        coeffs = coordinates(m, eval_label(m, labels[idx]), labels)
        assert coeffs == {labels[idx]: 1}


def test_coordinates_of_identity():
    m = build_model(2, 2)
    labels = enumerate_basis(2, 2, "B1")
    coeffs = coordinates(m, m.identity(), labels)
    expected = {
        label: 1
        for label in labels
        if label.A == (0,) and label.C == (0,)
    }
    assert coeffs == expected


def test_coordinates_of_raising_generator():
    # e_1 = sum over admissible lam of e 1_lam, by the idempotent
    # commutation rules; only lam with lam_2 >= 1 admit the label.
    m = build_model(2, 2)
    labels = enumerate_basis(2, 2, "B1")
    coeffs = coordinates(m, m.generator("e", 1), labels)
    expected = {
        BasisLabel(flavor="B1", A=(1,), lam=(1, 1), C=(0,)): 1,
        BasisLabel(flavor="B1", A=(1,), lam=(0, 2), C=(0,)): 1,
    }
    assert coeffs == expected


def test_coordinates_quantum():
    m = build_model(2, 2, mode="quantum")
    labels = enumerate_basis(2, 2, "B1")
    coeffs = coordinates(m, m.identity(), labels)
    assert len(coeffs) == 3
    for s in coeffs.values():
        assert s == 1


def test_coordinates_not_in_span():
    m = build_model(2, 2)
    labels = enumerate_basis(2, 2, "ZERO")  # diagonal projectors only
    with pytest.raises(NotInSpan):
        coordinates(m, m.generator("e", 1), labels)


def test_structure_constants_idempotents():
    m = build_model(2, 2)
    labels = enumerate_basis(2, 2, "B1")
    zeros = [i for i, label in enumerate(labels) if label.A == (0,) and label.C == (0,)]
    i0 = zeros[0]
    assert structure_constants(m, labels, i0, i0) == {labels[i0]: 1}
    assert structure_constants(m, labels, zeros[0], zeros[1]) == {}


def test_structure_constants_integrality_classical():
    m = build_model(2, 2)
    labels = enumerate_basis(2, 2, "B1")
    for i in range(len(labels)):
        for j in range(len(labels)):
            for s in structure_constants(m, labels, i, j).values():
                assert isinstance(s, int) or (
                    isinstance(s, Fraction) and s.denominator == 1
                ), (i, j, s)


def test_structure_constants_integrality_quantum():
    m = build_model(2, 2, mode="quantum")
    labels = enumerate_basis(2, 2, "B1")
    for i in range(len(labels)):
        for j in range(len(labels)):
            for s in structure_constants(m, labels, i, j).values():
                assert isinstance(s, LaurentPoly), (i, j, s)


def test_basis_serialization_shapes():
    m = build_model(2, 2)
    labels = enumerate_basis(2, 2, "ZERO")
    data = basis_json(m, labels)
    assert data == {
        "basis": [
            {"flavor": "ZERO", "lambda": [2, 0]},
            {"flavor": "ZERO", "lambda": [1, 1]},
            {"flavor": "ZERO", "lambda": [0, 2]},
        ]
    }
    csv_text = basis_csv(m, labels)
    assert csv_text.splitlines()[0] == "key,flavor,A,lambda,C,pbw,k0"
    assert '"1(2,0)"' in csv_text
    table = structure_table_json(m, labels, [(0, 0), (0, 1)])
    assert table["triples"][0]["coeffs"] == {"1(2,0)": "1"}
    assert table["triples"][1]["coeffs"] == {}


def test_block_index_groups_positions_by_block():
    m = build_model(3, 3)
    labels = enumerate_basis(3, 3, "B1")
    index = block_index(m, labels)
    shift = partial(root_sum, m.root_data)
    assert sorted(pos for block in index.values() for pos in block) == list(
        range(len(labels))
    )
    for block, positions in index.items():
        assert positions == sorted(positions)
        assert all(_label_block(labels[p], shift) == block for p in positions)
    # One entry per distinct family, shared by equal families.
    assert block_index(m, enumerate_basis(3, 3, "B1")) is index
    assert block_index(m, enumerate_basis(3, 3, "PBW")) is None
    assert len(m._block_index) == 2


@pytest.mark.parametrize("n,d", [(2, 3), (3, 3), (4, 3), (3, 5)])
def test_block_dimension_counts_b1_labels(n, d):
    # dim 1_mu S 1_lam is the number of matrices with row sums mu and
    # column sums lam; B1 has exactly that many labels in each block.
    m = build_model(n, d)
    index = block_index(m, enumerate_basis(n, d, "B1"))
    weights = compositions(n, d)
    dims = {(src, dst): block_dimension(src, dst)
            for src in weights for dst in weights}
    assert {block: len(pos) for block, pos in index.items()} == dims
    assert sum(dims.values()) == comb(n * n - 1 + d, d)


def test_block_dimension_small_cases():
    assert block_dimension((1, 1), (1, 1)) == 2
    assert block_dimension((2, 0), (0, 2)) == 1
    assert block_dimension((2, 1, 0), (1, 1, 1)) == 3
    assert block_dimension((1, 1), (1, 0)) == 0


def _reference_solve(scalars, columns, target):
    """Solve sum_u x_u * columns[u] = target by Gaussian elimination of
    every equation over the fraction field: the oracle for coordinates.

    Raises NotInSpan when the system is inconsistent or the columns are
    linearly dependent (no unique expansion).
    """
    equations = {}
    for u, colrow in enumerate(columns):
        for k, s in colrow.items():
            equations.setdefault(k, ({}, [0]))[0][u] = s
    for k, s in target.items():
        equations.setdefault(k, ({}, [0]))[1][0] = s
    div = scalars.div
    pivots = {}
    for coeffs, rhs_box in equations.values():
        coeffs = dict(coeffs)
        rhs = rhs_box[0]
        while coeffs:
            u = min(coeffs)
            piv = pivots.get(u)
            if piv is None:
                lead = coeffs.pop(u)
                monic = {w: div(c, lead) for w, c in coeffs.items()}
                pivots[u] = (monic, div(rhs, lead))
                coeffs = {}
                break
            factor = coeffs.pop(u)
            pcoeffs, prhs = piv
            for w, c in pcoeffs.items():
                s = coeffs.get(w, 0) - factor * c
                if s == 0:
                    coeffs.pop(w, None)
                else:
                    coeffs[w] = s
            rhs = rhs - factor * prhs
        else:
            if not (rhs == 0):
                raise NotInSpan("operator is outside the span of the family")
    if len(pivots) < len(columns):
        raise NotInSpan("family is linearly dependent; no unique expansion")
    values = [scalars.zero] * len(columns)
    for u in sorted(pivots, reverse=True):
        coeffs, rhs = pivots[u]
        total = rhs
        for w, c in coeffs.items():
            total = total - c * values[w]
        values[u] = total
    return values


def _reference_coordinates(m, op, labels, candidates):
    columns = [_operator_row(m, eval_label(m, lab)) for lab in candidates]
    values = _reference_solve(m.scalars, columns, _operator_row(m, op))
    return [(lab, v) for lab, v in zip(candidates, values) if not (v == 0)]


def test_coordinates_index_matches_full_filter():
    # The block index must pick the same candidates, in the same order,
    # as filtering the whole family by block on every call.
    m = build_model(3, 3, mode="quantum")
    labels = enumerate_basis(3, 3, "B1")
    products = []
    for i in range(3, len(labels), 23):
        for j in range(0, len(labels), 17):
            op = eval_label(m, labels[i]) @ eval_label(m, labels[j])
            if not op.is_zero():
                products.append(op)
                break
    assert len(products) >= 5
    shift = partial(root_sum, m.root_data)
    for op in products:
        touched = _op_blocks(m, op)
        candidates = [
            lab for lab in labels if _label_block(lab, shift) in touched
        ]
        expected = _reference_coordinates(m, op, labels, candidates)
        assert expected
        assert list(coordinates(m, op, labels).items()) == expected


def _seeded_products(m, labels, count, seed):
    """Nonzero products of ``count`` seeded B1 pairs that compose."""
    shift = partial(root_sum, m.root_data)
    blocks = [_label_block(lab, shift) for lab in labels]
    rng = random.Random(seed)
    products = []
    while len(products) < count:
        right = rng.randrange(len(labels))
        lefts = [k for k, b in enumerate(blocks) if b[0] == blocks[right][1]]
        op = eval_label(m, labels[rng.choice(lefts)]) @ eval_label(m, labels[right])
        if not op.is_zero():
            products.append(op)
    return products


@pytest.mark.parametrize("mode", ["classical", "quantum"])
@pytest.mark.parametrize("n,d,count", [(2, 4, 12), (3, 3, 12), (3, 4, 12)])
def test_coordinates_match_reference_solve(mode, n, d, count):
    # Same labels in the same order, with values equal in Q(v) (in Q
    # classically), as eliminating every equation over the fractions.
    m = build_model(n, d, mode=mode)
    labels = enumerate_basis(n, d, "B1")
    index = block_index(m, labels)
    for op in _seeded_products(m, labels, count, seed=n * 10 + d):
        candidates = [
            labels[pos]
            for pos in sorted(p for b in _op_blocks(m, op) for p in index.get(b, ()))
        ]
        expected = _reference_coordinates(m, op, labels, candidates)
        got = list(coordinates(m, op, labels).items())
        assert [lab for lab, _ in got] == [lab for lab, _ in expected]
        assert all(a == b for (_, a), (_, b) in zip(got, expected))


@pytest.mark.parametrize("mode", ["classical", "quantum"])
@pytest.mark.parametrize("n,d", [(2, 3), (3, 2)])
def test_coordinates_match_reference_solve_unblocked(mode, n, d):
    # PBW labels pin no block: every label is a candidate, and the
    # system splits only by the columns' shared positions.
    m = build_model(n, d, mode=mode)
    labels = enumerate_basis(n, d, "PBW")
    ops = [eval_label(m, lab) for lab in labels]
    rng = random.Random(n * 10 + d)
    e, f = ("e", "f") if mode == "classical" else ("E", "F")
    targets = [m.identity(), m.generator(e, 1), m.generator(f, n - 1)]
    while len(targets) < 6:
        op = ops[rng.randrange(len(ops))] @ ops[rng.randrange(len(ops))]
        if not op.is_zero():
            targets.append(op)
    for op in targets:
        expected = _reference_coordinates(m, op, labels, labels)
        got = list(coordinates(m, op, labels).items())
        assert [lab for lab, _ in got] == [lab for lab, _ in expected]
        assert all(a == b for (_, a), (_, b) in zip(got, expected))


def _solver_case(mode, entries):
    """A model for ``mode`` and the rows of ``entries`` (one list of
    Laurent polynomials per column) with classical entries taken at v = 1."""
    m = build_model(2, 1, mode=mode)
    if mode == "classical":
        entries = [[int(p.specialize(1)) for p in col] for col in entries]
    rows = [{k: s for k, s in enumerate(col) if s} for col in entries]
    return m, rows


def _combine(m, rows, xs):
    out = {}
    for row, x in zip(rows, xs):
        for k, s in row.items():
            out[k] = out.get(k, m.scalars.zero) + x * s
    return {k: s for k, s in out.items() if s}


V = LaurentPoly.v_power(1)
ONE = LaurentPoly.one()
ZERO = LaurentPoly.zero()
# det [[1, 1], [1, 1 + (5v - 7)(7v - 11)]] vanishes at v = 7/5 and 11/7.
VANISHING = (5 * V - 7) * (7 * V - 11)


@pytest.mark.parametrize("mode", ["classical", "quantum"])
def test_certified_solve_falls_back_when_minors_vanish(mode, monkeypatch):
    from schuralg import bases

    built = []

    class Recording(bases._FieldEchelon):
        def __init__(self, scalars):
            built.append(scalars)
            super().__init__(scalars)

    monkeypatch.setattr(bases, "_FieldEchelon", Recording)
    m, rows = _solver_case(mode, [[ONE, ONE], [ONE, ONE + VANISHING]])
    xs = [3 * V, 2] if mode == "quantum" else [3, 2]
    assert _certified_solve(m, rows, _combine(m, rows, xs)) == xs
    # Specializing at 7/5 and 11/7 leaves rank 1; at v = 1 the integer
    # minor is 8, so only quantum mode needs exact elimination.
    assert len(built) == (mode == "quantum")


@pytest.mark.parametrize("mode", ["classical", "quantum"])
def test_certified_solve_fractional_coordinates(mode):
    # x0 + x1 = 1 and x0 + (2 + v) x1 = 2: x1 = 1/(1 + v), 1/2 at v = 1.
    m, rows = _solver_case(mode, [[ONE, ONE], [ONE, 2 + V]])
    one = m.scalars.one
    x0, x1 = _certified_solve(m, rows, {0: one, 1: 2 * one})
    assert x0 + x1 == 1
    if mode == "quantum":
        assert isinstance(x1, LaurentFraction) and x1 * (1 + V) == 1
    else:
        assert (x0, x1) == (Fraction(1, 2), Fraction(1, 2))


@pytest.mark.parametrize("mode", ["classical", "quantum"])
def test_certified_solve_dependent_family(mode):
    m, rows = _solver_case(mode, [[ONE, V, ZERO], [2 * ONE, 2 * V, ZERO],
                                  [ZERO, ONE, V]])
    consistent = _combine(m, rows, [1, 1, 1])
    with pytest.raises(NotInSpan, match="linearly dependent"):
        _certified_solve(m, rows, consistent)
    # An inconsistent system is reported as such, dependent or not.
    outside = {2: m.scalars.one, 3: m.scalars.one}
    with pytest.raises(NotInSpan, match="outside the span"):
        _certified_solve(m, rows, outside)
    with pytest.raises(NotInSpan, match="outside the span"):
        _certified_solve(m, [rows[0], rows[2]], outside)
    with pytest.raises(NotInSpan, match="outside the span"):
        _certified_solve(m, [], outside)
    # Also when the dependent columns and the inconsistent equations lie
    # in different groups of the system.
    one = m.scalars.one
    apart = rows + [{5: one, 6: one}]
    with pytest.raises(NotInSpan, match="outside the span"):
        _certified_solve(m, apart, {**consistent, 5: one, 6: 2 * one})
    with pytest.raises(NotInSpan, match="linearly dependent"):
        _certified_solve(m, apart, {**consistent, 5: one, 6: one})
