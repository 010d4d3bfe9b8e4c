"""Tests for basis enumeration, rank certification, coordinates, and
structure constants."""

from fractions import Fraction
from functools import partial
from math import comb

import pytest

from schuralg.errors import NotInSpan
from schuralg.bases import (
    RankAccumulator,
    _label_block,
    _op_blocks,
    _operator_row,
    _solve_exact,
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
from schuralg.ring import LaurentPoly
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
                assert s.as_laurent() is not None, (i, j)


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
        columns = [_operator_row(m, eval_label(m, lab)) for lab in candidates]
        values = _solve_exact(m.scalars, columns, _operator_row(m, op))
        expected = [(lab, v) for lab, v in zip(candidates, values) if not (v == 0)]
        assert expected
        assert list(coordinates(m, op, labels).items()) == expected
