"""Tests for basis enumeration, rank certification, coordinates, and
structure constants."""

import random
from fractions import Fraction
from itertools import accumulate, product
from math import comb, gcd
from operator import sub

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import QQ

from schuralg import bases, ring
from schuralg.errors import NotInSpan
from schuralg.bases import (
    RankAccumulator,
    _label_block,
    basis_csv,
    basis_json,
    block_dimension,
    block_index,
    block_ranks,
    content,
    content_low,
    coordinates,
    enumerate_basis,
    enumerate_block_parts,
    enumerate_blocks,
    grouped_ranks,
    parts_ranks,
    rank_of_family,
    rank_of_labels,
    root_sum,
    structure_constants,
    structure_table_json,
)
from schuralg.ring import CLASSICAL_SCALARS, QUANTUM_SCALARS, LaurentFraction, LaurentPoly
from schuralg.rootvectors import SHAPES, BasisLabel, eval_label, label_image
from schuralg.tensormodel import (
    SparseOperator,
    build_model,
    RootData,
    compositions,
    generator_action,
    ordered_word_row,
)

from oracle import FIELD, add, bareiss_reference, field_rank, operator_row, scale, to_field


def _ordered_row(m, op):
    return ordered_word_row(m, op.cols)


# An operator as a row: over all its columns, and at the ordered words.
ROWS = (operator_row, _ordered_row)


def _full_rows(m, ops):
    return [operator_row(m, op) for op in ops]


def _op_blocks(m, op):
    """The weight blocks (src, dst) that ``op`` has entries in."""
    weights = m.weights
    return {(weights[j], weights[i]) for j, col in op.cols.items() for i in col}


def _block_candidates(m, op, labels):
    """The labels of the blocks ``op`` touches, in enumeration order."""
    blocks = _op_blocks(m, op)
    return [lab for lab in labels if _label_block(lab, m.root_data)[1] in blocks]


def _expand(m, op, candidates, row):
    """Coordinates of ``op`` in the candidates' operators, solved on
    the rows that ``row`` makes of them."""
    columns = [row(m, eval_label(m, lab)) for lab in candidates]
    values = coordinates(m, columns, row(m, op))
    return {lab: x for lab, x in zip(candidates, values) if x}


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
    assert rank_of_family(m, _full_rows(m, ops)) == len(labels), (mode, kind)


@pytest.mark.parametrize("mode", ["classical", "quantum"])
def test_pbw_full_rank_both_k0(mode):
    m = build_model(2, 3, mode=mode)
    for k0 in (1, 2):
        labels = enumerate_basis(2, 3, "PBW", k0=k0)
        ops = [eval_label(m, label) for label in labels]
        assert rank_of_family(m, _full_rows(m, ops)) == len(labels)


def test_rank_detects_dependence():
    m = build_model(2, 2)
    e = generator_action(m, "e", 1)
    f = generator_action(m, "f", 1)
    assert rank_of_family(m, _full_rows(m, [e, f, add(e, f)])) == 2
    assert rank_of_family(m, _full_rows(m, [e, scale(e, 3)])) == 1
    assert rank_of_family(m, _full_rows(m, [SparseOperator()])) == 0


def test_rank_exact_fallback_when_specializations_disagree():
    """Rows (1, 1) and (5v, 7) are dependent at v = 7/5 but not at 11/7,
    so the lower bound at 7/5 is 1 and the span check sends the rank on
    to 11/7."""
    m = build_model(2, 1, mode="quantum", spec_points=(Fraction(7, 5), Fraction(11, 7)))
    one = LaurentPoly.one()
    ops = [
        SparseOperator({0: {0: one, 1: one}}),
        SparseOperator({0: {0: LaurentPoly({1: 5}), 1: LaurentPoly.constant(7)}}),
    ]
    acc = RankAccumulator(m)
    for op in ops:
        acc.add(op)
    assert acc.rank == 1
    assert rank_of_family(m, _full_rows(m, ops)) == 2


def test_rank_is_exact_when_every_spec_point_is_a_root():
    # The minor 1 + (5v - 7)(7v - 11) - 1 vanishes at both default
    # points, so only a later point shows the rank 2.
    m = build_model(2, 1, mode="quantum")
    ops = [SparseOperator({0: {0: ONE, 1: ONE}}),
           SparseOperator({0: {0: ONE, 1: ONE + VANISHING}})]
    acc = RankAccumulator(m)
    assert [acc.add(op) for op in ops] == [True, False]
    assert rank_of_family(m, _full_rows(m, ops)) == 2
    # A multiple by the same factor stays dependent: the check at 7/5
    # proves the rank 1 at once.
    assert rank_of_family(m, _full_rows(m, [ops[0], scale(ops[0], VANISHING)])) == 1


@pytest.mark.parametrize("n,d", [(3, 2), (2, 3)])
def test_short_rank_solves_no_minor_larger_than_a_block(n, d, monkeypatch):
    # A quantum family short of full rank is split into groups of rows
    # that share positions before its span checks: with a duplicated
    # B1 operator, no system reaching Bareiss exceeds a weight block.
    m = build_model(n, d, mode="quantum")
    ops = [eval_label(m, label) for label in enumerate_basis(n, d, "B1")]
    ops.append(ops[len(ops) // 2])
    sizes = []
    real = bases._bareiss_solve

    def recording(scalars, matrix, rhs):
        sizes.append(len(matrix))
        return real(scalars, matrix, rhs)

    monkeypatch.setattr(bases, "_bareiss_solve", recording)
    rows = _full_rows(m, ops)
    assert rank_of_family(m, rows) == field_rank(rows) == len(ops) - 1
    weights = compositions(n, d)
    largest = max(block_dimension(src, dst) for src in weights for dst in weights)
    assert sizes and max(sizes) <= largest


def test_coordinates_of_basis_elements_are_unit_vectors():
    m = build_model(2, 2)
    labels = enumerate_basis(2, 2, "B1")
    for idx in (0, 3, 7):
        for row in ROWS:
            coeffs = _expand(m, eval_label(m, labels[idx]), labels, row)
            assert coeffs == {labels[idx]: 1}


def test_coordinates_of_identity():
    m = build_model(2, 2)
    labels = enumerate_basis(2, 2, "B1")
    expected = {
        label: 1
        for label in labels
        if label.A == (0,) and label.C == (0,)
    }
    for row in ROWS:
        assert _expand(m, m.identity(), labels, row) == expected


def test_coordinates_of_raising_generator():
    # e_1 = sum over admissible lam of e 1_lam, by the idempotent
    # commutation rules; only lam with lam_2 >= 1 admit the label.
    m = build_model(2, 2)
    labels = enumerate_basis(2, 2, "B1")
    expected = {
        BasisLabel(flavor="B1", A=(1,), lam=(1, 1), C=(0,)): 1,
        BasisLabel(flavor="B1", A=(1,), lam=(0, 2), C=(0,)): 1,
    }
    for row in ROWS:
        assert _expand(m, generator_action(m, "e", 1), labels, row) == expected


def test_coordinates_quantum():
    m = build_model(2, 2, mode="quantum")
    labels = enumerate_basis(2, 2, "B1")
    for row in ROWS:
        coeffs = _expand(m, m.identity(), labels, row)
        assert len(coeffs) == 3
        for s in coeffs.values():
            assert s == 1


def test_coordinates_not_in_span():
    m = build_model(2, 2)
    labels = enumerate_basis(2, 2, "ZERO")  # diagonal projectors only
    for row in ROWS:
        with pytest.raises(NotInSpan):
            _expand(m, generator_action(m, "e", 1), labels, row)


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


def _blocks(groups):
    """A :func:`block_index` grouping as {(src, dst): labels}, in its
    order."""
    return {(src, dst): members
            for src, by_dst in groups.items() for dst, members in by_dst.items()}


def test_block_index_groups_labels_by_source_weight():
    m = build_model(3, 3)
    labels = enumerate_basis(3, 3, "B1")
    groups = block_index(m, labels)
    position = {lab: p for p, lab in enumerate(labels)}
    blocks = _blocks(groups)
    assert sorted(position[lab] for members in blocks.values() for lab in members) == list(
        range(len(labels))
    )
    for block, members in blocks.items():
        assert [position[lab] for lab in members] == sorted(position[lab] for lab in members)
        assert all(_label_block(lab, m.root_data)[1] == block for lab in members)
    # Source weights, and the targets of each, in order of first
    # appearance in the family.
    first = list(dict.fromkeys(_label_block(lab, m.root_data)[1] for lab in labels))
    assert list(groups) == list(dict.fromkeys(src for src, _ in first))
    for src, by_dst in groups.items():
        assert list(by_dst) == [dst for s, dst in first if s == src]
    # An equal family finds the same grouping.
    assert block_index(m, enumerate_basis(3, 3, "B1")) is groups
    assert block_index(m, enumerate_basis(3, 3, "PBW")) is None


def test_block_index_knows_the_last_family_without_hashing(monkeypatch):
    m = build_model(3, 3)
    labels = enumerate_basis(3, 3, "B1")
    index = block_index(m, labels)

    def unhashable(label):
        raise AssertionError("a label was hashed")

    monkeypatch.setattr(BasisLabel, "__hash__", unhashable)
    assert block_index(m, labels) is index
    assert block_index(m, tuple(labels)) is index
    monkeypatch.undo()
    # A family changed in place is grouped again.
    labels.pop(0)
    moved = _blocks(block_index(m, labels))
    assert sum(len(members) for members in moved.values()) == len(labels)
    assert all(_label_block(lab, m.root_data)[1] == block
               for block, members in moved.items() for lab in members)


@pytest.mark.parametrize("n,d", [(2, 3), (3, 2), (3, 3), (3, 4), (4, 3)])
def test_enumerate_basis_block_is_the_filtered_scan(n, d):
    # Pruning a part by its partial shift drops no label of the block
    # and keeps the order of the full enumeration.
    root_data = RootData.for_rank(n)
    weights = compositions(n, d)
    for kind, shape in SHAPES.items():
        if not shape or None not in shape:
            with pytest.raises(ValueError, match="pin no weight block"):
                enumerate_basis(n, d, kind, block=(weights[0], weights[0]))
            continue
        scans = {}
        for lab in enumerate_basis(n, d, kind):
            scans.setdefault(_label_block(lab, root_data)[1], []).append(lab)
        for src in weights:
            for dst in weights:
                assert (enumerate_basis(n, d, kind, block=(src, dst))
                        == scans.get((src, dst), []))
            # A target of another degree is reached by no label.
            assert enumerate_basis(n, d, kind, block=(src, src[:-1] + (src[-1] + 1,))) == []


def test_enumerate_basis_block_needs_weights_of_length_n():
    # At n = 3 a block of pairs is refused, not read as the block
    # ((2, 0, 0), (2, 0, 0)); so is a weight of length 4.  A weight of
    # another degree, or with a negative entry, has no label.
    for block in [((2, 0), (2, 0)), ((2, 0, 0), (2, 0)), ((2, 0), (2, 0, 0)),
                  ((2, 0, 0, 0), (2, 0, 0, 0))]:
        with pytest.raises(ValueError, match="length 3"):
            enumerate_basis(3, 2, "B1", block=block)
    for kind in ("B1", "B2", "BOREL_UP", "BOREL_DOWN", "ZERO"):
        for block in [((3, 0, 0), (3, 0, 0)), ((3, -1, 0), (3, -1, 0)),
                      ((2, 0, 0), (3, -1, 0)), ((3, -1, 0), (2, 0, 0))]:
            assert enumerate_basis(3, 2, kind, block=block) == [], (kind, block)


def _in_order(groups):
    """A grouping with its order made part of its value: source weights,
    then each one's targets and labels, as nested lists."""
    return [(src, list(by_dst.items())) for src, by_dst in groups.items()]


@pytest.mark.parametrize("mode", ["classical", "quantum"])
@pytest.mark.parametrize("n,d", [(n, d) for n in (2, 3, 4) for d in (1, 2, 3, 4)])
def test_enumerate_blocks_is_the_regrouped_enumeration(n, d, mode):
    # The grouping comes straight from the enumeration, and it is the
    # one block_index finds again in the flat list: the same source
    # weights, targets and labels, each in the same order.
    m = build_model(n, d, mode=mode)
    for kind, shape in SHAPES.items():
        if not shape or None not in shape:
            with pytest.raises(ValueError, match="pin no weight block"):
                enumerate_blocks(n, d, kind)
            continue
        grouped = enumerate_blocks(n, d, kind)
        assert _in_order(grouped) == _in_order(block_index(m, enumerate_basis(n, d, kind)))
    with pytest.raises(ValueError):
        enumerate_blocks(n, d, "B3")


@pytest.mark.parametrize("mode", ["classical", "quantum"])
@pytest.mark.parametrize("n,d", [(2, 3), (3, 3), (2, 7), (4, 3)])
@pytest.mark.parametrize("kind", ["B1", "B2"])
def test_parts_path_is_the_labelled_path(kind, n, d, mode):
    # The parts enumeration is the labels' (A, C), in the same blocks,
    # each in the same order, and the parts ranks are the labels' ranks,
    # block by block and in the same order.
    m = build_model(n, d, mode=mode)
    labelled, parts = enumerate_blocks(n, d, kind), enumerate_block_parts(n, d, kind)
    assert _in_order(parts) == [
        (src, [(dst, [(x.A, x.C) for x in labels]) for dst, labels in by_dst.items()])
        for src, by_dst in labelled.items()]
    ranks = parts_ranks(m, kind, parts)
    assert list(ranks.items()) == list(grouped_ranks(m, labelled).items())
    assert sum(ranks.values()) == comb(n * n - 1 + d, d)


@pytest.mark.parametrize("mode", ["classical", "quantum"])
def test_unit_determinants_divide_by_a_shift_and_a_sign(mode, monkeypatch):
    # N / D for a unit D, +-1 or +-v^k, takes no exact division.  Any
    # other D still goes through the ring's exact division, to an
    # integral quotient or, on a remainder, to a fraction.
    scalars = ring.scalar_ring(mode)
    divisions = []
    real = type(scalars).exact_quotient

    def counted(a, b):
        divisions.append((a, b))
        return real(a, b)

    monkeypatch.setattr(type(scalars), "exact_quotient", staticmethod(counted))
    if mode == "classical":
        num, units = 6, [1, -1]
        others = [(2, 3), (4, Fraction(3, 2)), (-5, Fraction(-6, 5))]
    else:
        v, two = LaurentPoly.v_power, ring.quantum_integer(2)
        num, units = LaurentPoly({2: 3, 0: 5, -1: -1}), [v(0), -v(0), v(3), -v(-2)]
        others = [(two * v(-1), None), (v(1) * 2, LaurentFraction(num, v(1) * 2)),
                  (ring.quantum_integer(3), LaurentFraction(num, ring.quantum_integer(3)))]
    for det in units:
        quotient = bases._ring_quotient(scalars, num, det)
        assert quotient * det == num and type(quotient) is type(num)
    assert divisions == []
    if mode == "quantum":
        # An integral quotient by a non-unit: num * D / D is num.
        det = others.pop(0)[0]
        assert bases._ring_quotient(scalars, num * det, det) == num
        assert divisions == [(num * det, det)]
    for det, want in others:
        divisions.clear()
        assert bases._ring_quotient(scalars, num, det) == want
        assert divisions == [(num, det)]


@st.composite
def bounded_requests(draw):
    """Groups of slots (an empty group, or no group, included) charging
    a budget of one to three entries, at most six slots in all, and two
    budgets of that length (zero entries included)."""
    size = draw(st.integers(1, 3))
    slot = st.integers(0, size - 1)
    groups = draw(st.lists(st.lists(slot, max_size=3), max_size=3)
                  .filter(lambda groups: sum(map(len, groups)) <= 6))
    budget = st.tuples(*[st.integers(0, 3)] * size)
    return groups, draw(budget), draw(budget)


def _bounded_reference(groups, budget):
    """Every exponent tuple of the slots, by brute force: the product of
    each slot's range, filtered by the budget, sorted, and cut into
    groups."""
    slots = [j for group in groups for j in group]
    cuts = [0, *accumulate(map(len, groups))]
    out = []
    for exps in product(*(range(budget[j] + 1) for j in slots)):
        spent = [0] * len(budget)
        for j, m in zip(slots, exps):
            spent[j] += m
        if all(x <= b for x, b in zip(spent, budget)):
            out.append(tuple(exps[i:k] for i, k in zip(cuts, cuts[1:])))
    return sorted(out)


@settings(max_examples=200, deadline=None)
@given(bounded_requests())
def test_bounded_is_the_filtered_product(request):
    # One memo serves every budget of one list of groups.
    groups, first, second = request
    memo = {}
    for budget in (first, second, first):
        assert bases._bounded(groups, budget, memo) == _bounded_reference(groups, budget)


def test_enumeration_keeps_no_state_between_calls(monkeypatch):
    # Each call starts from nothing: two equal calls make the same calls
    # to _bounded, and no module-level container or cache of bases
    # grows.
    def sizes():
        return {name: (value.cache_info().currsize if hasattr(value, "cache_info")
                       else len(value))
                for name, value in vars(bases).items()
                if hasattr(value, "cache_info")
                or (isinstance(value, (dict, list, set)) and not name.startswith("__"))}

    calls = []
    bounded = bases._bounded

    def counted(*args):
        calls.append(args[1])
        return bounded(*args)

    monkeypatch.setattr(bases, "_bounded", counted)
    before = sizes()
    first = enumerate_basis(4, 4, "B1")
    once = len(calls)
    assert enumerate_basis(4, 4, "B1") == first
    assert once > len(compositions(4, 4)) and len(calls) == 2 * once
    assert sizes() == before


@pytest.mark.parametrize("mode", ["classical", "quantum"])
@pytest.mark.parametrize("n,d", [(2, 3), (3, 3), (4, 2)])
def test_label_weights_agree_with_operator_entries(mode, n, d):
    # The shape table gives a label's operator and, separately, its
    # weight data: both must say the same.  Every entry of a weighted
    # label lies in its block, and every entry of a PLUS or MINUS
    # monomial moves the weight by its shift.
    m = build_model(n, d, mode=mode)
    weights = m.weights
    for kind, shape in SHAPES.items():
        if shape is None:
            continue
        nonzero = 0
        for label in enumerate_basis(n, d, kind):
            shift, block = _label_block(label, m.root_data)
            moves = {
                (weights[j], weights[i])
                for j, col in eval_label(m, label).cols.items()
                for i in col
            }
            nonzero += bool(moves)
            if None in shape:
                assert moves <= {block}, label
                assert shift == tuple(map(sub, block[1], block[0])), label
            else:
                assert block is None, label
                assert all(tuple(map(sub, dst, src)) == shift for src, dst in moves), label
        assert nonzero, kind


@pytest.mark.parametrize("n,d", [(2, 3), (3, 3), (4, 3), (3, 5)])
def test_block_dimension_counts_b1_labels(n, d):
    # dim 1_mu S 1_lam is the number of matrices with row sums mu and
    # column sums lam; B1 has exactly that many labels in each block.
    m = build_model(n, d)
    blocks = _blocks(block_index(m, enumerate_basis(n, d, "B1")))
    weights = compositions(n, d)
    dims = {(src, dst): block_dimension(src, dst)
            for src in weights for dst in weights}
    assert {block: len(members) for block, members in blocks.items()} == dims
    assert sum(dims.values()) == comb(n * n - 1 + d, d)


@pytest.mark.parametrize("n,d,mode", [(3, 4, "quantum"), (4, 3, "classical")])
def test_echelon_stores_primitive_pivots(n, d, mode, monkeypatch):
    # The echelon stores each pivot as the row its last step reduced,
    # with no gcd pass of its own: every stored pivot is primitive, and
    # each B1 block still has the rank of its dimension.
    m = build_model(n, d, mode=mode)
    echelons = []

    class Watched(bases._IntEchelon):
        def __init__(self):
            super().__init__()
            echelons.append(self)

    monkeypatch.setattr(bases, "_IntEchelon", Watched)
    ranks = block_ranks(m, enumerate_basis(n, d, "B1"))
    assert ranks == {block: block_dimension(*block) for block in ranks}
    assert sum(ranks.values()) == comb(n * n + d - 1, d)
    pivots = [row for echelon in echelons for row in echelon.pivots.values()]
    assert pivots and all(gcd(*row.values()) == 1 for row in pivots)


def test_block_dimension_small_cases():
    assert block_dimension((1, 1), (1, 1)) == 2
    assert block_dimension((2, 0), (0, 2)) == 1
    assert block_dimension((2, 1, 0), (1, 1, 1)) == 3
    assert block_dimension((1, 1), (1, 0)) == 0


def _reference_solve(columns, target):
    """Solve sum_u x_u * columns[u] = target by Gaussian elimination of
    every equation over sympy's Q(v): the oracle for coordinates.

    Raises NotInSpan when the system is inconsistent or the columns are
    linearly dependent (no unique expansion).
    """
    zero = FIELD.zero
    equations = {}
    for u, colrow in enumerate(columns):
        for k, s in colrow.items():
            equations.setdefault(k, ({}, [zero]))[0][u] = to_field(s)
    for k, s in target.items():
        equations.setdefault(k, ({}, [zero]))[1][0] = to_field(s)
    pivots = {}
    for coeffs, rhs_box in equations.values():
        coeffs = dict(coeffs)
        rhs = rhs_box[0]
        while coeffs:
            u = min(coeffs)
            piv = pivots.get(u)
            if piv is None:
                lead = coeffs.pop(u)
                monic = {w: c / lead for w, c in coeffs.items()}
                pivots[u] = (monic, rhs / lead)
                coeffs = {}
                break
            factor = coeffs.pop(u)
            pcoeffs, prhs = piv
            for w, c in pcoeffs.items():
                s = coeffs.get(w, zero) - factor * c
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
    values = [zero] * len(columns)
    for u in sorted(pivots, reverse=True):
        coeffs, rhs = pivots[u]
        total = rhs
        for w, c in coeffs.items():
            total = total - c * values[w]
        values[u] = total
    return values


def _reference_coordinates(m, op, labels, candidates):
    columns = [operator_row(m, eval_label(m, lab)) for lab in candidates]
    values = _reference_solve(columns, operator_row(m, op))
    return [(lab, v) for lab, v in zip(candidates, values) if not (v == 0)]


def test_coordinates_index_matches_full_filter():
    # The block index must pick the same candidates, in the same order,
    # as filtering the whole family by block on every call, and both
    # rows must expand each product in them as the reference does.
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
    for op in products:
        touched = _op_blocks(m, op)
        candidates = [
            lab for lab in labels if _label_block(lab, m.root_data)[1] in touched
        ]
        assert _block_candidates(m, op, labels) == candidates
        expected = _reference_coordinates(m, op, labels, candidates)
        assert expected
        for row in ROWS:
            got = _expand(m, op, candidates, row).items()
            assert [(lab, to_field(x)) for lab, x in got] == expected


def _seeded_products(m, labels, count, seed):
    """Nonzero products of ``count`` seeded B1 pairs that compose."""
    blocks = [_label_block(lab, m.root_data)[1] for lab in labels]
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
    for op in _seeded_products(m, labels, count, seed=n * 10 + d):
        candidates = _block_candidates(m, op, labels)
        expected = _reference_coordinates(m, op, labels, candidates)
        for row in ROWS:
            got = list(_expand(m, op, candidates, row).items())
            assert [lab for lab, _ in got] == [lab for lab, _ in expected]
            assert all(to_field(a) == b for (_, a), (_, b) in zip(got, expected))


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
    targets = [m.identity(), generator_action(m, e, 1),
               generator_action(m, f, n - 1)]
    while len(targets) < 6:
        op = ops[rng.randrange(len(ops))] @ ops[rng.randrange(len(ops))]
        if not op.is_zero():
            targets.append(op)
    for op in targets:
        expected = _reference_coordinates(m, op, labels, labels)
        for row in ROWS:
            got = list(_expand(m, op, labels, row).items())
            assert [lab for lab, _ in got] == [lab for lab, _ in expected]
            assert all(to_field(a) == b for (_, a), (_, b) in zip(got, expected))


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
    from schuralg import bases, ring

    tried = []
    points = bases._points

    def recording(model):
        for point in points(model):
            tried.append(point)
            yield point

    monkeypatch.setattr(bases, "_points", recording)
    m, rows = _solver_case(mode, [[ONE, ONE], [ONE, ONE + VANISHING]])
    xs = [3 * V, 2] if mode == "quantum" else [3, 2]
    assert coordinates(m, rows, _combine(m, rows, xs)) == xs
    # Specializing at 7/5 and 11/7 leaves rank 1 and the span check
    # fails, so v = 2 is tried next; classically the integer minor is 8.
    if mode == "quantum":
        assert tried == [Fraction(7, 5), Fraction(11, 7), 2]
    else:
        assert tried == [None]


def test_points_are_the_spec_points_then_the_integers():
    from itertools import islice

    from schuralg import bases, ring

    m = build_model(2, 2, mode="quantum", spec_points=(2, Fraction(3, 2)))
    for _ in range(2):  # the same order every time
        assert list(islice(bases._points(m), 4)) == [2, Fraction(3, 2), 3, 4]
    assert list(bases._points(build_model(2, 2))) == [None]
    # No spec points: the integers from 2 on.  v = 0 is refused when
    # the model is built (tests/test_tensormodel.py).
    none = build_model(2, 2, mode="quantum", spec_points=())
    assert list(islice(bases._points(none), 3)) == [2, 3, 4]


@pytest.mark.parametrize("mode", ["classical", "quantum"])
def test_certified_solve_fractional_coordinates(mode):
    # x0 + x1 = 1 and x0 + (2 + v) x1 = 2: x1 = 1/(1 + v), 1/2 at v = 1.
    m, rows = _solver_case(mode, [[ONE, ONE], [ONE, 2 + V]])
    one = m.scalars.one
    x0, x1 = coordinates(m, rows, {0: one, 1: 2 * one})
    if mode == "quantum":
        assert isinstance(x1, LaurentFraction) and x1 == LaurentFraction(ONE, 1 + V)
        assert x0 == LaurentFraction(V, 1 + V)
    else:
        assert (x0, x1) == (Fraction(1, 2), Fraction(1, 2))


@pytest.mark.parametrize("mode", ["classical", "quantum"])
def test_certified_solve_dependent_family(mode):
    m, rows = _solver_case(mode, [[ONE, V, ZERO], [2 * ONE, 2 * V, ZERO],
                                  [ZERO, ONE, V]])
    consistent = _combine(m, rows, [1, 1, 1])
    with pytest.raises(NotInSpan, match="linearly dependent"):
        coordinates(m, rows, consistent)
    # An inconsistent system is reported as such, dependent or not.
    outside = {2: m.scalars.one, 3: m.scalars.one}
    with pytest.raises(NotInSpan, match="outside the span"):
        coordinates(m, rows, outside)
    with pytest.raises(NotInSpan, match="outside the span"):
        coordinates(m, [rows[0], rows[2]], outside)
    with pytest.raises(NotInSpan, match="outside the span"):
        coordinates(m, [], outside)
    # Also when the dependent columns and the inconsistent equations lie
    # in different groups of the system.
    one = m.scalars.one
    apart = rows + [{5: one, 6: one}]
    with pytest.raises(NotInSpan, match="outside the span"):
        coordinates(m, apart, {**consistent, 5: one, 6: 2 * one})
    with pytest.raises(NotInSpan, match="linearly dependent"):
        coordinates(m, apart, {**consistent, 5: one, 6: one})


_POLYS = st.dictionaries(st.integers(-4, 4), st.integers(-10**6, 10**6), max_size=3).map(LaurentPoly)


@st.composite
def square_systems(draw):
    """A square system of Laurent polynomials, size 1 to 6, exponents
    -4..4 and coefficients up to 10^6 in absolute value, whose first
    rows are zero in the first column, so that the elimination swaps."""
    size = draw(st.integers(1, 6))
    matrix = [[draw(_POLYS) for _ in range(size)] for _ in range(size)]
    for row in matrix[:draw(st.integers(0, size - 1))]:
        row[0] = ZERO
    return matrix, [draw(_POLYS) for _ in range(size)]


@settings(max_examples=150, deadline=None)
@given(square_systems())
def test_bareiss_matches_the_ring_elimination(system):
    # The integer elimination returns exactly the (D, N) of the
    # elimination over Z[v, v^-1], and classically over Z at v = 1; a
    # singular system raises in both.
    matrix, rhs = system
    classical = ([[int(p.specialize(1)) for p in row] for row in matrix],
                 [int(p.specialize(1)) for p in rhs])
    for scalars, (mat, vec) in ((QUANTUM_SCALARS, system), (CLASSICAL_SCALARS, classical)):
        try:
            expected = bareiss_reference(scalars, mat, vec)
        except ZeroDivisionError:
            with pytest.raises(ZeroDivisionError):
                bases._bareiss_solve(scalars, mat, vec)
            continue
        det, nums = bases._bareiss_solve(scalars, mat, vec)
        assert (det, nums) == expected
        assert all(type(x) is type(scalars.one) for x in [det, *nums])


@pytest.mark.parametrize("scalars", [CLASSICAL_SCALARS, QUANTUM_SCALARS])
def test_bareiss_raises_on_a_singular_system(scalars):
    one, v = scalars.one, scalars.v_power(1)
    with pytest.raises(ZeroDivisionError, match="singular"):
        bases._bareiss_solve(scalars, [[one, v], [2 * one, 2 * v]], [one, one])
    with pytest.raises(ZeroDivisionError, match="singular"):
        bases._bareiss_solve(scalars, [[scalars.zero]], [one])
    assert bases._bareiss_solve(scalars, [], []) == (one, [])


def test_read_back_gives_the_balanced_digits():
    # One entry of coefficient sum 1 gives B = 1 and K = 3, so the read
    # back takes coefficients up to 2^(K-1) - 1 = 3 in absolute value:
    # negative ones, interior zeros, and zero itself.
    rows, read = QUANTUM_SCALARS.evaluated([[ONE.shift(-3)]])
    assert rows == [[1]]
    for coeffs in ([3, 0, -3, -1], [-3, 3], [0, 0, 1], [-1], [3], [2, -2, 0, 0, -3], []):
        x = sum(c * 8**t for t, c in enumerate(coeffs))
        assert read(x) == LaurentPoly(dict(enumerate(coeffs))).shift(-3)
    assert read(0) == ZERO
    # B = 5 + 7 + 1 = 13 and K = 6: up to +-31, and the row's lowest
    # exponent -2 is undone.
    rows, read = QUANTUM_SCALARS.evaluated([[LaurentPoly({-2: 5, 1: -7}), ONE]])
    assert rows == [[5 - 7 * 64**3, 64**2]]
    for coeffs in ([31, -31], [-31, 0, 0, 31], [0, -1, 0, 30]):
        assert read(sum(c * 64**t for t, c in enumerate(coeffs))) == LaurentPoly(
            dict(enumerate(coeffs))).shift(-2)


@pytest.mark.parametrize("m", [0, 5])
def test_bareiss_reads_back_a_large_determinant(m):
    # The Sylvester-Hadamard matrix H of size 8 times (1 + v)^m, each row
    # shifted by a power of v: det H = 8^4, so D = +-4096 (1 + v)^(8m)
    # times v^(sum of the shifts), whose middle coefficient for m = 5 is
    # 4096 C(40, 20), about 5.7e14, far above the entries' 1.
    h = [[1]]
    for _ in range(3):
        h = [row + row for row in h] + [row + [-x for x in row] for row in h]
    base = (1 + V) ** m
    matrix = [[(x * base).shift(r - 4) for x in row] for r, row in enumerate(h)]
    rhs = [matrix[r][0] for r in range(8)]
    det, nums = bases._bareiss_solve(QUANTUM_SCALARS, matrix, rhs)
    assert (det, nums) == bareiss_reference(QUANTUM_SCALARS, matrix, rhs)
    assert det in (4096 * ((1 + V) ** (8 * m)).shift(-4), -4096 * ((1 + V) ** (8 * m)).shift(-4))
    assert nums == [det] + [ZERO] * 7


def test_bareiss_forms_no_ring_product_or_quotient(monkeypatch):
    # A quantum 5 x 5 system is eliminated with no LaurentPoly product
    # and no exact division of Laurent polynomials.
    rng = random.Random(5)
    matrix = [[LaurentPoly({e: rng.randint(-2, 2) for e in range(-3, 4)}) for _ in range(5)]
              for _ in range(5)]
    matrix[0][0] = ZERO
    rhs = [LaurentPoly({rng.randint(-3, 3): 1}) for _ in range(5)]
    expected = bareiss_reference(QUANTUM_SCALARS, matrix, rhs)
    calls = []

    def counting(name, real):
        def wrapper(*args):
            calls.append(name)
            return real(*args)
        return wrapper

    for name in ("__mul__", "__rmul__"):
        monkeypatch.setattr(LaurentPoly, name, counting(name, getattr(LaurentPoly, name)))
    monkeypatch.setattr(ring, "exact_div", counting("exact_div", ring.exact_div))
    monkeypatch.setattr(ring.QuantumScalars, "exact_quotient",
                        staticmethod(counting("exact_quotient", ring.exact_div)))
    solved = bases._bareiss_solve(QUANTUM_SCALARS, matrix, rhs)
    assert calls == []
    monkeypatch.undo()
    assert solved == expected


@pytest.mark.parametrize("mode", ["classical", "quantum"])
@pytest.mark.parametrize("entries,target", [
    ([[ONE, ONE], [ONE, 2 + V]], [2 + V, 3 + 2 * V]),  # x = (1, 1)
    ([[ONE, ONE], [ONE, 2 + V]], [ONE, 2 * ONE]),  # x1 = 1 / (1 + v)
])
def test_span_check_rejects_a_wrong_numerator(mode, entries, target, monkeypatch):
    # With one N_u multiplied by v (by 2 classically, where v is 1), the
    # exact check fails: _span_solve returns None and coordinates raises.
    m, rows = _solver_case(mode, entries)
    scalars = m.scalars
    target = {k: s if mode == "quantum" else int(s.specialize(1)) for k, s in enumerate(target)}
    real = bases._bareiss_solve

    def corrupted(scalars, matrix, rhs):
        det, nums = real(scalars, matrix, rhs)
        return det, [nums[0] * (V if mode == "quantum" else 2), *nums[1:]]

    flat, size = bases._flattened(m, rows)
    assert bases._span_solve(scalars, flat, [0, 1], scalars.to_flat(target, size), size)
    monkeypatch.setattr(bases, "_bareiss_solve", corrupted)
    assert bases._span_solve(scalars, flat, [0, 1], scalars.to_flat(target, size), size) is None
    with pytest.raises(NotInSpan, match="outside the span"):
        coordinates(m, rows, target)


@pytest.mark.parametrize("mode", ["classical", "quantum"])
@pytest.mark.parametrize("n,d", [(2, 3), (3, 3), (4, 2)])
def test_image_rank_is_operator_rank(n, d, mode):
    m = build_model(n, d, mode=mode)
    for kind, shape in SHAPES.items():
        if not shape or None not in shape:
            continue
        labels = enumerate_basis(n, d, kind)
        ops = {lab: eval_label(m, lab) for lab in labels}
        assert rank_of_labels(m, labels) == rank_of_family(
            m, _full_rows(m, ops.values())), kind
        ranks = block_ranks(m, labels)
        blocks = _blocks(block_index(m, labels))
        assert list(ranks) == list(blocks)
        for block, members in blocks.items():
            full = rank_of_family(m, _full_rows(m, [ops[lab] for lab in members]))
            assert ranks[block] == full, (kind, block)
            if kind in ("B1", "B2"):
                images = [label_image(m, lab) for lab in members]
                assert rank_of_family(m, images) == full == len(members)
    # A duplicated label leaves a deficient family: the span check
    # certifies the rank below the count.  The largest block, with one
    # of its labels twice, and one label of another block.
    labels = enumerate_basis(n, d, "B1")
    largest = max(_blocks(block_index(m, labels)).values(), key=len)
    other = next(lab for lab in labels if lab not in largest)
    deficient = largest + [largest[-1], other]
    ops = [eval_label(m, lab) for lab in deficient]
    assert rank_of_labels(m, deficient) == rank_of_family(
        m, _full_rows(m, ops)) == len(largest) + 1
    # block_ranks certifies the duplicated block's rank below its label
    # count, exactly in both modes.
    block = _label_block(largest[0], m.root_data)[1]
    assert block_ranks(m, deficient) == {
        block: len(largest), _label_block(other, m.root_data)[1]: 1}
    # PBW labels pin no block and are ranked on their images of every
    # ordered word.
    pbw = enumerate_basis(n, d, "PBW")
    assert rank_of_labels(m, pbw) == rank_of_family(
        m, _full_rows(m, [eval_label(m, lab) for lab in pbw]))
    assert block_ranks(m, pbw) is None


@pytest.mark.parametrize("mode", ["classical", "quantum"])
def test_structure_constants_of_unpinned_labels_use_operators(mode):
    m = build_model(2, 2, mode=mode)
    labels = enumerate_basis(2, 2, "PBW")
    for i, j in [(0, 0), (1, 4), (5, 2), (7, 7), (3, 9)]:
        product = eval_label(m, labels[i]) @ eval_label(m, labels[j])
        got = structure_constants(m, labels, i, j)
        expected = _expand(m, product, labels, operator_row)
        assert [(lab, to_field(x)) for lab, x in got.items()] == [
            (lab, to_field(x)) for lab, x in expected.items()]


@pytest.mark.parametrize("mode", ["classical", "quantum"])
@pytest.mark.parametrize("n,d,count", [(2, 4, 12), (3, 3, 12), (3, 4, 12)])
def test_structure_constants_match_operator_coordinates(n, d, count, mode):
    # The expansion found from images equals the one solved on
    # operators, label for label and in the same order.
    m = build_model(n, d, mode=mode)
    labels = enumerate_basis(n, d, "B1")
    blocks = [_label_block(lab, m.root_data)[1] for lab in labels]
    rng = random.Random(n * 10 + d)
    nonzero = 0
    while nonzero < count:
        right = rng.randrange(len(labels))
        left = rng.choice([k for k, b in enumerate(blocks) if b[0] == blocks[right][1]])
        product = eval_label(m, labels[left]) @ eval_label(m, labels[right])
        got = structure_constants(m, labels, left, right)
        expected = _expand(m, product, _block_candidates(m, product, labels), operator_row)
        assert list(got.items()) == list(expected.items())
        nonzero += bool(got)
    # Blocks that do not chain: the product is 0.
    left = next(k for k, b in enumerate(blocks) if b[0] != blocks[0][1])
    assert (eval_label(m, labels[left]) @ eval_label(m, labels[0])).is_zero()
    assert structure_constants(m, labels, left, 0) == {}


@pytest.mark.parametrize("n,d,mode", [(3, 4, "quantum"), (3, 3, "classical")])
def test_structure_constants_make_one_walk(n, d, mode, monkeypatch):
    # A product of B1 labels whose blocks chain reads the right factor
    # and every candidate from one block_images walk from u_src, and a
    # pair whose blocks do not chain makes none.  The grouping that
    # block_index keeps on the model stays the basis's.
    from schuralg import rootvectors

    m = build_model(n, d, mode=mode)
    labels = enumerate_basis(n, d, "B1")
    blocks = [_label_block(lab, m.root_data)[1] for lab in labels]
    walks, real = [], rootvectors.block_images

    def counted(model, groups):
        walks.append(groups)
        return real(model, groups)

    for module in (bases, rootvectors):
        monkeypatch.setattr(module, "block_images", counted)
    rng = random.Random(n * 10 + d)
    nonzero = 0
    for _ in range(12):
        right = rng.randrange(len(labels))
        left = rng.choice([k for k, b in enumerate(blocks) if b[0] == blocks[right][1]])
        walks.clear()
        nonzero += bool(structure_constants(m, labels, left, right))
        assert len(walks) == 1, (left, right)
        assert m._last_family[0] == tuple(labels)
    assert nonzero
    left = next(k for k, b in enumerate(blocks) if b[0] != blocks[0][1])
    walks.clear()
    assert structure_constants(m, labels, left, 0) == {}
    assert walks == []
    assert m._last_family[0] == tuple(labels)


@pytest.mark.parametrize("mode", ["classical", "quantum"])
@pytest.mark.parametrize("n,d", [(2, 3), (3, 2)])
def test_pbw_rank_of_labels_is_the_full_row_rank(n, d, mode):
    m = build_model(n, d, mode=mode)
    field = FIELD if mode == "quantum" else QQ
    for k0 in (1, n):
        labels = enumerate_basis(n, d, "PBW", k0=k0)
        rows = _full_rows(m, [eval_label(m, lab) for lab in labels])
        assert rank_of_labels(m, labels) == field_rank(rows, field) == len(labels)
    # A deficient family: one label twice and the zero label e_1^(d + 1).
    labels = enumerate_basis(n, d, "PBW")
    zero = BasisLabel("PBW", pbw=(0,) * (n * n - 2) + (d + 1,), k0=n)
    family = labels[:6] + [labels[3], zero]
    rows = _full_rows(m, [eval_label(m, lab) for lab in family])
    assert rank_of_labels(m, family) == field_rank(rows, field) == 6


@pytest.mark.parametrize("mode", ["classical", "quantum"])
@pytest.mark.parametrize("n,d", [(2, 3), (3, 2)])
def test_pbw_structure_constants_build_no_label_operator(n, d, mode, monkeypatch):
    # PBW products are expanded on their columns at the ordered words:
    # with label operators out of reach, the expansions equal those of
    # the operators over Q(v) (Q classically).
    import schuralg
    from schuralg import cli, hecke, rootvectors, verify

    m = build_model(n, d, mode=mode)
    labels = enumerate_basis(n, d, "PBW")
    rng = random.Random(n * 10 + d)
    pairs = [(rng.randrange(len(labels)), rng.randrange(len(labels))) for _ in range(8)]
    expected = []
    for i, j in pairs:
        product = eval_label(m, labels[i]) @ eval_label(m, labels[j])
        expected.append(_reference_coordinates(m, product, labels, labels))
    assert any(expected)

    def refuse(model, label):
        raise RuntimeError("eval_label was called")

    for module in (schuralg, bases, cli, hecke, rootvectors, verify):
        if hasattr(module, "eval_label"):
            monkeypatch.setattr(module, "eval_label", refuse)
    m = build_model(n, d, mode=mode)
    for (i, j), want in zip(pairs, expected):
        got = structure_constants(m, labels, i, j)
        assert [(lab, to_field(x)) for lab, x in got.items()] == want


def _outcome(model, columns, target):
    """coordinates' values, or the message of the NotInSpan it raises."""
    try:
        return coordinates(model, columns, target)
    except NotInSpan as exc:
        return str(exc)


_OUTSIDE = "target is outside the span of the columns"
_DEPENDENT = "family is linearly dependent; no unique expansion"


@pytest.mark.parametrize("mode", ["classical", "quantum"])
@pytest.mark.parametrize("entries,xs,extra,expected", [
    # integral, over two groups of columns
    ([[ONE, V, ZERO], [ZERO, ONE, V], [ZERO, ZERO, ZERO, ONE]], [3, 2, -1], None, None),
    # fractional: x0 + x1 = 1 and x0 + (2 + v) x1 = 2
    ([[ONE, ONE], [ONE, 2 + V]], None, None, "fraction"),
    # a target position that no column has
    ([[ONE, V, ZERO], [ZERO, ONE, V]], [1, 1], 5, _OUTSIDE),
    # a dependent family
    ([[ONE, V, ZERO], [2 * ONE, 2 * V, ZERO], [ZERO, ONE, V]], [1, 1, 1], None, _DEPENDENT),
])
def test_flat_and_scalar_rows_expand_alike(mode, entries, xs, extra, expected):
    # The same columns and target, as scalar rows and flat at stride
    # n^d, give the same coordinates or the same error.
    m = build_model(2, 3, mode=mode)
    scalars, size = m.scalars, m.num_words
    rows = [{k: s if mode == "quantum" else int(s.specialize(1))
             for k, s in enumerate(col) if s} for col in entries]
    one = scalars.one
    target = _combine(m, rows, xs) if xs else {0: one, 1: 2 * one}
    if extra is not None:
        target[extra] = scalars.v_power(2)
    flat = [scalars.to_flat(row, size) for row in rows]
    got = _outcome(m, flat, scalars.to_flat(target, size))
    assert got == _outcome(m, rows, target)
    if expected is None:
        assert got == [x * one for x in xs]
    elif expected == "fraction":
        assert got == ([LaurentFraction(V, 1 + V), LaurentFraction(ONE, 1 + V)]
                       if mode == "quantum" else [Fraction(1, 2), Fraction(1, 2)])
    else:
        assert got == expected


@pytest.mark.parametrize("mode", ["classical", "quantum"])
def test_rows_past_n_to_the_d_are_solved_at_their_own_stride(mode):
    # Scalar rows at positions far above n^d = 2, which meet mod 2: they
    # are read at the stride one above their largest position, so the
    # expansion is exact and an uncovered position that aliases covered
    # ones is outside the span.
    m = build_model(2, 1, mode=mode)
    one, v = m.scalars.one, m.scalars.v_power(1)
    rows = [{0: one, 3: one}, {2: one, 5: 2 * v}, {4: 3 * one, 9: v}]
    xs = [2 * one, -v, one + v]
    target = _combine(m, rows, xs)
    assert coordinates(m, rows, target) == xs
    with pytest.raises(NotInSpan, match="outside the span"):
        coordinates(m, rows, {**target, 7: one})
    flat, size = bases._flattened(m, rows + [target])
    assert size == 10
    assert flat[:3] == (rows if mode == "classical" else
                        [m.scalars.to_flat(row, 10) for row in rows])


@pytest.mark.parametrize("n,d,mode", [(3, 4, "quantum"), (3, 3, "classical")])
def test_pinned_structure_constants_read_the_flat_images(n, d, mode, monkeypatch):
    # The walk's flat images reach coordinates as they are: no
    # ordered-word row is built, and nothing is read back into ring
    # scalars except the minor that _span_solve eliminates.
    m = build_model(n, d, mode=mode)
    labels = enumerate_basis(n, d, "B1")
    blocks = [_label_block(lab, m.root_data)[1] for lab in labels]
    rng = random.Random(n * 10 + d)
    pairs = []
    while len(pairs) < 8:
        right = rng.randrange(len(labels))
        left = rng.choice([k for k, b in enumerate(blocks) if b[0] == blocks[right][1]])
        pairs.append((left, right))
    expected = [structure_constants(m, labels, i, j) for i, j in pairs]
    assert any(expected)
    depth, outside, rows = [0], [], []
    solve = bases._span_solve

    def in_solve(*args):
        depth[0] += 1
        try:
            return solve(*args)
        finally:
            depth[0] -= 1

    def reading(real):
        def wrapper(vec, size, rows=None):
            if not depth[0]:
                outside.append(vec)
            return real(vec, size, rows)
        return staticmethod(wrapper)

    monkeypatch.setattr(bases, "_span_solve", in_solve)
    monkeypatch.setattr(bases, "ordered_word_row", lambda *args: rows.append(args))
    for cls in (ring.ClassicalScalars, ring.QuantumScalars):
        monkeypatch.setattr(cls, "from_flat", reading(cls.from_flat))
    assert [structure_constants(m, labels, i, j) for i, j in pairs] == expected
    assert rows == [] and outside == []
