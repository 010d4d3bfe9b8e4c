"""Corner-truncation checks: dimension d!, closure, and generation."""

from math import factorial

import pytest

from schuralg import hecke, rootvectors
from schuralg.bases import RankAccumulator, enumerate_basis, rank_of_family
from schuralg.errors import HypothesisError
from schuralg.hecke import (
    check_hecke_generation,
    hecke_summary,
    omega_truncation,
    omega_weight,
)
from schuralg.rootvectors import _label_block, eval_label, label_image
from schuralg.tensormodel import (
    RootData,
    build_model,
    generator_action,
    ordered_word,
    weight_idempotent,
)

from oracle import field_rank, operator_row


@pytest.mark.parametrize("mode", ["classical", "quantum"])
@pytest.mark.parametrize("n,d", [(2, 2), (3, 3)])
def test_truncation_rank_is_d_factorial(n, d, mode):
    m = build_model(n, d, mode=mode)
    result = omega_truncation(m)
    assert result.omega == (1,) * d + (0,) * (n - d)
    assert result.dim == factorial(d)
    # Every family member's operator is its own corner image.
    proj = weight_idempotent(m, result.omega)
    for label in result.family:
        op = eval_label(m, label)
        assert proj @ op == op
        assert op @ proj == op


def test_truncation_with_padding_weight():
    m = build_model(3, 2)
    result = omega_truncation(m)
    assert result.omega == (1, 1, 0)
    assert result.dim == 2


def test_hypothesis_guards():
    with pytest.raises(HypothesisError):
        omega_weight(build_model(2, 3))
    with pytest.raises(HypothesisError):
        check_hecke_generation(build_model(3, 2))


@pytest.mark.parametrize("mode", ["classical", "quantum"])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_generation_both_variants(d, mode):
    m = build_model(d, d, mode=mode)
    rep = check_hecke_generation(m)
    assert rep.passed
    by_id = {item.id: item for item in rep.items}
    assert set(by_id) == {"EF", "FE"}
    # Each product of a corner pair adds one simple reflection, so the
    # search reaches all of S_d at the length d(d - 1)/2 of its longest
    # element, and not before.
    for item in rep.items:
        depth = int(item.detail.split("at depth ")[1])
        assert depth == d * (d - 1) // 2


def test_summary_shape():
    data = hecke_summary(build_model(2, 2))
    assert data["pass"] is True
    assert data["dim"] == data["expected"] == 2
    assert data["closed_under_product"] is True
    assert data["generation"] == {"EF": True, "FE": True}
    data = hecke_summary(build_model(3, 2))
    assert data["generation"] is None and data["pass"] is True


def test_closure_is_exact_on_deficient_families(monkeypatch):
    # Sub-families of the (3, 3) quantum corner: closed exactly when the
    # pairwise products of their operators add nothing to the rank over
    # Q(v).  The corner's images come from one block_images walk, so
    # no one-label image is built.
    m = build_model(3, 3, mode="quantum")
    full = omega_truncation(m)

    def refuse(model, label):
        raise RuntimeError("label_image was called")

    for module in (hecke, rootvectors):
        if hasattr(module, "label_image"):
            monkeypatch.setattr(module, "label_image", refuse)
    seen = set()
    for keep in ((0,), (4,), (0, 3), (1, 2), (1, 2, 3, 4, 5)):
        family = [full.family[k] for k in keep]
        ops = [eval_label(m, label) for label in family]
        products = [x @ y for x in ops for y in ops]
        rows = [operator_row(m, op) for op in ops + products]
        closed = field_rank(rows) == field_rank(rows[:len(ops)])
        dim = rank_of_family(m, rows[:len(ops)])
        monkeypatch.setattr(hecke, "omega_truncation", lambda model: hecke.TruncationResult(
            omega=full.omega, family=family, dim=dim))
        data = hecke_summary(m)
        assert data["closed_under_product"] is closed, keep
        assert data["pass"] is False
        seen.add(closed)
    assert seen == {True, False}


@pytest.mark.parametrize("mode", ["classical", "quantum"])
@pytest.mark.parametrize("n,d", [(2, 2), (3, 2), (3, 3), (4, 3)])
def test_corner_block_equals_full_scan(n, d, mode):
    # The labels of block (omega, omega) must be exactly those with a
    # nonzero corner image in a scan over the whole B1 family, in its
    # order, and each one's image of u_omega the scanned corner
    # operator's u_omega column.
    m = build_model(n, d, mode=mode)
    family = omega_truncation(m).family
    omega = omega_weight(m)
    proj = weight_idempotent(m, omega)
    anchor = m.word_index[ordered_word(omega)]
    scan = []
    for label in enumerate_basis(n, d, "B1"):
        op = proj @ eval_label(m, label) @ proj
        if not op.is_zero():
            scan.append((label, op))
    assert len(family) == len(scan) == factorial(d)
    for ours, (label, op) in zip(family, scan):
        assert ours == label
        assert label_image(m, ours) == op.cols[anchor]


@pytest.mark.parametrize("n,d,mode", [(3, 3, "classical"), (4, 4, "classical"),
                                      (4, 3, "quantum")])
def test_truncation_evaluates_d_factorial_labels(n, d, mode, monkeypatch):
    calls = []
    real = rootvectors.parts_images

    def counted(model, shape, groups):
        for block, images in real(model, shape, groups):
            calls.extend(images)
            yield block, images

    # Every label image, one built alone by label_image or one of a
    # block_images walk, is one member of a parts_images walk: each
    # corner label's image is built once.
    monkeypatch.setattr(rootvectors, "parts_images", counted)
    result = omega_truncation(build_model(n, d, mode=mode))
    assert len(calls) == factorial(d)
    assert result.dim == factorial(d)


@pytest.mark.parametrize("n,d", [(2, 2), (3, 3), (4, 3), (5, 4)])
def test_corner_labels_are_enumerated_directly(n, d):
    # The corner block's labels, enumerated on their own, are the ones
    # a scan of the whole B1 family keeps, in the same order.
    omega = (1,) * d + (0,) * (n - d)
    root_data = RootData.for_rank(n)
    scan = [lab for lab in enumerate_basis(n, d, "B1")
            if _label_block(lab, root_data)[1] == (omega, omega)]
    assert enumerate_basis(n, d, "B1", block=(omega, omega)) == scan
    assert len(scan) == factorial(d)


REFERENCE_ROUND_CAP = 10


def _full_row_closure(model, generators, target):
    """Reference for hecke._closure_rank: representatives that grow the
    rank of whole operator rows are multiplied pairwise, round after
    round, until the rank stabilizes, reaches ``target`` or the round
    cap is hit.  Returns (rank, representatives)."""
    acc = RankAccumulator(model)
    reps = []

    def feed(op):
        if not op.is_zero() and acc.add(op):
            reps.append(op)
            return True
        return False

    for op in generators:
        feed(op)
    rounds = 0
    while acc.rank < target and rounds < REFERENCE_ROUND_CAP:
        rounds += 1
        grew = False
        current = list(reps)
        for x in current:
            for y in current:
                if feed(x @ y):
                    grew = True
        if not grew:
            break
    return acc.rank, reps


def _corner_pairs(model, first, second):
    """The generator pairs (a_i, b_i) of the corner products a_i b_i."""
    return [(generator_action(model, first, i), generator_action(model, second, i))
            for i in range(1, model.n)]


@pytest.mark.parametrize("mode", ["classical", "quantum"])
@pytest.mark.parametrize("d", [2, 3])
def test_closure_matches_full_row_reference(d, mode):
    # The search of A u_omega finds the rank of the pairwise closure of
    # 1_omega and the corner products 1_omega a_i b_i 1_omega as whole
    # operators, also when the generators fall short (the last pair or
    # the first left out), where the search certifies its rank over Q(v);
    # the reference's u_omega columns have that rank over Q(v).  The
    # first or the last k - 1 pairs generate the Hecke algebra of S_k,
    # which the search spans at the length k(k - 1)/2 of its longest
    # element.
    m = build_model(d, d, mode=mode)
    target = factorial(d)
    names = m.names
    proj = weight_idempotent(m, omega_weight(m))
    anchor = m.word_index[ordered_word(omega_weight(m))]
    full = [_corner_pairs(m, names.plus, names.minus),
            _corner_pairs(m, names.minus, names.plus)]
    for pairs, k in [(full[0], d), (full[1], d), (full[0][:-1], d - 1), (full[0][1:], d - 1)]:
        gens = [proj] + [proj @ a @ b @ proj for a, b in pairs]
        rank, reps = _full_row_closure(m, gens, target)
        ours, depth = hecke._closure_rank(m, pairs, target)
        assert ours == rank == field_rank([op.cols.get(anchor, {}) for op in reps])
        assert ours == factorial(k)
        assert depth == k * (k - 1) // 2
    assert ours < target


@pytest.mark.parametrize("mode", ["classical", "quantum"])
def test_closure_moves_on_from_a_root(mode, monkeypatch):
    # At a first, sentinel point only u_omega's row is nonzero, so the
    # search stops at rank 1.  Its certificate finds a larger rank over
    # Q(v), and the search runs again at the next point, to d! at the
    # depth of the unpatched search.
    m = build_model(3, 3, mode=mode)
    pairs = _corner_pairs(m, m.names.plus, m.names.minus)
    expected = hecke._closure_rank(m, pairs, factorial(3))
    assert expected == (factorial(3), 3)
    start = {m.word_index[ordered_word(omega_weight(m))]: 1}
    sentinel = object()
    real_points, real_prepared = hecke._points, hecke._prepared
    seen = []

    def points(model):
        yield sentinel
        yield from real_points(model)

    def prepared(row, point, size):
        seen.append(point)
        if point is sentinel:
            return dict(start) if row == start else {}
        return real_prepared(row, point, size)

    monkeypatch.setattr(hecke, "_points", points)
    monkeypatch.setattr(hecke, "_prepared", prepared)
    assert hecke._closure_rank(m, pairs, factorial(3)) == expected
    assert sentinel in seen and seen[-1] is not sentinel

