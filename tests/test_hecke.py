"""Corner-truncation checks: dimension d!, closure, and generation."""

from math import factorial

import pytest

from schuralg import hecke
from schuralg.bases import RankAccumulator, _operator_row, enumerate_basis, rank_of_family
from schuralg.errors import HypothesisError
from schuralg.hecke import (
    check_hecke_generation,
    hecke_summary,
    omega_truncation,
    omega_weight,
)
from schuralg.rootvectors import _label_block, eval_label
from schuralg.tensormodel import RootData, build_model, generator_action, weight_idempotent

from oracle import field_rank


@pytest.mark.parametrize("mode", ["classical", "quantum"])
@pytest.mark.parametrize("n,d", [(2, 2), (3, 3)])
def test_truncation_rank_is_d_factorial(n, d, mode):
    m = build_model(n, d, mode=mode)
    result = omega_truncation(m)
    assert result.omega == (1,) * d + (0,) * (n - d)
    assert result.dim == factorial(d)
    # Every family member is its own corner image.
    proj = weight_idempotent(m, result.omega)
    for op in result.family:
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
@pytest.mark.parametrize("d", [2, 3])
def test_generation_both_variants(d, mode):
    m = build_model(d, d, mode=mode)
    rep = check_hecke_generation(m)
    assert rep.passed
    by_id = {item.id: item for item in rep.items}
    assert set(by_id) == {"EF", "FE"}
    # Dimension bound forces stabilization almost immediately.
    for item in rep.items:
        rounds = int(item.detail.split("after ")[1].split(" ")[0])
        assert rounds <= 3


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
    # pairwise products add nothing to the rank over Q(v).
    m = build_model(3, 3, mode="quantum")
    full = omega_truncation(m)
    seen = set()
    for keep in ((0,), (4,), (0, 3), (1, 2), (1, 2, 3, 4, 5)):
        family = [full.family[k] for k in keep]
        products = [x @ y for x in family for y in family]
        rows = [_operator_row(m, op) for op in family + products]
        closed = field_rank(rows) == field_rank(rows[:len(family)])
        dim = rank_of_family(m, family)
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
    # Evaluating only block (omega, omega) must give exactly the nonzero
    # corner images of a scan over the whole B1 family, in its order.
    m = build_model(n, d, mode=mode)
    family = omega_truncation(m).family
    proj = weight_idempotent(m, omega_weight(m))
    scan = []
    for label in enumerate_basis(n, d, "B1"):
        op = proj @ eval_label(m, label) @ proj
        if not op.is_zero():
            scan.append(op)
    assert len(family) == len(scan) == factorial(d)
    for ours, theirs in zip(family, scan):
        assert ours == theirs


@pytest.mark.parametrize("n,d,mode", [(3, 3, "classical"), (4, 4, "classical"),
                                      (4, 3, "quantum")])
def test_truncation_evaluates_d_factorial_labels(n, d, mode, monkeypatch):
    calls = []

    def counted(model, label):
        calls.append(label)
        return eval_label(model, label)

    monkeypatch.setattr(hecke, "eval_label", counted)
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


def _full_row_closure(model, generators, target):
    """Reference for hecke._closure_rank: the same rounds, with every
    element ranked as one full operator row."""
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
    while acc.rank < target and rounds < hecke.CLOSURE_ROUND_CAP:
        rounds += 1
        grew = False
        current = list(reps)
        for x in current:
            for y in current:
                if feed(x @ y):
                    grew = True
        if not grew:
            break
    return acc.rank, rounds


def _corner_generators(model, first, second):
    """1_omega and the corner products 1_omega a_i b_i 1_omega."""
    proj = weight_idempotent(model, omega_weight(model))
    pairs = [(generator_action(model, first, i), generator_action(model, second, i))
             for i in range(1, model.n)]
    return [proj] + [proj @ a @ b @ proj for a, b in pairs]


@pytest.mark.parametrize("mode", ["classical", "quantum"])
@pytest.mark.parametrize("d", [2, 3])
def test_closure_matches_full_row_reference(d, mode):
    # Ranking each corner element by its u_omega column gives the rank
    # and round count of ranking whole operators, also when the
    # generators fall short (one product only, no 1_omega).
    m = build_model(d, d, mode=mode)
    target = factorial(d)
    names = m.names
    cases = [_corner_generators(m, names.plus, names.minus),
             _corner_generators(m, names.minus, names.plus)]
    cases.append(cases[0][1:2])
    for gens in cases:
        ours = hecke._closure_rank(m, gens, target)
        assert ours == _full_row_closure(m, gens, target)
    assert ours[0] < target
