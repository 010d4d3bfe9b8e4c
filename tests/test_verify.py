"""Checks of the verification layer itself.

The report plumbing is exercised directly, and several identities that
the checkers assert are recomputed here independently (diagonal
eigenvalue bookkeeping, hand-expanded reduction instances) so a
regression in the checkers cannot hide behind their own pass flags.
"""

from fractions import Fraction
from itertools import permutations, product
from math import comb

import pytest

from schuralg.bases import RankAccumulator, block_dimension, enumerate_basis
from schuralg.errors import HypothesisError
from schuralg.ring import LaurentPoly, quantum_integer
from schuralg.tensormodel import (
    build_model,
    cartan_binomial,
    cartan_product,
    compositions,
    generator_action,
    weight_idempotent,
)
from schuralg.rootvectors import _label_block, eval_label, label_columns, root_divided_power
from schuralg.verify import (
    CheckReport,
    check_enveloping_relations,
    check_idempotent_presentation,
    check_rank_one_presentation,
    check_reduction_formulas,
    check_schur_relations,
    check_specialization,
    check_structural_facts,
    suite_reports,
)
from schuralg.verify import _Agg, _block_ranks, _pairs_by_degree, _triangular_item


def _ids(report):
    return [item.id for item in report.items]


def test_report_plumbing():
    rep = CheckReport("demo", 2, 2, "classical")
    rep.add("a", True)
    rep.add("b", True, vacuous=True, detail="empty range")
    assert rep.passed
    rep.add("c", False, detail="broken")
    assert not rep.passed
    assert [it.id for it in rep.failures()] == ["c"]
    data = rep.to_json()
    assert data["pass"] is False
    assert "seconds" not in data  # timing never enters the serialized form
    assert data["items"][1]["vacuous"] is True
    text = rep.render_text()
    assert "FAIL" in text and "demo" in text


def test_vacuous_aggregation():
    agg = _Agg()
    item = agg.item("nothing", "no cases")
    assert item.ok and item.vacuous and item.detail == "no cases"
    agg.check(True, "x")
    item = agg.item("one")
    assert item.ok and not item.vacuous


def test_enveloping_relations_classical_2_2():
    rep = check_enveloping_relations(build_model(2, 2))
    assert rep.passed
    assert _ids(rep) == ["R1", "R2", "R3", "R4", "R5"]
    by_id = {item.id: item for item in rep.items}
    assert by_id["R4"].vacuous and by_id["R5"].vacuous  # no pairs for n = 2
    assert not by_id["R2"].vacuous


def test_enveloping_relations_rank_three_includes_braid():
    rep = check_enveloping_relations(build_model(3, 2))
    assert rep.passed
    by_id = {item.id: item for item in rep.items}
    assert not by_id["R4"].vacuous and not by_id["R5"].vacuous
    qrep = check_enveloping_relations(build_model(3, 2, mode="quantum"))
    assert qrep.passed
    assert _ids(qrep) == ["Q1", "Q2", "Q3", "Q4", "Q5"]
    assert not {item.id: item for item in qrep.items}["Q4"].vacuous


def test_schur_relations_and_direct_diagonals():
    m = build_model(2, 2)
    rep = check_schur_relations(m)
    assert rep.passed and _ids(rep) == ["R6", "R7"]
    # Independent recomputation: H_1 + H_2 = 2 and the cubic kills H_1.
    h1 = generator_action(m, "H", 1)
    h2 = generator_action(m, "H", 2)
    assert h1 + h2 == m.identity().scale(2)
    ident = m.identity()
    cubic = h1 @ (h1 - ident) @ (h1 - ident.scale(2))
    assert cubic.is_zero()

    q = build_model(2, 2, mode="quantum")
    qrep = check_schur_relations(q)
    assert qrep.passed and _ids(qrep) == ["Q6", "Q7"]
    k1 = generator_action(q, "K", 1)
    qid = q.identity()
    vp = q.scalars.v_power
    poly = (k1 - qid) @ (k1 - qid.scale(vp(1))) @ (k1 - qid.scale(vp(2)))
    assert poly.is_zero()


@pytest.mark.parametrize("mode", ["classical", "quantum"])
def test_idempotent_presentation_passes(mode):
    rep = check_idempotent_presentation(build_model(2, 2, mode=mode))
    assert rep.passed
    suffix = "'" if mode == "quantum" else ""
    assert _ids(rep) == [f"S1{suffix}", f"S2{suffix}", f"S3{suffix}"]


def test_idempotent_shift_rules_directly():
    m = build_model(2, 2)
    e1 = generator_action(m, "e", 1)
    one_02 = weight_idempotent(m, (0, 2))
    one_11 = weight_idempotent(m, (1, 1))
    one_20 = weight_idempotent(m, (2, 0))
    assert e1 @ one_02 == one_11 @ e1
    assert (e1 @ one_20).is_zero()  # shifted weight (3, -1) is invalid
    # Commutator eigenvalues 2, 0, -2 on the three weight spaces.
    f1 = generator_action(m, "f", 1)
    comm = e1 @ f1 - f1 @ e1
    expected = one_20.scale(2) + one_02.scale(-2)
    assert comm == expected


def test_idempotent_commutator_quantum_uses_signed_brackets():
    q = build_model(2, 3, mode="quantum")
    E = generator_action(q, "E", 1)
    F = generator_action(q, "F", 1)
    comm = E @ F - F @ E
    expected = q.zero_op()
    for lam in q.weight_set():
        coeff = quantum_integer(lam[0] - lam[1])  # negative arguments occur
        expected = expected + weight_idempotent(q, lam).scale(coeff)
    assert comm == expected


def test_reduction_classical_worked_instance():
    # alpha = (1,2), a = b = c = 1, s = 1 at (n,d) = (2,2): the reduced
    # expansion has the single term k = 1 with coefficient C(0,0)*C(2,1).
    m = build_model(2, 2)
    f1 = root_divided_power(m, (1, 2), "minus", 1)
    e1 = root_divided_power(m, (1, 2), "plus", 1)
    lhs = f1 @ cartan_binomial(m, 2, 1) @ e1
    rhs = cartan_binomial(m, 2, 2).scale(2)
    assert lhs == rhs


def test_reduction_quantum_worked_instance():
    # a = c = 1, b1 = 1, s = 1 at (n,d) = (2,2): E 1_{(1,1)} F = [2] 1_{(2,0)}.
    q = build_model(2, 2, mode="quantum")
    E = root_divided_power(q, (1, 2), "plus", 1)
    F = root_divided_power(q, (1, 2), "minus", 1)
    lhs = E @ weight_idempotent(q, (1, 1)) @ F
    rhs = weight_idempotent(q, (2, 0)).scale(LaurentPoly({1: 1, -1: 1}))
    assert lhs == rhs


@pytest.mark.parametrize(
    "n,d,family,mode",
    [
        (2, 2, "classical-H", "classical"),
        (2, 3, "classical-H", "classical"),
        (3, 2, "classical-H", "classical"),
        (2, 2, "classical-idempotent", "classical"),
        (3, 2, "classical-idempotent", "classical"),
        (2, 2, "quantum-idempotent", "quantum"),
        (3, 2, "quantum-idempotent", "quantum"),
    ],
)
def test_reduction_families_pass(n, d, family, mode):
    m = build_model(n, d, mode=mode)
    rep = check_reduction_formulas(m, family)
    assert rep.passed
    assert not any(item.vacuous for item in rep.items)
    assert len(rep.items) == 2 * len(m.root_data.positive_roots)


def test_reduction_family_mode_guard():
    m = build_model(2, 2)
    with pytest.raises(ValueError):
        check_reduction_formulas(m, "quantum-idempotent")
    with pytest.raises(ValueError):
        check_reduction_formulas(m, "no-such-family")


@pytest.mark.parametrize("d", [1, 2, 3])
def test_rank_one_presentation(d):
    rep = check_rank_one_presentation(d)
    assert rep.passed
    by_id = {item.id: item for item in rep.items}
    assert f"degree {d + 1}" == by_id["classical:minimal-polynomial"].detail
    assert "quantum:minimal-polynomial" in by_id
    assert "rank" in by_id["classical:truncated-monomials"].detail


@pytest.mark.parametrize("mode", ["classical", "quantum"])
def test_structural_facts(mode):
    m = build_model(2, 2, mode=mode)
    rep = check_structural_facts(m)
    assert rep.passed
    tri = [item for item in rep.items if item.id.startswith("triangular[")]
    assert len(tri) == 6


def test_structural_direct_oracles():
    m = build_model(2, 2)
    e = generator_action(m, "e", 1)
    assert (e @ e @ e).is_zero()
    assert not (e @ e).is_zero()
    # Product of Cartan binomials for exponents (2, 1) dies in degree 2.
    op = cartan_binomial(m, 1, 2) @ cartan_binomial(m, 2, 1)
    assert op.is_zero()


@pytest.mark.parametrize("n,d", [(2, 2), (3, 2), (2, 3)])
def test_specialization(n, d):
    rep = check_specialization(n, d)
    assert rep.passed
    assert _ids(rep) == ["B1[v=1]", "B2[v=1]"]
    assert rep.notes  # the excluded family is called out


def _entrywise_specialization_item(n, d, kind):
    """Reference for one item of check_specialization: every entry of
    each quantum operator at v = 1 against the classical operator."""
    classical = build_model(n, d, mode="classical")
    quantum = build_model(n, d, mode="quantum")
    agg = _Agg()
    for label in enumerate_basis(n, d, kind):
        qcols = {}
        for j, col in eval_label(quantum, label).cols.items():
            newcol = {}
            for i, s in col.items():
                val = s.specialize(1)
                if val != 0:
                    newcol[i] = val
            if newcol:
                qcols[j] = newcol
        ccols = {
            j: {i: Fraction(s) for i, s in col.items()}
            for j, col in eval_label(classical, label).cols.items()
        }
        agg.check(qcols == ccols, f"label {label}")
    return agg.item(f"{kind}[v=1]")


@pytest.mark.parametrize("n,d", [(2, 3), (3, 2)])
def test_specialization_matches_entrywise_reference(n, d):
    # Comparing images of u_src must decide every label as comparing
    # every operator entry does.
    rep = check_specialization(n, d)
    expected = [_entrywise_specialization_item(n, d, kind) for kind in ("B1", "B2")]
    assert rep.items == expected
    assert all(item.ok and not item.vacuous for item in expected)


def test_suite_reports_selection():
    reports = suite_reports(2, 2, mode="classical", suite="relations")
    assert [r.name for r in reports] == ["enveloping-relations", "schur-relations"]
    reports = suite_reports(3, 2, mode="quantum", suite="reduction")
    assert [r.name for r in reports] == ["reduction[quantum-idempotent]"]
    reports = suite_reports(2, 2, mode="classical", suite="all")
    assert any(r.name == "rank-one-presentation" for r in reports)
    reports = suite_reports(3, 2, mode="classical", suite="all")
    assert not any(r.name == "rank-one-presentation" for r in reports)
    with pytest.raises(HypothesisError):
        suite_reports(3, 2, mode="classical", suite="rank1")
    with pytest.raises(ValueError):
        suite_reports(2, 2, suite="bogus")


def test_suite_reports_pass_configuration_to_every_model(monkeypatch):
    from fractions import Fraction

    from schuralg import verify

    seen = []
    real = verify.build_model

    def recording(*args, **kwargs):
        seen.append(kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(verify, "build_model", recording)
    points = (Fraction(3, 2), Fraction(13, 4))
    reports = suite_reports(2, 2, mode="quantum", suite="all", word_cap=50,
                            spec_points=points)
    assert all(report.passed for report in reports)
    # One model for the suite, two for specialization, two for rank one.
    assert len(seen) == 5
    assert all(k["word_cap"] == 50 and k["spec_points"] == points for k in seen)


def _labels(model, cut=False):
    """PLUS and MINUS labels by sign; ``cut`` keeps degree < d only:
    deficient, but still closed under projection onto weight blocks."""
    return {
        sign: [label for label in enumerate_basis(model.n, model.d, kind)
               if not cut or sum(label.A) < model.d]
        for sign, kind in (("+", "PLUS"), ("-", "MINUS"))
    }


def _operator_families(model, labels):
    """The factor families of the triangular check as operators, each
    entry (degree, operator): the labels' operators by ``eval_label``,
    and the Cartan products of degree <= d."""
    families = {sign: [(sum(label.A), eval_label(model, label)) for label in fam]
                for sign, fam in labels.items()}
    families["0"] = [(total, cartan_product(model, B))
                     for total in range(model.d + 1)
                     for B in compositions(model.n, total)]
    return families


def _full_row_rank(model, fams, stop):
    """Reference rank: every triple product as one full row in a single
    accumulator, in ascending total degree, stopping at ``stop``."""
    acc = RankAccumulator(model)
    for (_, a), (_, b), (_, c) in sorted(product(*fams),
                                         key=lambda t: sum(deg for deg, _ in t)):
        acc.add(a @ b @ c)
        if acc.rank >= stop:
            break
    return acc.rank


def _pair_ranks(model, labels, tag):
    """The block ranks of the sign pair of an order, such as "+-" for "0+-"."""
    left, right = tag.replace("0", "")
    return _block_ranks(model, labels[left], labels[right])


@pytest.mark.parametrize("n,d", [(2, 3), (3, 2)])
def test_pairs_stream_in_ascending_total_degree(n, d):
    # Each pair's x, summed shift and y's columns, in the order of a sort
    # of every index pair by total degree.
    m = build_model(n, d)
    labels = _labels(m)
    left, right = labels["+"], labels["-"]
    pairs = sorted(product(range(len(left)), range(len(right))),
                   key=lambda p: (sum(left[p[0]].A) + sum(right[p[1]].A), p))
    shift = lambda label: _label_block(label, m.root_data)[0]
    expected = [(left[i], tuple(a + b for a, b in zip(shift(left[i]), shift(right[j]))),
                 label_columns(m, right[j])) for i, j in pairs]
    assert list(_pairs_by_degree(m, left, right)) == expected


@pytest.mark.parametrize("mode", ["classical", "quantum"])
@pytest.mark.parametrize("n,d", [(2, 3), (3, 2), (3, 3)])
def test_block_ranks_match_full_row_rank(n, d, mode):
    # Each sign pair's block ranks are the rank of every triple product,
    # Cartan factor included, in each of the three orders keeping the pair.
    m = build_model(n, d, mode=mode)
    dim = comb(n * n - 1 + d, d)
    for labels in (_labels(m), _labels(m, cut=True)):
        families = _operator_families(m, labels)
        for pair in ("+-", "-+"):
            ranks = _pair_ranks(m, labels, pair)
            assert all(r <= block_dimension(*block) for block, r in ranks.items())
            orders = [p for p in permutations("+0-") if "".join(p).replace("0", "") == pair]
            assert len(orders) == 3
            for perm in orders:
                fams = [families[p] for p in perm]
                assert sum(ranks.values()) == _full_row_rank(m, fams, dim)


def test_structural_report_ranks_two_sign_pairs(monkeypatch):
    from schuralg import verify

    calls = []
    real = verify._block_ranks

    def recording(model, left, right):
        calls.append((left[-1].flavor, right[-1].flavor))
        return real(model, left, right)

    monkeypatch.setattr(verify, "_block_ranks", recording)
    rep = check_structural_facts(build_model(2, 3))
    assert rep.passed
    assert calls == [("PLUS", "MINUS"), ("MINUS", "PLUS")]


@pytest.mark.parametrize("mode", ["classical", "quantum"])
def test_failing_triangular_item_names_its_block(mode):
    # Without e^(3) and f^(3) at (2, 3) nothing maps weight (3, 0) to
    # (0, 3) or back; the first such block in weight order is named.
    m = build_model(2, 3, mode=mode)
    labels = _labels(m, cut=True)
    for perm in permutations("+0-"):
        tag = "".join(perm)
        item = _triangular_item(m, tag, _pair_ranks(m, labels, tag))
        assert item.id == f"triangular[{tag}]" and not item.ok
        assert item.detail == "rank 18 of 20; block (3, 0)->(0, 3) rank 0 of 1"
    item = _triangular_item(m, "+0-", _pair_ranks(m, _labels(m), "+0-"))
    assert item.ok and item.detail == "rank 20 of 20"


def test_failing_triangular_item_block_is_short():
    # The named block's rank is recomputed from full projections of the
    # triple products, Cartan factor included.
    m = build_model(3, 2)
    labels = _labels(m, cut=True)
    ranks = _pair_ranks(m, labels, "+0-")
    item = _triangular_item(m, "+0-", ranks)
    assert not item.ok
    block, short = next(
        (b, r) for b, r in ranks.items() if r < block_dimension(*b)
    )
    src, dst = block
    assert item.detail.endswith(
        f"block {src}->{dst} rank {short} of {block_dimension(src, dst)}"
    )
    families = _operator_families(m, labels)
    one_src, one_dst = weight_idempotent(m, src), weight_idempotent(m, dst)
    acc = RankAccumulator(m)
    for (_, a), (_, b), (_, c) in product(*(families[p] for p in "+0-")):
        acc.add(one_dst @ a @ b @ c @ one_src)
    assert acc.rank == short
