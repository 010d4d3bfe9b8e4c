"""Checks of the verification layer itself.

The report plumbing is exercised directly, and several identities that
the checkers assert are recomputed here independently (diagonal
eigenvalue bookkeeping, hand-expanded reduction instances) so a
regression in the checkers cannot hide behind their own pass flags.
"""

from fractions import Fraction
from functools import partial
from itertools import permutations, product
from math import comb

import pytest
from oracle import add, field_rank, scale, sub, with_one_entry

from schuralg.bases import (
    RankAccumulator,
    block_dimension,
    block_index,
    block_ranks,
    enumerate_basis,
)
from schuralg.errors import HypothesisError
from schuralg.ring import LaurentPoly, quantum_integer
from schuralg.tensormodel import (
    SparseOperator,
    build_model,
    cartan_binomial,
    cartan_product,
    compose,
    compositions,
    generator_action,
    ordered_word_row,
    weight_idempotent,
)
from schuralg.rootvectors import SHAPES, _label_block, eval_label, root_divided_power
from schuralg.verify import (
    SUITES,
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
from schuralg.verify import _Agg, _apply_sum, _triangular_item


def _ids(report):
    return [item.id for item in report.items]


def _pair(n, d):
    """A classical and a quantum model of (n, d), in that order."""
    return build_model(n, d), build_model(n, d, mode="quantum")


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
    assert add(h1, h2) == scale(m.identity(), 2)
    ident = m.identity()
    cubic = h1 @ sub(h1, ident) @ sub(h1, scale(ident, 2))
    assert cubic.is_zero()

    q = build_model(2, 2, mode="quantum")
    qrep = check_schur_relations(q)
    assert qrep.passed and _ids(qrep) == ["Q6", "Q7"]
    k1 = generator_action(q, "K", 1)
    qid = q.identity()
    vp = q.scalars.v_power
    poly = sub(k1, qid) @ sub(k1, scale(qid, vp(1))) @ sub(k1, scale(qid, vp(2)))
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
    comm = sub(e1 @ f1, f1 @ e1)
    expected = add(scale(one_20, 2), scale(one_02, -2))
    assert comm == expected


def test_idempotent_commutator_quantum_uses_signed_brackets():
    q = build_model(2, 3, mode="quantum")
    E = generator_action(q, "E", 1)
    F = generator_action(q, "F", 1)
    comm = sub(E @ F, F @ E)
    expected = SparseOperator()
    for lam in q.weight_set:
        coeff = quantum_integer(lam[0] - lam[1])  # negative arguments occur
        expected = add(expected, scale(weight_idempotent(q, lam), coeff))
    assert comm == expected


def test_reduction_classical_worked_instance():
    # alpha = (1,2), a = b = c = 1, s = 1 at (n,d) = (2,2): the reduced
    # expansion has the single term k = 1 with coefficient C(0,0)*C(2,1).
    m = build_model(2, 2)
    f1 = root_divided_power(m, (1, 2), "minus", 1)
    e1 = root_divided_power(m, (1, 2), "plus", 1)
    lhs = f1 @ cartan_binomial(m, 2, 1) @ e1
    rhs = scale(cartan_binomial(m, 2, 2), 2)
    assert lhs == rhs


def test_reduction_quantum_worked_instance():
    # a = c = 1, b1 = 1, s = 1 at (n,d) = (2,2): E 1_{(1,1)} F = [2] 1_{(2,0)}.
    q = build_model(2, 2, mode="quantum")
    E = root_divided_power(q, (1, 2), "plus", 1)
    F = root_divided_power(q, (1, 2), "minus", 1)
    lhs = E @ weight_idempotent(q, (1, 1)) @ F
    rhs = scale(weight_idempotent(q, (2, 0)), LaurentPoly({1: 1, -1: 1}))
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


@pytest.mark.parametrize(
    "family,mode,name,target,failures",
    [
        ("classical-H", "classical", "cartan_binomial", (2, 1),
         {"fHe[1-2]": "failed at (a,b,c)=(1,0,2)",
          "eHf[2-3]": "failed at (a,b,c)=(1,0,2)"}),
        ("classical-idempotent", "classical", "weight_idempotent", (1, 1, 0),
         {"e1f[1-2]": "failed at (a,b1,c)=(1,0,2)",
          "f1e[1-2]": "failed at (a,b2,c)=(1,1,1)"}),
        ("quantum-idempotent", "quantum", "weight_idempotent", (0, 1, 1),
         {"E1F[2-3]": "failed at (a,b1,c)=(1,0,2)",
          "F1E[2-3]": "failed at (a,b2,c)=(1,1,1)"}),
    ],
)
def test_wrong_middle_factor_fails_its_reductions(family, mode, name, target,
                                                  failures, monkeypatch):
    # One middle factor at (3, 2) is doubled: binom(H_2, 1) for the
    # U-form, one weight idempotent for the idempotent forms.  Exactly
    # the items of the roots whose identity uses it fail, each at its
    # first failing case in the family's order.
    from schuralg import verify

    real = getattr(verify, name)

    def doubled(model, *args):
        op = real(model, *args)
        key = args if name == "cartan_binomial" else tuple(args[0])
        return scale(op, model.scalars.integer(2)) if key == target else op

    monkeypatch.setattr(verify, name, doubled)
    rep = check_reduction_formulas(build_model(3, 2, mode=mode), family)
    assert len(rep.items) == 6
    assert {item.id: item.detail for item in rep.failures()} == failures


@pytest.mark.parametrize("d", [1, 2, 3])
def test_rank_one_presentation(d):
    rep = check_rank_one_presentation(*_pair(2, d))
    assert rep.passed
    by_id = {item.id: item for item in rep.items}
    assert f"degree {d + 1}" == by_id["classical:minimal-polynomial"].detail
    assert "quantum:minimal-polynomial" in by_id
    assert "rank" in by_id["classical:truncated-monomials"].detail


@pytest.mark.parametrize("mode", ["classical", "quantum"])
def test_product_starts_at_its_first_factor(mode, monkeypatch):
    # k factors take k - 1 matmuls, none with the identity; no factor
    # at all gives the identity.
    from schuralg import tensormodel

    m = build_model(3, 2, mode=mode)
    x, y, z = (generator_action(m, m.names.plus, 1), generator_action(m, m.names.minus, 2),
               generator_action(m, m.names.cartan, 3))
    expected = x @ y @ z
    calls = []
    matmul = tensormodel.SparseOperator.__matmul__

    def counted(self, other):
        calls.append(self)
        return matmul(self, other)

    monkeypatch.setattr(tensormodel.SparseOperator, "__matmul__", counted)
    assert tensormodel.compose(m, iter([x, y, z])) == expected
    assert len(calls) == 2
    assert tensormodel.compose(m, [y]) is y
    assert tensormodel.compose(m, []) == m.identity()
    assert len(calls) == 2


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
    rep = check_specialization(*_pair(n, d))
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
    rep = check_specialization(*_pair(n, d))
    expected = [_entrywise_specialization_item(n, d, kind) for kind in ("B1", "B2")]
    assert rep.items == expected
    assert all(item.ok and not item.vacuous for item in expected)


def test_specialization_reports_the_first_failing_label(monkeypatch):
    # The quantum images come source weight by source weight, out of
    # enumeration order: at (2, 3) B1 label 2 is built before label 1.
    # With both wrong, the report still names label 1.  The classical
    # images are made wrong where block_images builds them, in _act.
    from schuralg import rootvectors

    labels = enumerate_basis(2, 3, "B1")
    m = build_model(2, 3, mode="quantum")
    order = [lab for by_dst in block_index(m, labels).values()
             for members in by_dst.values() for lab in members]
    assert order.index(labels[2]) < order.index(labels[1])
    real = rootvectors._act

    def wrong(model, label, vec, memo, key=None):
        image = real(model, label, vec, memo, key)
        if model.mode == "classical" and label in (labels[1], labels[2]):
            return {**image, 0: 99}
        return image

    monkeypatch.setattr(rootvectors, "_act", wrong)
    item = check_specialization(*_pair(2, 3)).items[0]
    assert (item.id, item.ok, item.detail) == ("B1[v=1]", False, f"failed at label {labels[1]}")


@pytest.mark.parametrize("kind", ["B1", "B2"])
def test_specialization_names_a_broken_label_in_enumeration_order(kind, monkeypatch):
    # One classical image broken at a time, the first, a middle and the
    # last label of the enumeration: the item names that label.  Then
    # the later half of the labels in block order at once: the item
    # names the one that comes first in the flat enumeration (lam in the
    # order of compositions, then the parts ascending), not the first
    # in block order.
    from schuralg import rootvectors

    labels = enumerate_basis(3, 3, kind)
    order = [lab for by_dst in block_index(build_model(3, 3), labels).values()
             for members in by_dst.values() for lab in members]
    real, broken = rootvectors._act, set()

    def wrong(model, label, vec, memo, key=None):
        image = real(model, label, vec, memo, key)
        if model.mode == "classical" and label in broken:
            return {**image, 0: 99}
        return image

    monkeypatch.setattr(rootvectors, "_act", wrong)
    index = 0 if kind == "B1" else 1
    models = _pair(3, 3)
    for target in (labels[0], labels[len(labels) // 2], labels[-1]):
        broken = {target}
        item = check_specialization(*models).items[index]
        assert (item.id, item.ok, item.detail) == (f"{kind}[v=1]", False,
                                                   f"failed at label {target}")
    broken = set(order[len(order) // 2:])
    first = next(lab for lab in labels if lab in broken)
    assert first != order[len(order) // 2]
    item = check_specialization(*models).items[index]
    assert item.detail == f"failed at label {first}"
    broken = set()
    item = check_specialization(*models).items[index]
    assert item.ok and item.detail == f"{len(labels)} instance(s)"


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
    # One model per mode, shared by the suite, specialization and rank one.
    assert sorted(k["mode"] for k in seen) == ["classical", "quantum"]
    assert all(k["word_cap"] == 50 and k["spec_points"] == points for k in seen)


def _count_builds(monkeypatch):
    """The modes of the models that ``verify.build_model`` builds, in order."""
    from schuralg import verify

    built, real = [], verify.build_model

    def recording(*args, **kwargs):
        built.append(kwargs["mode"])
        return real(*args, **kwargs)

    monkeypatch.setattr(verify, "build_model", recording)
    return built


@pytest.mark.parametrize("n,d,mode", [(3, 2, "classical"), (2, 3, "quantum")])
def test_suite_all_builds_and_certifies_each_model_once(n, d, mode, monkeypatch):
    from schuralg import tensormodel

    built, positions = _count_builds(monkeypatch), []
    real_table = tensormodel.hecke_table

    def recording_table(model, p):
        # The certificate builds each T_p's table once per run.
        positions.append((model.mode, p))
        return real_table(model, p)

    monkeypatch.setattr(tensormodel, "hecke_table", recording_table)
    reports = suite_reports(n, d, mode=mode, suite="all")
    assert all(report.passed for report in reports)
    assert sorted(built) == ["classical", "quantum"]
    assert sorted(positions) == [(m, p) for m in ("classical", "quantum")
                                 for p in range(1, d)]


@pytest.mark.parametrize("suite,n,modes", [
    ("relations", 3, ["quantum"]),
    ("specialize", 3, ["classical", "quantum"]),
    ("rank1", 2, ["classical", "quantum"]),
])
def test_suite_reports_builds_each_needed_model_once(suite, n, modes, monkeypatch):
    # "all" builds both modes too (test_suite_all_builds_and_certifies_each_model_once).
    built = _count_builds(monkeypatch)
    assert all(report.passed for report in suite_reports(n, 2, mode="quantum", suite=suite))
    assert sorted(built) == modes


def test_rank1_needs_n_2_before_any_model_is_built(monkeypatch):
    # 3^9 words exceed the default cap, so a build would exit 3.
    import io
    from contextlib import redirect_stderr, redirect_stdout

    from schuralg.cli import main

    built = _count_builds(monkeypatch)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["verify", "3", "9", "--suite", "rank1"])
    assert (code, built, out.getvalue()) == (2, [], "")
    assert "needs n = 2" in err.getvalue()


def test_pair_checks_refuse_mismatched_models():
    c2, q2 = _pair(2, 2)
    c3, q3 = _pair(3, 2)
    for check in (check_specialization, check_rank_one_presentation):
        for pair in ((q2, c2), (c2, c2), (q2, q2), (c2, q3), (build_model(2, 3), q2)):
            with pytest.raises(ValueError, match="classical and then a quantum model"):
                check(*pair)
    with pytest.raises(HypothesisError) as from_suite:
        suite_reports(3, 2, suite="rank1")
    with pytest.raises(HypothesisError) as from_check:
        check_rank_one_presentation(c3, q3)
    assert str(from_check.value) == str(from_suite.value)
    assert check_specialization(c3, q3).passed


def test_report_times_itself_to_its_last_item():
    import time

    rep = CheckReport("demo", 2, 2, "classical")
    assert rep.seconds == 0.0
    time.sleep(0.001)
    rep.add("a", True)
    first = rep.seconds
    assert first > 0.0
    rep.notes.append("a note moves no clock")
    assert rep.seconds == first
    time.sleep(0.001)
    rep.append(_Agg().item("b"))
    assert rep.seconds > first


def test_each_item_is_counted_once(monkeypatch):
    # A counter that wraps both add and append, as the bench probes do,
    # sees each item once: add does not go through append.
    calls = []
    for attr in ("add", "append"):
        real = getattr(CheckReport, attr)

        def counted(self, *args, _real=real, **kwargs):
            calls.append(self)
            return _real(self, *args, **kwargs)

        monkeypatch.setattr(CheckReport, attr, counted)
    reports = suite_reports(2, 2, suite="all")
    assert len(calls) == sum(len(report.items) for report in reports) > 0
    assert all(report.seconds > 0.0 for report in reports)


def test_only_suite_reports_takes_configuration():
    # Checks take their models; suite_reports alone builds them, so it
    # alone sees the word cap and the spec points.
    import inspect

    from schuralg import hecke, verify

    takers = [
        f"{module.__name__}.{name}"
        for module in (verify, hecke)
        for name, obj in vars(module).items()
        if not name.startswith("_") and inspect.isfunction(obj)
        and obj.__module__ == module.__name__
        and {"word_cap", "spec_points", "models"} & set(inspect.signature(obj).parameters)
    ]
    assert takers == ["schuralg.verify.suite_reports"]


def _basis(model, kind, cut=False):
    """B1 or B2 labels; ``cut`` keeps those with sum(A) < d and
    sum(C) < d: deficient, and short in the block from (d, 0, ...) to
    (0, ..., d) and back."""
    return [label for label in enumerate_basis(model.n, model.d, kind)
            if not cut or (sum(label.A) < model.d and sum(label.C) < model.d)]


def _basis_ranks(model, tag, cut=False):
    """The rank map of an order, as ``_triangular_items`` fills it: the
    block ranks of B1 when S+ stands left of S-, of B2 otherwise, 0 for
    a block without labels."""
    kind = "B1" if tag.index("+") < tag.index("-") else "B2"
    found = block_ranks(model, _basis(model, kind, cut))
    weights = model.weight_set
    return {(src, dst): found.get((src, dst), 0) for src in weights for dst in weights}


def _operator_families(model):
    """The factor families of the triangular check as operators, each
    entry (degree, operator): the PLUS and MINUS labels' operators by
    ``eval_label``, and the Cartan products of degree <= d."""
    families = {sign: [(sum(label.A), eval_label(model, label))
                       for label in enumerate_basis(model.n, model.d, kind)]
                for sign, kind in (("+", "PLUS"), ("-", "MINUS"))}
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


@pytest.mark.parametrize("mode", ["classical", "quantum"])
@pytest.mark.parametrize("n,d", [(2, 3), (3, 2), (3, 3)])
def test_basis_operators_are_triple_products(n, d, mode):
    # The premise of the triangular check: each B1 operator e_A 1_lam f_C
    # of block (src, dst) is a triple product in each order with S+ left
    # of S-, 1_nu being the Cartan product of nu, and each B2 operator in
    # each of the mirror orders; the factors are PLUS and MINUS labels.
    m = build_model(n, d, mode=mode)
    factors = {sign: {label.A: eval_label(m, label) for label in enumerate_basis(n, d, kind)}
               for sign, kind in (("plus", "PLUS"), ("minus", "MINUS"))}
    for kind in ("B1", "B2"):
        for label in enumerate_basis(n, d, kind):
            left, _, right = SHAPES[kind]
            a, c = factors[left[1]][label.A], factors[right[1]][label.C]
            src, dst = _label_block(label, m.root_data)[1]
            assert {src, dst} <= set(m.weight_set)  # compositions of d
            one = {nu: cartan_product(m, nu) for nu in (src, label.lam, dst)}
            assert one[label.lam] == weight_idempotent(m, label.lam)
            op = eval_label(m, label)
            assert op == a @ one[label.lam] @ c == a @ c @ one[src] == one[dst] @ a @ c
            assert not op.is_zero()


@pytest.mark.parametrize("mode", ["classical", "quantum"])
@pytest.mark.parametrize("n,d", [(2, 3), (3, 2), (3, 3)])
def test_block_ranks_match_full_row_rank(n, d, mode):
    # The basis block ranks read by each order sum to the rank of every
    # triple product of that order, Cartan factor included.
    m = build_model(n, d, mode=mode)
    dim = comb(n * n - 1 + d, d)
    families = _operator_families(m)
    for perm in permutations("+0-"):
        ranks = _basis_ranks(m, "".join(perm))
        assert all(r <= block_dimension(*block) for block, r in ranks.items())
        assert sum(ranks.values()) == _full_row_rank(m, [families[p] for p in perm], dim)


def test_structural_report_ranks_two_sign_pairs(monkeypatch):
    # One rank map per order of the signs: B1 for S+ left of S-, then B2.
    from schuralg import verify

    calls = []
    real = verify.grouped_ranks

    def recording(model, groups):
        calls.append({label.flavor for blocks in groups.values()
                      for labels in blocks.values() for label in labels})
        return real(model, groups)

    monkeypatch.setattr(verify, "grouped_ranks", recording)
    rep = check_structural_facts(build_model(2, 3))
    assert rep.passed
    assert calls == [{"B1"}, {"B2"}]


@pytest.mark.parametrize("mode", ["classical", "quantum"])
def test_failing_triangular_item_names_its_block(mode):
    # Without e^(3) and f^(3) at (2, 3) nothing maps weight (3, 0) to
    # (0, 3) or back; the first such block in weight order is named.
    m = build_model(2, 3, mode=mode)
    for perm in permutations("+0-"):
        tag = "".join(perm)
        item = _triangular_item(m, tag, _basis_ranks(m, tag, cut=True))
        assert item.id == f"triangular[{tag}]" and not item.ok
        assert item.detail == "rank 18 of 20; block (3, 0)->(0, 3) rank 0 of 1"
    item = _triangular_item(m, "+0-", _basis_ranks(m, "+0-"))
    assert item.ok and item.detail == "rank 20 of 20"


def test_failing_triangular_item_block_is_short():
    # The named block's rank is recomputed as the full-row rank of the
    # operators of the cut labels in that block; it is at most the rank
    # of the triple products projected onto the block.
    m = build_model(3, 2)
    ranks = _basis_ranks(m, "+0-", cut=True)
    item = _triangular_item(m, "+0-", ranks)
    assert not item.ok
    block, short = next(
        (b, r) for b, r in ranks.items() if r < block_dimension(*b)
    )
    src, dst = block
    assert item.detail.endswith(
        f"block {src}->{dst} rank {short} of {block_dimension(src, dst)}"
    )
    acc = RankAccumulator(m)
    for label in _basis(m, "B1", cut=True):
        if _label_block(label, m.root_data)[1] == block:
            acc.add(eval_label(m, label))
    assert acc.rank == short
    families = _operator_families(m)
    one_src, one_dst = weight_idempotent(m, src), weight_idempotent(m, dst)
    projected = RankAccumulator(m)
    for (_, a), (_, b), (_, c) in product(*(families[p] for p in "+0-")):
        projected.add(one_dst @ a @ b @ c @ one_src)
    assert short <= projected.rank


# The failing items of each suite under generators that still pass the
# certificate, as the suites reported them when they compared whole
# operators: the raising generator e_1 (E_1) doubled in every model, and
# K_1 times v in the quantum ones.  Keyed by (change, n, d, mode, suite):
# each report's name and its failing (id, detail) pairs.
FAILURES_AT_OPERATOR_LEVEL = {
    ("e1-doubled", 3, 2, "classical", "relations"): [
        ("enveloping-relations", [
            ("R2", "failed at (i,j)=(1,1)"),
        ]),
        ("schur-relations", []),
    ],
    ("e1-doubled", 3, 2, "classical", "idempotent"): [
        ("idempotent-presentation", [
            ("S3", "failed at (i,j)=(1,1)"),
        ]),
    ],
    ("e1-doubled", 3, 2, "classical", "reduction"): [
        ("reduction[classical-H]", [
            ("fHe[1-2]", "failed at (a,b,c)=(1,0,2)"),
            ("eHf[1-2]", "failed at (a,b,c)=(1,0,2)"),
            ("fHe[1-3]", "failed at (a,b,c)=(1,0,2)"),
            ("eHf[1-3]", "failed at (a,b,c)=(1,0,2)"),
        ]),
        ("reduction[classical-idempotent]", [
            ("e1f[1-2]", "failed at (a,b1,c)=(1,0,2)"),
            ("f1e[1-2]", "failed at (a,b2,c)=(1,1,1)"),
            ("e1f[1-3]", "failed at (a,b1,c)=(1,0,2)"),
            ("f1e[1-3]", "failed at (a,b2,c)=(1,1,1)"),
        ]),
    ],
    ("e1-doubled", 3, 2, "classical", "structural"): [
        ("structural-facts", []),
    ],
    ("e1-doubled", 3, 2, "quantum", "relations"): [
        ("enveloping-relations", [
            ("Q2", "failed at (i,j)=(1,1)"),
        ]),
        ("schur-relations", []),
    ],
    ("e1-doubled", 3, 2, "quantum", "idempotent"): [
        ("idempotent-presentation", [
            ("S3'", "failed at (i,j)=(1,1)"),
        ]),
    ],
    ("e1-doubled", 3, 2, "quantum", "reduction"): [
        ("reduction[quantum-idempotent]", [
            ("E1F[1-2]", "failed at (a,b1,c)=(1,0,2)"),
            ("F1E[1-2]", "failed at (a,b2,c)=(1,1,1)"),
            ("E1F[1-3]", "failed at (a,b1,c)=(1,0,2)"),
            ("F1E[1-3]", "failed at (a,b2,c)=(1,1,1)"),
        ]),
    ],
    ("e1-doubled", 3, 2, "quantum", "structural"): [
        ("structural-facts", []),
    ],
    ("e1-doubled", 2, 3, "classical", "relations"): [
        ("enveloping-relations", [
            ("R2", "failed at (i,j)=(1,1)"),
        ]),
        ("schur-relations", []),
    ],
    ("e1-doubled", 2, 3, "classical", "idempotent"): [
        ("idempotent-presentation", [
            ("S3", "failed at (i,j)=(1,1)"),
        ]),
    ],
    ("e1-doubled", 2, 3, "classical", "reduction"): [
        ("reduction[classical-H]", [
            ("fHe[1-2]", "failed at (a,b,c)=(1,0,3)"),
            ("eHf[1-2]", "failed at (a,b,c)=(1,0,3)"),
        ]),
        ("reduction[classical-idempotent]", [
            ("e1f[1-2]", "failed at (a,b1,c)=(1,0,3)"),
            ("f1e[1-2]", "failed at (a,b2,c)=(1,2,1)"),
        ]),
    ],
    ("e1-doubled", 2, 3, "classical", "structural"): [
        ("structural-facts", []),
    ],
    ("e1-doubled", 2, 3, "classical", "rank1"): [
        ("rank-one-presentation", [
            ("classical:ef-fe=h", ""),
            ("quantum:EF-FE=(K-K^-1)/(v-v^-1)", ""),
        ]),
    ],
    ("e1-doubled", 2, 3, "quantum", "relations"): [
        ("enveloping-relations", [
            ("Q2", "failed at (i,j)=(1,1)"),
        ]),
        ("schur-relations", []),
    ],
    ("e1-doubled", 2, 3, "quantum", "idempotent"): [
        ("idempotent-presentation", [
            ("S3'", "failed at (i,j)=(1,1)"),
        ]),
    ],
    ("e1-doubled", 2, 3, "quantum", "reduction"): [
        ("reduction[quantum-idempotent]", [
            ("E1F[1-2]", "failed at (a,b1,c)=(1,0,3)"),
            ("F1E[1-2]", "failed at (a,b2,c)=(1,2,1)"),
        ]),
    ],
    ("e1-doubled", 2, 3, "quantum", "structural"): [
        ("structural-facts", []),
    ],
    ("e1-doubled", 2, 3, "quantum", "rank1"): [
        ("rank-one-presentation", [
            ("classical:ef-fe=h", ""),
            ("quantum:EF-FE=(K-K^-1)/(v-v^-1)", ""),
        ]),
    ],
    ("K1-times-v", 3, 2, "quantum", "relations"): [
        ("enveloping-relations", [
            ("Q1", "failed at K1K1^-1"),
            ("Q2", "failed at (i,j)=(1,1)"),
        ]),
        ("schur-relations", [
            ("Q6", "product of K_k equals v^d"),
            ("Q7", "failed at k=1"),
        ]),
    ],
    ("K1-times-v", 3, 2, "quantum", "idempotent"): [
        ("idempotent-presentation", []),
    ],
    ("K1-times-v", 3, 2, "quantum", "reduction"): [
        ("reduction[quantum-idempotent]", []),
    ],
    ("K1-times-v", 3, 2, "quantum", "structural"): [
        ("structural-facts", []),
    ],
    ("K1-times-v", 2, 3, "quantum", "relations"): [
        ("enveloping-relations", [
            ("Q1", "failed at K1K1^-1"),
            ("Q2", "failed at (i,j)=(1,1)"),
        ]),
        ("schur-relations", [
            ("Q6", "product of K_k equals v^d"),
            ("Q7", "failed at k=1"),
        ]),
    ],
    ("K1-times-v", 2, 3, "quantum", "idempotent"): [
        ("idempotent-presentation", []),
    ],
    ("K1-times-v", 2, 3, "quantum", "reduction"): [
        ("reduction[quantum-idempotent]", []),
    ],
    ("K1-times-v", 2, 3, "quantum", "structural"): [
        ("structural-facts", []),
    ],
    ("K1-times-v", 2, 3, "quantum", "rank1"): [
        ("rank-one-presentation", [
            ("quantum:KK^-1=1", ""),
            ("quantum:KEK^-1=v^2E", ""),
            ("quantum:KFK^-1=v^-2F", ""),
            ("quantum:EF-FE=(K-K^-1)/(v-v^-1)", ""),
            ("quantum:minimal-polynomial", "degree 4"),
        ]),
    ],
}


def _change_generators(change, monkeypatch):
    """Make ``verify.build_model`` return models with one generator
    changed by ``change``, which keeps it commuting with every T_p."""
    from schuralg import verify

    real = verify.build_model

    def build(*args, **kwargs):
        model = real(*args, **kwargs)
        if change == "e1-doubled":
            key, factor = (model.names.plus, 1), 2
        elif model.mode == "quantum":
            key, factor = ("K", 1), LaurentPoly.v_power(1)
        else:
            return model
        model._generators[key] = scale(model._generators[key], factor)
        return model

    monkeypatch.setattr(verify, "build_model", build)


@pytest.mark.parametrize("change,n,d,mode,suite", list(FAILURES_AT_OPERATOR_LEVEL))
def test_failures_on_images_are_those_on_operators(change, n, d, mode, suite,
                                                  monkeypatch):
    # A polynomial in the generators passes the certificate, so each
    # identity fails on the images of the ordered words exactly where it
    # failed between whole operators, at the same first instance.
    _change_generators(change, monkeypatch)
    reports = suite_reports(n, d, mode=mode, suite=suite)
    got = [(r.name, [(item.id, item.detail) for item in r.failures()]) for r in reports]
    assert got == FAILURES_AT_OPERATOR_LEVEL[change, n, d, mode, suite]


@pytest.mark.parametrize("suite", [suite for suite in SUITES if suite != "rank1"])
def test_a_broken_generator_gives_one_fail_item(suite, monkeypatch):
    # f_2 at (3, 3) with one entry negated fails the certificate.  Every
    # suite reports that as one FAIL item naming f_2 and runs no check,
    # and the CLI exits with 1.
    import io
    from contextlib import redirect_stdout

    from schuralg import verify
    from schuralg.cli import main

    real = verify.build_model

    def build(*args, **kwargs):
        model = real(*args, **kwargs)
        if model.mode == "classical":
            model._generators["f", 2] = with_one_entry(model._generators["f", 2], lambda s: -s)
        return model

    monkeypatch.setattr(verify, "build_model", build)
    message = "f_2 does not commute with T_2 at (n, d) = (3, 3) in classical mode"
    [report] = suite_reports(3, 3, suite=suite)
    assert (report.name, report.mode, report.passed) == ("hecke-certificate", "classical", False)
    assert [(item.id, item.ok, item.detail) for item in report.items] == [
        ("hecke-commutation", False, message)]
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(["verify", "3", "3", "--suite", suite])
    assert code == 1
    assert f"[FAIL] hecke-commutation ({message})" in out.getvalue()


def _quantum_monomial_rows(quantum):
    """Reference rows of F^a K^b E^c, a + b + c <= d, K = K_1 K_2^-1: the
    ordered-word rows of whole operator products."""
    gen = partial(generator_action, quantum)
    E, F = gen("E", 1), gen("F", 1)
    K = gen("K", 1) @ gen("K^-1", 2)
    d = quantum.d
    return [ordered_word_row(quantum, compose(quantum, [F] * a + [K] * b + [E] * c).cols)
            for a in range(d + 1) for b in range(d + 1) for c in range(d + 1)
            if a + b + c <= d]


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_rank_one_ranks_the_quantum_truncated_monomials(d):
    classical, quantum = _pair(2, d)
    rep = check_rank_one_presentation(classical, quantum)
    count = comb(d + 3, 3)
    item = {item.id: item for item in rep.items}["quantum:truncated-monomials"]
    assert item.ok and item.detail == f"count {count}, rank {count}, expected {count}"
    assert _ids(rep)[-1] == "quantum:truncated-monomials"
    assert rep.notes == []
    if d <= 3:
        assert field_rank(_quantum_monomial_rows(quantum)) == count


def test_short_quantum_truncated_monomials_fail_with_their_rank():
    # With K_2 in place of K_1, K = K_2 K_2^-1 = 1 and the monomials
    # F^a K^b E^c repeat over b: the item fails with their exact rank.
    classical, quantum = _pair(2, 3)
    quantum._generators["K", 1] = quantum._generators["K", 2]
    rank = field_rank(_quantum_monomial_rows(quantum))
    assert rank < 20
    item = {item.id: item
            for item in check_rank_one_presentation(classical, quantum).items}[
        "quantum:truncated-monomials"]
    assert not item.ok and item.detail == f"count 20, rank {rank}, expected 20"


def test_laurent_coefficients_add_up_where_keys_meet():
    # (v + v^-1) times (v + v^-1) u at one word: v v^-1 and v^-1 v meet
    # at v^0, where their terms add up to 2.
    q = build_model(2, 2, mode="quantum")
    size = q.num_words
    vec = {1 + size: 1, 1 - size: 1}
    assert _apply_sum(q, [(quantum_integer(2),)], vec) == {1 + 2 * size: 1, 1: 2,
                                                           1 - 2 * size: 1}


def _instances(report, item_id):
    """The instance count in a passing item's detail."""
    [item] = [item for item in report.items if item.id == item_id]
    assert item.ok
    return int(item.detail.split()[0])


@pytest.mark.parametrize("n,d,mode", [(4, 3, "classical"), (3, 3, "quantum")])
def test_idempotent_instances_are_evaluated_at_their_source_word(n, d, mode, monkeypatch):
    # An instance in idempotent form makes at most one evaluation, at its
    # source weight's ordered word: S2 one per instance, S3 one per (i, j)
    # and lam, the idempotent reductions one per case.  S1 and the
    # resolution of identity still read every u_lam.
    from schuralg import verify

    calls = []
    real = verify._apply_sum

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(verify, "_apply_sum", counted)
    model = build_model(n, d, mode=mode)
    weights = len(model.weight_set)
    rep = check_idempotent_presentation(model)
    assert rep.passed
    suffix = "'" if mode == "quantum" else ""
    s1 = weights * weights + weights
    s3 = _instances(rep, f"S3{suffix}") * weights
    assert _instances(rep, f"S3{suffix}") == (n - 1) ** 2
    assert len(calls) <= s1 + _instances(rep, f"S2{suffix}") + s3
    family = "quantum-idempotent" if mode == "quantum" else "classical-idempotent"
    calls.clear()
    rep = check_reduction_formulas(model, family)
    assert rep.passed
    assert 0 < len(calls) <= sum(_instances(rep, item.id) for item in rep.items)


@pytest.mark.parametrize("mode", ["classical", "quantum"])
def test_a_generator_that_moves_no_weight_fails_s2_and_s3(mode, monkeypatch):
    # e_1 + f_1 in place of e_1 commutes with every T_p, so it passes the
    # certificate, but it does not move weights by alpha_1.  Checked at
    # their source words only, S2 and S3 still fail.
    from schuralg import verify

    real = verify.build_model

    def build(*args, **kwargs):
        model = real(*args, **kwargs)
        plus, minus = (model.names.plus, 1), (model.names.minus, 1)
        model._generators[plus] = add(model._generators[plus], model._generators[minus])
        return model

    monkeypatch.setattr(verify, "build_model", build)
    [rep] = suite_reports(3, 2, mode=mode, suite="idempotent")
    suffix = "'" if mode == "quantum" else ""
    failed = {item.id for item in rep.failures()}
    assert {f"S2{suffix}", f"S3{suffix}"} <= failed
    assert f"S1{suffix}" not in failed



@pytest.mark.parametrize("mode", ["classical", "quantum"])
def test_each_term_of_an_instance_kills_every_other_ordered_word(mode, monkeypatch):
    # The claim that lets an instance be checked at its source word alone:
    # each of its terms is zero at u_lam for every weight lam but the
    # source.  Recorded from the idempotent and reduction suites at (3, 2).
    from schuralg import verify

    recorded = []
    real = verify._Images.vanish

    def recording(self, *terms, at=None):
        if at is not None:
            recorded.append((self, terms, at))
        return real(self, *terms, at=at)

    monkeypatch.setattr(verify._Images, "vanish", recording)
    reports = suite_reports(3, 2, mode=mode, suite="idempotent")
    reports += suite_reports(3, 2, mode=mode, suite="reduction")
    assert all(rep.passed for rep in reports)
    assert len(recorded) > 100
    nonzero = 0
    for u, terms, at in recorded:
        for term in terms:
            images = u.of(term)
            nonzero += any(images)
            assert not any(image for lam, image in zip(u.model.weight_set, images)
                           if lam != at), (term, at)
    assert nonzero
