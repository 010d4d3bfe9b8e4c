"""Tests for root vectors, divided powers, and label evaluation."""

import dataclasses
import gc
import pickle
import weakref
from itertools import zip_longest

import pytest

from oracle import root_vector_by_products, scale, sub
from schuralg import rootvectors
from schuralg.bases import (
    block_index,
    block_ranks,
    enumerate_basis,
    enumerate_block_parts,
    parts_ranks,
    rank_of_labels,
    structure_constants,
)
from schuralg.errors import BadWeight, NotDivisible
from schuralg.hecke import omega_truncation
from schuralg.ring import LaurentPoly, quantum_factorial
from schuralg.rootvectors import (
    KINDS,
    SHAPES,
    BasisLabel,
    _label_block,
    _Walker,
    apply_label,
    block_images,
    divided_power,
    eval_label,
    label_columns,
    label_image,
    label_from_json,
    label_key,
    label_to_json,
    pbw_generator_list,
    root_divided_power,
    root_vector,
)
from schuralg.tensormodel import (
    SparseOperator,
    _flat_columns,
    build_model,
    cartan_binomial,
    certify_hecke_commutation,
    compositions,
    generator_action,
    ordered_word,
    weight_idempotent,
)
from schuralg.verify import check_specialization

WEIGHTED = [kind for kind, shape in SHAPES.items() if shape and None in shape]


def test_simple_root_vectors_are_generators():
    m = build_model(3, 2)
    assert root_vector(m, (1, 2), "plus") == generator_action(m, "e", 1)
    assert root_vector(m, (2, 3), "minus") == generator_action(m, "f", 2)
    q = build_model(3, 2, mode="quantum")
    assert root_vector(q, (1, 2), "plus") == generator_action(q, "E", 1)
    assert root_vector(q, (2, 3), "minus") == generator_action(q, "F", 2)


def test_classical_long_root_vector_action():
    m = build_model(3, 1)
    x = root_vector(m, (1, 3), "plus")
    j = m.word_index[(3,)]
    assert x.cols == {j: {m.word_index[(1,)]: 1}}
    y = root_vector(m, (1, 3), "minus")
    assert y.cols == {m.word_index[(1,)]: {j: 1}}


def _leibniz_matrix_unit(model, a, b):
    """Reference: the classical Leibniz action of the matrix unit E_{ab},
    a != b, built directly on the words."""
    cols = {}
    for j, word in enumerate(model.words):
        img = {}
        for p in range(model.d):
            if word[p] == b:
                target = model.word_index[word[:p] + (a,) + word[p + 1:]]
                img[target] = img.get(target, 0) + 1
        if img:
            cols[j] = img
    return SparseOperator(cols)


def test_classical_root_vectors_equal_leibniz_oracle():
    """The commutator recursion at v = 1 gives every classical root
    vector, plus and minus, as the Leibniz action of its matrix unit."""
    for n, d in [(3, 3), (4, 3), (5, 2)]:
        m = build_model(n, d)
        for i, j in m.root_data.positive_roots:
            plus = root_vector(m, (i, j), "plus")
            minus = root_vector(m, (i, j), "minus")
            assert plus == _leibniz_matrix_unit(m, i, j), (n, d, i, j)
            assert minus == _leibniz_matrix_unit(m, j, i), (n, d, i, j)
            assert all(type(s) is int for op in (plus, minus)
                       for col in op.cols.values() for s in col.values())


def test_quantum_long_root_recursion():
    m = build_model(3, 2, mode="quantum")
    e12 = root_vector(m, (1, 2), "plus")
    e23 = root_vector(m, (2, 3), "plus")
    v = m.scalars.v_power
    expected = sub(e12 @ e23, scale(e23 @ e12, v(-1)))
    assert root_vector(m, (1, 3), "plus") == expected
    f12 = root_vector(m, (1, 2), "minus")
    f23 = root_vector(m, (2, 3), "minus")
    expected = sub(f23 @ f12, scale(f12 @ f23, v(1)))
    assert root_vector(m, (1, 3), "minus") == expected


@pytest.mark.parametrize("mode", ["classical", "quantum"])
@pytest.mark.parametrize("n,d", [(3, 3), (4, 3), (5, 2)])
def test_root_vectors_match_the_operator_recursion(n, d, mode):
    # The flat recursion gives every root vector's flat columns, and the
    # operator read back from them, as the whole operator products do:
    # every column is built and compared.
    m = build_model(n, d, mode=mode)
    for root in m.root_data.positive_roots:
        for sign in ("plus", "minus"):
            expected = root_vector_by_products(m, root, sign)
            x = root_vector(m, root, sign)
            assert dict(_flat_columns(m, x).items()) == _flat_columns(m, expected), (root, sign)
            assert x == expected, (root, sign)


def test_root_vector_validation():
    m = build_model(2, 2)
    with pytest.raises(ValueError):
        root_vector(m, (2, 1), "plus")
    with pytest.raises(ValueError):
        root_vector(m, (1, 2), "raise")


def test_divided_power_basics():
    m = build_model(2, 2)
    e = root_vector(m, (1, 2), "plus")
    assert divided_power(m, e, 0) == m.identity()
    assert divided_power(m, e, 1) == e
    sq = divided_power(m, e, 2)
    assert sq.cols == {m.word_index[(2, 2)]: {m.word_index[(1, 1)]: 1}}
    assert divided_power(m, e, 3).is_zero()


def test_divided_power_not_divisible():
    m = build_model(2, 2)
    with pytest.raises(NotDivisible):
        divided_power(m, m.identity(), 2)  # id^2 / 2 has entries 1/2


@pytest.mark.parametrize("mode", ["classical", "quantum"])
@pytest.mark.parametrize("n,d", [(3, 3), (4, 3)])
def test_root_divided_power_recurrence_is_the_divided_power(n, d, mode):
    m = build_model(n, d, mode=mode)
    for root in m.root_data.positive_roots:
        for sign in ("plus", "minus"):
            x = root_vector(m, root, sign)
            for k in range(d + 2):
                assert root_divided_power(m, root, sign, k) == divided_power(m, x, k), (
                    root, sign, k)


def test_root_divided_power_takes_no_operator_power(monkeypatch):
    m = build_model(3, 3, mode="quantum")

    def refuse(op, k):
        raise AssertionError("operator power")

    monkeypatch.setattr(SparseOperator, "__pow__", refuse)
    assert root_divided_power(m, (1, 3), "minus", 4).is_zero()
    assert not root_divided_power(m, (1, 3), "minus", 3).is_zero()


def test_wrong_twist_on_the_operator_path_is_not_divisible():
    # As below, but through the recurrence x^(2) = x^(1) x / [2]: with
    # E_1 untwisted, E_1^2 u_22 = 2 u_11 and [2] does not divide 2.
    m = build_model(2, 2, mode="quantum")
    one = m.scalars.one
    e = generator_action(m, "E", 1)
    m._generators[("E", 1)] = SparseOperator(
        {j: {i: one for i in col} for j, col in e.cols.items()})
    with pytest.raises(NotDivisible):
        root_divided_power(m, (1, 2), "plus", 2)


def test_wrong_twist_on_the_image_path_is_not_divisible():
    # E_1^2 u_22 = (v^-1 + v) u_11 = [2] u_11 at (2, 2); with E_1's flat
    # columns untwisted it is 2 u_11, and the step e^(2) = e e^(1) / [2]
    # does not divide.  The monomial is applied directly: the
    # certificate would reject the untwisted generator before any image.
    m = build_model(2, 2, mode="quantum")
    start = {m.word_index[(2, 2)]: 1}
    plus = SHAPES["PLUS"]
    assert _Walker(m, plus).image({(): start}, ((2,),)) == {m.word_index[(1, 1)]: 1}
    e = root_vector(m, (1, 2), "plus")
    e.flat = {j: {i: 1 for i in col} for j, col in e.cols.items()}
    with pytest.raises(NotDivisible):
        _Walker(m, plus).image({(): start}, ((2,),))


def test_wrong_twist_in_the_recursion(monkeypatch):
    # E_13^(2) u_233 at quantum (3, 3) divides by [2]; with the twist of
    # the non-simple recursion dropped (v^0 where v^-1 belongs) the step
    # e^(2) = e e^(1) / [2] does not.  The mirrored twist, v where v^-1
    # belongs, gives E_12 E_23 - v E_23 E_12, the other integral root
    # vector: its divided powers divide exactly, so no division sees it,
    # and the comparison with the operator recursion does.
    label = BasisLabel(flavor="BOREL_UP", A=(0, 2, 0), lam=(0, 1, 2))
    assert label_image(build_model(3, 3, mode="quantum"), label)
    real = rootvectors._commutator_column
    monkeypatch.setattr(rootvectors, "_commutator_column",
                        lambda a, b, shift, size, c: real(a, b, 0, size, c))
    with pytest.raises(NotDivisible, match=r"\[2\]"):
        label_image(build_model(3, 3, mode="quantum"), label)
    monkeypatch.setattr(rootvectors, "_commutator_column",
                        lambda a, b, shift, size, c: real(a, b, -shift, size, c))
    m = build_model(3, 3, mode="quantum")
    assert label_image(m, label)
    assert root_vector(m, (1, 3), "plus") != root_vector_by_products(m, (1, 3), "plus")


def test_quantum_divided_powers_are_integral():
    """Divided powers of every root vector stay in Z[v, v^-1], and
    x^(k) times [k]! is x^k entry by entry."""
    m = build_model(3, 2, mode="quantum")
    for root in m.root_data.positive_roots:
        for sign in ("plus", "minus"):
            x = root_vector(m, root, sign)
            for k in (1, 2):
                dp = divided_power(m, x, k)
                power = x**k
                assert dp.cols.keys() == power.cols.keys()
                for j, col in dp.cols.items():
                    assert col.keys() == power.cols[j].keys()
                    for i, s in col.items():
                        assert isinstance(s, LaurentPoly)
                        assert s * quantum_factorial(k) == power.cols[j][i]


def test_quantum_operators_hold_no_fractions():
    """Every operator the package builds at (3, 3) has entries in
    Z[v, v^-1], stored as Laurent polynomials."""
    m = build_model(3, 3, mode="quantum")
    ops = list(m._generators.values())
    for root in m.root_data.positive_roots:
        for sign in ("plus", "minus"):
            x = root_vector(m, root, sign)
            ops.append(x)
            ops.extend(divided_power(m, x, k) for k in range(4))
    ops.extend(cartan_binomial(m, k, b) for k in range(1, 4) for b in range(4))
    ops.extend(weight_idempotent(m, lam) for lam in compositions(3, 3))
    for kind in KINDS:
        ops.extend(eval_label(m, label) for label in enumerate_basis(3, 3, kind))
    for op in ops:
        for col in op.cols.values():
            assert all(isinstance(s, LaurentPoly) for s in col.values())


def test_nilpotency_index():
    for n, d in [(2, 2), (3, 2), (2, 3)]:
        for mode in ("classical", "quantum"):
            m = build_model(n, d, mode=mode)
            for root in m.root_data.positive_roots:
                for sign in ("plus", "minus"):
                    x = root_vector(m, root, sign)
                    assert not (x**d).is_zero(), (n, d, mode, root, sign)
                    assert (x ** (d + 1)).is_zero(), (n, d, mode, root, sign)


def test_eval_label_zero_flavor():
    m = build_model(2, 2)
    label = BasisLabel(flavor="ZERO", A=(0,), lam=(1, 1), C=(0,))
    assert eval_label(m, label) == weight_idempotent(m, (1, 1))


def test_eval_label_b1_matches_direct_product():
    m = build_model(2, 2)
    label = BasisLabel(flavor="B1", A=(1,), lam=(0, 2), C=(1,))
    e = root_vector(m, (1, 2), "plus")
    f = root_vector(m, (1, 2), "minus")
    expected = e @ weight_idempotent(m, (0, 2)) @ f
    assert eval_label(m, label) == expected
    assert not expected.is_zero()


def test_eval_label_b2_order():
    m = build_model(2, 2)
    label = BasisLabel(flavor="B2", A=(1,), lam=(1, 1), C=(1,))
    e = root_vector(m, (1, 2), "plus")
    f = root_vector(m, (1, 2), "minus")
    assert eval_label(m, label) == f @ weight_idempotent(m, (1, 1)) @ e


def test_eval_label_pbw_composition_order():
    m = build_model(2, 2)
    # k0 = 2: generator order is (minus, H_1, plus); the monomial with
    # H-exponent 1 and plus-exponent 1 is the product H_1 . e, composed
    # with e applied first.
    label = BasisLabel(flavor="PBW", pbw=(0, 1, 1), k0=2)
    h1 = generator_action(m, "H", 1)
    e = root_vector(m, (1, 2), "plus")
    assert eval_label(m, label) == h1 @ e


def _eval_label_reference(model, label):
    """A label's operator as it was built before the factors went through
    one product: a PBW label's powers from the identity on, a shape's
    parts each its own product, the identity for an empty monomial."""
    shape = SHAPES[label.flavor]
    if shape is None:
        out = model.identity()
        for gen, m in zip(pbw_generator_list(model, label.k0), label.pbw):
            if m:
                out = out @ gen**m
        return out
    parts = []
    for part in shape:
        if part is None:
            parts.append(weight_idempotent(model, label.lam))
            continue
        monomial = model.identity()
        for root, m in zip(model.root_data.positive_roots, getattr(label, part[0])):
            if m:
                monomial = monomial @ root_divided_power(model, root, part[1], m)
        parts.append(monomial)
    out = parts[0]
    for part in parts[1:]:
        out = out @ part
    return out


@pytest.mark.parametrize("mode", ["classical", "quantum"])
def test_eval_label_multiplies_by_no_identity(mode, monkeypatch):
    # Each label's factors go through one product from the first factor
    # on: no matmul has the identity on either side, and the operator is
    # the reference's.
    m = build_model(3, 2, mode=mode)
    ident = m.identity()
    labels = [label for kind in ("PBW", "B1", "ZERO") for label in enumerate_basis(3, 2, kind)]
    matmul = SparseOperator.__matmul__
    with_identity = []

    def watched(self, other):
        if self == ident or other == ident:
            with_identity.append((self, other))
        return matmul(self, other)

    monkeypatch.setattr(SparseOperator, "__matmul__", watched)
    ops = [eval_label(m, label) for label in labels]
    monkeypatch.undo()
    assert not with_identity
    for label, op in zip(labels, ops):
        assert op == _eval_label_reference(m, label), label


@pytest.mark.parametrize("mode", ["classical", "quantum"])
def test_eval_label_caches_only_its_factors(mode):
    # The reference operator is recomputed on each call: the model keeps
    # root vectors, their divided powers and Cartan diagonals, all
    # bounded by (n, d), and no label operator.
    m = build_model(3, 2, mode=mode)
    labels = enumerate_basis(3, 2, "B1") + enumerate_basis(3, 2, "PBW")
    first = [eval_label(m, label) for label in labels]
    assert m._op_cache
    assert {key[0] for key in m._op_cache} <= {"root_vector", "divided", "cartan"}
    assert all(isinstance(value, SparseOperator) for value in m._op_cache.values())
    assert [eval_label(m, label) for label in labels] == first


def test_eval_label_kostant_order_is_lexicographic():
    m = build_model(3, 2)
    # A has both (1,2) and (1,3); lexicographic order puts (1,2) first.
    label = BasisLabel(flavor="PLUS", A=(1, 1, 0), lam=None, C=(0, 0, 0))
    x12 = root_vector(m, (1, 2), "plus")
    x13 = root_vector(m, (1, 3), "plus")
    assert eval_label(m, label) == x12 @ x13


def test_eval_label_quantum_specialization_consistency():
    mq = build_model(2, 2, mode="quantum")
    mc = build_model(2, 2)
    label = BasisLabel(flavor="B1", A=(1,), lam=(0, 2), C=(1,))
    q_op = eval_label(mq, label)
    c_op = eval_label(mc, label)
    assert set(q_op.cols) == set(c_op.cols)
    for j, col in q_op.cols.items():
        assert {i: s.specialize(1) for i, s in col.items()} == {
            i: s for i, s in c_op.cols[j].items()
        }


@pytest.mark.parametrize("kind", ["PLUS", "MINUS", "BOREL_UP", "BOREL_DOWN"])
def test_quantum_one_sided_families_specialize_to_classical(kind):
    """At v = 1 every quantum PLUS, MINUS and Borel operator equals its
    classical counterpart, entry by entry."""
    mq = build_model(3, 3, mode="quantum")
    mc = build_model(3, 3)
    for label in enumerate_basis(3, 3, kind):
        q_op = eval_label(mq, label)
        specialized = {}
        for j, col in q_op.cols.items():
            img = {i: s.specialize(1) for i, s in col.items() if s.specialize(1)}
            if img:
                specialized[j] = img
        assert specialized == eval_label(mc, label).cols, label


def test_label_json_roundtrip():
    m = build_model(3, 2)
    rd = m.root_data
    labels = [
        BasisLabel(flavor="B1", A=(1, 0, 1), lam=(0, 1, 1), C=(0, 0, 0)),
        BasisLabel(flavor="ZERO", A=(0, 0, 0), lam=(2, 0, 0), C=(0, 0, 0)),
        BasisLabel(flavor="PBW", pbw=(0, 1, 0, 0, 0, 2, 0, 0), k0=3),
        BasisLabel(flavor="PLUS", A=(0, 2, 0), lam=None, C=(0, 0, 0)),
    ]
    for label in labels:
        data = label_to_json(label, rd)
        back = label_from_json(data, rd)
        assert back == label, label


def test_label_json_shape():
    m = build_model(2, 2)
    label = BasisLabel(flavor="B1", A=(1,), lam=(1, 1), C=(0,))
    assert label_to_json(label, m.root_data) == {
        "flavor": "B1",
        "A": {"1-2": 1},
        "C": {},
        "lambda": [1, 1],
    }


def test_label_key_format():
    m = build_model(2, 2)
    rd = m.root_data
    assert label_key(BasisLabel(flavor="B1", A=(1,), lam=(0, 2), C=(1,)), rd) == (
        "e{1-2:1} 1(0,2) f{1-2:1}"
    )
    assert label_key(BasisLabel(flavor="ZERO", A=(0,), lam=(2, 0), C=(0,)), rd) == "1(2,0)"
    assert label_key(BasisLabel(flavor="PBW", pbw=(1, 0, 2), k0=2), rd) == "pbw[k0=2;1,0,2]"


@pytest.mark.parametrize("mode", ["classical", "quantum"])
@pytest.mark.parametrize("n,d", [(2, 3), (3, 3), (4, 2), (2, 5)])
def test_label_image_is_the_operator_column_at_the_ordered_word(n, d, mode):
    # One model for every weighted kind: each image goes through a new
    # memo, and every label's root vectors through the model's cache.
    m = build_model(n, d, mode=mode)
    for kind in WEIGHTED:
        for label in enumerate_basis(n, d, kind):
            src = _label_block(label, m.root_data)[1][0]
            column = eval_label(m, label).cols.get(m.word_index[ordered_word(src)], {})
            assert label_image(m, label) == column, label
    assert m._hecke_certified


@pytest.mark.parametrize("mode", ["classical", "quantum"])
@pytest.mark.parametrize("n,d", [(2, 4), (3, 3), (4, 2)])
def test_shared_prefix_image_is_the_operator_column(n, d, mode):
    # The images block_ranks builds: one memo per source weight, every
    # monomial by the recurrence x_r (x_(A - eps_r) p) / [a_r].  Last, a
    # family of the four kinds interleaved: block_images walks each
    # flavor apart and merges the images back in label order.
    m = build_model(n, d, mode=mode)
    families = [enumerate_basis(n, d, kind) for kind in ("B1", "B2", "BOREL_UP", "BOREL_DOWN")]
    mixed = [x for row in zip_longest(*families) for x in row if x is not None]
    for family in [*families, mixed]:
        groups = block_index(m, family)
        for (src, dst), images in block_images(m, groups):
            u_src = m.word_index[ordered_word(src)]
            for label, image in zip(groups[src][dst], images, strict=True):
                column = eval_label(m, label).cols.get(u_src, {})
                assert m.scalars.from_flat(image, m.num_words) == column, label


@pytest.mark.parametrize("n,d,mode", [(3, 3, "quantum"), (4, 3, "classical")])
def test_block_walk_starts_each_source_weight_once(n, d, mode, monkeypatch):
    # Ranking B1 builds u_src once per source weight of the grouping, in
    # its order, and checks the Hecke certificate once, not once per
    # label.
    from schuralg import rootvectors

    m = build_model(n, d, mode=mode)
    labels = enumerate_basis(n, d, "B1")
    words, certified = [], []
    real_word, real_certify = rootvectors.ordered_word, rootvectors.certify_hecke_commutation
    monkeypatch.setattr(rootvectors, "ordered_word",
                        lambda lam: words.append(lam) or real_word(lam))
    monkeypatch.setattr(rootvectors, "certify_hecke_commutation",
                        lambda model: certified.append(model) or real_certify(model))
    assert sum(block_ranks(m, labels).values()) == len(labels)
    assert words == list(block_index(m, labels))
    assert certified == [m]


@pytest.mark.parametrize("mode", ["classical", "quantum"])
def test_a_negative_source_weight_gives_zero(mode):
    # f_(1,2) moves (3, -1, 0) to lam = (2, 0, 0): no word has the
    # source weight, so the label's image is empty and its block rank 0.
    m = build_model(3, 2, mode=mode)
    label = BasisLabel(flavor="B1", A=(0, 0, 0), lam=(2, 0, 0), C=(1, 0, 0))
    block = ((3, -1, 0), (2, 0, 0))
    assert _label_block(label, m.root_data)[1] == block
    assert eval_label(m, label).is_zero()
    assert label_image(m, label) == {}
    assert block_ranks(m, [label]) == {block: 0}


def test_wrong_twist_raises_inside_block_ranks():
    # As on the image path below, E_1^2 u_22 = [2] u_11 at (2, 2); with
    # E_1's flat columns untwisted after the certificate, the recurrence
    # reaches 2 u_11 for e^(2) 1_(0,2), and its step by [2] raises.
    m = build_model(2, 2, mode="quantum")
    labels = enumerate_basis(2, 2, "B1")
    assert BasisLabel(flavor="B1", A=(2,), lam=(0, 2), C=(0,)) in labels
    certify_hecke_commutation(m)
    e = root_vector(m, (1, 2), "plus")
    e.flat = {j: {i: 1 for i in col} for j, col in e.cols.items()}
    with pytest.raises(NotDivisible, match=r"\[2\]"):
        block_ranks(m, labels)


@pytest.mark.parametrize("mode", ["classical", "quantum"])
def test_block_ranks_keep_no_image_on_the_model(mode):
    # The images of a source weight live in block_ranks' memo and go
    # with it: the model keeps root vectors, not vectors.  Every other
    # reader of images builds them in a memo of its own too: one label's
    # image or columns, a structure constant, the corner and the v = 1
    # comparison, which reads a model of the other mode too.
    m = build_model(3, 3, mode=mode)
    before = set(m._op_cache)
    for kind in ("B1", "B2"):
        assert sum(block_ranks(m, enumerate_basis(3, 3, kind)).values()) == 165
    added = {key: m._op_cache[key] for key in set(m._op_cache) - before}
    assert added and all(key[0] == "root_vector" for key in added)
    assert not any(isinstance(value, dict) for value in m._op_cache.values())
    # A non-simple root vector keeps the flat columns it has built, and
    # its columns have not all been built and read back as an operator.
    assert all(x.flat.built and x._cols is None
               for (_, (i, j), _), x in added.items() if j > i + 1)
    labels = enumerate_basis(3, 3, "B1")
    right = BasisLabel(flavor="B1", A=(1, 0, 0), lam=(1, 1, 1), C=(0, 1, 0))
    dst = _label_block(right, m.root_data)[1][1]
    left = BasisLabel(flavor="B1", A=(0, 0, 0), lam=dst, C=(0, 0, 0))
    assert label_image(m, right) and label_columns(m, right)
    assert structure_constants(m, labels, labels.index(left), labels.index(right)) == {right: 1}
    assert omega_truncation(m).dim == 6
    other = build_model(3, 3, mode="quantum" if mode == "classical" else "classical")
    models = (m, other) if mode == "classical" else (other, m)
    assert check_specialization(*models).passed
    for model in models:
        assert not any(isinstance(value, dict) for value in model._op_cache.values())


@pytest.mark.parametrize("mode", ["classical", "quantum"])
def test_a_walked_model_is_freed_by_reference_counting(mode):
    # With the cyclic collector off, a model that walks have read is
    # freed when its last reference goes: no walk leaves a cycle that
    # holds it.  A recurrence written as a closure that calls itself
    # would, and each command's model would then stay in memory until
    # the next full collection.
    gc.collect()
    gc.disable()
    try:
        m = build_model(3, 3, mode=mode)
        for kind in ("B1", "B2"):
            assert sum(parts_ranks(m, kind, enumerate_block_parts(3, 3, kind)).values()) == 165
        assert sum(block_ranks(m, enumerate_basis(3, 3, "B1")).values()) == 165
        assert label_image(m, BasisLabel(flavor="B1", A=(1, 0, 0), lam=(1, 1, 1), C=(0, 1, 0)))
        freed = weakref.ref(m)
        del m
        assert freed() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("mode", ["classical", "quantum"])
def test_apply_label_is_the_operator_on_every_word(mode):
    m = build_model(3, 2, mode=mode)
    one = m.scalars.one
    for kind in WEIGHTED:
        for label in enumerate_basis(3, 2, kind):
            op = eval_label(m, label)
            for j in range(m.num_words):
                assert apply_label(m, label, {j: one}) == op.cols.get(j, {}), label


def test_label_image_of_labels_outside_the_family():
    m = build_model(2, 2, mode="quantum")
    # f^(2) 1_(1,1) would start from weight (1 + 2, 1 - 2): no word has it.
    empty = BasisLabel(flavor="BOREL_DOWN", A=(2,), lam=(1, 1))
    assert eval_label(m, empty).is_zero()
    assert label_image(m, empty) == {}
    with pytest.raises(BadWeight):
        label_image(m, BasisLabel(flavor="ZERO", A=(0,), lam=(2, 1)))


@pytest.mark.parametrize("mode", ["classical", "quantum"])
@pytest.mark.parametrize("name,exponents", [("A", (1, 0)), ("A", (0, 0, 0, 0)),
                                            ("C", (1, 0)), ("C", (0, 0, 0, 0)),
                                            ("C", (0, 0, 3, 0))])
def test_malformed_labels_raise(name, exponents, mode):
    # A B1 label at n = 3 whose A or C is not over the three positive
    # roots is refused on every path: one image, its columns, one
    # applied vector, the ranks of a family, a structure constant of
    # it, and the operator.  With C = (0, 0, 3, 0) the roots' shifts,
    # read without the last entry, would put the source weight at
    # (1, 4, -3), which no word has.
    m = build_model(3, 2, mode=mode)
    label = BasisLabel(flavor="B1", lam=(1, 1, 0), **{"A": (0, 0, 0), "C": (0, 0, 0),
                                                        name: exponents})
    family = enumerate_basis(3, 2, "B1") + [label]
    last = len(family) - 1
    one = m.scalars.one
    calls = [lambda: label_image(m, label), lambda: label_columns(m, label),
             lambda: block_ranks(m, family), lambda: rank_of_labels(m, family),
             lambda: structure_constants(m, family, last, 0),
             lambda: structure_constants(m, family, 0, last),
             lambda: eval_label(m, label)]
    calls += [lambda j=j: apply_label(m, label, {j: one}) for j in range(m.num_words)]
    for call in calls:
        with pytest.raises(ValueError, match="should have length 3"):
            call()


@pytest.mark.parametrize("lam", [(3, 0, 0), (3, -1, 0), (1, 1)])
def test_labels_off_the_weights_raise(lam):
    # A B1 label at (3, 2) whose lam is not a weight: of another degree,
    # with a negative entry, or of another length.  Its image, columns,
    # applied vectors, operator, and the grouping, block ranks and
    # structure constants of a family with it, in either factor order,
    # all refuse it.
    m = build_model(3, 2)
    label = BasisLabel(flavor="B1", A=(0, 0, 0), lam=lam, C=(0, 0, 0))
    family = enumerate_basis(3, 2, "B1") + [label]
    last = len(family) - 1
    calls = [lambda: label_image(m, label), lambda: label_columns(m, label),
             lambda: block_index(m, family), lambda: block_ranks(m, family),
             lambda: structure_constants(m, family, last, 0),
             lambda: structure_constants(m, family, 0, last),
             lambda: eval_label(m, label)]
    calls += [lambda j=j: apply_label(m, label, {j: 1}) for j in range(m.num_words)]
    for call in calls:
        with pytest.raises(BadWeight):
            call()


def test_label_image_needs_a_block():
    m = build_model(2, 2)
    for kind in ("PLUS", "MINUS", "PBW"):
        with pytest.raises(ValueError, match="pins no weight block"):
            label_image(m, enumerate_basis(2, 2, kind)[0])
    # apply_label takes a PBW label too: its generator powers act right
    # to left.
    one = m.scalars.one
    for label in enumerate_basis(2, 2, "PBW"):
        assert apply_label(m, label, {0: one}) == eval_label(m, label).cols.get(0, {}), label


@pytest.mark.parametrize("mode", ["classical", "quantum"])
@pytest.mark.parametrize("n,d", [(2, 3), (3, 3), (4, 2)])
def test_label_columns_are_the_operator_columns_at_the_ordered_words(n, d, mode):
    # Every kind, PBW with k0 = 1 and k0 = n: a label's columns are its
    # operator's nonzero columns at the ordered words, and no others.
    m = build_model(n, d, mode=mode)
    ordered = [m.word_index[ordered_word(lam)] for lam in compositions(n, d)]
    families = [enumerate_basis(n, d, kind) for kind in KINDS if kind != "PBW"]
    families += [enumerate_basis(n, d, "PBW", k0=k0) for k0 in (1, n)]
    for labels in families:
        for label in labels:
            cols = eval_label(m, label).cols
            expected = {j: cols[j] for j in ordered if cols.get(j)}
            assert label_columns(m, label) == expected, label


@pytest.mark.parametrize("mode", ["classical", "quantum"])
def test_label_columns_apply_a_pinned_label_at_u_src_alone(mode, monkeypatch):
    # A label that pins a block is applied once, at u_src, and not at
    # all when src is not a weight; a PBW, PLUS or MINUS label is
    # applied at every ordered word.
    from schuralg import rootvectors

    m = build_model(3, 3, mode=mode)
    calls = []
    real = rootvectors.apply_label
    monkeypatch.setattr(rootvectors, "apply_label",
                        lambda model, label, vec: calls.append(vec) or real(model, label, vec))
    pinned = BasisLabel(flavor="B1", A=(1, 0, 0), lam=(1, 1, 1), C=(0, 1, 0))
    src = _label_block(pinned, m.root_data)[1][0]
    assert label_columns(m, pinned)
    assert calls == [{m.word_index[ordered_word(src)]: m.scalars.one}]
    for label in (enumerate_basis(3, 3, "PBW")[7], enumerate_basis(3, 3, "PLUS")[5],
                  enumerate_basis(3, 3, "MINUS")[5]):
        calls.clear()
        assert label_columns(m, label)
        assert len(calls) == len(m.weight_set), label
    calls.clear()
    # f^(2) 1_(1,1,1) starts from (3, -1, 1): no word, no column.
    empty = BasisLabel(flavor="BOREL_DOWN", A=(2, 0, 0), lam=(1, 1, 1))
    assert label_columns(m, empty) == {} and calls == []


def test_basis_label_keeps_its_value_semantics():
    # A label is a frozen value with slots: equal fields make equal,
    # equally hashed labels, and a pickle round trip, replace and repr
    # are those of a plain frozen dataclass; it has no __dict__.
    label = BasisLabel("B1", (1, 0, 0), (1, 1, 1), (0, 1, 0))
    same = BasisLabel(flavor="B1", A=(1, 0, 0), lam=(1, 1, 1), C=(0, 1, 0))
    pbw = BasisLabel(flavor="PBW", pbw=(0, 1, 2), k0=2)
    assert label == same and hash(label) == hash(same)
    assert label != BasisLabel("B2", (1, 0, 0), (1, 1, 1), (0, 1, 0)) != pbw
    assert len({label, same, pbw}) == 2
    for value in (label, pbw):
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(value, protocol)) == value
    assert dataclasses.replace(label, lam=(2, 1, 0)) == BasisLabel("B1", (1, 0, 0), (2, 1, 0),
                                                                   (0, 1, 0))
    with pytest.raises(dataclasses.FrozenInstanceError):
        label.lam = (3, 0, 0)
    assert repr(label) == ("BasisLabel(flavor='B1', A=(1, 0, 0), lam=(1, 1, 1), "
                           "C=(0, 1, 0), pbw=None, k0=None)")
    assert repr(pbw) == "BasisLabel(flavor='PBW', A=(), lam=None, C=(), pbw=(0, 1, 2), k0=2)"
    assert not hasattr(label, "__dict__")
    with pytest.raises(TypeError):
        vars(label)
