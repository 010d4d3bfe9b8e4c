"""Tests for the tensor model: word enumeration, generator actions,
weight idempotents."""

import io
import re
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from oracle import (
    add,
    cartan_binomial_by_products,
    commutes_with_hecke,
    generators_by_slicing,
    hecke_table_by_slicing,
    scale,
    sub,
    with_one_entry,
)

from schuralg import tensormodel
from schuralg.cli import main
from schuralg.errors import BadWeight, CertificateError, SizeLimit
from schuralg.hecke import check_hecke_generation
from schuralg.ring import LaurentPoly
from schuralg.tensormodel import (
    SparseOperator,
    _apply_flat,
    _flat_columns,
    build_model,
    cartan_binomial,
    cartan_product,
    certify_hecke_commutation,
    compositions,
    generator_action,
    hecke_generator,
    hecke_table,
    weight_idempotent,
    word_weight,
)
from schuralg.verify import check_specialization, check_structural_facts


def op_as_dict(model, op):
    """Readable form {column word: {row word: scalar}} for assertions."""
    return {
        model.words[j]: {model.words[i]: s for i, s in col.items()}
        for j, col in op.cols.items()
    }


def assert_laurent_entries(op):
    """Every entry is a LaurentPoly, never a fraction or an int."""
    assert all(isinstance(s, LaurentPoly)
               for col in op.cols.values() for s in col.values())


def _classical_generators(model):
    """Reference builder: the Leibniz rule, one loop per generator pair."""
    n, d = model.n, model.d
    gens = {}
    for i in range(1, n):
        e_cols, f_cols = {}, {}
        for j, word in enumerate(model.words):
            e_img, f_img = {}, {}
            for p in range(d):
                if word[p] == i + 1:
                    target = model.word_index[word[:p] + (i,) + word[p + 1:]]
                    e_img[target] = e_img.get(target, 0) + 1
                if word[p] == i:
                    target = model.word_index[word[:p] + (i + 1,) + word[p + 1:]]
                    f_img[target] = f_img.get(target, 0) + 1
            if e_img:
                e_cols[j] = e_img
            if f_img:
                f_cols[j] = f_img
        gens[("e", i)] = SparseOperator(e_cols)
        gens[("f", i)] = SparseOperator(f_cols)
    for k in range(1, n + 1):
        cols = {}
        for j in range(model.num_words):
            mu = model.weights[j][k - 1]
            if mu:
                cols[j] = {j: mu}
        gens[("H", k)] = SparseOperator(cols)
    return gens


def _quantum_generators(model):
    """Reference builder: the iterated coproduct, with each twist
    counted from scratch over the letters right (E) or left (F) of p."""
    n, d = model.n, model.d
    ring = model.scalars
    gens = {}
    for i in range(1, n):
        e_cols, f_cols = {}, {}
        for j, word in enumerate(model.words):
            e_img, f_img = {}, {}
            for p in range(d):
                if word[p] == i + 1:
                    target = model.word_index[word[:p] + (i,) + word[p + 1:]]
                    twist = sum(
                        (1 if letter == i else 0) - (1 if letter == i + 1 else 0)
                        for letter in word[p + 1:]
                    )
                    s = e_img.get(target, ring.zero) + ring.v_power(twist)
                    if s == 0:
                        e_img.pop(target, None)
                    else:
                        e_img[target] = s
                if word[p] == i:
                    target = model.word_index[word[:p] + (i + 1,) + word[p + 1:]]
                    twist = sum(
                        (1 if letter == i else 0) - (1 if letter == i + 1 else 0)
                        for letter in word[:p]
                    )
                    s = f_img.get(target, ring.zero) + ring.v_power(-twist)
                    if s == 0:
                        f_img.pop(target, None)
                    else:
                        f_img[target] = s
            if e_img:
                e_cols[j] = e_img
            if f_img:
                f_cols[j] = f_img
        gens[("E", i)] = SparseOperator(e_cols)
        gens[("F", i)] = SparseOperator(f_cols)
    for k in range(1, n + 1):
        diag = {}
        diag_inv = {}
        for j in range(model.num_words):
            mu = model.weights[j][k - 1]
            diag[j] = {j: ring.v_power(mu)}
            diag_inv[j] = {j: ring.v_power(-mu)}
        gens[("K", k)] = SparseOperator(diag)
        gens[("K^-1", k)] = SparseOperator(diag_inv)
    return gens


def weight_projector(model, lam):
    """Direct 0/1 projector onto words of weight lam (test oracle)."""
    lam = tuple(lam)
    one = model.scalars.one
    return model.diagonal(lambda j: one if model.weights[j] == lam else 0)


def test_word_enumeration_is_lexicographic():
    m = build_model(2, 2)
    assert m.words == ((1, 1), (1, 2), (2, 1), (2, 2))
    m31 = build_model(3, 1)
    assert m31.words == ((1,), (2,), (3,))
    assert word_weight((1, 2, 1), 3) == (2, 1, 0)


def test_compositions_order_and_count():
    assert compositions(2, 2) == [(2, 0), (1, 1), (0, 2)]
    assert len(compositions(3, 3)) == 10
    assert all(sum(lam) == 4 for lam in compositions(3, 4))


def test_size_limit():
    with pytest.raises(SizeLimit):
        build_model(10, 5, word_cap=10_000)
    # 10^4 itself is allowed (cap is inclusive).
    build_model(10, 4, word_cap=10_000)


def test_build_model_fixes_spec_points_and_weights():
    # The spec points become Fractions at build, default 7/5 and 11/7;
    # v = 0 is refused there, before any rank is asked for.
    default = build_model(2, 2, mode="quantum")
    assert default.spec_points == (Fraction(7, 5), Fraction(11, 7))
    given = build_model(2, 2, mode="quantum", spec_points=(2, "3/2"))
    assert given.spec_points == (2, Fraction(3, 2))
    assert all(type(p) is Fraction for p in given.spec_points)
    assert build_model(2, 2, spec_points=()).spec_points == ()
    with pytest.raises(ValueError, match="v = 0"):
        build_model(2, 2, mode="quantum", spec_points=(0, 2))
    for n, d in ((2, 2), (3, 4)):
        assert build_model(n, d).weight_set == tuple(compositions(n, d))


def test_classical_e1_leibniz_action():
    m = build_model(2, 2)
    e1 = generator_action(m, "e", 1)
    d = op_as_dict(m, e1)
    assert d == {
        (1, 2): {(1, 1): 1},
        (2, 1): {(1, 1): 1},
        (2, 2): {(1, 2): 1, (2, 1): 1},
    }


def test_classical_cartan_diagonal():
    m = build_model(2, 3)
    h1 = generator_action(m, "H", 1)
    j = m.word_index[(1, 2, 1)]
    assert h1.cols[j] == {j: 2}
    idx = m.word_index[(2, 2, 2)]
    assert idx not in h1.cols  # eigenvalue 0 is not stored


def test_quantum_k1_diagonal():
    m = build_model(2, 2, mode="quantum")
    k1 = generator_action(m, "K", 1)
    expected = {
        (1, 1): LaurentPoly.v_power(2),
        (1, 2): LaurentPoly.v_power(1),
        (2, 1): LaurentPoly.v_power(1),
        (2, 2): LaurentPoly.one(),
    }
    assert_laurent_entries(k1)
    for w, s in expected.items():
        j = m.word_index[w]
        assert k1.cols[j] == {j: s}


def test_quantum_e1_coproduct_action():
    m = build_model(2, 2, mode="quantum")
    e1 = generator_action(m, "E", 1)
    d = op_as_dict(m, e1)
    v = LaurentPoly.v_power
    assert_laurent_entries(e1)
    assert d == {
        (1, 2): {(1, 1): v(0)},
        (2, 1): {(1, 1): v(1)},
        (2, 2): {(1, 2): v(-1), (2, 1): v(0)},
    }


def test_quantum_f1_coproduct_action():
    m = build_model(2, 2, mode="quantum")
    f1 = generator_action(m, "F", 1)
    d = op_as_dict(m, f1)
    v = LaurentPoly.v_power
    assert_laurent_entries(f1)
    assert d == {
        (1, 1): {(2, 1): v(0), (1, 2): v(-1)},
        (1, 2): {(2, 2): v(0)},
        (2, 1): {(2, 2): v(1)},
    }


def test_k_inverse_is_inverse():
    m = build_model(3, 2, mode="quantum")
    for k in range(1, 4):
        kk = generator_action(m, "K", k)
        kinv = generator_action(m, "K^-1", k)
        assert kk @ kinv == m.identity()
        assert kinv @ kk == m.identity()


@pytest.mark.parametrize("mode", ["classical", "quantum"])
@pytest.mark.parametrize("n,d", [(2, 4), (3, 3), (4, 2), (5, 2)])
def test_generators_match_reference_builders(mode, n, d):
    m = build_model(n, d, mode=mode)
    builder = _classical_generators if mode == "classical" else _quantum_generators
    reference = builder(m)
    assert list(m._generators) == list(reference)
    scalar_type = type(m.scalars.one)
    for key, expected in reference.items():
        got = generator_action(m, *key)
        # Same columns and entries in the same insertion order.
        assert ([(j, list(col.items())) for j, col in got.cols.items()]
                == [(j, list(col.items())) for j, col in expected.cols.items()]), key
        assert all(type(s) is scalar_type
                   for col in got.cols.values() for s in col.values()), key


def test_generator_action_rejects_unknown_symbols():
    m = build_model(2, 2)
    with pytest.raises(ValueError, match="unknown generator K_1 in classical mode"):
        generator_action(m, "K", 1)
    with pytest.raises(ValueError):
        generator_action(m, "e", 2)
    q = build_model(2, 2, mode="quantum")
    with pytest.raises(ValueError, match="unknown generator H_1 in quantum mode"):
        generator_action(q, "H", 1)


def test_raising_shifts_weight_by_simple_root():
    m = build_model(3, 2)
    for i in (1, 2):
        alpha = m.root_data.simple_root(i)
        op = generator_action(m, "e", i)
        for j, col in op.cols.items():
            mu = m.weights[j]
            for row in col:
                assert m.weights[row] == tuple(a + b for a, b in zip(mu, alpha))


@pytest.mark.parametrize("mode", ["classical", "quantum"])
def test_weight_idempotent_equals_projector(mode):
    for n, d in [(2, 2), (2, 3), (3, 2)]:
        m = build_model(n, d, mode=mode)
        for lam in m.weight_set:
            assert weight_idempotent(m, lam) == weight_projector(m, lam), (n, d, lam)


@pytest.mark.parametrize("mode", ["classical", "quantum"])
def test_weight_idempotents_resolve_identity(mode):
    m = build_model(3, 2, mode=mode)
    total = SparseOperator()
    for lam in m.weight_set:
        total = add(total, weight_idempotent(m, lam))
    assert total == m.identity()


def test_weight_idempotents_orthogonal():
    m = build_model(2, 3)
    lams = m.weight_set
    for a in lams:
        for b in lams:
            prod = weight_idempotent(m, a) @ weight_idempotent(m, b)
            if a == b:
                assert prod == weight_idempotent(m, a)
            else:
                assert prod.is_zero()


def test_weight_idempotent_rejects_bad_weights():
    m = build_model(2, 2)
    with pytest.raises(BadWeight):
        weight_idempotent(m, (1, 0))
    with pytest.raises(BadWeight):
        weight_idempotent(m, (3, -1))
    with pytest.raises(BadWeight):
        weight_idempotent(m, (1, 1, 0))


def test_cartan_binomial_values():
    m = build_model(2, 3)
    op = cartan_binomial(m, 1, 2)
    for j, w in enumerate(m.words):
        mu1 = m.weights[j][0]
        expected = mu1 * (mu1 - 1) // 2
        got = op.cols.get(j, {}).get(j, 0)
        assert got == expected


def test_cartan_binomial_quantum_values():
    from schuralg.ring import gaussian_binomial

    m = build_model(2, 3, mode="quantum")
    op = cartan_binomial(m, 2, 2)
    for j in range(m.num_words):
        mu2 = m.weights[j][1]
        expected = gaussian_binomial(mu2, 2)
        got = op.cols.get(j, {}).get(j, LaurentPoly.zero())
        assert got == expected


@pytest.mark.parametrize("mode", ["classical", "quantum"])
@pytest.mark.parametrize("n,d", [(2, 3), (3, 2), (3, 3)])
def test_cartan_binomial_matches_the_operator_product(n, d, mode):
    m = build_model(n, d, mode=mode)
    for k in range(1, n + 1):
        for b in range(d + 2):
            assert cartan_binomial(m, k, b) == cartan_binomial_by_products(m, k, b), (k, b)


@pytest.mark.parametrize("mode", ["classical", "quantum"])
def test_cartan_product_matches_the_product_of_binomials(mode):
    m = build_model(3, 3, mode=mode)
    for total in range(m.d + 3):
        for B in compositions(3, total):
            expected = m.identity()
            for k, b in enumerate(B, start=1):
                expected = expected @ cartan_binomial_by_products(m, k, b)
            assert cartan_product(m, B) == expected, B


@pytest.mark.parametrize("mode", ["classical", "quantum"])
def test_cartan_part_forms_no_operator_product(mode, monkeypatch):
    m = build_model(3, 3, mode=mode)

    def refuse(*args):
        raise AssertionError("operator arithmetic in the Cartan part")

    monkeypatch.setattr(SparseOperator, "__matmul__", refuse)
    monkeypatch.setattr(SparseOperator, "__pow__", refuse)
    monkeypatch.setattr(type(m), "divide", refuse)
    assert cartan_product(m, (2, 0, 1)) == weight_idempotent(m, (2, 0, 1))
    assert not weight_idempotent(m, (1, 1, 1)).is_zero()
    assert not cartan_binomial(m, 2, 2).is_zero()
    assert cartan_product(m, (2, 1, 1)).is_zero()


def test_cartan_part_rejects_bad_indices():
    m = build_model(2, 2)
    for k in (0, 3):
        with pytest.raises(ValueError, match="k must be in 1..2"):
            cartan_binomial(m, k, 0)
    for bad in ((1,), (1, 0, 0), (1, -1)):
        with pytest.raises(ValueError, match="not a Cartan multi-index"):
            cartan_product(m, bad)
    with pytest.raises(ValueError):
        cartan_binomial(m, 1, -1)


@pytest.mark.parametrize("mode", ["classical", "quantum"])
def test_scale_by_one_returns_the_operator(mode):
    # Operators are immutable, so scaling by one shares the operator.
    m = build_model(3, 2, mode=mode)
    op = generator_action(m, m.names.plus, 1)
    assert scale(op, m.scalars.one) is op
    assert scale(op, m.scalars.v_power(0)) is op


def test_operator_algebra_basics():
    m = build_model(2, 2)
    e1 = generator_action(m, "e", 1)
    f1 = generator_action(m, "f", 1)
    assert sub(add(e1, f1), f1) == e1
    assert scale(e1, 0).is_zero()
    assert (e1 @ m.identity()) == e1
    assert (m.identity() @ e1) == e1
    assert e1**2 == e1 @ e1
    assert (e1**3).is_zero()


def test_apply_is_one_column_of_a_product():
    # The flat apply of the label-image path, on keys row + n^d * e, is
    # one column of the operator product, in both modes.
    for mode in ("classical", "quantum"):
        m = build_model(2, 3, mode=mode)
        e = generator_action(m, m.names.plus, 1)
        f = generator_action(m, m.names.minus, 1)
        size, scalars = m.num_words, m.scalars
        flat_e, flat_ef = _flat_columns(m, e), _flat_columns(m, e @ f)
        for j, col in f.cols.items():
            image = _apply_flat(flat_e, scalars.to_flat(col, size), size)
            assert image == flat_ef.get(j, {})
            assert scalars.from_flat(image, size) == (e @ f).cols.get(j, {})
        assert _apply_flat(flat_e, {}, size) == {}


def _hecke_by_formula(model, p):
    """T_p by the module docstring's formula, word by word."""
    scalars, index = model.scalars, model.word_index
    v = scalars.v_power(1)
    gap = v - scalars.v_power(-1)
    cols = {}
    for j, word in enumerate(model.words):
        a, b = word[p - 1], word[p]
        if a == b:
            cols[j] = {j: v}
            continue
        cols[j] = {index[word[:p - 1] + (b, a) + word[p + 1:]]: scalars.one}
        if a > b and gap:
            cols[j][j] = gap
    return SparseOperator(cols)


def test_hecke_generator_on_words():
    q = build_model(2, 2, mode="quantum")
    v = LaurentPoly.v_power(1)
    t = op_as_dict(q, hecke_generator(q, 1))
    assert t[(1, 1)] == {(1, 1): v}
    assert t[(1, 2)] == {(2, 1): LaurentPoly.one()}
    assert t[(2, 1)] == {(1, 2): LaurentPoly.one(), (2, 1): v - v.bar()}
    # Classically v - v^-1 = 0 and T_p is the swap.
    c = build_model(3, 3)
    swap = {(w, w[:1] + (w[2], w[1])) for w in c.words}
    assert {(w, r) for w, col in op_as_dict(c, hecke_generator(c, 2)).items()
            for r in col} == swap
    # The operator of the table is the formula, at every p.
    for m in (q, c, build_model(3, 4, mode="quantum"), build_model(2, 4)):
        for p in range(1, m.d):
            assert hecke_generator(m, p) == _hecke_by_formula(m, p)


@pytest.mark.parametrize("mode", ["classical", "quantum"])
@pytest.mark.parametrize("n,d", [(2, 3), (3, 3)])
def test_hecke_generators_satisfy_the_quadratic_relation(n, d, mode):
    # (T_p - v)(T_p + v^-1) = 0, by operator products: the relation on
    # which the certificate's comparison at half the columns rests.
    m = build_model(n, d, mode=mode)
    v, ident = m.scalars.v_power, m.identity()
    for p in range(1, d):
        t = hecke_generator(m, p)
        assert (sub(t, scale(ident, v(1))) @ add(t, scale(ident, v(-1)))).is_zero()


def _malformed_tables(model, p):
    """Tables of T_p refused by the certificate's form check: a partner
    map that is no involution, a pair with coefficients (0, 0), and a
    fixed word whose coefficient is not v."""
    partner, coeff = hecke_table(model, p)
    pair = next(j for j, s in enumerate(partner) if s > j and not coeff[j])
    fixed = next(j for j, s in enumerate(partner) if s == j)
    yield [fixed if j == pair else s for j, s in enumerate(partner)], coeff
    zero = model.scalars.zero
    yield partner, [zero if j == partner[pair] else c for j, c in enumerate(coeff)]
    yield partner, [model.scalars.one if j == fixed else c for j, c in enumerate(coeff)]


@pytest.mark.parametrize("which,problem", [(0, "partner map is not an involution"),
                                           (1, "pair's coefficients"),
                                           (2, "fixed word's coefficient")])
def test_certificate_refuses_a_malformed_hecke_table(which, problem, monkeypatch):
    m = build_model(3, 3, mode="quantum")

    def malformed(model, p):
        return list(_malformed_tables(model, p))[which] if p == 2 else hecke_table(model, p)

    monkeypatch.setattr(tensormodel, "hecke_table", malformed)
    with pytest.raises(CertificateError, match=f"^T_2 is not a Hecke generator .*{problem}"):
        certify_hecke_commutation(m)
    assert not m._hecke_certified


@pytest.mark.parametrize("mode", ["classical", "quantum"])
@pytest.mark.parametrize("n,d", [(2, 4), (3, 3), (4, 3), (3, 4)])
def test_generators_commute_with_the_hecke_action(n, d, mode):
    m = build_model(n, d, mode=mode)
    # Not part of the model build: the first vector evaluation runs it.
    assert not m._hecke_certified
    certify_hecke_commutation(m)
    assert m._hecke_certified


def _hecke_branches_swapped(model, p):
    """The table of T_p with its a < b and a > b coefficients exchanged."""
    partner, coeff = hecke_table(model, p)
    return partner, [c if s == j else coeff[s] for j, (s, c) in enumerate(zip(partner, coeff))]


def test_certificate_rejects_swapped_hecke_branches(monkeypatch):
    monkeypatch.setattr(tensormodel, "hecke_table", _hecke_branches_swapped)
    m = build_model(3, 3, mode="quantum")
    with pytest.raises(CertificateError, match="does not commute with T_"):
        certify_hecke_commutation(m)
    assert not m._hecke_certified


def test_certificate_rejects_a_negated_e_twist(monkeypatch):
    m = build_model(3, 3, mode="quantum")
    e1 = m._generators[("E", 1)]
    monkeypatch.setitem(m._generators, ("E", 1), with_one_entry(e1, LaurentPoly.bar))
    with pytest.raises(CertificateError, match="E_1 does not commute"):
        certify_hecke_commutation(m)


def test_certificate_rejects_a_classical_sign_error(monkeypatch):
    m = build_model(3, 3)
    f2 = m._generators[("f", 2)]
    monkeypatch.setitem(m._generators, ("f", 2), with_one_entry(f2, lambda s: -s))
    with pytest.raises(CertificateError, match="f_2 does not commute"):
        certify_hecke_commutation(m)


def _single_entry_changes(model, key, gen):
    """``gen`` with one entry changed, for a spread of its entries: the
    entry negated, raised by 1 and, quantumly, barred; for a Cartan
    generator also an added off-diagonal entry 1, inside the column's
    weight space and outside it."""
    changes = [lambda s: -s, lambda s: s + 1]
    if model.mode == "quantum":
        changes.append(LaurentPoly.bar)
    entries = [(j, i) for j, col in sorted(gen.cols.items()) for i in sorted(col)]
    picks = entries[::max(1, len(entries) // 3)]
    # The certificate compares no column whose word has a > b at p, so
    # take the first and last entry of such columns for each p too.
    for p in range(1, model.d):
        later = [(j, i) for j, i in entries if model.words[j][p - 1] > model.words[j][p]]
        picks += later[:1] + later[-1:]
    picks = list(dict.fromkeys(picks))

    def changed(j, i, value):
        cols = {c: dict(col) for c, col in gen.cols.items()}
        cols.setdefault(j, {})[i] = value(cols.get(j, {}).get(i, 0))
        return SparseOperator(cols)

    for j, i in picks:
        for change in changes:
            yield changed(j, i, change)
    if key[0] in (model.names.cartan, model.names.cartan_inverse):
        one, weights = model.scalars.one, model.weights
        for j, _ in picks:
            inside = model.word_index[model.words[j][::-1]]
            outside = next(i for i, mu in enumerate(weights) if mu != weights[j])
            for i in {inside, outside} - {j}:
                yield changed(j, i, lambda s: one)


@pytest.mark.parametrize("n,d,mode", [(2, 4, "classical"), (2, 4, "quantum"),
                                      (3, 3, "classical"), (3, 3, "quantum"),
                                      (4, 3, "classical")])
def test_certificate_agrees_with_full_products(n, d, mode):
    # Each single-entry change of a generator is rejected exactly when a
    # full operator product finds a T_p it does not commute with.
    m = build_model(n, d, mode=mode)
    real = dict(m._generators)
    verdicts = set()
    for key, gen in real.items():
        for other in _single_entry_changes(m, key, gen):
            m._generators = {**real, key: other}
            m._hecke_certified = False
            commutes = commutes_with_hecke(m)
            verdicts.add(commutes)
            if commutes:
                certify_hecke_commutation(m)
            else:
                sym, i = key
                with pytest.raises(CertificateError,
                                   match=f"^{re.escape(sym)}_{i} does not commute"):
                    certify_hecke_commutation(m)
    assert verdicts == {True, False}


def test_classical_certificate_names_the_first_swap_an_entry_breaks():
    # A classical generator with one entry changed in a column whose word
    # has a > b at p, a column the quantum certificate never compares,
    # commutes with no T_q that moves the entry's row or column; the
    # permutation check names the first such q, which is p when the row
    # and column are fixed by every earlier swap.
    m = build_model(3, 4)
    real = dict(m._generators)
    checked = set()
    for (sym, i), gen in real.items():
        for p in range(1, m.d):
            entries = [(j, r) for j, col in sorted(gen.cols.items()) for r in sorted(col)
                       if m.words[j][p - 1] > m.words[j][p]]
            for j, r in entries[:1] + entries[-1:]:
                cols = {c: dict(col) for c, col in gen.cols.items()}
                cols[j][r] += 1
                m._generators = {**real, (sym, i): SparseOperator(cols)}
                m._hecke_certified = False
                first = min(q for q in range(1, p + 1)
                            if any(m.words[w][q - 1] != m.words[w][q] for w in (j, r)))
                with pytest.raises(CertificateError,
                                   match=f"^{sym}_{i} does not commute with T_{first} "):
                    certify_hecke_commutation(m)
                assert not m._hecke_certified
                if first == p:
                    checked.add((sym, p))
    # Each T_p is named for some raising, lowering and Cartan generator.
    assert {sym for sym, p in checked if p == m.d - 1} == {"e", "f", "H"}
    assert {p for _, p in checked} == set(range(1, m.d))


@pytest.mark.parametrize("n,d", [(2, 4), (3, 3), (5, 4)])
def test_classical_certificate_applies_no_table(n, d, monkeypatch):
    m = build_model(n, d)
    calls = []
    real = tensormodel._apply_table
    monkeypatch.setattr(tensormodel, "_apply_table",
                        lambda *args: calls.append(1) or real(*args))
    certify_hecke_commutation(m)
    assert m._hecke_certified and not calls
    # The quantum certificate still applies T_p column by column.
    certify_hecke_commutation(build_model(n, d, mode="quantum"))
    assert calls


@pytest.mark.parametrize("mode", ["classical", "quantum"])
@pytest.mark.parametrize("n,d", [(2, 1), (2, 7), (3, 4), (4, 3), (5, 4)])
def test_index_arithmetic_matches_word_slicing(n, d, mode):
    # The generators and the Hecke tables are built by moving word
    # indices; the references slice each word and look it up.
    m = build_model(n, d, mode=mode)
    reference = generators_by_slicing(m)
    assert m._generators.keys() == reference.keys()
    for key, gen in reference.items():
        assert m._generators[key].cols == gen.cols, key
    for p in range(1, d):
        assert hecke_table(m, p) == hecke_table_by_slicing(m, p), p


def test_certificate_passes_a_commuting_non_diagonal_generator():
    # K_1 + E_1 is not diagonal, so the column check decides it.
    m = build_model(3, 3, mode="quantum")
    m._generators[("K", 1)] = add(m._generators[("K", 1)], m._generators[("E", 1)])
    assert commutes_with_hecke(m)
    certify_hecke_commutation(m)
    assert m._hecke_certified


def test_certificate_rejects_a_cartan_generator_split_on_a_weight_space():
    m = build_model(3, 3, mode="quantum")
    k1 = m._generators[("K", 1)]
    j = m.word_index[(1, 2, 3)]  # its weight space holds all six orders
    cols = {c: dict(col) for c, col in k1.cols.items()}
    cols[j][j] = cols[j][j].shift(1)
    m._generators[("K", 1)] = SparseOperator(cols)
    assert not commutes_with_hecke(m)
    with pytest.raises(CertificateError, match="K_1 does not commute"):
        certify_hecke_commutation(m)


def test_certificate_rejects_a_cartan_entry_in_an_empty_column():
    # H_1 has no entry in the column of 222.  An entry there off the
    # diagonal makes H_1 no longer diagonal, so it is compared with each
    # T_p, and 223 is not fixed by s_2.
    m = build_model(3, 3)
    j, i = m.word_index[(2, 2, 2)], m.word_index[(2, 2, 3)]
    assert j not in m._generators[("H", 1)].cols
    m._generators[("H", 1)] = add(m._generators[("H", 1)], SparseOperator({j: {i: 1}}))
    assert not commutes_with_hecke(m)
    with pytest.raises(CertificateError, match="H_1 does not commute with T_2"):
        certify_hecke_commutation(m)


@pytest.mark.parametrize("mode", ["classical", "quantum"])
def test_certificate_checks_cartan_generators_against_a_weight_moving_t(
        mode, monkeypatch):
    # The weight shortcut holds only for a T_p that keeps weight; one
    # that does not sends the Cartan generators to the column check.
    m = build_model(3, 3, mode=mode)
    cartan = m.names.cartan
    m._generators = {key: gen for key, gen in m._generators.items()
                     if key[0] in (cartan, m.names.cartan_inverse)}
    j, i = m.word_index[(1, 1, 1)], m.word_index[(1, 1, 2)]

    def weight_moving(model, p):
        # The fixed words 111 and 112 of T_1 become partners.
        partner, coeff = hecke_table(model, p)
        if p == 1:
            gap = model.scalars.v_power(1) - model.scalars.v_power(-1)
            partner[j], partner[i], coeff[j], coeff[i] = i, j, model.scalars.zero, gap
        return partner, coeff

    monkeypatch.setattr(tensormodel, "hecke_table", weight_moving)
    with pytest.raises(CertificateError, match=f"{cartan}_1 does not commute with T_1"):
        certify_hecke_commutation(m)


@pytest.mark.parametrize("mode", ["classical", "quantum"])
def test_certificate_forms_no_operator_product(mode, monkeypatch):
    m = build_model(3, 4, mode=mode)
    calls = []
    real = SparseOperator.__matmul__

    def counting(self, other):
        calls.append(1)
        return real(self, other)

    monkeypatch.setattr(SparseOperator, "__matmul__", counting)
    certify_hecke_commutation(m)
    assert m._hecke_certified
    assert not calls


def test_failed_certificate_exits_with_status_one(monkeypatch):
    monkeypatch.setattr(tensormodel, "hecke_table", _hecke_branches_swapped)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["dim", "2", "3", "--quantum"])
    assert code == 1
    assert out.getvalue() == ""
    assert "does not commute with T_" in err.getvalue()


def _break_classical_h1(monkeypatch):
    """Classical models get H_1 with one eigenvalue 1 raised to 2.  Every
    Cartan binomial stays integral, so nothing fails before the
    certificate is asked."""
    real = tensormodel._build_generators

    def broken(model):
        gens = real(model)
        if model.mode == "classical":
            h1 = gens[("H", 1)]
            gens[("H", 1)] = with_one_entry(h1, lambda s: 2 if s == 1 else s)
        return gens

    monkeypatch.setattr(tensormodel, "_build_generators", broken)


def test_certificate_guards_every_column_check(monkeypatch):
    # The triangular check, the corner closure and the v = 1 comparison
    # read ordered-word columns, so each runs the certificate first.
    _break_classical_h1(monkeypatch)
    m = build_model(3, 3)
    with pytest.raises(CertificateError, match="H_1 does not commute"):
        check_structural_facts(m)
    with pytest.raises(CertificateError, match="H_1 does not commute"):
        check_hecke_generation(m)
    with pytest.raises(CertificateError, match="H_1 does not commute"):
        check_specialization(build_model(2, 2), build_model(2, 2, mode="quantum"))
    for argv in (["verify", "3", "3", "--suite", "structural"], ["hecke", "3", "3"]):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        assert code == 1, argv
        # verify reports the certificate as its one FAIL item, hecke as
        # an error.
        shown, silent = (out, err) if argv[0] == "verify" else (err, out)
        assert silent.getvalue() == ""
        assert "H_1 does not commute" in shown.getvalue()
