"""Property tests for Laurent arithmetic, Gaussian binomials, exact
division of flat vectors, fraction-free specialization, certified
ranks and the labels of one weight block."""

from fractions import Fraction
from functools import lru_cache
from math import comb

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import QQ

from schuralg.bases import _specialized_row, enumerate_basis, rank_of_family
from schuralg.errors import NotDivisible
from schuralg.ring import (
    QUANTUM_SCALARS,
    LaurentPoly,
    exact_div,
    flat_integer_quotient,
    gaussian_binomial,
    quantum_factorial,
)
from schuralg.rootvectors import SHAPES, _label_block
from schuralg.tensormodel import RootData, SparseOperator, build_model, compositions

from oracle import field_rank, operator_row

polys = st.dictionaries(
    st.integers(-6, 6), st.integers(-20, 20), max_size=5
).map(LaurentPoly)
nonzero_polys = polys.filter(lambda p: not p.is_zero())
points = st.builds(
    Fraction,
    st.integers(-30, 30).filter(bool),
    st.integers(1, 30),
)

SETTINGS = settings(max_examples=200, deadline=None)


@SETTINGS
@given(polys, polys, polys)
def test_laurent_ring_axioms(p, q, r):
    zero, one = LaurentPoly.zero(), LaurentPoly.one()
    assert p + q == q + p
    assert (p + q) + r == p + (q + r)
    assert p + zero == p
    assert p + (-p) == zero
    assert p - q == p + (-q)
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * one == p
    assert p * (q + r) == p * q + p * r


@SETTINGS
@given(polys, nonzero_polys)
def test_exact_div_inverts_multiplication(p, q):
    assert exact_div(p * q, q) == p


def _quotient_or_none(divide, *args):
    try:
        return divide(*args)
    except NotDivisible:
        return None


def _flat_factorial_quotient(vec, m, size):
    """``vec`` divided by [m]!: the steps by [k], k = 2, ..., m, of
    flat_integer_quotient in turn."""
    for k in range(2, m + 1):
        vec = flat_integer_quotient(vec, k, size)
    return vec


@SETTINGS
@given(st.dictionaries(st.integers(0, 9), nonzero_polys, min_size=1, max_size=4),
       st.integers(1, 5), st.sampled_from(["as drawn", "times [m]!", "off by one"]))
def test_flat_factorial_division_matches_exact_div(rows, m, case):
    # Row by row, the flat quotient by [m]! is exact_div's, and it
    # raises NotDivisible exactly when exact_div does on some row.
    den, size = quantum_factorial(m), 10
    if case != "as drawn":
        rows = {i: p * den for i, p in rows.items()}
    if case == "off by one":
        rows[min(rows)] = rows[min(rows)] + LaurentPoly.v_power(m)
    rows = {i: p for i, p in rows.items() if p}
    flat = QUANTUM_SCALARS.to_flat(rows, size)
    expected = {}
    for i, p in rows.items():
        q = _quotient_or_none(exact_div, p, den)
        row = {k: c for k, c in flat.items() if k % size == i}
        got = _quotient_or_none(_flat_factorial_quotient, row, m, size)
        assert got == (None if q is None else QUANTUM_SCALARS.to_flat({i: q}, size))
        expected = None if q is None or expected is None else {**expected, i: q}
    got = _quotient_or_none(_flat_factorial_quotient, flat, m, size)
    assert (None if got is None else QUANTUM_SCALARS.from_flat(got, size)) == expected


binomial_args = st.integers(0, 12).flatmap(
    lambda a: st.tuples(st.just(a), st.integers(0, a))
)


@SETTINGS
@given(binomial_args)
def test_gaussian_binomial_symmetry(args):
    a, b = args
    assert gaussian_binomial(a, b) == gaussian_binomial(a, a - b)


@SETTINGS
@given(binomial_args)
def test_gaussian_binomial_is_bar_invariant(args):
    coeffs = gaussian_binomial(*args).coeffs
    assert all(coeffs.get(-e) == c for e, c in coeffs.items())


@SETTINGS
@given(binomial_args)
def test_gaussian_binomial_specializes_to_binomial(args):
    assert gaussian_binomial(*args).specialize(1) == comb(*args)


@SETTINGS
@given(st.dictionaries(st.integers(0, 9), nonzero_polys, max_size=6),
       st.sampled_from(build_model(2, 1, mode="quantum").spec_points + (Fraction(2),)))
def test_flat_row_specializes_as_its_laurent_row(row, point):
    # The default points and v = 2: a scalar row flattened at any stride
    # above its positions, {position + N * e: c}, specializes to the same
    # integer row, the same multiple included.
    narrow = QUANTUM_SCALARS.to_flat(row, 10)
    wide = QUANTUM_SCALARS.to_flat(row, 10_007)
    assert _specialized_row(narrow, point, 10) == _specialized_row(wide, point, 10_007)


@SETTINGS
@given(st.lists(polys, min_size=1, max_size=6), points)
def test_specialized_row_is_a_nonzero_multiple(row, point):
    """The integer row of a flattened row is the row of values at
    v = point, scaled by one nonzero constant."""
    values = {k: p.specialize(point) for k, p in enumerate(row) if not p.is_zero()}
    flat = QUANTUM_SCALARS.to_flat({k: p for k, p in enumerate(row) if not p.is_zero()}, 10)
    ints = _specialized_row(flat, point, 10)
    assert all(isinstance(c, int) for c in ints.values())
    assert ints.keys() == {k for k, x in values.items() if x}
    if ints:
        k0 = next(iter(ints))
        scale = Fraction(ints[k0]) / values[k0]
        assert scale != 0
        assert all(ints[k] == scale * values[k] for k in ints)


V = LaurentPoly.v_power(1)
# Vanishes at both default points v = 7/5 and v = 11/7.
VANISHING = LaurentPoly({1: 5, 0: -7}) * LaurentPoly({1: 7, 0: -11})
# Members are combinations of a few base rows with these coefficients:
# a coefficient VANISHING hides a base row at both default points.
QUANTUM_COEFFS = (0, 1, -1, 2, V, VANISHING, VANISHING * V)
small_polys = st.dictionaries(st.integers(-2, 2), st.integers(-4, 4),
                              max_size=3).map(LaurentPoly)
CLASSICAL_COEFFS = (0, 1, -1, 2, 3)


def _family(coeffs, entries):
    """Rows of length 4 (one 2 x 2 operator each): combinations of one
    to four base rows."""
    base = st.lists(st.lists(entries, min_size=4, max_size=4),
                    min_size=1, max_size=4)
    combos = st.lists(st.lists(st.sampled_from(coeffs), min_size=4, max_size=4),
                      min_size=1, max_size=5)

    def combine(args):
        rows, weights = args
        return [[sum(c * row[k] for c, row in zip(ws, rows)) for k in range(4)]
                for ws in weights]

    return st.tuples(base, combos).map(combine)


def _operators(rows):
    """Each row as an operator on the 2 words of (n, d) = (2, 1),
    position k at column k // 2 and row k % 2."""
    ops = []
    for row in rows:
        cols = {}
        for k, s in enumerate(row):
            if s:
                cols.setdefault(k // 2, {})[k % 2] = s
        ops.append(SparseOperator(cols))
    return ops


QUANTUM_MODEL = build_model(2, 1, mode="quantum")
CLASSICAL_MODEL = build_model(2, 1)


@SETTINGS
@given(_family(QUANTUM_COEFFS, small_polys))
def test_quantum_rank_equals_rank_over_rational_functions(rows):
    sparse = [{k: s for k, s in enumerate(row) if s} for row in rows]
    full = [operator_row(QUANTUM_MODEL, op) for op in _operators(rows)]
    assert rank_of_family(QUANTUM_MODEL, full) == field_rank(sparse)
    # Scalar rows enter the kernel flattened at a stride above their
    # largest position: here positions far above n^(2d) = 4, and every
    # entry shifted to negative exponents of v.
    far = [{1_000 + 97 * k: s * LaurentPoly.v_power(-3) for k, s in row.items()}
           for row in sparse]
    assert rank_of_family(QUANTUM_MODEL, far) == field_rank(sparse)


@SETTINGS
@given(_family(CLASSICAL_COEFFS, st.integers(-5, 5)))
def test_classical_rank_equals_rank_over_rationals(rows):
    sparse = [{k: s for k, s in enumerate(row) if s} for row in rows]
    full = [operator_row(CLASSICAL_MODEL, op) for op in _operators(rows)]
    assert rank_of_family(CLASSICAL_MODEL, full) == field_rank(sparse, QQ)


WEIGHTED = [kind for kind, shape in SHAPES.items() if shape and None in shape]


@lru_cache(maxsize=None)
def _scanned_blocks(n, d, kind):
    """The full enumeration of a kind, filtered block by block."""
    root_data = RootData.for_rank(n)
    blocks = {}
    for label in enumerate_basis(n, d, kind):
        blocks.setdefault(_label_block(label, root_data)[1], []).append(label)
    return blocks


@st.composite
def block_requests(draw):
    """A small (n, d) with n^d <= 256, a weighted kind, and a block
    (src, dst) whose weights are weights of (n, d), or n-tuples of
    another degree or with a negative entry, or of another length."""
    n = draw(st.integers(1, 4))
    d = draw(st.integers(1, max(e for e in range(1, 9) if n**e <= 256)))
    kind = draw(st.sampled_from(WEIGHTED))
    weight = st.one_of(
        st.sampled_from(compositions(n, d)),
        st.lists(st.integers(-1, d + 1), min_size=n, max_size=n).map(tuple),
        st.sampled_from([n - 1, n + 1]).flatmap(
            lambda k: st.lists(st.integers(0, d), min_size=k, max_size=k).map(tuple)),
    )
    return n, d, kind, (draw(weight), draw(weight))


@SETTINGS
@given(block_requests())
def test_block_walk_is_the_filtered_enumeration(request):
    # The labels walked from u_src are the full enumeration's labels of
    # the block, in its order; a weight of another length is refused.
    n, d, kind, block = request
    if any(len(weight) != n for weight in block):
        with pytest.raises(ValueError, match=f"length {n}"):
            enumerate_basis(n, d, kind, block=block)
    else:
        expected = _scanned_blocks(n, d, kind).get(block, [])
        assert enumerate_basis(n, d, kind, block=block) == expected
