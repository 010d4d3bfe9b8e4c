"""Property tests for Laurent arithmetic, Gaussian binomials and
fraction-free specialization."""

from fractions import Fraction
from math import comb

from hypothesis import given, settings
from hypothesis import strategies as st

from schuralg.bases import _specialized_row
from schuralg.ring import LaurentPoly, exact_div, gaussian_binomial

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
@given(st.lists(polys, min_size=1, max_size=6), points)
def test_specialized_row_is_a_nonzero_multiple(row, point):
    """The integer row is the row of values at v = point, scaled by
    one nonzero constant."""
    values = {k: p.specialize(point) for k, p in enumerate(row) if not p.is_zero()}
    ints = _specialized_row({k: p for k, p in enumerate(row) if not p.is_zero()}, point)
    assert all(isinstance(c, int) for c in ints.values())
    assert ints.keys() == {k for k, x in values.items() if x}
    if ints:
        k0 = next(iter(ints))
        scale = Fraction(ints[k0]) / values[k0]
        assert scale != 0
        assert all(ints[k] == scale * values[k] for k in ints)
