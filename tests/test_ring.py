"""Tests for exact Laurent arithmetic and the two scalar domains."""

import random
from fractions import Fraction
from math import comb, factorial

import pytest

from schuralg.errors import NotDivisible
from schuralg.ring import (
    CLASSICAL_SCALARS,
    QUANTUM_SCALARS,
    LaurentFraction,
    LaurentPoly,
    exact_div,
    gaussian_binomial,
    quantum_factorial,
    quantum_integer,
)


def pascal_gaussian(a, b):
    """Independent oracle: balanced Gaussian binomial via the q-Pascal rule.

    Works in the variable q = v^2 with the uncentered recursion
    gb(a, b) = gb(a-1, b-1) + q^b gb(a-1, b), then recenters by v^(-b(a-b)).
    No division is involved, unlike the product formula under test.
    """
    table = {(0, 0): {0: 1}}

    def gb(m, k):
        if k < 0 or k > m:
            return {}
        if (m, k) not in table:
            left = gb(m - 1, k - 1)
            right = gb(m - 1, k)
            out = dict(left)
            for e, c in right.items():
                out[e + k] = out.get(e + k, 0) + c
            table[(m, k)] = {e: c for e, c in out.items() if c}
        return table[(m, k)]

    centered = {2 * e - b * (a - b): c for e, c in gb(a, b).items()}
    return LaurentPoly(centered)


def test_quantum_integer_small_values():
    assert quantum_integer(0).is_zero()
    assert quantum_integer(1) == LaurentPoly.one()
    assert quantum_integer(2) == LaurentPoly({1: 1, -1: 1})
    assert quantum_integer(3) == LaurentPoly({2: 1, 0: 1, -2: 1})
    for m in range(1, 8):
        assert quantum_integer(-m) == -quantum_integer(m)


def test_quantum_integer_matches_defining_fraction():
    vm1 = LaurentPoly({1: 1, -1: -1})  # v - v^-1
    for m in range(-6, 7):
        lhs = LaurentPoly.v_power(m) - LaurentPoly.v_power(-m)  # v^m - v^-m
        assert quantum_integer(m) * vm1 == lhs


def test_gaussian_binomial_trivial_cases():
    assert gaussian_binomial(3, 0) == LaurentPoly.one()
    assert gaussian_binomial(3, 3) == LaurentPoly.one()
    assert gaussian_binomial(2, 3).is_zero()
    assert gaussian_binomial(2, 1) == quantum_integer(2)


def test_gaussian_binomial_against_pascal_oracle():
    for a in range(0, 9):
        for b in range(0, a + 2):
            assert gaussian_binomial(a, b) == pascal_gaussian(a, b), (a, b)


def test_gaussian_binomial_four_choose_two():
    expected = LaurentPoly({4: 1, 2: 1, 0: 2, -2: 1, -4: 1})
    assert gaussian_binomial(4, 2) == expected
    assert str(gaussian_binomial(4, 2)) == "v^4 + v^2 + 2 + v^-2 + v^-4"


def test_gaussian_binomial_negative_argument_rejected():
    with pytest.raises(ValueError):
        gaussian_binomial(-1, 1)
    with pytest.raises(ValueError):
        gaussian_binomial(3, -2)


def test_gaussian_binomial_bar_symmetry():
    for a in range(0, 8):
        for b in range(0, a + 1):
            g = gaussian_binomial(a, b)
            assert g.bar() == g


def test_specialization_at_one_gives_binomials():
    for a in range(0, 13):
        for b in range(0, a + 1):
            assert gaussian_binomial(a, b).specialize(1) == comb(a, b)
    assert quantum_factorial(4).specialize(1) == factorial(4)


def test_specialize_basics():
    assert quantum_integer(3).specialize(1) == 3
    assert LaurentPoly.v_power(2).specialize(2) == 4
    assert LaurentPoly({-1: 1}).specialize(Fraction(1, 2)) == 2
    with pytest.raises(ValueError):
        LaurentPoly({-1: 1}).specialize(0)


def test_exact_div_examples():
    v2m = LaurentPoly({2: 1, -2: -1})  # v^2 - v^-2
    vm = LaurentPoly({1: 1, -1: -1})  # v - v^-1
    assert exact_div(v2m, vm) == quantum_integer(2)
    assert exact_div(LaurentPoly.zero(), vm).is_zero()
    with pytest.raises(NotDivisible):
        exact_div(LaurentPoly({1: 1, 0: 1}), vm)  # (v + 1) / (v - v^-1)
    with pytest.raises(NotDivisible):
        exact_div(LaurentPoly({1: 2, 0: 1}), LaurentPoly.constant(2))
    with pytest.raises(ZeroDivisionError):
        exact_div(vm, LaurentPoly.zero())


def _random_poly(rng, max_terms=4, max_exp=4, max_coeff=6):
    coeffs = {}
    for _ in range(rng.randint(0, max_terms)):
        coeffs[rng.randint(-max_exp, max_exp)] = rng.randint(-max_coeff, max_coeff)
    return LaurentPoly(coeffs)


def test_exact_div_roundtrip_randomized():
    rng = random.Random(20260819)
    done = 0
    while done < 300:
        p = _random_poly(rng)
        q = _random_poly(rng)
        if q.is_zero():
            continue
        assert exact_div(p * q, q) == p
        done += 1


def test_quantum_scalar_equality_by_cross_multiplication():
    two = quantum_integer(2)
    three = quantum_integer(3)
    a = LaurentFraction(two * three, three)  # [2][3]/[3]
    assert a == LaurentFraction(two)
    assert a == two
    assert LaurentFraction(two * three, two) == three
    assert LaurentFraction(0) == 0
    assert not (a == LaurentFraction(1))


def test_fraction_as_laurent():
    two = quantum_integer(2)
    mixed = LaurentFraction(two * two, two)
    assert mixed.as_laurent() == two
    with pytest.raises(NotDivisible):
        LaurentFraction(LaurentPoly({1: 1, 0: 1}), two).as_laurent()


def test_rendering_golden():
    assert str(LaurentPoly.zero()) == "0"
    assert str(LaurentPoly.constant(-3)) == "-3"
    assert str(LaurentPoly({1: 1, -1: 1})) == "v + v^-1"
    assert str(LaurentPoly({2: -1, 0: 2, -3: 5})) == "-v^2 + 2 + 5*v^-3"
    # The denominator is normalized to valuation 0, so [2] becomes v^2 + 1
    # under the numerator shift.
    assert str(LaurentFraction(LaurentPoly.one(), quantum_integer(2))) == "(v)/(v^2 + 1)"


def test_fraction_denominator_normalization():
    # Negative leading coefficient and stray v-powers are normalized away.
    f = LaurentFraction(LaurentPoly.one(), LaurentPoly({3: -1, 1: -1}))
    assert f.den.leading_coefficient() > 0
    assert f.den.valuation() == 0
    g = LaurentFraction(LaurentPoly({0: 2, 1: 4}), LaurentPoly({2: 2}))
    assert g.den.is_one()  # monomial denominator folded into the numerator
    assert g == LaurentFraction(LaurentPoly({-2: 1, -1: 2}))


def test_classical_adapter_is_quantum_adapter_at_v_equals_one():
    C, Q = CLASSICAL_SCALARS, QUANTUM_SCALARS
    for k in range(-4, 5):
        assert C.v_power(k) == 1 == Q.v_power(k).specialize(1)
        assert C.integer(k) == k == Q.integer(k).specialize(1)
        assert Q.integer(k) == quantum_integer(k)
        # The Cartan eigenvalue on k letters: H_k gives k, K_k gives v^k.
        assert C.cartan(k) == k
        assert Q.cartan(k) == LaurentPoly.v_power(k)
    for a in range(6):
        for b in range(7):
            assert C.binomial(a, b) == comb(a, b)
            assert Q.binomial(a, b) == gaussian_binomial(a, b)
            assert Q.binomial(a, b).specialize(1) == comb(a, b)
    assert type(C.v_power(3)) is int and type(C.integer(3)) is int
