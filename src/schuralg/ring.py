"""Exact coefficient arithmetic.

Two scalar domains are used throughout the package:

* classical operator entries are integers;
* quantum operator entries are integer Laurent polynomials in the
  parameter ``v`` (:class:`LaurentPoly`), the ring A = Z[v, v^-1] over
  which the divided powers and Cartan binomials are defined.

Division of operator entries is exact: by m! classically and by [m]!
or prod (v^s - v^-s) quantumly, raising NotDivisible when a quotient
leaves the ring.  Fractions appear only for a coordinate that is not
integral and in the exact rank fallback: the adapters' ``div`` returns
a ``fractions.Fraction`` classically and a :class:`LaurentFraction`
quantumly.

Laurent polynomials are stored sparsely as a mapping from integer
exponents of ``v`` to nonzero integer coefficients.  No normal form
beyond zero-pruning is imposed on fractions; equality is decided by
cross multiplication.
"""

from fractions import Fraction
from math import factorial

from .errors import NotDivisible

__all__ = [
    "LaurentPoly",
    "LaurentFraction",
    "exact_div",
    "quantum_integer",
    "quantum_factorial",
    "gaussian_binomial",
    "ClassicalScalars",
    "QuantumScalars",
    "CLASSICAL_SCALARS",
    "QUANTUM_SCALARS",
    "scalar_ring",
]


class LaurentPoly:
    """Integer Laurent polynomial in ``v``, e.g. ``v^2 - 3 + v^-1``.

    Immutable once constructed.  ``coeffs`` maps exponent -> coefficient
    and never stores zeros.

    >>> p = LaurentPoly({1: 1, -1: 1})
    >>> str(p * p)
    'v^2 + 2 + v^-2'
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        self.coeffs = {k: c for k, c in (coeffs or {}).items() if c != 0}

    @classmethod
    def zero(cls):
        return cls({})

    @classmethod
    def one(cls):
        return cls({0: 1})

    @classmethod
    def constant(cls, c):
        return cls({0: c})

    @classmethod
    def v_power(cls, k):
        return cls({k: 1})

    def is_zero(self):
        return not self.coeffs

    def is_one(self):
        return self.coeffs == {0: 1}

    def __bool__(self):
        return bool(self.coeffs)

    def degree(self):
        """Highest exponent, or None for the zero polynomial."""
        return max(self.coeffs) if self.coeffs else None

    def valuation(self):
        """Lowest exponent, or None for the zero polynomial."""
        return min(self.coeffs) if self.coeffs else None

    def leading_coefficient(self):
        return self.coeffs[max(self.coeffs)] if self.coeffs else 0

    def content(self):
        """Gcd of the coefficients (0 for the zero polynomial)."""
        from math import gcd

        g = 0
        for c in self.coeffs.values():
            g = gcd(g, c)
        return g

    def __add__(self, other):
        if isinstance(other, int):
            if not other:
                return self
            other = LaurentPoly.constant(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out.get(k, 0) + c
        return LaurentPoly(out)  # the constructor drops the zeros

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly({k: -c for k, c in self.coeffs.items()})

    def __sub__(self, other):
        if isinstance(other, int):
            other = LaurentPoly.constant(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return LaurentPoly.zero()
            return LaurentPoly({k: c * other for k, c in self.coeffs.items()})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        out = {}
        for k1, c1 in self.coeffs.items():
            for k2, c2 in other.coeffs.items():
                k = k1 + k2
                out[k] = out.get(k, 0) + c1 * c2
        return LaurentPoly(out)

    __rmul__ = __mul__

    def __pow__(self, m):
        if m < 0:
            raise ValueError("negative power of a Laurent polynomial")
        out = LaurentPoly.one()
        for _ in range(m):
            out = out * self
        return out

    def shift(self, k):
        """Multiply by v^k."""
        return LaurentPoly({e + k: c for e, c in self.coeffs.items()})

    def bar(self):
        """The involution v -> v^-1."""
        return LaurentPoly({-k: c for k, c in self.coeffs.items()})

    def __eq__(self, other):
        if isinstance(other, int):
            return self.coeffs == ({0: other} if other else {})
        if isinstance(other, LaurentPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, LaurentFraction):
            return other == self
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def as_laurent(self):
        """Return self (a LaurentFraction converts the same way)."""
        return self

    def specialize(self, r):
        """Evaluate at v = r (r a nonzero rational).

        >>> quantum_integer(3).specialize(1)
        Fraction(3, 1)
        """
        r = Fraction(r)
        if r == 0:
            raise ValueError("cannot specialize at v = 0")
        total = Fraction(0)
        for k, c in self.coeffs.items():
            total += c * r**k
        return total

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for k in sorted(self.coeffs, reverse=True):
            c = self.coeffs[k]
            if k == 0:
                body = str(abs(c))
            else:
                base = "v" if k == 1 else f"v^{k}"
                body = base if abs(c) == 1 else f"{abs(c)}*{base}"
            if not parts:
                parts.append(("-" if c < 0 else "") + body)
            else:
                parts.append((" - " if c < 0 else " + ") + body)
        return "".join(parts)

    def __repr__(self):
        return f"LaurentPoly({self.coeffs!r})"


def exact_div(p, q):
    """Divide Laurent polynomials exactly, raising NotDivisible otherwise.

    >>> str(exact_div(quantum_integer(2) * quantum_integer(3), quantum_integer(3)))
    'v + v^-1'
    """
    if not isinstance(p, LaurentPoly) or not isinstance(q, LaurentPoly):
        raise TypeError("exact_div expects Laurent polynomials")
    if q.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if p.is_zero():
        return LaurentPoly.zero()
    # Shift both operands to ordinary polynomials with valuation 0.
    pv, qv = p.valuation(), q.valuation()
    rem = {e - pv: c for e, c in p.coeffs.items()}
    div = {e - qv: c for e, c in q.coeffs.items()}
    ddeg = max(div)
    dlead = div[ddeg]
    quot = {}
    while rem:
        rdeg = max(rem)
        if rdeg < ddeg:
            raise NotDivisible(f"({p}) is not divisible by ({q})")
        c, residue = divmod(rem[rdeg], dlead)
        if residue:
            raise NotDivisible(f"({p}) is not divisible by ({q})")
        quot[rdeg - ddeg] = c
        for e, dc in div.items():
            k = rdeg - ddeg + e
            s = rem.get(k, 0) - c * dc
            if s:
                rem[k] = s
            else:
                rem.pop(k, None)
    return LaurentPoly({e + pv - qv: c for e, c in quot.items()})


def quantum_integer(m):
    """[m] = (v^m - v^-m) / (v - v^-1), valid for any integer m.

    >>> str(quantum_integer(2))
    'v + v^-1'
    >>> quantum_integer(-2) == -quantum_integer(2)
    True
    """
    if m == 0:
        return LaurentPoly.zero()
    if m < 0:
        return -quantum_integer(-m)
    return LaurentPoly({m - 1 - 2 * t: 1 for t in range(m)})


def quantum_factorial(m):
    """[m]! = [m][m-1]...[1] for m >= 0."""
    if m < 0:
        raise ValueError("quantum factorial needs m >= 0")
    out = LaurentPoly.one()
    for s in range(1, m + 1):
        out = out * quantum_integer(s)
    return out


def gaussian_binomial(a, b):
    """Balanced Gaussian binomial coefficient as a Laurent polynomial.

    Equals [a][a-1]...[a-b+1] / [b]! and specializes to comb(a, b) at
    v = 1.  The first argument must be nonnegative; callers that would
    need a negative argument are in error (there is no silent reflection
    convention here).

    >>> str(gaussian_binomial(4, 2))
    'v^4 + v^2 + 2 + v^-2 + v^-4'
    >>> gaussian_binomial(2, 3).is_zero()
    True
    """
    if a < 0:
        raise ValueError("gaussian_binomial requires a >= 0")
    if b < 0:
        raise ValueError("gaussian_binomial requires b >= 0")
    if b > a:
        return LaurentPoly.zero()
    num = LaurentPoly.one()
    for s in range(1, b + 1):
        num = num * quantum_integer(a - s + 1)
    return exact_div(num, quantum_factorial(b))


class LaurentFraction:
    """Quotient of two integer Laurent polynomials.

    No gcd reduction is attempted; equality is decided by cross
    multiplication.  The denominator is normalized to have positive
    leading coefficient and valuation 0, and monomial denominators are
    folded into the numerator when their content allows it.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if isinstance(num, int):
            num = LaurentPoly.constant(num)
        if den is None:
            den = LaurentPoly.one()
        elif isinstance(den, int):
            den = LaurentPoly.constant(den)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            num, den = LaurentPoly.zero(), LaurentPoly.one()
        elif not den.is_one():
            # Fold v-powers of the denominator into the numerator.
            dv = den.valuation()
            if dv:
                num, den = num.shift(-dv), den.shift(-dv)
            if len(den.coeffs) == 1:
                c = den.coeffs[0]
                if all(x % c == 0 for x in num.coeffs.values()):
                    num = LaurentPoly({e: x // c for e, x in num.coeffs.items()})
                    den = LaurentPoly.one()
            if den.leading_coefficient() < 0:
                num, den = -num, -den
        self.num = num
        self.den = den

    @classmethod
    def zero(cls):
        return cls(LaurentPoly.zero())

    @classmethod
    def one(cls):
        return cls(LaurentPoly.one())

    @classmethod
    def v_power(cls, k):
        return cls(LaurentPoly.v_power(k))

    def is_zero(self):
        return self.num.is_zero()

    def __bool__(self):
        return not self.num.is_zero()

    def _coerced(self, other):
        if isinstance(other, LaurentFraction):
            return other
        if isinstance(other, (int, LaurentPoly)):
            return LaurentFraction(other if isinstance(other, LaurentPoly)
                                   else LaurentPoly.constant(other))
        return None

    def __add__(self, other):
        other = self._coerced(other)
        if other is None:
            return NotImplemented
        if self.den is other.den or self.den == other.den:
            return LaurentFraction(self.num + other.num, self.den)
        return LaurentFraction(self.num * other.den + other.num * self.den,
                               self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return LaurentFraction(-self.num, self.den)

    def __sub__(self, other):
        other = self._coerced(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerced(other)
        if other is None:
            return NotImplemented
        if self.den.is_one() and other.den.is_one():
            return LaurentFraction(self.num * other.num)
        return LaurentFraction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerced(other)
        if other is None:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by zero Laurent fraction")
        return LaurentFraction(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        other = self._coerced(other)
        if other is None:
            return NotImplemented
        return other / self

    def __pow__(self, m):
        if m < 0:
            return LaurentFraction.one() / self ** (-m)
        return LaurentFraction(self.num**m, self.den**m)

    def __eq__(self, other):
        other = self._coerced(other)
        if other is None:
            return NotImplemented
        return self.num * other.den == other.num * self.den

    def __hash__(self):
        raise TypeError("LaurentFraction is not hashable (no normal form)")

    def as_laurent(self):
        """Return self as a LaurentPoly, or raise NotDivisible."""
        if self.den.is_one():
            return self.num
        return exact_div(self.num, self.den)

    def specialize(self, r):
        """Evaluate at v = r; the denominator must not vanish there."""
        d = self.den.specialize(r)
        if d == 0:
            raise ZeroDivisionError(f"denominator vanishes at v = {r}")
        return self.num.specialize(r) / d

    def __str__(self):
        if self.den.is_one():
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self):
        return f"LaurentFraction({self.num!r}, {self.den!r})"


class ClassicalScalars:
    """Adapter for the integer entries of classical models."""

    mode = "classical"
    zero = 0
    one = 1
    factorial = staticmethod(factorial)

    @staticmethod
    def div(a, b):
        """a / b in Q, for solving linear systems."""
        q = Fraction(a) / b
        return int(q) if q.denominator == 1 else q

    @staticmethod
    def exact_quotient(a, b):
        """a / b in Z, or raise NotDivisible."""
        q, r = divmod(a, b)
        if r:
            raise NotDivisible(f"{a} is not divisible by {b}")
        return q

    @staticmethod
    def render(s):
        return str(s)


class QuantumScalars:
    """Adapter for the Z[v, v^-1] entries of quantum models."""

    mode = "quantum"
    zero = LaurentPoly.zero()
    one = LaurentPoly.one()
    v_power = staticmethod(LaurentPoly.v_power)
    factorial = staticmethod(quantum_factorial)
    exact_quotient = staticmethod(exact_div)

    @staticmethod
    def div(a, b):
        """a / b in Q(v): the one place where polynomial entries
        become fractions."""
        if not isinstance(a, LaurentFraction):
            a = LaurentFraction(a)
        return a / b

    @staticmethod
    def render(s):
        return str(s)


CLASSICAL_SCALARS = ClassicalScalars()
QUANTUM_SCALARS = QuantumScalars()


def scalar_ring(mode):
    if mode == "classical":
        return CLASSICAL_SCALARS
    if mode == "quantum":
        return QUANTUM_SCALARS
    raise ValueError(f"unknown mode {mode!r}")
