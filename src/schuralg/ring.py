"""Exact coefficient arithmetic.

Two scalar domains are used throughout the package:

* classical operator entries are integers;
* quantum operator entries are integer Laurent polynomials in the
  parameter ``v`` (:class:`LaurentPoly`), the ring A = Z[v, v^-1] over
  which the divided powers and Cartan binomials are defined.

Division of operator entries is exact: by m! classically and by [m]!
or prod (v^s - v^-s) quantumly, raising NotDivisible when a quotient
leaves the ring.  A fraction appears only to render a coordinate that
is not integral: the adapters' ``div`` returns a ``fractions.Fraction``
classically and a :class:`LaurentFraction` quantumly, which supports
equality by cross multiplication and printing, but no arithmetic.

Laurent polynomials are stored sparsely as a mapping from integer
exponents of ``v`` to nonzero integer coefficients.

Vectors on the label-image path of ``rootvectors`` are flat integer
dicts: the term c v^e at row i is the key i + N * e, N = n^d > i, with
value c, and classically the vector {row: int} itself; the rank kernel
of ``bases`` reads every row so.  The adapters' ``to_flat`` and
``from_flat`` convert at the boundaries of both, and
``divide_integer`` divides by m or [m] on the flat form.  That is
the one flat division: :func:`flat_integer_quotient`, one exact step
by [k], row by row on dense coefficient tuples.  A division by [m]! is
the steps k = 2, ..., m in turn, which the recurrence of
``rootvectors`` takes one at a time.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from math import comb, factorial, prod

from .errors import NotDivisible

__all__ = [
    "LaurentPoly",
    "LaurentFraction",
    "exact_div",
    "quantum_integer",
    "quantum_factorial",
    "gaussian_binomial",
    "flat_integer_quotient",
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

    def valuation(self):
        """Lowest exponent, or None for the zero polynomial."""
        return min(self.coeffs) if self.coeffs else None

    def leading_coefficient(self):
        return self.coeffs[max(self.coeffs)] if self.coeffs else 0

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


def _flat_rows(vec, size):
    """A flat vector's rows as {row: {exponent: coefficient}}."""
    rows = {}
    for key, c in vec.items():
        row = key % size
        coeffs = rows.get(row)
        if coeffs is None:
            coeffs = rows[row] = {}
        coeffs[key // size] = c
    return rows


@lru_cache(maxsize=4096)
def _integer_step(a, k):
    """A dense coefficient tuple a, from v^lo, divided exactly by [k]: the
    quotient tuple, from v^(lo + k - 1), or None on a remainder.  a is
    multiplied by v - v^-1 and divided by v^k - v^-k = (v - v^-1) [k]
    from the top, q_t = a'_(t+2k) + q_(t+2k) for a' = (v - v^-1) a,
    which leaves a remainder exactly when [k] does not divide a.  The
    rows of an image repeat a few polynomials many times, so the
    quotients are kept."""
    k2 = 2 * k
    top = len(a) + 2 - k2
    up, a = (0, 0) + a, a + (0, 0)  # a' = up - a, from v^(lo - 1)
    q = [0] * (top + k2)
    for t in range(top - 1, -1, -1):
        s = t + k2
        q[t] = up[s] - a[s] + q[s]
    if top <= 0 or any([up[t] - a[t] + q[t] for t in range(k2)]):
        return None
    return tuple(q[:top])


def flat_integer_quotient(vec, k, size):
    """A flat vector {row + size * e: c} with each row divided exactly by
    [k], k >= 1, on the row's dense coefficient tuple, or NotDivisible.

    >>> flat_integer_quotient({5 + 10: 1, 5 - 10: 1}, 2, 10)
    {5: 1}
    """
    if k == 1:
        return vec
    out = {}
    for row, coeffs in _flat_rows(vec, size).items():
        lo = min(coeffs)
        a = _integer_step(tuple(map(coeffs.get, range(lo, max(coeffs) + 1), repeat(0))), k)
        if a is None:
            raise NotDivisible(f"({LaurentPoly(coeffs)}) is not divisible by [{k}] at row {row}")
        for e, c in enumerate(a, lo + k - 1):
            if c:
                out[row + size * e] = c
    return out


class LaurentFraction:
    """Quotient of two integer Laurent polynomials, kept to render a
    coordinate that is not integral.

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

    def __bool__(self):
        return not self.num.is_zero()

    def __eq__(self, other):
        if isinstance(other, (int, LaurentPoly)):
            other = LaurentFraction(other)
        if not isinstance(other, LaurentFraction):
            return NotImplemented
        return self.num * other.den == other.num * self.den

    def as_laurent(self):
        """Return self as a LaurentPoly, or raise NotDivisible."""
        if self.den.is_one():
            return self.num
        return exact_div(self.num, self.den)

    def __str__(self):
        if self.den.is_one():
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self):
        return f"LaurentFraction({self.num!r}, {self.den!r})"


class ClassicalScalars:
    """Adapter for the integer entries of classical models: the quantum
    adapter at v = 1, except that on a word with m letters k the Cartan
    generator H_k has eigenvalue m where K_k has v^m."""

    mode = "classical"
    zero = 0
    one = 1
    factorial = staticmethod(factorial)
    binomial = staticmethod(comb)
    # v^k and [m] at v = 1, and the eigenvalue m of H_k.
    v_power = staticmethod(lambda k: 1)
    integer = cartan = staticmethod(lambda m: m)

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
    def unit_quotient(a, b):
        """a / b when b is a unit, +-1, as a sign; None otherwise."""
        return a * b if b in (1, -1) else None

    @staticmethod
    def render(s):
        return str(s)

    # A vector {row: int} is its own flat form, a system its own value.
    to_flat = staticmethod(lambda vec, size: vec)
    from_flat = staticmethod(lambda vec, size, rows=None: vec)
    evaluated = staticmethod(lambda rows: (rows, lambda x: x))

    @staticmethod
    def divide_integer(vec, m, size):
        """A flat vector divided exactly by m, or NotDivisible."""
        if m == 1:
            return vec
        return {k: ClassicalScalars.exact_quotient(c, m) for k, c in vec.items()}


class QuantumScalars:
    """Adapter for the Z[v, v^-1] entries of quantum models."""

    mode = "quantum"
    zero = LaurentPoly.zero()
    one = LaurentPoly.one()
    v_power = staticmethod(LaurentPoly.v_power)
    cartan = staticmethod(LaurentPoly.v_power)
    integer = staticmethod(quantum_integer)
    binomial = staticmethod(gaussian_binomial)
    factorial = staticmethod(quantum_factorial)
    exact_quotient = staticmethod(exact_div)

    @staticmethod
    def div(a, b):
        """a / b in Q(v), as a fraction to render."""
        return LaurentFraction(a, b)

    @staticmethod
    def unit_quotient(a, b):
        """a / b when b is a unit +-v^k, as a shift of a's exponents by -k
        and a sign, with no long division; None otherwise."""
        if len(b.coeffs) == 1:
            [(k, c)] = b.coeffs.items()
            if c in (1, -1):
                return LaurentPoly({e - k: c * x for e, x in a.coeffs.items()})
        return None

    @staticmethod
    def render(s):
        return str(s)

    @staticmethod
    def to_flat(vec, size):
        """{row: LaurentPoly} as {row + size * e: c}."""
        return {row + size * e: c for row, s in vec.items() for e, c in s.coeffs.items()}

    @staticmethod
    def from_flat(vec, size, rows=None):
        """{row + size * e: c} as {row: LaurentPoly}, at the set ``rows`` if given."""
        if rows is not None:
            vec = {k: c for k, c in vec.items() if k % size in rows}
        return {row: LaurentPoly(coeffs) for row, coeffs in _flat_rows(vec, size).items()}

    @staticmethod
    def evaluated(rows):
        """Rows of Laurent polynomials as integer rows, and the read-back
        of their minors: (integer rows, read).  Each row is multiplied by
        the unit v^-lo, lo its lowest exponent, and evaluated at v = 2^K,
        with K so large that a minor's value x has its coefficients as
        balanced base-2^K digits (see ``bases``); read(x) is the minor
        of the rows as given, those digits times v^(sum lo)."""
        lows = [min((min(s.coeffs) for s in row if s), default=0) for row in rows]
        bound = prod(max(1, sum(abs(c) for s in row for c in s.coeffs.values())) for row in rows)
        bits = bound.bit_length() + 2
        half = 1 << (bits - 1)

        def read(x):
            coeffs, e = {}, sum(lows)
            while x:
                coeffs[e] = ((x + half) & (2 * half - 1)) - half
                x, e = (x + half) >> bits, e + 1
            return LaurentPoly(coeffs)

        return [[sum(c << bits * (e - lo) for e, c in s.coeffs.items()) for s in row]
                for lo, row in zip(lows, rows)], read

    divide_integer = staticmethod(flat_integer_quotient)


CLASSICAL_SCALARS = ClassicalScalars()
QUANTUM_SCALARS = QuantumScalars()


def scalar_ring(mode):
    if mode == "classical":
        return CLASSICAL_SCALARS
    if mode == "quantum":
        return QUANTUM_SCALARS
    raise ValueError(f"unknown mode {mode!r}")
