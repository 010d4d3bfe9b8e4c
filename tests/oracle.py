"""An independent field for the tests: sympy's Q(v), in which the
package's scalars are embedded to check its ranks and coordinates, the
full row of an operator, the reference its ordered-word rows are
compared with, the full-product reference for the Hecke certificate,
the word-slicing references for the Hecke tables and the generators,
the operator-product references for the Cartan binomials and the root
vectors, and the Bareiss elimination over the scalar ring itself, which
the package runs on integers.  The sum, difference and scalar multiple of operators
(:func:`add`, :func:`sub`, :func:`scale`), which the package no longer
forms, live here for those references and for the tests."""

from fractions import Fraction

from sympy import QQ, symbols
from sympy.polys.matrices import DomainMatrix

from schuralg.ring import LaurentFraction, LaurentPoly
from schuralg.tensormodel import SparseOperator, generator_action, hecke_generator

FIELD = QQ.frac_field(symbols("v"))


def to_field(s, field=FIELD):
    """An int, Fraction, LaurentPoly or LaurentFraction as an element
    of ``field`` (Q(v) by default; Q takes the classical scalars)."""
    if isinstance(s, LaurentFraction):
        return to_field(s.num, field) / to_field(s.den, field)
    if isinstance(s, LaurentPoly):
        if not s:
            return field.zero
        lo = min(s.coeffs)
        num = field.field.ring({(e - lo,): c for e, c in s.coeffs.items()})
        return field.field(num) * field.gens[0] ** lo
    s = Fraction(s)
    return field(s.numerator) / field(s.denominator)


def field_rank(rows, field=FIELD):
    """Rank over ``field`` of sparse rows {position: scalar}."""
    positions = sorted({k for row in rows for k in row})
    if not rows or not positions:
        return 0
    dense = [[to_field(row.get(k, 0), field) for k in positions] for row in rows]
    return DomainMatrix(dense, (len(rows), len(positions)), field).rank()


def operator_row(model, op):
    """An operator flattened over all its columns to a sparse row of
    length n^(2d): entry i of column j at position j * n^d + i."""
    size = model.num_words
    row = {}
    for j, col in op.cols.items():
        base = j * size
        for i, s in col.items():
            row[base + i] = s
    return row


def add(a, b):
    """The operator a + b, with no zero entry and no empty column."""
    out = {j: dict(col) for j, col in a.cols.items()}
    for j, col in b.cols.items():
        tgt = out.setdefault(j, {})
        for i, s in col.items():
            t = tgt.get(i, 0) + s
            if t == 0:
                tgt.pop(i, None)
            else:
                tgt[i] = t
        if not tgt:
            del out[j]
    return SparseOperator(out)


def scale(op, s):
    """The operator s op: the zero operator for s = 0, ``op`` itself for
    s = 1."""
    if s == 0:
        return SparseOperator()
    if s == 1:
        return op
    return SparseOperator({j: {i: s * t for i, t in col.items()} for j, col in op.cols.items()})


def sub(a, b):
    """The operator a - b."""
    return add(a, scale(b, -1))


def with_one_entry(op, change):
    """``op`` with the first entry whose value ``change`` alters changed."""
    cols = {j: dict(col) for j, col in op.cols.items()}
    for col in cols.values():
        for i, s in col.items():
            if change(s) != s:
                col[i] = change(s)
                return SparseOperator(cols)
    raise AssertionError("no entry to change")


def commutes_with_hecke(model):
    """Whether every generator of ``model`` commutes with every T_p, by
    full operator products: the reference for the certificate."""
    ts = [hecke_generator(model, p) for p in range(1, model.d)]
    return all(gen @ t == t @ gen for t in ts for gen in model._generators.values())


def hecke_table_by_slicing(model, p):
    """T_p's :func:`~schuralg.tensormodel.hecke_table` with each partner
    found by slicing the word and looking the swapped word up: the
    reference for the table built by index arithmetic."""
    scalars, index = model.scalars, model.word_index
    v = scalars.v_power(1)
    gap = v - scalars.v_power(-1)
    partner, coeff = [], []
    for word in model.words:
        a, b = word[p - 1], word[p]
        partner.append(index[word[:p - 1] + (b, a) + word[p + 1:]])
        coeff.append(v if a == b else gap if a > b else scalars.zero)
    return partner, coeff


def generators_by_slicing(model):
    """The model's generators with each moved word built by slicing and
    looked up, and each Cartan entry computed per word: the reference
    for the generators built by index arithmetic."""
    n, scalars, names = model.n, model.scalars, model.names
    index = model.word_index
    twist = {k: scalars.v_power(k) for k in range(-model.d, model.d + 1)}
    e_cols = {i: {} for i in range(1, n)}
    f_cols = {i: {} for i in range(1, n)}
    for j, (word, mu) in enumerate(zip(model.words, model.weights)):
        seen = [0] * (n + 1)  # seen[a]: letters a left of p
        for p, a in enumerate(word):
            if a > 1:
                i = a - 1
                k = (mu[i - 1] - seen[i]) - (mu[i] - seen[a] - 1)
                target = index[word[:p] + (i,) + word[p + 1:]]
                e_cols[i].setdefault(j, {})[target] = twist[k]
            if a < n:
                target = index[word[:p] + (a + 1,) + word[p + 1:]]
                f_cols[a].setdefault(j, {})[target] = twist[seen[a + 1] - seen[a]]
            seen[a] += 1
    gens = {}
    for i in range(1, n):
        gens[(names.plus, i)] = SparseOperator(e_cols[i])
        gens[(names.minus, i)] = SparseOperator(f_cols[i])
    for k in range(1, n + 1):
        count = [w[k - 1] for w in model.weights]
        gens[(names.cartan, k)] = model.diagonal(lambda j: scalars.cartan(count[j]))
        if names.cartan_inverse:
            gens[(names.cartan_inverse, k)] = model.diagonal(
                lambda j: scalars.cartan(-count[j]))
    return gens


def cartan_binomial_by_products(model, k, m):
    """binom(H_k, m) as a genuine operator product divided exactly by
    its scalar denominator: the factors H_k - s + 1 over m! classically,
    K_k v^{1-s} - K_k^{-1} v^{s-1} over prod (v^s - v^{-s}) quantumly,
    for s = 1..m."""
    ring = model.scalars
    ident = model.identity()
    acc, den = ident, ring.one
    for s in range(1, m + 1):
        if model.mode == "classical":
            factor = sub(generator_action(model, "H", k), scale(ident, s - 1))
            den = den * s
        else:
            factor = sub(scale(generator_action(model, "K", k), ring.v_power(1 - s)),
                         scale(generator_action(model, "K^-1", k), ring.v_power(s - 1)))
            den = den * (ring.v_power(s) - ring.v_power(-s))
        acc = acc @ factor
    return model.divide(acc, den)


def root_vector_by_products(model, root, sign):
    """The root vector for (root, sign) by whole operator products: a
    simple one is its generator, and otherwise
    E_ij = E_(i,j-1) E_(j-1,j) - v^-1 E_(j-1,j) E_(i,j-1) and
    F_ij = F_(j-1,j) F_(i,j-1) - v F_(i,j-1) F_(j-1,j)."""
    i, j = root
    names = model.names
    if j == i + 1:
        return generator_action(model, names.plus if sign == "plus" else names.minus, i)
    upper = root_vector_by_products(model, (i, j - 1), sign)
    step = root_vector_by_products(model, (j - 1, j), sign)
    v = model.scalars.v_power
    if sign == "plus":
        return sub(upper @ step, scale(step @ upper, v(-1)))
    return sub(step @ upper, scale(upper @ step, v(1)))


def bareiss_reference(scalars, matrix, rhs):
    """Fraction-free solution (D, N) of a nonsingular square system by
    Bareiss elimination over the scalar ring itself, with the ring's
    products and exact quotients: the reference for the integer
    elimination of ``bases._bareiss_solve``, with the same swaps.
    Raises ZeroDivisionError on a singular system."""
    quotient = scalars.exact_quotient
    size = len(matrix)
    rows = [list(row) + [b] for row, b in zip(matrix, rhs)]
    prev = scalars.one
    for i in range(size):
        swap = next((r for r in range(i, size) if rows[r][i]), None)
        if swap is None:
            raise ZeroDivisionError("singular system")
        rows[i], rows[swap] = rows[swap], rows[i]
        top = rows[i]
        pivot = top[i]
        for row in rows[i + 1:]:
            factor = row[i]
            for c in range(i + 1, size + 1):
                row[c] = quotient(pivot * row[c] - factor * top[c], prev)
        prev = pivot
    nums = [None] * size
    for i in reversed(range(size)):
        row = rows[i]
        total = prev * row[size]
        for c in range(i + 1, size):
            total = total - row[c] * nums[c]
        nums[i] = quotient(total, row[i])
    return prev, nums
