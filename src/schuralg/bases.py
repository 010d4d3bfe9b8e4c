"""Basis families, exact rank certification, and structure constants.

The basis kinds:

* ``B1``: e_A 1_lam f_C with content(A) + content(C) <= lam,
* ``B2``: f_A 1_lam e_C with content_low(A) + content_low(C) <= lam,
* ``PBW``: ordered monomials of total degree <= d in the un-divided
  root vectors plus the Cartan generators with one index k0 omitted,
* ``PLUS`` / ``MINUS``: divided-power monomials e_A / f_A with |A| <= d,
* ``BOREL_UP`` / ``BOREL_DOWN``: e_A 1_lam / 1_lam f_A with
  content(A) <= lam,
* ``ZERO``: the weight idempotents alone.

Rank certification is exact.  Classical operator entries are integers
and their rows are reduced by fraction-free elimination on primitive
integer rows.  Quantum entries are integer Laurent polynomials; each row
is specialized at two fixed rational points v = a/b straight to
integers: with lo and hi the lowest and highest exponents of v in the
row, an entry sum c_e v^e becomes sum c_e a^(e - lo) b^(hi - e).  That is
the value at a/b times a^-lo b^hi, one nonzero constant for the whole
row, so the integer row has exactly the rank of the specialized one.
A specialization can only lower the rank, so a full-rank specialization
already proves linear independence over the rational function field;
the two runs must agree, with an exact fallback over Laurent fractions
if they ever disagree.
"""

from fractions import Fraction
from functools import lru_cache, partial
from math import gcd
from operator import add, le, sub

from .errors import NotInSpan
from .rootvectors import KINDS, BasisLabel, eval_label
from .tensormodel import compositions

__all__ = [
    "KINDS",
    "content",
    "content_low",
    "root_sum",
    "enumerate_basis",
    "block_index",
    "block_dimension",
    "rank_of_family",
    "RankAccumulator",
    "coordinates",
    "structure_constants",
    "basis_json",
    "basis_csv",
    "structure_table_json",
    "structure_table_csv",
]

def content(root_data, exponents):
    """Content of a multi-index: sum of m * eps_j over its roots (i, j)."""
    out = [0] * root_data.n
    for (i, j), m in zip(root_data.positive_roots, exponents):
        out[j - 1] += m
    return tuple(out)


def content_low(root_data, exponents):
    """Mirror of :func:`content` charging eps_i instead of eps_j.

    A raising monomial standing right of a weight idempotent, or a
    lowering monomial standing left of one, is nonzero exactly when the
    weight dominates this vector: each root vector for (i, j) consumes
    one unit of the i-th coordinate.  The B2 family is admissible under
    this measure, the mirror image of B1's.
    """
    out = [0] * root_data.n
    for (i, j), m in zip(root_data.positive_roots, exponents):
        out[i - 1] += m
    return tuple(out)


def root_sum(root_data, exponents):
    """Weight shift sum of m * (eps_i - eps_j) of a root monomial."""
    out = [0] * root_data.n
    for (i, j), m in zip(root_data.positive_roots, exponents):
        out[i - 1] += m
        out[j - 1] -= m
    return tuple(out)


def _content_bounded(roots, budget, low=False):
    """Exponent tuples over ``roots`` with content <= budget, in
    ascending lexicographic order.  ``low`` switches to the mirror
    measure that charges the first root index instead of the second."""
    out = []
    budget = list(budget)
    pos = 0 if low else 1

    def rec(idx, acc):
        if idx == len(roots):
            out.append(tuple(acc))
            return
        j = roots[idx][pos] - 1
        cap = budget[j]
        for m in range(cap + 1):
            budget[j] = cap - m
            acc.append(m)
            rec(idx + 1, acc)
            acc.pop()
        budget[j] = cap

    rec(0, [])
    return out


def _degree_bounded(length, total):
    """Tuples of the given length with entry sum <= total, ascending lex."""
    out = []

    def rec(idx, remaining, acc):
        if idx == length:
            out.append(tuple(acc))
            return
        for m in range(remaining + 1):
            acc.append(m)
            rec(idx + 1, remaining - m, acc)
            acc.pop()

    rec(0, total, [])
    return out


def enumerate_basis(n, d, kind, k0=None):
    """Deterministically ordered labels of the requested basis kind."""
    from .tensormodel import RootData

    if kind not in KINDS:
        raise ValueError(f"unknown basis kind {kind!r}")
    rd = RootData.for_rank(n)
    roots = rd.positive_roots
    zero = (0,) * len(roots)
    weights = compositions(n, d)
    labels = []
    if kind in ("B1", "B2"):
        low = kind == "B2"
        measure = content_low if low else content
        for lam in weights:
            for A in _content_bounded(roots, lam, low=low):
                remaining = tuple(l - c for l, c in zip(lam, measure(rd, A)))
                for C in _content_bounded(roots, remaining, low=low):
                    labels.append(BasisLabel(flavor=kind, A=A, lam=lam, C=C))
    elif kind == "PBW":
        if k0 is None:
            k0 = n
        if not (1 <= k0 <= n):
            raise ValueError(f"k0 must be in 1..{n}")
        length = 2 * len(roots) + n - 1
        for exps in _degree_bounded(length, d):
            labels.append(BasisLabel(flavor="PBW", pbw=exps, k0=k0))
    elif kind in ("PLUS", "MINUS"):
        for A in _degree_bounded(len(roots), d):
            labels.append(BasisLabel(flavor=kind, A=A, lam=None, C=zero))
    elif kind in ("BOREL_UP", "BOREL_DOWN"):
        for lam in weights:
            for A in _content_bounded(roots, lam):
                labels.append(BasisLabel(flavor=kind, A=A, lam=lam, C=zero))
    else:  # ZERO
        for lam in weights:
            labels.append(BasisLabel(flavor="ZERO", A=zero, lam=lam, C=zero))
    return labels


def _operator_row(model, op):
    """Flatten an operator to a sparse vector of length n^(2d)."""
    size = model.num_words
    row = {}
    for j, col in op.cols.items():
        base = j * size
        for i, s in col.items():
            row[base + i] = s
    return row


def _specialized_row(row, point):
    """Integer row proportional to a row of Laurent polynomials at
    v = point = a/b: each entry sum c_e v^e becomes
    sum c_e a^(e - lo) b^(hi - e) for the row's extreme exponents lo, hi."""
    if not row:
        return {}
    a, b = point.numerator, point.denominator
    lo = min(min(p.coeffs) for p in row.values())
    hi = max(max(p.coeffs) for p in row.values())
    weights = [a**t * b ** (hi - lo - t) for t in range(hi - lo + 1)]
    out = {}
    for k, p in row.items():
        total = sum(c * weights[e - lo] for e, c in p.coeffs.items())
        if total:
            out[k] = total
    return out


def _reduce_by_gcd(row):
    g = 0
    for c in row.values():
        g = gcd(g, c)
    if g > 1:
        return {k: c // g for k, c in row.items()}
    return row


class _IntEchelon:
    """Fraction-free sparse row reduction over the integers."""

    def __init__(self):
        self.pivots = {}

    @property
    def rank(self):
        return len(self.pivots)

    def add(self, row):
        """Reduce a primitive integer row; return True if rank grew."""
        row = dict(row)
        while row:
            lead = min(row)
            piv = self.pivots.get(lead)
            if piv is None:
                self.pivots[lead] = _reduce_by_gcd(row)
                return True
            a, b = row[lead], piv[lead]
            g = gcd(a, b)
            am, bm = a // g, b // g
            new = {k: bm * c for k, c in row.items()}
            for k, c in piv.items():
                s = new.get(k, 0) - am * c
                if s:
                    new[k] = s
                else:
                    new.pop(k, None)
            row = _reduce_by_gcd(new)
        return False


class _FieldEchelon:
    """Sparse row reduction over an exact field of scalars."""

    def __init__(self, scalars):
        self.scalars = scalars
        self.pivots = {}

    @property
    def rank(self):
        return len(self.pivots)

    def add(self, row):
        div = self.scalars.div
        row = dict(row)
        while row:
            lead = min(row)
            piv = self.pivots.get(lead)
            if piv is None:
                inv = row.pop(lead)
                monic = {k: div(c, inv) for k, c in row.items()}
                monic[lead] = self.scalars.one
                self.pivots[lead] = monic
                return True
            factor = row.pop(lead)
            for k, c in piv.items():
                if k == lead:
                    continue
                s = row.get(k, 0) - factor * c
                if s == 0:
                    row.pop(k, None)
                else:
                    row[k] = s
        return False


class RankAccumulator:
    """Incremental exact rank of a stream of operators.

    Classical mode reduces primitive integer rows.  Quantum mode keeps
    two echelons, one per specialization point; ``rank`` is the smaller
    of the two, a certified lower bound that equals the true rank
    whenever it reaches the size of an independent family.
    """

    def __init__(self, model):
        self.model = model
        if model.mode == "classical":
            self._echelons = (_IntEchelon(),)
            self._points = (None,)
        else:
            self._echelons = (_IntEchelon(), _IntEchelon())
            self._points = tuple(Fraction(p) for p in model.spec_points)
            if 0 in self._points:
                raise ValueError("cannot specialize at v = 0")

    @property
    def rank(self):
        return min(e.rank for e in self._echelons)

    @property
    def ranks(self):
        return tuple(e.rank for e in self._echelons)

    def add(self, op):
        row = _operator_row(self.model, op)
        grew = False
        for ech, point in zip(self._echelons, self._points):
            prepared = row if point is None else _specialized_row(row, point)
            grew = ech.add(_reduce_by_gcd(prepared)) or grew
        return grew


def rank_of_family(model, operators, stop_at=None):
    """Exact rank of a family of operators viewed as vectors.

    In quantum mode both specialization ranks must agree; if they ever
    disagree the rank is recomputed exactly over Laurent fractions.
    """
    operators = list(operators)
    acc = RankAccumulator(model)
    for op in operators:
        acc.add(op)
        if stop_at is not None and acc.rank >= stop_at:
            return acc.rank
    ranks = acc.ranks
    if len(set(ranks)) == 1:
        return ranks[0]
    exact = _FieldEchelon(model.scalars)
    for op in operators:
        exact.add(_operator_row(model, op))
    return exact.rank


def _label_block(label, shift):
    """(source weight, target weight) of a label's operator, when the
    flavor pins one; None for PBW and bare monomial flavors.  ``shift``
    maps an exponent tuple to its weight shift, as :func:`root_sum`."""
    lam = label.lam
    if label.flavor == "ZERO":
        return (lam, lam)
    if label.flavor == "B1":
        return (tuple(map(add, lam, shift(label.C))),
                tuple(map(add, lam, shift(label.A))))
    if label.flavor == "B2":
        return (tuple(map(sub, lam, shift(label.C))),
                tuple(map(sub, lam, shift(label.A))))
    if label.flavor == "BOREL_UP":
        return (lam, tuple(map(add, lam, shift(label.A))))
    if label.flavor == "BOREL_DOWN":
        return (tuple(map(add, lam, shift(label.A))), lam)
    return None


def block_index(model, family):
    """Positions of a label family grouped by weight block.

    Returns ``{(src, dst): [positions in enumeration order]}``, where a
    label at position k evaluates to an operator 1_dst b 1_src, or None
    when some label pins no block (PBW and bare monomial flavors).  The
    index is built once per distinct family and kept on the model.
    """
    family = tuple(family)
    try:
        return model._block_index[family]
    except KeyError:
        pass
    # Exponent tuples repeat across a family; each shift is computed once.
    shift = lru_cache(maxsize=None)(partial(root_sum, model.root_data))
    index = {}
    for pos, label in enumerate(family):
        block = _label_block(label, shift)
        if block is None:
            index = None
            break
        index.setdefault(block, []).append(pos)
    model._block_index[family] = index
    return index


@lru_cache(maxsize=None)
def block_dimension(src, dst):
    """dim 1_dst S(n, d) 1_src: the number of n x n matrices of
    nonnegative integers with row sums ``dst`` and column sums ``src``
    (the xi-basis count of Green, Polynomial Representations of GL_n,
    section 2.3).  Summed over all blocks it is C(n^2 - 1 + d, d)."""
    if sum(src) != sum(dst):
        return 0
    if len(dst) <= 1:
        return 1
    return sum(
        block_dimension(tuple(map(sub, src, row)), dst[1:])
        for row in compositions(len(src), dst[0])
        if all(map(le, row, src))
    )


def _op_blocks(model, op):
    blocks = set()
    for j, col in op.cols.items():
        src = model.weights[j]
        for i in col:
            blocks.add((src, model.weights[i]))
    return blocks


def coordinates(model, op, basis):
    """Coefficients of ``op`` in the given basis family.

    Solving is restricted to the weight blocks the operator touches
    whenever every candidate label pins a block, which keeps the linear
    systems small.  Raises NotInSpan if no expansion exists or the
    family is dependent where it matters.
    """
    if op.is_zero():
        return {}
    index = block_index(model, basis)
    if index is not None:
        positions = sorted(
            pos for block in _op_blocks(model, op) for pos in index.get(block, ())
        )
        candidates = [basis[pos] for pos in positions]
    else:
        candidates = list(basis)
    columns = [_operator_row(model, eval_label(model, label)) for label in candidates]
    target = _operator_row(model, op)
    values = _solve_exact(model.scalars, columns, target)
    out = {}
    for label, val in zip(candidates, values):
        if not (val == 0):
            out[label] = val
    return out


def _solve_exact(scalars, columns, target):
    """Solve sum_u x_u * columns[u] = target for exact scalars.

    Raises NotInSpan when the system is inconsistent or the columns are
    linearly dependent (no unique expansion).
    """
    equations = {}
    for u, colrow in enumerate(columns):
        for k, s in colrow.items():
            equations.setdefault(k, ({}, [0]))[0][u] = s
    for k, s in target.items():
        equations.setdefault(k, ({}, [0]))[1][0] = s
    div = scalars.div
    pivots = {}
    for coeffs, rhs_box in equations.values():
        coeffs = dict(coeffs)
        rhs = rhs_box[0]
        while coeffs:
            u = min(coeffs)
            piv = pivots.get(u)
            if piv is None:
                lead = coeffs.pop(u)
                monic = {w: div(c, lead) for w, c in coeffs.items()}
                pivots[u] = (monic, div(rhs, lead))
                coeffs = {}
                break
            factor = coeffs.pop(u)
            pcoeffs, prhs = piv
            for w, c in pcoeffs.items():
                s = coeffs.get(w, 0) - factor * c
                if s == 0:
                    coeffs.pop(w, None)
                else:
                    coeffs[w] = s
            rhs = rhs - factor * prhs
        else:
            if not (rhs == 0):
                raise NotInSpan("operator is outside the span of the family")
    if len(pivots) < len(columns):
        raise NotInSpan("family is linearly dependent; no unique expansion")
    values = [scalars.zero] * len(columns)
    for u in sorted(pivots, reverse=True):
        coeffs, rhs = pivots[u]
        total = rhs
        for w, c in coeffs.items():
            total = total - c * values[w]
        values[u] = total
    return values


def structure_constants(model, basis, i, j):
    """Coefficient vector of basis[i] . basis[j] in the basis itself."""
    product = eval_label(model, basis[i]) @ eval_label(model, basis[j])
    return coordinates(model, product, basis)


def basis_json(model, labels):
    from .rootvectors import label_to_json

    return {"basis": [label_to_json(label, model.root_data) for label in labels]}


def basis_csv(model, labels):
    from .rootvectors import label_key, label_to_json

    lines = ["key,flavor,A,lambda,C,pbw,k0"]
    for label in labels:
        data = label_to_json(label, model.root_data)

        def fmt(part):
            if part is None:
                return ""
            if isinstance(part, dict):
                return ";".join(f"{k}:{v}" for k, v in sorted(part.items()))
            if isinstance(part, list):
                return ";".join(str(x) for x in part)
            return str(part)

        lines.append(
            ",".join(
                [
                    '"' + label_key(label, model.root_data) + '"',
                    label.flavor,
                    fmt(data.get("A")),
                    fmt(data.get("lambda")),
                    fmt(data.get("C")),
                    fmt(data.get("pbw")),
                    fmt(data.get("k0")),
                ]
            )
        )
    return "\n".join(lines) + "\n"


def structure_table_json(model, labels, pairs):
    """Structure-constant table for the given (left, right) index pairs."""
    from .rootvectors import label_key, label_to_json

    triples = []
    for i, j in pairs:
        coeffs = structure_constants(model, labels, i, j)
        triples.append(
            {
                "left": i,
                "right": j,
                "coeffs": {
                    label_key(label, model.root_data): model.scalars.render(s)
                    for label, s in coeffs.items()
                },
            }
        )
    return {
        "basis": [label_to_json(label, model.root_data) for label in labels],
        "triples": triples,
    }


def structure_table_csv(model, labels, pairs):
    from .rootvectors import label_key

    lines = ["left,right,label,coefficient"]
    for i, j in pairs:
        coeffs = structure_constants(model, labels, i, j)
        for label, s in sorted(
            coeffs.items(), key=lambda kv: label_key(kv[0], model.root_data)
        ):
            lines.append(
                f'{i},{j},"{label_key(label, model.root_data)}",'
                f'"{model.scalars.render(s)}"'
            )
    return "\n".join(lines) + "\n"
