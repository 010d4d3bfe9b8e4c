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
integer rows, which is exact.  Quantum entries are integer Laurent
polynomials; each row is specialized at a rational point v = a/b
straight to integers: with lo and hi the lowest and highest exponents
of v in the row, an entry sum c_e v^e becomes
sum c_e a^(e - lo) b^(hi - e).  That is the value at a/b times
a^-lo b^hi, one nonzero constant for the whole row, so the integer row
has exactly the rank of the specialized one.  The rows that grow the
rank at the point have a minor that is nonzero there, hence nonzero
over Q(v): the specialized rank r is a lower bound.  A span check then
proves that every other member lies in the span of those r, which
makes r exact: Bareiss elimination of the minor over Z[v, v^-1] gives
D = +-det != 0 and numerators N_u, and D * member = sum_u N_u * pivot_u
is checked exactly at every position.  If a member fails the check,
the point was a root of a larger minor, and the next point is tried:
the model's ``spec_points`` in order, then v = 2, 3, 4, ...  A nonzero
minor has finitely many roots, so the sequence ends.

Coordinates are solved with the same certificate, separately for each
group of candidate labels whose operators share nonzero positions.
With k labels in a group, the equation at each position is {u: entry
of label u}; equations are specialized the same way until k of them
are independent, so the candidates are independent, and the span check
of the target against the candidates proves the expansion
x_u = N_u / D.  Each x_u is returned in the ring when D divides N_u, as
a fraction otherwise.  If fewer than k equations are independent at a
point, the candidates outside the pivot columns are span-checked
against the pivot columns, which proves the family dependent, or sends
the solve on to the next point.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import chain, count
from math import gcd
from operator import add, le, sub

from .errors import NotDivisible, NotInSpan
from .rootvectors import KINDS, SHAPES, BasisLabel, eval_label, label_key, label_to_json
from .tensormodel import RootData, compositions, split_by_source

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


def _bounded(groups, budget):
    """Exponent tuples, one per group of slots, in ascending
    lexicographic order of their concatenation: position k of a group
    is charged to ``budget[group[k]]``, and no budget entry is
    overdrawn.  Each tuple is shared by all its continuations."""
    out = []
    budget = list(budget)

    def rec(g, idx, done, acc):
        if g == len(groups):
            out.append(done)
            return
        slots = groups[g]
        if idx == len(slots):
            rec(g + 1, 0, done + (tuple(acc),), [])
            return
        j = slots[idx]
        cap = budget[j]
        for m in range(cap + 1):
            budget[j] = cap - m
            acc.append(m)
            rec(g, idx + 1, done, acc)
            acc.pop()
        budget[j] = cap

    rec(0, 0, (), [])
    return out


def enumerate_basis(n, d, kind, k0=None):
    """Deterministically ordered labels of the requested basis kind.

    A shaped kind (every kind but PBW) enumerates the exponents of its
    monomial parts, left part outer, in ascending lexicographic order.
    With a weight lam, each root vector for (i, j) consumes one unit of
    lam_j, or of lam_i in a minus part left of 1_lam or a plus part right
    of it (see :func:`content_low`); without one, all root vectors share
    the budget d, as do the PBW generators.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown basis kind {kind!r}")
    shape = SHAPES[kind]
    if shape is None:
        if k0 is None:
            k0 = n
        if not (1 <= k0 <= n):
            raise ValueError(f"k0 must be in 1..{n}")
        length = n * n - 1  # two per positive root, n - 1 Cartan
        return [BasisLabel(flavor="PBW", pbw=exps, k0=k0)
                for (exps,) in _bounded([(0,) * length], (d,))]
    roots = RootData.for_rank(n).positive_roots
    weighted = None in shape
    names, groups = [], []
    low_sign = "minus"
    for part in shape:
        if part is None:
            low_sign = "plus"
            continue
        name, sign = part
        pos = 0 if sign == low_sign else 1
        names.append(name)
        groups.append([root[pos] - 1 if weighted else 0 for root in roots])
    # A field the shape leaves out reads the zero multi-index, appended
    # after the shape's own parts.
    zero = ((0,) * len(roots),)
    a, c = (names.index(f) if f in names else len(names) for f in ("A", "C"))
    labels = []
    for lam in compositions(n, d) if weighted else [(d,)]:
        wt = lam if weighted else None
        for parts in _bounded(groups, lam):
            parts += zero
            labels.append(BasisLabel(kind, parts[a], wt, parts[c]))
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


def _points(model):
    """Values of v tried in turn for a rank certificate: the single
    point None classically, where integer rows are exact already;
    quantumly the model's ``spec_points`` in order, then v = 2, 3, 4, ..."""
    if model.mode == "classical":
        yield None
        return
    points = tuple(Fraction(p) for p in model.spec_points)
    if 0 in points:
        raise ValueError("cannot specialize at v = 0")
    yield from points
    yield from (Fraction(m) for m in count(2) if m not in points)


def _prepared(row, point):
    """A row as a primitive integer row at ``point`` (None: as it is)."""
    return _reduce_by_gcd(row if point is None else _specialized_row(row, point))


class RankAccumulator:
    """Incremental rank of a stream of operators at one point of v.

    ``point`` defaults to the first point of :func:`_points`.  The rank
    is exact classically and a certified lower bound quantumly; a
    caller that compares it with a known dimension gets a proof when
    the two meet.  :func:`rank_of_family` certifies the rank itself.
    """

    def __init__(self, model, point=None):
        self.model = model
        self.point = next(_points(model)) if point is None else point
        self._echelon = _IntEchelon()

    @property
    def rank(self):
        return self._echelon.rank

    def add(self, op):
        """Reduce ``op``; return True if the rank grew."""
        return self._echelon.add(_prepared(_operator_row(self.model, op), self.point))


def rank_of_family(model, operators):
    """Exact rank of a family of operators viewed as vectors.

    The members that grow a :class:`RankAccumulator` are independent.
    Quantumly every other member is span-checked against them (see the
    module docstring), at the points of :func:`_points` in turn until
    all checks pass.
    """
    operators = list(operators)
    for point in _points(model):
        acc = RankAccumulator(model, point)
        grew = [acc.add(op) for op in operators]
        if point is None or acc.rank == len(operators):
            return acc.rank
        pivots = [_operator_row(model, op) for op, g in zip(operators, grew) if g]
        leads = sorted(acc._echelon.pivots)
        if all(_span_solve(model.scalars, pivots, leads, _operator_row(model, op))
               is not None for op, g in zip(operators, grew) if not g):
            return acc.rank


@lru_cache(maxsize=4096)
def _signed_shift(n, exponents, sign):
    """:func:`root_sum` of a monomial, negated for the minus sign."""
    out = root_sum(RootData.for_rank(n), exponents)
    return out if sign == "plus" else tuple(-x for x in out)


def _label_block(label, root_data):
    """The weight data of a label, read from its shape: (shift, block).

    The label's operator moves every weight by ``shift``; ``block`` is
    its (source, target) weight pair when the label has a weight, so
    that the operator is 1_dst b 1_src, and None otherwise.  A PBW
    label moves no one weight: (None, None).
    """
    shape = SHAPES[label.flavor]
    if shape is None:
        return None, None
    n = root_data.n
    shift, pinned = (0,) * n, None
    for part in reversed(shape):  # right to left, as the operator acts
        if part is None:
            pinned = shift
        else:
            step = _signed_shift(n, getattr(label, part[0]), part[1])
            shift = tuple(map(add, shift, step))
    if pinned is None:
        return shift, None
    src = tuple(map(sub, label.lam, pinned))
    return shift, (src, tuple(map(add, src, shift)))


def block_index(model, family):
    """Positions of a label family grouped by weight block, for
    :func:`coordinates`.

    Returns ``{(src, dst): [positions in enumeration order]}`` with each
    block as :func:`_label_block` gives it, or None when some label pins
    no block (PBW and bare monomial flavors).  The index is built once
    per distinct family and kept on the model.
    """
    family = tuple(family)
    try:
        return model._block_index[family]
    except KeyError:
        pass
    index = {}
    for pos, label in enumerate(family):
        _, block = _label_block(label, model.root_data)
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
    """The weight blocks (src, dst) that ``op`` has entries in."""
    weights = model.weights
    return {(src, weights[i])
            for src, cols in split_by_source(model, op).items()
            for col in cols.values() for i in col}


def coordinates(model, op, basis):
    """Coefficients of ``op`` in the given basis family.

    Solving is restricted to the weight blocks the operator touches
    whenever every candidate label pins a block, which keeps the linear
    systems small.  With k candidates, k equations whose k x k minor is
    nonzero at a specialization of v are solved fraction-free over the
    scalar ring, and the solution is then checked exactly against every
    equation, so each returned expansion is proved and unique (see
    :func:`_certified_solve`).  Coefficients are integers classically
    and Laurent polynomials quantumly whenever they are integral.
    Raises NotInSpan if no expansion exists or the family is dependent
    where it matters.
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
    values = _certified_solve(model, columns, target)
    return {label: val for label, val in zip(candidates, values) if val}


def _certified_solve(model, columns, target):
    """Solve sum_u x_u * columns[u] = target with the certificate of the
    module docstring, group by group of columns that share positions.

    Columns of different groups have disjoint supports, so the expansion
    is the sum of the groups' expansions and each group's minor stays as
    small as the structure allows.  An inconsistent system is reported
    as outside the span before a dependent one is reported as dependent;
    both raise NotInSpan.
    """
    values = [model.scalars.zero] * len(columns)
    rest = dict(target)
    dependent = False
    for group in _connected_columns(columns):
        sub = [columns[u] for u in group]
        support = set(chain.from_iterable(sub))
        solved = _solve_connected(
            model, sub, {k: rest.pop(k) for k in support if k in rest}
        )
        if solved is None:
            dependent = True
        else:
            for u, x in zip(group, solved):
                values[u] = x
    if rest:
        raise NotInSpan("operator is outside the span of the family")
    if dependent:
        raise NotInSpan("family is linearly dependent; no unique expansion")
    return values


def _connected_columns(columns):
    """Indices of ``columns`` grouped by shared positions, each group and
    the groups in ascending order."""
    root = list(range(len(columns)))

    def find(u):
        while root[u] != u:
            root[u] = root[root[u]]
            u = root[u]
        return u

    owner = {}
    for u, col in enumerate(columns):
        for k in col:
            root[find(owner.setdefault(k, u))] = find(u)
    groups = {}
    for u in range(len(columns)):
        groups.setdefault(find(u), []).append(u)
    return list(groups.values())


def _solve_connected(model, columns, target):
    """Coordinates of ``target`` in ``columns``, or None when the columns
    are dependent; raises NotInSpan when the system is inconsistent.

    A dependent family is checked on its pivot columns, which span the
    same space.
    """
    rows, cols = _independent_equations(model, columns)
    values = _span_solve(model.scalars, [columns[u] for u in cols], rows, target)
    if values is None:
        raise NotInSpan("operator is outside the span of the family")
    return values if len(cols) == len(columns) else None


def _independent_equations(model, columns):
    """Positions of independent equations and the unknowns they pin.

    The equation at a position is {u: columns[u][position]}; equations
    are taken in order of first appearance.  Returns (rows, cols) with a
    nonzero minor on those rows and columns, whose count is the rank:
    k = len(columns) rows and all k columns as soon as a point of v (or
    the integers themselves, classically) reaches rank k.  Below k, the
    columns outside the pivots must pass the span check against the
    pivot columns; otherwise the next point of :func:`_points` is tried.
    """
    k = len(columns)
    positions = list(dict.fromkeys(chain.from_iterable(columns)))
    for point in _points(model):
        echelon = _IntEchelon()
        rows = []
        for pos in positions:
            eq = {u: col[pos] for u, col in enumerate(columns) if pos in col}
            if echelon.add(_prepared(eq, point)):
                rows.append(pos)
                if len(rows) == k:
                    return rows, list(range(k))
        cols = sorted(echelon.pivots)
        basis = [columns[u] for u in cols]
        if point is None or all(
            _span_solve(model.scalars, basis, rows, col) is not None
            for u, col in enumerate(columns) if u not in echelon.pivots
        ):
            return rows, cols


def _span_solve(scalars, basis, rows, target):
    """Coordinates of ``target`` in ``basis``, proved, or None when the
    target lies outside their span.

    ``rows`` are positions where the minor of ``basis`` is nonzero.  The
    check D * target = sum_u N_u * basis[u] of the module docstring is
    divided through by D when D divides every N_u.
    """
    zero = scalars.zero
    det, nums = _bareiss_solve(
        scalars,
        [[col.get(k, zero) for col in basis] for k in rows],
        [target.get(k, zero) for k in rows],
    )
    quotients = [_ring_quotient(scalars, num, det) for num in nums]
    if None in quotients:
        weights, expected = nums, {k: det * s for k, s in target.items()}
    else:
        weights, expected = quotients, target
    combined = {}
    for col, w in zip(basis, weights):
        if w:
            for k, s in col.items():
                term = w * s
                prev = combined.get(k)
                combined[k] = term if prev is None else prev + term
    if {k: s for k, s in combined.items() if s} != expected:
        return None
    return [scalars.div(num, det) if q is None else q
            for num, q in zip(nums, quotients)]


def _bareiss_solve(scalars, matrix, rhs):
    """Fraction-free solution of a nonsingular square system over an
    integral domain (Bareiss, Math. Comp. 22, 1968).

    Returns (D, N) with D = +-det(matrix) and matrix * N = D * rhs, so
    the solution is N / D.  Every division, by the previous pivot in the
    elimination and by the diagonal in the back substitution, is exact:
    the quotients are minors of the augmented matrix, and D * x is N.

    >>> from schuralg.ring import CLASSICAL_SCALARS
    >>> _bareiss_solve(CLASSICAL_SCALARS, [[2, 1], [1, 3]], [3, 5])
    (5, [4, 7])
    """
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


def _ring_quotient(scalars, num, det):
    """num / det when it lies in the scalar ring, else None."""
    try:
        return scalars.exact_quotient(num, det)
    except NotDivisible:
        return None


def structure_constants(model, basis, i, j):
    """Coefficient vector of basis[i] . basis[j] in the basis itself."""
    product = eval_label(model, basis[i]) @ eval_label(model, basis[j])
    return coordinates(model, product, basis)


def basis_json(model, labels):
    return {"basis": [label_to_json(label, model.root_data) for label in labels]}


def _csv_cell(part):
    """A label's JSON field as one CSV cell: empty when absent, roots as
    sorted key:value pairs, lists joined by ";"."""
    if part is None:
        return ""
    if isinstance(part, dict):
        return ";".join(f"{k}:{v}" for k, v in sorted(part.items()))
    if isinstance(part, list):
        return ";".join(str(x) for x in part)
    return str(part)


def basis_csv(model, labels):
    lines = ["key,flavor,A,lambda,C,pbw,k0"]
    for label in labels:
        data = label_to_json(label, model.root_data)
        cells = [_csv_cell(data.get(name)) for name in ("A", "lambda", "C", "pbw", "k0")]
        lines.append(",".join(
            [f'"{label_key(label, model.root_data)}"', label.flavor, *cells]))
    return "\n".join(lines) + "\n"


def structure_table_json(model, labels, pairs):
    """Structure-constant table for the given (left, right) index pairs."""
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
