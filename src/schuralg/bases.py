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

Ranks and expansions take sparse rows {position: scalar}; an element
of S(n, d) becomes one through its columns at the ordered words
(``tensormodel.ordered_word_row``, ``rootvectors.label_columns``), which
fix it once the model's Hecke-commutation certificate holds.  A family
whose labels all pin a weight block is ranked and multiplied block by
block instead, one vector per label: its image of the ordered word
u_src of its source weight, built in the one walk,
``rootvectors.parts_images``.  Operators of different blocks have
disjoint supports, so the rank of the family is the sum of the ranks
of its blocks (:func:`_walk_ranks`), taken source weight first, so
that the images of one source weight are built together from u_src.

The block path runs on parts, not labels: a member of a kind is its
exponent tuples, one per monomial part of the shape, (A, C) for B1
and B2.  A whole basis comes grouped from its enumeration
(:func:`enumerate_block_parts`), whose every lam is a weight, and
``dim``, the triangular check and the v = 1 comparison enumerate,
walk and rank it (:func:`parts_ranks`) with no label built.  The label
functions are adapters: :func:`enumerate_blocks` makes the members
labels, and :func:`grouped_ranks` ranks labels grouped so, through
``rootvectors.block_images``, which makes them parts again.  A family
that a caller hands in is grouped, and each label's lam checked to be
a weight, by :func:`block_index` (:func:`block_ranks`), and a product
takes its right factor and its candidates from one walk
(:func:`structure_constants`); :func:`enumerate_basis` walks the labels
of one block from u_src.

Every rank and every solve is certified one way (:func:`_pivots`), on
flat integer rows {position + N * e: c}, the term c v^e at a position
below the stride N (see ``ring``).  Label images come flat, N = n^d, and
reach the ranks and the expansions of structure constants as they are;
scalar rows, such as the ordered-word rows of labels that pin no block,
are flattened where they enter (:func:`_flattened`), at N one above
their largest position.
Classically a row is its own flat form, and rows are reduced by
fraction-free elimination on primitive integer rows, which is exact.
Quantumly each row is specialized at a rational point v = a/b straight
to integers: a key gives e and the position by one divmod, and with lo
and hi the row's extreme keys divided by N, an entry sum c_e v^e becomes
sum c_e a^(e - lo) b^(hi - e).  That is the value at a/b times
a^-lo b^hi, one nonzero constant for the whole row, so the integer row
has exactly the rank of the specialized one.

The rows that grow the echelon at the point are independent, and the
lead positions of its pivots pick a minor of them that is nonzero:
after reduction each pivot is zero at the leads of the pivots before
it and nonzero at its own, a triangular minor, and the pivots are the
grown rows up to a triangular change of basis with nonzero diagonal.
A minor nonzero at a point is nonzero over Q(v), so the specialized
rank r is a lower bound.  A span check then proves that every other
row lies in the span of those r, which makes r exact: elimination of
the minor gives D = +-det != 0 and numerators N_u, and
D * row = sum_u N_u * pivot_u is checked exactly at every position of
the flat rows.  If a row fails the check, the point was a root of
a larger minor, and the next point is tried: the model's
``spec_points`` in order, then v = 2, 3, 4, ...  A nonzero minor has
finitely many roots, so the sequence ends.

Bareiss elimination of the minor over Z[v, v^-1] runs on integers: each
row of the augmented system [M | b], times the unit v^-lo for lo its
lowest exponent, is polynomial and is evaluated at v = 2^K, a ring
homomorphism, so every exact division stays exact on the values.  No
minor has a coefficient above B, the product over the rows of
max(1, sum of the row's |coefficients|), in absolute value, so for
K = B.bit_length() + 2 a minor is zero exactly when its value is (the
swaps are those over the ring), and D and the N_u, minors themselves,
are read back as the balanced base-2^K digits of their values times
v^(sum lo).  Classically an entry is its own value.

An expansion of a target in columns is solved the same way, group by
group of columns that share positions: the target's slice at the
group's positions is solved on the group's pivots at their leads, and
the same check, sum_u N_u * column_u - D * target = 0, proves the
expansion x_u = N_u / D.  Each x_u is returned in the ring when D
divides N_u, as a fraction otherwise; a unit D, +-v^k, the only kind
the B1 structure constants measured meet, divides as a shift of the
exponents and a sign, with no long division.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import chain, count
from math import gcd
from operator import add, le, sub

from .errors import NotDivisible, NotInSpan
from .ring import CLASSICAL_SCALARS, LaurentPoly
from .rootvectors import (
    KINDS,
    SHAPES,
    BasisLabel,
    _act,
    _label_block,
    _signed_shift,
    apply_label,
    block_images,
    label_columns,
    label_key,
    label_to_json,
    parts_images,
    root_sum,
)
from .tensormodel import RootData, _check_weight, compositions, ordered_word_row

__all__ = [
    "KINDS",
    "content",
    "content_low",
    "root_sum",
    "enumerate_basis",
    "enumerate_blocks",
    "enumerate_block_parts",
    "block_index",
    "block_dimension",
    "block_ranks",
    "grouped_ranks",
    "parts_ranks",
    "rank_of_family",
    "rank_of_labels",
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


def _bounded(groups, budget, memo):
    """Exponent tuples, one per group of slots, in ascending
    lexicographic order of their concatenation: position k of a group
    is charged to ``budget[group[k]]``, and no budget entry is
    overdrawn.

    The first group's tuples are built level by level, one slot at a
    time, with no call per slot: each partial tuple carries what it
    leaves of the budget, and a slot's choices, with what each leaves,
    are listed once per distinct remainder.  The tuples of the later
    groups depend on the first group's remainder alone, so they are
    listed once per remainder and kept in ``memo`` under (number of
    groups left, remainder).  A memo serves the one list of groups it
    was filled for, at any budget: :func:`enumerate_basis` makes one
    per call and shares it over all its weights."""
    if not groups:
        return [()]
    first, *rest = groups
    tuples = _levels(first, budget)
    if not rest:
        return [(acc,) for acc, _ in tuples]
    for _, left in tuples:
        if (len(rest), left) not in memo:
            memo[len(rest), left] = _bounded(rest, left, memo)
    return [(acc,) + tail for acc, left in tuples for tail in memo[len(rest), left]]


def _levels(group, budget):
    """The exponent tuples of one group of slots, as :func:`_bounded`
    charges them, in ascending lexicographic order, each with what it
    leaves of ``budget``: [(tuple, remainder)]."""
    tuples = [((), tuple(budget))]
    for j in group:
        moves = {left: [((m,), left[:j] + (left[j] - m,) + left[j + 1:])
                        for m in range(left[j] + 1)]
                 for left in {left for _, left in tuples}}
        tuples = [(acc + m, after) for acc, left in tuples for m, after in moves[left]]
    return tuples


def _moved(n, weight, parts, signs):
    """``weight`` moved by the shifts of the monomials ``parts``."""
    for exps, sign in zip(parts, signs):
        weight = tuple(map(add, weight, _signed_shift(n, exps, sign)))
    return weight


def _parts(n, kind):
    """A shaped kind's monomial parts as the enumeration reads them, in
    shape order: their slot groups for :func:`_bounded` (the budget
    position each root charges), their signs, the positions of the
    fields A and C among them, and the zero multi-index.  A field that
    the shape leaves out reads the zero multi-index, which the caller
    appends after the shape's own parts."""
    shape = SHAPES[kind]
    roots = RootData.for_rank(n).positive_roots
    weighted = None in shape
    names, groups, signs = [], [], []
    low_sign = "minus"
    for part in shape:
        if part is None:
            low_sign = "plus"
            continue
        name, sign = part
        names.append(name)
        groups.append([root[sign != low_sign] - 1 if weighted else 0 for root in roots])
        signs.append(sign)
    a, c = (names.index(f) if f in names else len(names) for f in ("A", "C"))
    return groups, signs, a, c, ((0,) * len(roots),)


def enumerate_basis(n, d, kind, k0=None, block=None):
    """Deterministically ordered labels of the requested basis kind.

    A shaped kind (every kind but PBW) enumerates the exponents of its
    monomial parts, left part outer, in ascending lexicographic order.
    With a weight lam, each root vector for (i, j) consumes one unit of
    lam_j, or of lam_i in a minus part left of 1_lam or a plus part right
    of it (see :func:`content_low`); without one, all root vectors share
    the budget d, as do the PBW generators.

    ``block`` = (src, dst), two weights over n coordinates, keeps only
    the labels of that weight block (see ``_label_block``), in the same
    order, for a kind with a weight.  They are walked from u_src: read
    right to left, each root vector for (i, j) takes one letter of the
    word it acts on, a letter j for e and a letter i for f, so all the
    parts draw on the one budget src.  The walks that land on dst are
    kept and put in the order of the weights lam.  All the blocks of a
    kind at once come grouped from :func:`enumerate_blocks`.

    The exponents come from :func:`_bounded`, through a memo that lives
    for this call alone: no call leaves state for the next.

    >>> [(x.A, x.lam, x.C) for x in enumerate_basis(2, 2, "B1", block=((1, 1), (1, 1)))]
    [((0,), (1, 1), (0,)), ((1,), (0, 2), (1,))]
    """
    if kind not in KINDS:
        raise ValueError(f"unknown basis kind {kind!r}")
    shape = SHAPES[kind]
    if block is not None and (shape is None or None not in shape):
        raise ValueError(f"{kind} labels pin no weight block")
    if shape is None:
        if k0 is None:
            k0 = n
        if not (1 <= k0 <= n):
            raise ValueError(f"k0 must be in 1..{n}")
        length = n * n - 1  # two per positive root, n - 1 Cartan
        return [BasisLabel(flavor="PBW", pbw=exps, k0=k0)
                for (exps,) in _bounded([(0,) * length], (d,), {})]
    roots = RootData.for_rank(n).positive_roots
    weighted = None in shape
    groups, signs, a, c, zero = _parts(n, kind)
    memo = {}
    if block is None:
        found = ((lam if weighted else None, parts)
                 for lam in (compositions(n, d) if weighted else [(d,)])
                 for parts in _bounded(groups, lam, memo))
    else:
        src, dst = map(tuple, block)
        if len(src) != n or len(dst) != n:
            raise ValueError(f"block {block} needs two weights of length {n}")
        if min(src) < 0 or sum(src) != d:
            return []
        walk = [[root[sign == "plus"] - 1 for root in roots] for sign in signs]
        left = shape.index(None)  # the parts left of 1_lam
        found = sorted(((_moved(n, src, parts[left:], signs[left:]), parts)
                        for parts in _bounded(walk, src, memo)
                        if _moved(n, src, parts, signs) == dst),
                       key=lambda item: [-x for x in item[0]])
    labels = []
    for lam, parts in found:
        parts += zero
        labels.append(BasisLabel(kind, parts[a], lam, parts[c]))
    return labels


def enumerate_block_parts(n, d, kind):
    """The members of a kind that pins weight blocks, each given by its
    parts, one exponent tuple per monomial part of the shape in shape
    order ((A, C) for B1 and B2), grouped as they are enumerated:
    ``{src: {dst: [parts]}}``.  No label is built: ``dim`` and the
    triangular check read the parts alone, and :func:`enumerate_blocks`
    is the adapter that makes them labels.

    The enumeration is :func:`enumerate_basis`'s, lam outer, then the
    parts left of 1_lam ascending and, for each, those right of it
    ascending.  For each lam the source lam - (shift of the right parts)
    of each right tuple is found once, and the target lam + (shift of
    the left parts) of each left one; the right tuples depend on what
    the left ones leave of lam alone, so they are listed once per
    remainder.  The source weights, and the targets of each, enter in
    order of first appearance.  Every lam comes from ``compositions``
    and is a weight.  PBW, PLUS and MINUS labels pin no block, and an
    unknown kind names none: ValueError.

    >>> enumerate_block_parts(2, 1, "B1")  # doctest: +NORMALIZE_WHITESPACE
    {(1, 0): {(1, 0): [((0,), (0,))], (0, 1): [((0,), (1,))]},
     (0, 1): {(0, 1): [((0,), (0,))], (1, 0): [((1,), (0,))]}}
    """
    shape = SHAPES.get(kind)
    if shape is None or None not in shape:
        raise ValueError(f"{kind} labels pin no weight block")
    groups, signs, *_ = _parts(n, kind)
    left = shape.index(None)  # the parts left of 1_lam
    ahead = signs[:left]
    back = ["minus" if sign == "plus" else "plus" for sign in signs[left:]]
    tails, memo, listed, out = groups[left:], {}, {}, {}
    for lam in compositions(n, d):
        heads = [((), lam)]
        for group in groups[:left]:
            heads = [(head + (acc,), rest) for head, budget in heads
                     for acc, rest in _levels(group, budget)]
        targets = {}  # right tuple -> the targets of its source weight
        for head, rest in heads:
            if rest not in listed:
                listed[rest] = _bounded(tails, rest, memo)
            dst = _moved(n, lam, head, ahead)
            for tail in listed[rest]:
                by_dst = targets.get(tail)
                if by_dst is None:
                    by_dst = targets[tail] = out.setdefault(_moved(n, lam, tail, back), {})
                by_dst.setdefault(dst, []).append(head + tail)
    return out


def _block_labels(n, kind, src, by_dst):
    """The labels of members of a kind, given by their parts (see
    :func:`enumerate_block_parts`) and grouped by target ``{dst:
    [parts]}``, of the source weight ``src``: ``{dst: [labels]}``.  Each
    lam is src moved by the parts right of 1_lam, found once per source
    weight for each such right part."""
    _, signs, a, c, zero = _parts(n, kind)
    left = SHAPES[kind].index(None)
    lams, out = {}, {}  # right parts -> lam
    for dst, members in by_dst.items():
        labels = out[dst] = []
        for parts in members:
            lam = lams.get(parts[left:])
            if lam is None:
                lam = lams[parts[left:]] = _moved(n, src, parts[left:], signs[left:])
            parts += zero
            labels.append(BasisLabel(kind, parts[a], lam, parts[c]))
    return out


def enumerate_blocks(n, d, kind):
    """The labels of a kind that pins weight blocks, grouped as they are
    enumerated: ``{src: {dst: [labels]}}``, equal to
    ``block_index(model, enumerate_basis(n, d, kind))`` in every order,
    the source weights and the targets of each in order of first
    appearance and each block's labels in enumeration order.  An adapter:
    :func:`enumerate_block_parts`, with each member made a label.

    >>> [(src, dst, [(x.A, x.lam, x.C) for x in labels])
    ...  for src, by_dst in enumerate_blocks(2, 1, "B1").items()
    ...  for dst, labels in by_dst.items()]  # doctest: +NORMALIZE_WHITESPACE
    [((1, 0), (1, 0), [((0,), (1, 0), (0,))]), ((1, 0), (0, 1), [((0,), (0, 1), (1,))]),
     ((0, 1), (0, 1), [((0,), (0, 1), (0,))]), ((0, 1), (1, 0), [((1,), (0, 1), (0,))])]
    """
    return {src: _block_labels(n, kind, src, by_dst)
            for src, by_dst in enumerate_block_parts(n, d, kind).items()}


def _specialized_row(row, point, size):
    """Integer row proportional to a flat row {position + size * e: c}
    at v = point = a/b: each entry sum c_e v^e becomes
    sum c_e a^(e - lo) b^(hi - e), for lo and hi the row's extreme keys
    divided by ``size``."""
    if not row:
        return {}
    a, b = point.numerator, point.denominator
    lo, hi = min(row) // size, max(row) // size
    weights = [a**t * b ** (hi - lo - t) for t in range(hi - lo + 1)]
    out = {}
    for k, c in row.items():
        e, i = divmod(k, size)
        out[i] = out.get(i, 0) + c * weights[e - lo]
    return {k: c for k, c in out.items() if c}


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
        """Reduce a primitive integer row; return True if rank grew.

        Each elimination step divides out its gcd, so the row stays
        primitive and is stored as it is; it is read, never changed."""
        while row:
            lead = min(row)
            piv = self.pivots.get(lead)
            if piv is None:
                self.pivots[lead] = row
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
    quantumly the model's ``spec_points`` in order, then v = 2, 3, 4, ...
    skipping those already tried.  ``build_model`` made the spec points
    Fractions and refused v = 0, so none is checked here."""
    if model.mode == "classical":
        yield None
        return
    points = model.spec_points
    yield from points
    yield from (Fraction(m) for m in count(2) if m not in points)


def _prepared(row, point, size):
    """A flat row as a primitive integer row at ``point`` (None: as it
    is); ``size`` as in :func:`_specialized_row`."""
    return _reduce_by_gcd(row if point is None else _specialized_row(row, point, size))


def _flattened(model, rows):
    """A family as the kernel reads it, (flat rows, stride): the one place
    that looks at a row's form.  Scalar rows {position: scalar} are
    flattened by ``to_flat`` at the stride one above their largest
    position, which reads a classical row as it is: it is its own flat
    form, with e = 0, at any stride above its positions.  Quantum integer
    rows are flat at n^d already and pass as they are."""
    rows = list(rows)
    entry = next((c for row in rows for c in row.values()), None)
    if model.mode == "quantum" and not isinstance(entry, LaurentPoly):
        return rows, model.num_words
    size = 1 + max((max(row) for row in rows if row), default=0)
    return [model.scalars.to_flat(row, size) for row in rows], size


class RankAccumulator:
    """Incremental rank of a stream of operators at the first point of
    :func:`_points`, each one row of its columns' entries that enters the
    kernel by :func:`_flattened`: the whole-operator reference of the
    tests, which no command uses.  The rank is exact classically and a
    lower bound quantumly; :func:`rank_of_family` certifies a rank.
    """

    def __init__(self, model):
        self.model = model
        self.point = next(_points(model))
        self._echelon = _IntEchelon()

    @property
    def rank(self):
        return self._echelon.rank

    def add(self, op):
        """Reduce ``op``; return True if the rank grew."""
        size = self.model.num_words
        row = {j * size + i: s for j, col in op.cols.items() for i, s in col.items()}
        [row], stride = _flattened(self.model, [row])
        return self._echelon.add(_prepared(row, self.point, stride))


def _pivots(model, rows, size):
    """Independent rows of a family of flat rows at stride ``size``, and
    positions where their minor is nonzero: (indices, leads), ascending.

    The rows that grow an :class:`_IntEchelon` at a point of v are
    independent, and the leads of its pivots pick a nonzero minor (see
    the module docstring).  Quantumly every other row is span-checked
    against them at those positions, at the points of :func:`_points` in
    turn until all checks pass.  A full-rank family needs no check; a
    short one is split first into groups of rows that share positions,
    so that each check solves a small minor.  The rows stay flat
    throughout; only the minor of a check is read as ring scalars.
    """
    for point in _points(model):
        echelon = _IntEchelon()
        grew = [echelon.add(_prepared(row, point, size)) for row in rows]
        indices = [u for u, g in enumerate(grew) if g]
        leads = sorted(echelon.pivots)
        if point is None or len(indices) == len(rows):
            return indices, leads
        groups = _connected_columns([{k % size for k in row} for row in rows])
        if len(groups) > 1:
            found = [_pivots(model, [rows[u] for u in group], size) for group in groups]
            return (sorted(group[u] for group, (picked, _) in zip(groups, found) for u in picked),
                    sorted(chain.from_iterable(lead for _, lead in found)))
        pivots = [rows[u] for u in indices]
        if all(_span_solve(model.scalars, pivots, leads, row, size) is not None
               for row, g in zip(rows, grew) if not g):
            return indices, leads


def rank_of_family(model, rows):
    """Exact rank of a family of sparse rows {position: scalar}, or flat
    at stride n^d (see :func:`_flattened` and :func:`_pivots`)."""
    return len(_pivots(model, *_flattened(model, rows))[0])


def rank_of_labels(model, labels):
    """Exact rank of the operators of a label family, from their images
    of the ordered words, without building operators.

    When every label pins a weight block, the family is ranked block by
    block, one image of u_src per label (:func:`block_ranks`):
    operators of different blocks have disjoint supports.  Otherwise
    each label is the row of its columns at the ordered words.  Once the
    model's Hecke-commutation certificate holds, either rank is the rank
    of the operators (see ``rootvectors``).
    """
    ranks = block_ranks(model, labels)
    if ranks is None:
        return rank_of_family(model, [ordered_word_row(model, label_columns(model, label))
                                      for label in labels])
    return sum(ranks.values())


def block_ranks(model, labels):
    """Exact rank of each weight block of a label family that a caller
    hands in, as ``{(src, dst): rank}`` in the order of
    :func:`block_index`, source weight first; None when some label pins
    no block.  The family is grouped by :func:`block_index` and ranked
    by :func:`grouped_ranks`."""
    groups = block_index(model, labels)
    return None if groups is None else grouped_ranks(model, groups)


def grouped_ranks(model, groups):
    """Exact rank of each block of labels grouped ``{src: {dst:
    [labels]}}``, as :func:`block_index` and :func:`enumerate_blocks`
    give them, ranked on the labels' images of u_src: ``{(src, dst):
    rank}`` in the order of the groups (:func:`_walk_ranks` of a
    ``rootvectors.block_images`` walk)."""
    return _walk_ranks(model, block_images(model, groups))


def parts_ranks(model, kind, groups):
    """:func:`grouped_ranks` for the members of a kind given by their
    parts and grouped as :func:`enumerate_block_parts` gives them, with
    no label: :func:`_walk_ranks` of a ``rootvectors.parts_images``
    walk."""
    return _walk_ranks(model, parts_images(model, SHAPES[kind], groups))


def _walk_ranks(model, walk):
    """``{(src, dst): rank}`` of the blocks of an image walk, in its
    order.  The images are flat at stride n^d in both modes, so they
    reach the rank kernel (:func:`_pivots`) as they are, with no look at
    their form; one image alone has rank 1 exactly when it is nonzero."""
    size = model.num_words
    return {block: len(_pivots(model, images, size)[0]) if len(images) != 1
            else int(any(images[0].values())) for block, images in walk}


def block_index(model, family):
    """A label family grouped by weight block, source weight first.

    Returns ``{src: {dst: [labels in family order]}}`` with each block
    (src, dst) as :func:`_label_block` gives it, the source weights and
    the targets of each in the order they first appear, or None when
    some label pins no block (PBW and bare monomial flavors).  A member
    whose lam is not a weight of the model raises BadWeight: this is
    where a family's labels are checked, once, before any reader builds
    an image of them.  Only the grouping of the last family is kept on
    the model, and the same family again is recognized by comparing its
    members, mostly by identity, without hashing them.
    """
    family = tuple(family)
    last = model._last_family
    if last is None or last[0] != family:
        groups = {}
        for label in family:
            _, block = _label_block(label, model.root_data)
            if block is None:
                groups = None
                break
            _check_weight(model, label.lam)
            groups.setdefault(block[0], {}).setdefault(block[1], []).append(label)
        last = model._last_family = (family, groups)
    return last[1]


@lru_cache(maxsize=4096)
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


def coordinates(model, columns, target):
    """Coefficients x_u with sum_u x_u * columns[u] = target, proved and
    unique.  ``columns`` and ``target`` are rows in a form that
    :func:`rank_of_family` reads, sparse {position: scalar} or flat at
    stride n^d, and enter the kernel together by one :func:`_flattened`.

    The columns are split into groups that share positions, and the
    target is sliced by position to the groups; a target position that
    no column has is outside the span.  Groups have disjoint supports, so
    the expansion is the sum of the groups' expansions, and each group is
    solved alone on its slice, on its pivots at their leads
    (:func:`_pivots`), then checked at every position.  Coefficients
    are integers classically and Laurent polynomials quantumly whenever
    they are integral, fractions otherwise.  An inconsistent system is
    reported as outside the span before a dependent one is reported as
    dependent; both raise NotInSpan.
    """
    (*flat, target), size = _flattened(model, [*columns, target])
    positions = [{k % size for k in row} for row in flat]
    groups = _connected_columns(positions)
    group_of = {i: g for g, group in enumerate(groups) for u in group for i in positions[u]}
    parts = [{} for _ in range(len(groups) + 1)]  # the last: positions that no column has
    for k, c in target.items():
        parts[group_of.get(k % size, -1)][k] = c
    if parts.pop():
        raise NotInSpan("target is outside the span of the columns")
    values = [model.scalars.zero] * len(flat)
    dependent = False
    for group, part in zip(groups, parts):
        members = [flat[u] for u in group]
        indices, leads = _pivots(model, members, size)
        solved = _span_solve(model.scalars, [members[u] for u in indices], leads, part, size)
        if solved is None:
            raise NotInSpan("target is outside the span of the columns")
        dependent = dependent or len(indices) < len(members)
        for u, x in zip(indices, solved):
            values[group[u]] = x
    if dependent:
        raise NotInSpan("family is linearly dependent; no unique expansion")
    return values


def _connected_columns(positions):
    """Indices of a family grouped by shared positions, given each
    member's set of positions: each group and the groups in ascending
    order."""
    root = list(range(len(positions)))

    def find(u):
        while root[u] != u:
            root[u] = root[root[u]]
            u = root[u]
        return u

    owner = {}
    for u, at in enumerate(positions):
        for k in at:
            root[find(owner.setdefault(k, u))] = find(u)
    groups = {}
    for u in range(len(positions)):
        groups.setdefault(find(u), []).append(u)
    return list(groups.values())


def _span_solve(scalars, basis, leads, target, size):
    """Coordinates of ``target`` in ``basis``, flat rows at stride
    ``size``, proved, or None when the target lies outside their span.

    ``leads`` are positions where the minor of ``basis`` is nonzero.  The
    check sum_u N_u * basis[u] - D * target = 0 of the module docstring
    sums on the flat rows: a weight's term c v^e, the key size * e of its
    flat form {0 + size * e: c}, adds c times its row shifted by that
    key, as ``tensormodel._apply_flat`` does.  It is the one proof, for
    integral and fractional coordinates alike; each x_u = N_u / D is then
    returned by :func:`_ring_quotient`.
    """
    zero, at = scalars.zero, set(leads)
    *minor, rhs = (scalars.from_flat(row, size, at) for row in [*basis, target])
    det, nums = _bareiss_solve(scalars, [[col.get(k, zero) for col in minor] for k in leads],
                               [rhs.get(k, zero) for k in leads])
    combined = {}
    for w, row in zip([*nums, -det], [*basis, target]):
        for shift, c in scalars.to_flat({0: w}, size).items():
            for k, x in row.items():
                k += shift
                combined[k] = combined.get(k, 0) + c * x
    if any(combined.values()):
        return None
    return [_ring_quotient(scalars, num, det) for num in nums]


def _bareiss_solve(scalars, matrix, rhs):
    """Fraction-free solution of a nonsingular square system over the
    scalar ring (Bareiss, Math. Comp. 22, 1968), run on integers.

    Returns (D, N) with D = +-det(matrix) and matrix * N = D * rhs, so
    the solution is N / D.  The system enters by the adapter's
    ``evaluated``, quantumly at v = 2^K (see the module docstring).
    Every division, by the previous pivot in the elimination and by the
    diagonal in the back substitution, is exact: the quotients are
    minors of the augmented matrix, and D * x is N.  A remainder raises.

    >>> from schuralg.ring import CLASSICAL_SCALARS, QUANTUM_SCALARS, LaurentPoly
    >>> _bareiss_solve(CLASSICAL_SCALARS, [[2, 1], [1, 3]], [3, 5])
    (5, [4, 7])
    >>> zero, one, v = LaurentPoly.zero(), LaurentPoly.one(), LaurentPoly.v_power(1)
    >>> det, nums = _bareiss_solve(QUANTUM_SCALARS, [[zero, v], [v.bar(), one]], [v, 2 * one])
    >>> str(det), [str(x) for x in nums]
    ('1', ['v', '1'])
    """
    quotient = CLASSICAL_SCALARS.exact_quotient
    size = len(matrix)
    rows, read = scalars.evaluated([list(row) + [b] for row, b in zip(matrix, rhs)])
    prev = 1
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
            total -= row[c] * nums[c]
        nums[i] = quotient(total, row[i])
    return read(prev), [read(x) for x in nums]


def _ring_quotient(scalars, num, det):
    """num / det in the scalar ring when it lies there, as a fraction
    otherwise.  A unit det, +-v^k (+-1 classically), divides as a shift
    and a sign (the adapter's ``unit_quotient``); any other goes by the
    ring's exact division, which raises on a remainder."""
    quotient = scalars.unit_quotient(num, det)
    if quotient is not None:
        return quotient
    try:
        return scalars.exact_quotient(num, det)
    except NotDivisible:
        return scalars.div(num, det)


def structure_constants(model, basis, i, j):
    """Coefficient vector of basis[i] . basis[j] in the basis itself.

    No operator is built: the product is fixed by its columns at the
    ordered words, which the left factor gives from the right factor's,
    and these are expanded by :func:`coordinates` in the columns of the
    candidates.  When every label pins a block, the product is 0 unless
    the blocks chain, and the candidates are the labels of its block in
    the cached :func:`block_index`; the right factor's image of u_src
    and theirs come from one ``rootvectors.block_images`` walk, in one
    list, as its block may be theirs.  That image lies in the left
    factor's source weight, so the left factor's parts act on it flat
    (``rootvectors._act``), and the product and the candidates' images
    reach :func:`coordinates` as the walk gives them, flat at stride n^d.
    Otherwise the candidates are all labels, read by
    ``rootvectors.label_columns`` into scalar ordered-word rows, and the
    left factor acts by ``rootvectors.apply_label``.  The expansion is
    the operator identity (see ``rootvectors``).
    """
    left, right = basis[i], basis[j]
    groups = block_index(model, basis)
    if groups is None:
        candidates = list(basis)
        product = ordered_word_row(model, {w: apply_label(model, left, col)
                                           for w, col in label_columns(model, right).items()})
        columns = [ordered_word_row(model, label_columns(model, x)) for x in candidates]
    else:
        (src, mid), (top, dst) = (_label_block(x, model.root_data)[1] for x in (right, left))
        if mid != top:
            return {}
        candidates = groups[src].get(dst, [])
        [(_, [image, *columns])] = block_images(model, {src: {dst: [right, *candidates]}})
        product = _act(model, left, image)
    if not product:
        return {}
    values = coordinates(model, columns, product)
    return {label: val for label, val in zip(candidates, values) if val}


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
        triples.append({"left": i, "right": j,
                        "coeffs": {label_key(label, model.root_data): model.scalars.render(s)
                                   for label, s in coeffs.items()}})
    return {**basis_json(model, labels), "triples": triples}


def structure_table_csv(table):
    """A :func:`structure_table_json` table as CSV: one row per nonzero
    coefficient, by pair and then by label key."""
    lines = ["left,right,label,coefficient"]
    for triple in table["triples"]:
        lines.extend(f'{triple["left"]},{triple["right"]},"{key}","{value}"'
                     for key, value in sorted(triple["coeffs"].items()))
    return "\n".join(lines) + "\n"
