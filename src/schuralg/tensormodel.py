"""Tensor-space realization of the Schur algebra and its q-analogue.

A model for parameters (n, d) consists of the n^d basis words of length
d over the alphabet {1..n}, listed lexicographically, so that the index
of a word w is sum_p (w_p - 1) n^(d-1-p) and moving its letters moves
its index by arithmetic, together with the action of the generators on
them:

* quantum mode: E_i, F_i, K_i act on a single factor by
  K_i u_j = v^{delta_ij} u_j, E_i u_j = delta_{j,i+1} u_i,
  F_i u_j = delta_{j,i} u_{i+1}, extended to d factors through the
  coproduct E_i -> E_i (x) K_i K_{i+1}^{-1} + 1 (x) E_i,
  F_i -> F_i (x) 1 + K_i^{-1} K_{i+1} (x) F_i, K_i -> K_i (x) K_i,
  iterated coassociatively: E_i and F_i move one letter at one position,
  twisted by a power of v counted from the other letters;
* classical mode is the same kernel at v = 1 (the scalar adapter's
  ``v_power`` is 1): e_i, f_i act by the Leibniz rule of the matrix
  units E_{i,i+1}, E_{i+1,i} across the d tensor positions, and H_k is
  diagonal with eigenvalue mu_k (the number of letters k in the word)
  where K_k has v^{mu_k}.  ``GENERATOR_NAMES`` lists each mode's symbols.

Operators are stored column-sparse: for each input word index, the
image vector as a mapping from word index to scalar.  Everything is
exact; no floats appear anywhere.  Vectors on the label-image path are
flat integer dicts {row + n^d * e: c} instead (see ``ring``), to which
:func:`_apply_flat` applies an operator's :func:`_flat_columns`; an
operator built on flat columns builds each one when it is first
applied, and all of them, read back as its ``cols``, only when those
are first read (:class:`_FlatOperator`).

The Hecke algebra H_d acts on the words by place permutations: with
a, b the letters at positions p and p + 1 of w, and s_p w the word
with those two letters swapped,

    T_p w = v w                    if a = b,
    T_p w = s_p w                  if a < b,
    T_p w = s_p w + (v - v^-1) w   if a > b.

Classically v - v^-1 = 0 and T_p is the swap of the symmetric group.
T_p is defined once, as a table over the words (:func:`hecke_table`):
each word's partner s_p w and its coefficient, 0 when a < b,
v - v^-1 when a > b and v when a = b (a fixed word, its own partner).
On each pair {w, s_p w} with a < b, T_p has the matrix
[[0, 1], [1, v - v^-1]], so T_p^2 = (v - v^-1) T_p + 1, which holds on
the fixed words too.

The generators commute with every T_p (quantum Schur-Weyl duality,
Jimbo, Lett. Math. Phys. 11, 1986); :func:`certify_hecke_commutation`
checks this exactly on the model's own operators.  Classically T_p is
the permutation s_p, and a generator commutes with it when its entries
are unchanged as s_p moves both their row and their column: one
comparison per generator and T_p.  Quantumly, by the quadratic
relation, it compares each generator g at the coefficient-0 member w of
each pair and at the fixed words only: if g T_p w = T_p g w, that is
g s_p w = T_p g w, then at s_p w as well

    g T_p s_p w = g w + (v - v^-1) g s_p w = T_p^2 g w = T_p g s_p w.

Each weight space M^lam is then generated by the ordered word
u_lam = 1^lam_1 ... n^lam_n (T_p u = s_p u whenever a < b), so an
operator built from generators is fixed by its images of the ordered
words.  Its ordered-word row (:func:`ordered_word_row`) lists those
columns, one row per element of S(n, d): a family's rows have the rank
of its operators, and an expansion of the rows is the expansion of the
operators.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from itertools import product
from math import prod
from operator import le, matmul

from .errors import BadWeight, CertificateError, SizeLimit
from .ring import scalar_ring

__all__ = [
    "DEFAULT_WORD_CAP",
    "GENERATOR_NAMES",
    "GeneratorNames",
    "RootData",
    "SparseOperator",
    "Model",
    "build_model",
    "generator_action",
    "weight_idempotent",
    "cartan_binomial",
    "cartan_product",
    "compositions",
    "word_weight",
    "ordered_word",
    "ordered_word_row",
    "hecke_table",
    "hecke_generator",
    "certify_hecke_commutation",
    "compose",
]

DEFAULT_WORD_CAP = 10_000


@dataclass(frozen=True)
class GeneratorNames:
    """The generator symbols of one mode: raising, lowering, Cartan, and
    inverse Cartan (None where the Cartan generators are not inverted)."""

    plus: str
    minus: str
    cartan: str
    cartan_inverse: str | None


GENERATOR_NAMES = {
    "classical": GeneratorNames("e", "f", "H", None),
    "quantum": GeneratorNames("E", "F", "K", "K^-1"),
}


def word_weight(word, n):
    """Weight of a word: the tuple of letter multiplicities."""
    counts = [0] * n
    for letter in word:
        counts[letter - 1] += 1
    return tuple(counts)


def compositions(n, d):
    """All weak compositions of d into n parts, first part descending.

    >>> compositions(2, 2)
    [(2, 0), (1, 1), (0, 2)]
    """
    if n == 1:
        return [(d,)]
    out = []
    for first in range(d, -1, -1):
        for rest in compositions(n - 1, d - first):
            out.append((first,) + rest)
    return out


@dataclass(frozen=True)
class RootData:
    """Type A_{n-1} root bookkeeping for gl_n weights written in the
    epsilon basis (integer n-tuples)."""

    n: int
    positive_roots: tuple = ()

    @staticmethod
    def for_rank(n):
        roots = tuple((i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1))
        return RootData(n=n, positive_roots=roots)

    def simple_root(self, i):
        """alpha_i = eps_i - eps_{i+1} as an integer n-tuple."""
        return self.root_as_vector((i, i + 1))

    def root_as_vector(self, root):
        """eps_i - eps_j for a positive root (i, j)."""
        i, j = root
        out = [0] * self.n
        out[i - 1] = 1
        out[j - 1] = -1
        return tuple(out)

    def pairing(self, i, j):
        """(eps_i, alpha_j) = delta_{i,j} - delta_{i,j+1}."""
        return (1 if i == j else 0) - (1 if i == j + 1 else 0)


class SparseOperator:
    """Column-sparse linear operator on the word basis.

    ``cols`` maps a column (input word index) to a dict from row
    (output word index) to a nonzero scalar.  Instances are treated as
    immutable; a product returns a new operator.  Operators have no sum
    or scalar multiple: identities between them are checked on their
    images of the ordered words (``verify``).
    """

    __slots__ = ("cols", "flat")

    def __init__(self, cols=None):
        self.cols = cols or {}
        self.flat = None  # see _flat_columns

    def is_zero(self):
        return not self.cols

    def __matmul__(self, other):
        """Operator composition: (A @ B)(w) = A(B(w))."""
        if not isinstance(other, SparseOperator):
            return NotImplemented
        if not self.cols:
            return SparseOperator({})
        out = {}
        for j, bcol in other.cols.items():
            acc = {}
            for mid, s in bcol.items():
                acol = self.cols.get(mid)
                if not acol:
                    continue
                for i, t in acol.items():
                    u = acc.get(i, 0) + t * s
                    if not u:
                        acc.pop(i, None)
                    else:
                        acc[i] = u
            if acc:
                out[j] = acc
        return SparseOperator(out)

    def __pow__(self, m):
        if m < 1:
            raise ValueError("use model.identity() for the zeroth power")
        out = self
        for _ in range(m - 1):
            out = out @ self
        return out

    def __eq__(self, other):
        if not isinstance(other, SparseOperator):
            return NotImplemented
        return self.cols == other.cols

    def entry_count(self):
        return sum(len(col) for col in self.cols.values())

    def __repr__(self):
        return f"SparseOperator(<{self.entry_count()} entries>)"


@dataclass
class Model:
    """Immutable tensor model for parameters (n, d) in one scalar mode,
    with ``spec_points`` and ``weight_set`` fixed by :func:`build_model`."""

    n: int
    d: int
    mode: str
    words: tuple
    word_index: dict
    weights: tuple
    root_data: RootData
    scalars: object
    spec_points: tuple
    weight_set: tuple
    _generators: dict = field(default_factory=dict, repr=False)
    _op_cache: dict = field(default_factory=dict, repr=False)
    _last_family: tuple | None = field(default=None, repr=False)
    _hecke_certified: bool = field(default=False, repr=False)

    @property
    def num_words(self):
        return len(self.words)

    def identity(self):
        one = self.scalars.one
        return SparseOperator({j: {j: one} for j in range(self.num_words)})

    def divide(self, op, den):
        """``op`` with every entry divided exactly by the scalar ``den``;
        raises NotDivisible when a quotient leaves the integers
        (classical) or Z[v, v^-1] (quantum)."""
        quotient = self.scalars.exact_quotient
        return SparseOperator(
            {j: {i: quotient(s, den) for i, s in col.items()} for j, col in op.cols.items()}
        )

    def diagonal(self, value_fn):
        """Diagonal operator with entry value_fn(word_index) per word."""
        cols = {}
        for j in range(self.num_words):
            s = value_fn(j)
            if not (s == 0):
                cols[j] = {j: s}
        return SparseOperator(cols)

    @property
    def names(self):
        """The generator symbols of this model's mode."""
        return GENERATOR_NAMES[self.mode]


def _build_generators(model):
    """The generators of the model's mode, from one pass over the words.

    A letter a at position p is moved to a - 1 by E_{a-1} and to a + 1
    by F_a; each move is one image of the coproduct, twisted by v^k.
    For E_i, k = #i - #(i+1) among the letters right of p (the factor
    K_i K_{i+1}^{-1} there); for F_i, k is minus that count among the
    letters left of p (the factor K_i^{-1} K_{i+1}).  Classically
    v^k = 1 and this is the Leibniz rule.  Distinct positions give
    distinct target words, so each image entry is a single twist.
    Words are listed lexicographically, so a letter at position p moved
    by 1 moves the word's index by n^(d-1-p), and no word is looked up.
    The Cartan entries, v^{+-mu_k} (classically mu_k), come from one
    table of ``scalars.cartan`` at -d..d.
    """
    n, d, scalars, names = model.n, model.d, model.scalars, model.names
    twist = {k: scalars.v_power(k) for k in range(-d, d + 1)}
    steps = [n ** (d - 1 - p) for p in range(d)]
    e_cols = {i: {} for i in range(1, n)}
    f_cols = {i: {} for i in range(1, n)}
    for j, (word, mu) in enumerate(zip(model.words, model.weights)):
        seen = [0] * (n + 1)  # seen[a]: letters a left of p
        for a, step in zip(word, steps):
            if a > 1:
                i = a - 1
                k = (mu[i - 1] - seen[i]) - (mu[i] - seen[a] - 1)
                e_cols[i].setdefault(j, {})[j - step] = twist[k]
            if a < n:
                f_cols[a].setdefault(j, {})[j + step] = twist[seen[a + 1] - seen[a]]
            seen[a] += 1
    cartan = {k: scalars.cartan(k) for k in range(-d, d + 1)}

    def diagonal(k, sign):
        return SparseOperator({j: {j: s} for j, mu in enumerate(model.weights)
                               if (s := cartan[sign * mu[k - 1]])})

    gens = {}
    for i in range(1, n):
        gens[(names.plus, i)] = SparseOperator(e_cols[i])
        gens[(names.minus, i)] = SparseOperator(f_cols[i])
    for k in range(1, n + 1):
        gens[(names.cartan, k)] = diagonal(k, 1)
        if names.cartan_inverse:
            gens[(names.cartan_inverse, k)] = diagonal(k, -1)
    return gens


def build_model(n, d, mode="classical", word_cap=None, spec_points=None):
    """Construct the tensor model for (n, d) in the given mode.

    The number of words n^d is capped by ``word_cap`` (default 10^4);
    exceeding it raises SizeLimit rather than thrashing memory.  The
    ``spec_points`` (default 7/5, 11/7) become Fractions, none of them 0.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if d < 1:
        raise ValueError("need d >= 1")
    if word_cap is None:
        word_cap = DEFAULT_WORD_CAP
    count = n**d
    if count > word_cap:
        raise SizeLimit(f"n^d = {count} exceeds the word cap {word_cap}")
    if spec_points is None:
        spec_points = (Fraction(7, 5), Fraction(11, 7))
    spec_points = tuple(map(Fraction, spec_points))
    if 0 in spec_points:
        raise ValueError("cannot specialize at v = 0")
    words = tuple(product(range(1, n + 1), repeat=d))
    model = Model(
        n=n,
        d=d,
        mode=mode,
        words=words,
        word_index={w: j for j, w in enumerate(words)},
        weights=tuple(word_weight(w, n) for w in words),
        root_data=RootData.for_rank(n),
        scalars=scalar_ring(mode),
        spec_points=spec_points,
        weight_set=tuple(compositions(n, d)),
    )
    model._generators.update(_build_generators(model))
    return model


def compose(model, factors):
    """The product of the operators ``factors``, in order, from the first
    factor on: the identity when there are none."""
    factors = iter(factors)
    first = next(factors, None)
    return model.identity() if first is None else reduce(matmul, factors, first)


def generator_action(model, sym, index):
    """The cached action of one generator.

    Classical symbols: "e", "f" (index 1..n-1) and "H" (index 1..n).
    Quantum symbols: "E", "F" (index 1..n-1) and "K", "K^-1" (1..n).
    """
    key = (sym, index)
    if key not in model._generators:
        raise ValueError(f"unknown generator {sym}_{index} in {model.mode} mode")
    return model._generators[key]


def _check_weight(model, lam):
    if len(lam) != model.n or min(lam) < 0:
        raise BadWeight(f"{lam} is not a weight for n = {model.n}")
    if sum(lam) != model.d:
        raise BadWeight(f"{lam} does not sum to d = {model.d}")


def cartan_binomial(model, k, m):
    """Binomial of a Cartan generator as an operator: the Cartan product
    of m eps_k.

    Classical: binom(H_k, m) = H_k (H_k - 1) ... (H_k - m + 1) / m!.
    Quantum: the Gaussian analogue
    prod_{s=1..m} (K_k v^{1-s} - K_k^{-1} v^{s-1}) / (v^s - v^{-s}).
    """
    if not 1 <= k <= model.n:
        raise ValueError(f"k must be in 1..{model.n}")
    return cartan_product(model, tuple(m if i == k else 0 for i in range(1, model.n + 1)))


def _cartan_values(model, B):
    """The scalar by which the Cartan product of B acts on each weight
    space, {mu: prod_k binom(mu_k, B_k)}, the Gaussian binomial
    quantumly, which is 0 when some B_k > mu_k."""
    B = tuple(B)
    if len(B) != model.n or min(B) < 0:
        raise ValueError(f"{B} is not a Cartan multi-index for n = {model.n}")
    ring = model.scalars
    table = {b: [ring.binomial(a, b) for a in range(model.d + 1)] for b in set(B)}
    return {mu: prod((table[b][a] for a, b in zip(mu, B) if b), start=ring.one)
            for mu in model.weight_set}


def cartan_product(model, B):
    """The product of the Cartan binomials binom(H_k, B_k) over k,
    quantumly of their Gaussian analogues; the identity for B = 0.

    It is read off the weights, with no operator product: H_k is
    diagonal with eigenvalue mu_k on M^mu (K_k with v^{mu_k}), so the
    product acts on M^mu by a scalar (:func:`_cartan_values`).
    """
    B = tuple(B)
    key = ("cartan", B)
    if key not in model._op_cache:
        value = _cartan_values(model, B)
        model._op_cache[key] = model.diagonal(lambda j: value[model.weights[j]])
    return model._op_cache[key]


def weight_idempotent(model, lam):
    """The weight idempotent for a composition lam of d.

    Computed as the Cartan product of lam (not built directly as a
    projector; the projector description is what the tests compare
    against).
    """
    lam = tuple(lam)
    _check_weight(model, lam)
    return cartan_product(model, lam)


def ordered_word(lam):
    """The ordered word u_lam = 1^lam_1 2^lam_2 ... n^lam_n of a weight.

    >>> ordered_word((2, 0, 1))
    (1, 1, 3)
    """
    return tuple(k for k, m in enumerate(lam, 1) for _ in range(m))


def ordered_word_row(model, columns):
    """An element of S(n, d) as one sparse row: its columns at the
    ordered words, entry i of the column at word j at position
    j * n^d + i.

    ``columns`` maps a word index to a vector {word index: scalar}; an
    operator's ``cols`` will do, and its other columns are ignored.  The
    model's Hecke-commutation certificate is checked first, which makes
    the row stand for the operator (see the module docstring).
    """
    certify_hecke_commutation(model)
    size, words = model.num_words, model.words
    return {j * size + i: s
            for j, col in columns.items() if all(map(le, words[j], words[j][1:]))
            for i, s in col.items()}


def hecke_table(model, p):
    """T_p (1 <= p < d) as a table over the words, as in the module
    docstring: (partner, coeff), two lists over the word indices, with
    T_p w = s_p w + coeff[w] w where partner[w] = s_p w is another word,
    and T_p w = coeff[w] w on a fixed word, its own partner.  Words are
    listed lexicographically, so swapping the letters a, b at positions
    p, p + 1 moves a word's index by (b - a)(n - 1) n^(d-1-p)."""
    scalars = model.scalars
    v = scalars.v_power(1)
    gap, zero = v - scalars.v_power(-1), scalars.zero
    step = (model.n - 1) * model.n ** (model.d - 1 - p)
    partner, coeff = [], []
    for j, word in enumerate(model.words):
        a, b = word[p - 1], word[p]
        partner.append(j + (b - a) * step)
        coeff.append(v if a == b else gap if a > b else zero)
    return partner, coeff


def hecke_generator(model, p):
    """T_p (1 <= p < d) on the word basis: the operator of its
    :func:`hecke_table`."""
    one, (partner, coeff) = model.scalars.one, hecke_table(model, p)
    cols = {}
    for j, (s, c) in enumerate(zip(partner, coeff)):
        col = cols[j] = {} if s == j else {s: one}
        if c:
            col[j] = c
    return SparseOperator(cols)


def _constant_by_weight(model, gen):
    """Whether ``gen`` is diagonal with one value on each weight space."""
    zero, value, cols = model.scalars.zero, {}, gen.cols
    for j, mu in enumerate(model.weights):
        col = cols.get(j, {})
        s = col.get(j, zero)
        if len(col) > (j in col) or value.setdefault(mu, s) != s:  # an entry off j
            return False
    return True


def _flat_columns(model, op):
    """``op``'s columns as flat vectors (see ``ring``), {column: {row +
    N * e: c}}, kept on the operator; classically ``op.cols`` itself.
    Readers call only ``get``, so that a :class:`_FlatOperator` builds
    just the columns they read."""
    if op.flat is None:
        to_flat, size = model.scalars.to_flat, model.num_words
        op.flat = (op.cols if model.mode == "classical"
                   else {j: to_flat(col, size) for j, col in op.cols.items()})
    return op.flat


class _LazyColumns:
    """Flat columns made on first read: ``get(j)`` is column j, built by
    ``build(j)`` the first time and kept, empty for a zero column;
    ``items()`` builds all N = ``size`` columns and lists the nonzero."""

    __slots__ = ("build", "size", "built")

    def __init__(self, build, size):
        self.build, self.size, self.built = build, size, {}

    def get(self, j):
        col = self.built.get(j)
        if col is None:
            col = self.built[j] = self.build(j)
        return col

    def items(self):
        return [(j, col) for j in range(self.size) if (col := self.get(j))]


class _FlatOperator(SparseOperator):
    """An operator given by a builder of its flat columns, ``build(j)``
    for column j: its :func:`_flat_columns` are :class:`_LazyColumns`,
    each built when first read.  Its ``cols`` are all of them, built and
    read back (LaurentPoly quantumly) the first time they are read."""

    __slots__ = ("_cols", "_read")

    def __init__(self, model, build):
        self.flat = _LazyColumns(build, model.num_words)
        self._read, self._cols = model.scalars.from_flat, None

    @property
    def cols(self):
        if self._cols is None:
            read, size = self._read, self.flat.size
            self._cols = {j: read(col, size) for j, col in self.flat.items()}
        return self._cols


def _apply_flat(cols, vec, size):
    """The image of a flat vector under an operator's flat columns, N =
    ``size``: the term at key = mid + N * x meets each key k of column
    mid at k + N * x, so the v-exponents add and no LaurentPoly is
    built."""
    out = {}
    for key, b in vec.items():
        mid = key % size
        col = cols.get(mid)
        if col:
            shift = key - mid
            for k, c in col.items():
                k += shift
                out[k] = out.get(k, 0) + c * b
    return {k: c for k, c in out.items() if c}


def _compared_words(model, p, partner, coeff):
    """The words at which :func:`certify_hecke_commutation` compares a
    quantum generator with T_p, given by its :func:`hecke_table`: each
    fixed word and the coefficient-0 member of each pair.  Raises
    CertificateError, naming T_p, unless the table has the form of the
    module docstring (a partner map that is an involution, coefficient v
    on the fixed words and the coefficients {0, v - v^-1} on each pair),
    on which the comparison at these words alone is a proof; classically
    that form makes T_p the permutation of the words by its partner
    map."""
    scalars = model.scalars
    v = scalars.v_power(1)
    gap = v - scalars.v_power(-1)
    words = []
    for j, (s, c) in enumerate(zip(partner, coeff)):
        if partner[s] != j:
            problem = "its partner map is not an involution"
        elif s == j:
            words.append(j)
            if c == v:
                continue
            problem = "a fixed word's coefficient is not v"
        elif s < j:
            continue
        else:
            w, x = (j, s) if not c else (s, j)
            words.append(w)
            if not coeff[w] and coeff[x] == gap:
                continue
            problem = "a pair's coefficients are not 0 and v - v^-1"
        raise CertificateError(
            f"T_{p} is not a Hecke generator at (n, d) = ({model.n}, {model.d}) in "
            f"{model.mode} mode: {problem} (word {model.words[j]})"
        )
    return words


def _apply_table(vec, move, gap_rows, size):
    """A quantum T_p applied to a flat vector, N = ``size``: the key k
    of row r = k % N moves to k + move[r], at r's partner, or to k + N
    (v times it) for a fixed row r; a row in ``gap_rows`` also gets its
    term times v - v^-1."""
    out = {k + move[k % size]: c for k, c in vec.items()}
    for k, c in vec.items():
        if k % size in gap_rows:
            out[k + size] = out.get(k + size, 0) + c
            out[k - size] = out.get(k - size, 0) - c
    return {k: c for k, c in out.items() if c}


def _commutes_at(cols, words, partner, move, gap_rows, size):
    """Whether a generator with the flat columns ``cols`` commutes with
    a quantum T_p at the ``words`` of :func:`_compared_words`, v being
    a shift by N = ``size`` on flat keys: g s_p w = T_p g w at the
    coefficient-0 member w of each pair, T_p g w = v g w at a fixed
    word w (see :func:`_apply_table`)."""
    for j in words:
        col, s = cols.get(j), partner[j]
        if col:
            want = cols.get(s) if s != j else {k + size: c for k, c in col.items()}
            if _apply_table(col, move, gap_rows, size) != want:
                return False
        elif s != j and cols.get(s):  # g w = 0, so T_p g w = 0
            return False
    return True


def _fixed_by_swap(cols, partner):
    """Whether the operator of ``cols`` commutes with the permutation
    ``partner`` of the words, an involution: whether each entry c at
    (row i, column j) is also the entry at (partner[i], partner[j]).
    The permutation moves distinct entries to distinct places, so when
    each lands on an equal entry, the moved entries are the entries."""
    empty = {}
    return all(cols.get(partner[j], empty).get(partner[i]) == c
               for j, col in cols.items() for i, c in col.items())


def certify_hecke_commutation(model):
    """Check exactly that every generator of the model commutes with
    T_1, ..., T_{d-1}; raise CertificateError otherwise.

    Each T_p is read from its :func:`hecke_table`, whose form is checked
    first (:func:`_compared_words`).  A generator that is diagonal with
    one value on each weight space commutes with every T_p that keeps
    weight: the first fact is checked once per generator, the second
    once per T_p.  Classically T_p is the place permutation s_p, and
    every other generator is compared with it whole, at every word
    (:func:`_fixed_by_swap`).  Quantumly every other generator g is
    compared on flat columns at the coefficient-0 member w of each
    pair, g s_p w = T_p g w, and at each fixed word w, T_p g w = v g w,
    which by the quadratic relation of the module docstring proves
    g T_p = T_p g.  The check runs once per model and its success is
    kept on the model.  Every operator the package builds is a
    polynomial in the generators, so it commutes with H_d too, and is
    fixed by its images of the ordered words (see the module
    docstring).
    """
    if model._hecke_certified:
        return
    gens, weights, size = model._generators, model.weights, model.num_words
    by_weight = {key for key, gen in gens.items() if _constant_by_weight(model, gen)}
    classical = model.mode == "classical"
    for p in range(1, model.d):
        partner, coeff = hecke_table(model, p)
        words = _compared_words(model, p, partner, coeff)
        keeps_weight = all(weights[s] == weights[j] for j, s in enumerate(partner))
        if not classical:
            move = [s - j if s != j else size for j, s in enumerate(partner)]
            gap_rows = {j for j, (s, c) in enumerate(zip(partner, coeff)) if s != j and c}
        for (sym, i), gen in gens.items():
            if keeps_weight and (sym, i) in by_weight:
                continue
            if classical:
                commutes = _fixed_by_swap(gen.cols, partner)
            else:
                commutes = _commutes_at(_flat_columns(model, gen), words, partner,
                                        move, gap_rows, size)
            if not commutes:
                raise CertificateError(
                    f"{sym}_{i} does not commute with T_{p} at (n, d) = "
                    f"({model.n}, {model.d}) in {model.mode} mode"
                )
    model._hecke_certified = True
