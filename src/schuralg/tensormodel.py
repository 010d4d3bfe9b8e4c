"""Tensor-space realization of the Schur algebra and its q-analogue.

A model for parameters (n, d) consists of the n^d basis words of length
d over the alphabet {1..n}, listed lexicographically, together with the
action of the generators on them:

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
operator built on flat columns keeps them and reads its ``cols`` back
from them only when they are first read (:class:`_FlatOperator`).

The Hecke algebra H_d acts on the words by place permutations: with
a, b the letters at positions p and p + 1 of w, and s_p w the word
with those two letters swapped,

    T_p w = v w                    if a = b,
    T_p w = s_p w                  if a < b,
    T_p w = s_p w + (v - v^-1) w   if a > b.

Classically v - v^-1 = 0 and T_p is the swap of the symmetric group.
The generators commute with every T_p (quantum Schur-Weyl duality,
Jimbo, Lett. Math. Phys. 11, 1986); :func:`certify_hecke_commutation`
checks this exactly on the model's own operators.  Each weight space
M^lam is then generated by the ordered word u_lam = 1^lam_1 ... n^lam_n
(T_p u = s_p u whenever a < b), so an operator built from generators
is fixed by its images of the ordered words.  Its ordered-word row
(:func:`ordered_word_row`) lists those columns, one row per element of
S(n, d): a family's rows have the rank of its operators, and an
expansion of the rows is the expansion of the operators.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from itertools import product
from math import prod
from operator import le, matmul

from .errors import BadWeight, CertificateError, SizeLimit
from .ring import QUANTUM_SCALARS, scalar_ring

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
    immutable; all arithmetic returns new operators.
    """

    __slots__ = ("cols", "flat")

    def __init__(self, cols=None):
        self.cols = cols or {}
        self.flat = None  # quantum flat columns, see _flat_columns

    def is_zero(self):
        return not self.cols

    def __add__(self, other):
        if not isinstance(other, SparseOperator):
            return NotImplemented
        out = {j: dict(col) for j, col in self.cols.items()}
        for j, col in other.cols.items():
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

    def __neg__(self):
        return SparseOperator(
            {j: {i: -s for i, s in col.items()} for j, col in self.cols.items()}
        )

    def __sub__(self, other):
        if not isinstance(other, SparseOperator):
            return NotImplemented
        return self + (-other)

    def scale(self, s):
        if s == 0:
            return SparseOperator()
        if s == 1:
            return self
        return SparseOperator(
            {j: {i: s * t for i, t in col.items()} for j, col in self.cols.items()}
        )

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

    def zero_op(self):
        return SparseOperator()

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
    """
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


def cartan_product(model, B):
    """The product of the Cartan binomials binom(H_k, B_k) over k,
    quantumly of their Gaussian analogues; the identity for B = 0.

    It is read off the weights, with no operator product: H_k is
    diagonal with eigenvalue mu_k on M^mu (K_k with v^{mu_k}), so the
    product acts on M^mu by the scalar prod_k binom(mu_k, B_k), the
    Gaussian binomial quantumly, which is 0 when some B_k > mu_k.
    """
    B = tuple(B)
    if len(B) != model.n or min(B) < 0:
        raise ValueError(f"{B} is not a Cartan multi-index for n = {model.n}")
    key = ("cartan", B)
    if key not in model._op_cache:
        ring = model.scalars
        table = {b: [ring.binomial(a, b) for a in range(model.d + 1)] for b in set(B)}
        value = {mu: prod((table[b][a] for a, b in zip(mu, B) if b), start=ring.one)
                 for mu in model.weight_set}
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


def hecke_generator(model, p):
    """T_p (1 <= p < d) on the word basis, as in the module docstring."""
    scalars, index = model.scalars, model.word_index
    v = scalars.v_power(1)
    gap = v - scalars.v_power(-1)
    cols = {}
    for j, word in enumerate(model.words):
        a, b = word[p - 1], word[p]
        if a == b:
            cols[j] = {j: v}
            continue
        col = cols[j] = {index[word[:p - 1] + (b, a) + word[p + 1:]]: scalars.one}
        if a > b and gap:
            col[j] = gap
    return SparseOperator(cols)


def _constant_by_weight(model, gen):
    """Whether ``gen`` is diagonal with one value on each weight space."""
    zero, value = model.scalars.zero, {}
    for j, mu in enumerate(model.weights):
        col = gen.cols.get(j, {})
        s = col.get(j, zero)
        if col.keys() - {j} or value.setdefault(mu, s) != s:
            return False
    return True


def _keeps_weight(model, t):
    """Whether every entry of ``t`` maps a word to one of its weight."""
    weights = model.weights
    return all(weights[i] == weights[j] for j, col in t.cols.items() for i in col)


def _flat_columns(model, op):
    """``op``'s columns as flat vectors (see ``ring``), {column: {row +
    N * e: c}}, kept on the operator; classically ``op.cols`` itself."""
    if model.mode == "classical":
        return op.cols
    if op.flat is None:
        op.flat = {j: model.scalars.to_flat(col, model.num_words) for j, col in op.cols.items()}
    return op.flat


class _FlatOperator(SparseOperator):
    """A quantum operator given by its flat columns, which it keeps as
    ``flat``: its LaurentPoly ``cols`` are read back from them the first
    time they are read, and never if only :func:`_flat_columns` is."""

    __slots__ = ("_cols", "_size")

    def __init__(self, flat, size):
        self.flat, self._size, self._cols = flat, size, None

    @property
    def cols(self):
        if self._cols is None:
            from_flat, size = QUANTUM_SCALARS.from_flat, self._size
            self._cols = {j: from_flat(col, size) for j, col in self.flat.items()}
        return self._cols


def _flat_operator(model, flat):
    """The operator whose :func:`_flat_columns` are ``flat``: classically
    the operator on them, quantumly a :class:`_FlatOperator`."""
    if model.mode == "classical":
        return SparseOperator(flat)
    return _FlatOperator(flat, model.num_words)


def _term_columns(model, op):
    """``op`` as {column: [(row, N * e, c), ...]}, one triple per term
    c v^e of an entry, with N = n^d; classically e = 0.  A sum of
    row + N * e keys (row, e) injectively, since 0 <= row < N."""
    size = model.num_words
    if model.mode == "classical":
        return {j: [(i, 0, s) for i, s in col.items()] for j, col in op.cols.items()}
    return {j: [(i, size * e, c) for i, s in col.items() for e, c in s.coeffs.items()]
            for j, col in op.cols.items()}


def _commutes(model, g, t):
    """Whether g t = t g for operators in :func:`_term_columns` form,
    column by column: each column of the difference is accumulated over
    (row, exponent of v) keys, so no operator product is formed and,
    quantumly, no LaurentPoly."""
    for j in range(model.num_words):
        acc = {}
        for mid, x, b in t.get(j, ()):
            for i, y, c in g.get(mid, ()):
                key = i + x + y
                acc[key] = acc.get(key, 0) + c * b
        for mid, x, b in g.get(j, ()):
            for i, y, c in t.get(mid, ()):
                key = i + x + y
                acc[key] = acc.get(key, 0) - c * b
        if any(acc.values()):
            return False
    return True


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


def certify_hecke_commutation(model):
    """Check exactly that every generator of the model commutes with
    T_1, ..., T_{d-1}; raise CertificateError otherwise.

    A generator that is diagonal with one value on each weight space
    commutes with every T_p that keeps weight: the first fact is checked
    once per generator, the second once per T_p.  Every other pair is
    compared column by column (:func:`_commutes`).  The check runs once per model and its success
    is kept on the model.  Every operator the package builds is a
    polynomial in the generators, so it commutes with H_d too, and is
    fixed by its images of the ordered words (see the module docstring).
    """
    if model._hecke_certified:
        return
    gens = model._generators
    by_weight = {key for key, gen in gens.items() if _constant_by_weight(model, gen)}
    terms = {}
    for p in range(1, model.d):
        t = hecke_generator(model, p)
        skip = by_weight if _keeps_weight(model, t) else ()
        t = _term_columns(model, t)
        for (sym, i), gen in gens.items():
            if (sym, i) in skip:
                continue
            if (sym, i) not in terms:
                terms[sym, i] = _term_columns(model, gen)
            if not _commutes(model, terms[sym, i], t):
                raise CertificateError(
                    f"{sym}_{i} does not commute with T_{p} at (n, d) = "
                    f"({model.n}, {model.d}) in {model.mode} mode"
                )
    model._hecke_certified = True
