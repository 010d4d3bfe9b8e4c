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
exact; no floats appear anywhere.
"""

from dataclasses import dataclass, field
from itertools import product

from .errors import BadWeight, SizeLimit
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
    "compositions",
    "word_weight",
    "split_by_source",
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

    __slots__ = ("cols",)

    def __init__(self, cols=None):
        self.cols = cols or {}

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


def split_by_source(model, op):
    """The columns of ``op`` grouped by source weight, {src: {j: column}};
    sources in order of their first column.  A block-pinned operator
    1_dst b 1_src has the one source src."""
    out = {}
    weights = model.weights
    for j, col in op.cols.items():
        out.setdefault(weights[j], {})[j] = col
    return out


@dataclass
class Model:
    """Immutable tensor model for parameters (n, d) in one scalar mode."""

    n: int
    d: int
    mode: str
    words: tuple
    word_index: dict
    weights: tuple
    root_data: RootData
    scalars: object
    spec_points: tuple
    _generators: dict = field(default_factory=dict, repr=False)
    _op_cache: dict = field(default_factory=dict, repr=False)
    _block_index: dict = field(default_factory=dict, repr=False)

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

    def weight_set(self):
        return compositions(self.n, self.d)


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
    exceeding it raises SizeLimit rather than thrashing memory.
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
        from fractions import Fraction

        spec_points = (Fraction(7, 5), Fraction(11, 7))
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
        spec_points=tuple(spec_points),
    )
    model._generators.update(_build_generators(model))
    return model


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
    if len(lam) != model.n or any(part < 0 for part in lam):
        raise BadWeight(f"{lam} is not a weight for n = {model.n}")
    if sum(lam) != model.d:
        raise BadWeight(f"{lam} does not sum to d = {model.d}")


def cartan_binomial(model, k, m):
    """Binomial of a Cartan generator as an operator.

    Classical: binom(H_k, m) = H_k (H_k - 1) ... (H_k - m + 1) / m!.
    Quantum: the Gaussian analogue
    prod_{s=1..m} (K_k v^{1-s} - K_k^{-1} v^{s-1}) / (v^s - v^{-s}).
    Both are evaluated as genuine operator products whose entries are
    then divided exactly by the scalar denominator.
    """
    key = ("cartan_binomial", k, m)
    if key in model._op_cache:
        return model._op_cache[key]
    if m < 0:
        raise ValueError("need m >= 0")
    ring = model.scalars
    ident = model.identity()
    acc, den = ident, ring.one
    for s in range(1, m + 1):
        if model.mode == "classical":
            factor = generator_action(model, "H", k) - ident.scale(s - 1)
            den = den * s
        else:
            factor = (generator_action(model, "K", k).scale(ring.v_power(1 - s))
                      - generator_action(model, "K^-1", k).scale(ring.v_power(s - 1)))
            den = den * (ring.v_power(s) - ring.v_power(-s))
        acc = acc @ factor
    out = model.divide(acc, den)
    model._op_cache[key] = out
    return out


def weight_idempotent(model, lam):
    """The weight idempotent for a composition lam of d.

    Computed from the Cartan binomial product formula (not built
    directly as a projector; the projector description is what the
    tests compare against).
    """
    lam = tuple(lam)
    _check_weight(model, lam)
    key = ("weight_idempotent", lam)
    if key in model._op_cache:
        return model._op_cache[key]
    out = model.identity()
    for k in range(1, model.n + 1):
        if lam[k - 1]:
            out = out @ cartan_binomial(model, k, lam[k - 1])
    model._op_cache[key] = out
    return out
