"""Root vectors, divided powers, and basis-label evaluation.

A positive root of gl_n is a pair (i, j) with i < j.  The plus root
vector for (i, j) acts like the matrix unit E_{ij}, the minus one like
E_{ji}.  The simple ones are the generators and the rest are defined
by the commutator-style recursion

    E_{ij} = E_{i,j-1} E_{j-1,j} - v^{-1} E_{j-1,j} E_{i,j-1}
    F_{ij} = F_{j-1,j} F_{i,j-1} - v      F_{i,j-1} F_{j-1,j}

for j > i + 1, in both modes.  Classically v = 1 and this is the Lie
bracket [E_{i,j-1}, E_{j-1,j}] = E_{ij} of gl_n, so the root vectors
act by the Leibniz rule of the matrix units.  The recursion forms no
operator product: it runs on flat columns (see ``ring``), column by
column, each product one application of a factor's flat columns to
one flat column, and v^-1 a shift of the keys (:func:`root_vector`).
A column is built when it is first read, from the factors' columns it
needs, and kept; a root vector's LaurentPoly entries are read back
from all its flat columns only when a reader of the operator asks for
them.  A divided power is the m-th operator power divided by m!
(classical) or [m]! (quantum); a root vector's cached divided powers
step x^(m) = x^(m-1) x / [m] instead.  Every division must be exact
entrywise and raises NotDivisible otherwise, which is how a missing
twist in the recursion surfaces.  The mirrored twist, v for v^-1,
gives the other integral root vector E_{i,j-1} E_{j-1,j} - v
E_{j-1,j} E_{i,j-1}, which no division sees.

A basis label is a flavor with multi-index exponents, and every flavor
but PBW is a shape: e_A 1_lam f_C for B1, f_A 1_lam e_C for B2, and
one or two of these three parts for the others.  ``SHAPES`` gives each
flavor's parts once; evaluation, the text key, the JSON form,
enumeration and the weight block of a label are all read from it.
Multi-index tuples are always aligned with RootData.positive_roots
(lexicographic (i, j) order).

A label's 1_lam is applied once, as a restriction to its source
weight.  The idempotent relations e_i 1_mu = 1_(mu + alpha_i) e_i and
f_i 1_mu = 1_(mu - alpha_i) f_i move 1_lam right past every part that
acts before it, so e_A 1_lam f_C = e_A f_C 1_src for the source weight
src of the label (:func:`_label_block`), and likewise for B2 and the
Borel flavors.  Its parts then act on a vector of weight src with
nothing filtered on the way.

A label that pins a weight block (src, dst) is also one vector: its
image of the ordered word u_src (:func:`label_image`), found by acting
with its parts right to left on that one word.  The label's operator b
is a product of generators and weight idempotents, so once
:func:`~schuralg.tensormodel.certify_hecke_commutation` has passed, b
commutes with H_d; and b = b 1_src.  The words of weight src are
T_w u_src, so b is zero exactly when b u_src is, and b -> b u_src is
injective on the operators of one source weight.  An identity between
the images of such operators at u_src, for example an expansion
b_l b_r u_src = sum_u x_u b_u u_src, is therefore the identity between
the operators themselves, proved.

A label is also its images of every ordered word u_lam
(:func:`label_columns`, one :func:`apply_label` each; a pinned label's
restriction leaves one, at u_src, the only word it is applied at).  Its operator commutes with H_d, and
b 1_lam is zero exactly when b u_lam is, so these images fix b; ranks
and products of labels that pin no block (PBW, PLUS, MINUS) read them.

Images are built on flat integer vectors {row + n^d * e: c} (see
``ring``), each root vector applied through its flat columns, and
become {row: scalar} vectors, LaurentPoly quantumly, only where a
reader needs scalars.  A Kostant monomial x_A acts by a recurrence:
with r the first root with a_r > 0, x_r^(a) = x_r x_r^(a-1) / [a]
gives x_A p = x_r (x_(A - eps_r) p) / [a_r], one application and one
exact division by [a_r], or a_r, per step, from the image one root
step shorter (:func:`_prefix_image`), which is the image of another
label of the same source weight.  :func:`block_images` is the one walk
that builds the images of labels that pin a block, for every rank,
product and corner: it checks the certificate once, builds u_src once
per source weight, and keeps the images on the way in one memo per
source weight, dropped when the next starts.  No command builds a
one-label image; :func:`label_image`, the walk of one label, is the
reference that tests check.  No vector is kept on the model.  A lam is
a weight by construction in a basis grouped as it is enumerated
(``bases.enumerate_blocks``, whose every lam comes from
``compositions``); it is checked where a family handed in is grouped
(``bases.block_index``), and by :func:`label_image` and
:func:`apply_label` for one label.  A
label's operator (:func:`eval_label`), for tests and benchmarks, is the
product of its factors by ``tensormodel.compose``, recomputed on each
call: the model caches root vectors, their divided powers and Cartan
diagonals, all bounded by (n, d), and no label operator.
"""

from dataclasses import dataclass
from functools import lru_cache
from operator import add, sub

from .tensormodel import (
    RootData,
    _apply_flat,
    _check_weight,
    _flat_columns,
    _FlatOperator,
    certify_hecke_commutation,
    compose,
    generator_action,
    ordered_word,
    weight_idempotent,
)

__all__ = [
    "BasisLabel",
    "KINDS",
    "SHAPES",
    "root_vector",
    "divided_power",
    "root_divided_power",
    "eval_label",
    "block_images",
    "label_image",
    "label_columns",
    "apply_label",
    "root_sum",
    "pbw_generator_list",
    "label_to_json",
    "label_from_json",
    "label_key",
]


# Every flavor but PBW is a shape: its parts left to right, each the
# Kostant monomial of an (exponent field, sign) pair of the label or,
# written None, the weight idempotent 1_lam.  PBW labels are ordered
# monomials over pbw_generator_list instead.
SHAPES = {
    "B1": (("A", "plus"), None, ("C", "minus")),
    "B2": (("A", "minus"), None, ("C", "plus")),
    "PBW": None,
    "PLUS": (("A", "plus"),),
    "MINUS": (("A", "minus"),),
    "BOREL_UP": (("A", "plus"), None),
    "BOREL_DOWN": (None, ("A", "minus")),
    "ZERO": (None,),
}
KINDS = tuple(SHAPES)
_LETTERS = {"plus": "e", "minus": "f"}


def _shape(flavor):
    """The shape of a flavor, None for PBW."""
    if flavor not in SHAPES:
        raise ValueError(f"unknown flavor {flavor!r}")
    return SHAPES[flavor]


@dataclass(frozen=True, slots=True)
class BasisLabel:
    """One basis element, described combinatorially.

    ``A`` and ``C`` are exponent tuples over the positive roots in
    lexicographic order; ``lam`` is a weight when the flavor uses an
    idempotent; PBW labels instead carry an exponent tuple over the
    ordered generator list for the chosen k0.
    """

    flavor: str
    A: tuple = ()
    lam: tuple | None = None
    C: tuple = ()
    pbw: tuple | None = None
    k0: int | None = None


def root_vector(model, root, sign):
    """The root vector operator for a positive root (i, j) and a sign,
    "plus" or "minus", cached on the model.

    A simple root vector is its generator.  Any other is built on flat
    columns from those of its two factors in the recursion of the module
    docstring, one column at a time when it is first read
    (:func:`_commutator_column`, kept on the operator's
    :class:`~schuralg.tensormodel._FlatOperator`): the image path reads
    few of them.  A reader of the operator's ``cols`` gets all of them,
    built once, and LaurentPoly quantumly.
    """
    i, j = root
    if not (1 <= i < j <= model.n):
        raise ValueError(f"{root} is not a positive root for n = {model.n}")
    if sign not in ("plus", "minus"):
        raise ValueError("sign must be 'plus' or 'minus'")
    key = ("root_vector", root, sign)
    if key in model._op_cache:
        return model._op_cache[key]
    if j == i + 1:
        names = model.names
        out = generator_action(model, names.plus if sign == "plus" else names.minus, i)
    else:
        upper, step = (_flat_columns(model, root_vector(model, r, sign))
                       for r in ((i, j - 1), (j - 1, j)))
        # v^e is a shift of the flat keys by N * e; classically v = 1.
        size = model.num_words
        shift = size if model.mode == "quantum" else 0
        a, b, shift = (upper, step, -shift) if sign == "plus" else (step, upper, shift)
        out = _FlatOperator(model, lambda c: _commutator_column(a, b, shift, size, c))
    model._op_cache[key] = out
    return out


def _commutator_column(a, b, shift, size, c):
    """Column c of a b - v^e b a, from the flat columns of a and b, with
    N = ``size`` and shift = N * e: a applied to b's column c, less b
    applied to a's column c with its keys moved by ``shift``, each
    accumulated as :func:`_apply_flat` applies; it reads a's columns at
    the words of b's column c and b's at those of a's.  E_ij is
    (E_(i,j-1), E_(j-1,j), -N), F_ij is (F_(j-1,j), F_(i,j-1), N), and
    classically the shift is 0."""
    col = {}
    for key, x in (b.get(c) or {}).items():
        mid = key % size
        acol = a.get(mid)
        if acol:
            moved = key - mid
            for k, y in acol.items():
                k += moved
                col[k] = col.get(k, 0) + y * x
    for key, x in (a.get(c) or {}).items():
        mid = key % size
        bcol = b.get(mid)
        if bcol:
            moved = key - mid + shift
            for k, y in bcol.items():
                k += moved
                col[k] = col.get(k, 0) - y * x
    return {k: x for k, x in col.items() if x}


def divided_power(model, op, m):
    """op^m divided exactly by m! (classical) or [m]! (quantum)."""
    if m < 0:
        raise ValueError("need m >= 0")
    if m == 0:
        return model.identity()
    if m == 1:
        return op
    return model.divide(op**m, model.scalars.factorial(m))


def root_divided_power(model, root, sign, m):
    """Cached m-th divided power x^(m) of the root vector x for (root,
    sign): for m >= 2, x^(m) = x^(m-1) x / [m] (m classically), from the
    cached x^(m-1).  Each step divides exactly, or raises NotDivisible,
    so the result is x^m / [m]!."""
    key = ("divided", root, sign, m)
    if key not in model._op_cache:
        x = root_vector(model, root, sign)
        if m < 2:
            out = divided_power(model, x, m)
        else:
            out = model.divide(root_divided_power(model, root, sign, m - 1) @ x,
                               model.scalars.integer(m))
        model._op_cache[key] = out
    return model._op_cache[key]


def pbw_generator_list(model, k0):
    """The ordered generator operators for truncated PBW monomials.

    Minus root vectors first (lexicographic), then the Cartan
    generators with index != k0 in ascending order, then plus root
    vectors (lexicographic).
    """
    if not (1 <= k0 <= model.n):
        raise ValueError(f"k0 must be in 1..{model.n}")
    roots = model.root_data.positive_roots
    cartan = model.names.cartan
    return ([root_vector(model, root, "minus") for root in roots]
            + [generator_action(model, cartan, k) for k in range(1, model.n + 1) if k != k0]
            + [root_vector(model, root, "plus") for root in roots])


def _pbw_powers(model, label):
    """A PBW label's (generator, exponent) pairs, left to right."""
    if label.pbw is None or label.k0 is None:
        raise ValueError("PBW label needs exponents and k0")
    gens = pbw_generator_list(model, label.k0)
    if len(label.pbw) != len(gens):
        raise ValueError("PBW exponent tuple has the wrong length")
    return list(zip(gens, label.pbw))


def eval_label(model, label):
    """A basis label's operator on the model, the reference that tests
    and benchmarks check images against: the product of its parts, left
    to right (:func:`~schuralg.tensormodel.compose`), a Kostant monomial
    as its nonzero divided root-vector powers in lexicographic root
    order.  It is recomputed on each call; the model caches only the
    factors."""
    shape = _shape(label.flavor)
    if shape is None:
        return compose(model, [gen**m for gen, m in _pbw_powers(model, label) if m])
    roots = model.root_data.positive_roots
    factors = []
    for part in shape:
        if part is None:
            factors.append(weight_idempotent(model, label.lam))
            continue
        exponents = getattr(label, part[0])
        if len(exponents) != len(roots):
            raise ValueError(f"multi-index {exponents} should have length {len(roots)}")
        factors += [root_divided_power(model, root, part[1], m)
                    for root, m in zip(roots, exponents) if m]
    return compose(model, factors)


def root_sum(root_data, exponents):
    """Weight shift sum of m * (eps_i - eps_j) of a root monomial."""
    out = [0] * root_data.n
    for (i, j), m in zip(root_data.positive_roots, exponents):
        out[i - 1] += m
        out[j - 1] -= m
    return tuple(out)


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
    label moves no one weight: (None, None).  A multi-index of the
    shape that is not over the positive roots raises ValueError.
    """
    shape = _shape(label.flavor)
    if shape is None:
        return None, None
    n, size = root_data.n, len(root_data.positive_roots)
    shift, pinned = (0,) * n, None
    for part in reversed(shape):  # right to left, as the operator acts
        if part is None:
            pinned = shift
        else:
            exponents = getattr(label, part[0])
            if len(exponents) != size:
                raise ValueError(f"multi-index {exponents} should have length {size}")
            shift = tuple(map(add, shift, _signed_shift(n, exponents, part[1])))
    if pinned is None:
        return shift, None
    src = tuple(map(sub, label.lam, pinned))
    return shift, (src, tuple(map(add, src, shift)))


def _prefix_image(model, exponents, sign, vec, images):
    """A Kostant monomial x_A applied to a flat vector p, by the
    recurrence x_A p = x_r (x_(A - eps_r) p) / [a_r] for r the first
    root with a_r > 0 (x_r^(a) = x_r x_r^(a-1) / [a]): one application
    and one exact division by [a_r], or a_r, per image, or NotDivisible.
    ``images`` holds the images x_B p of p already built, keyed by B,
    and receives those built on the way."""
    if not vec or not any(exponents):
        return vec
    image = images.get(exponents)
    if image is None:
        r = next(t for t, m in enumerate(exponents) if m)
        m = exponents[r]
        prefix = _prefix_image(model, exponents[:r] + (m - 1,) + exponents[r + 1:],
                               sign, vec, images)
        size = model.num_words
        cols = _flat_columns(model, root_vector(model, model.root_data.positive_roots[r], sign))
        image = images[exponents] = model.scalars.divide_integer(
            _apply_flat(cols, prefix, size), m, size)
    return image


def _act(model, label, vec, memo, key=None):
    """The parts of a label's shape (``SHAPES``), right to left, applied
    to a flat vector that its 1_lam keeps whole: the caller has
    restricted the vector to the label's source weight, and the part
    None is passed over.  Each monomial goes by :func:`_prefix_image`,
    its images kept in the dict ``memo`` under (key, sign), for ``key``
    naming the vector it acts on.  The caller has checked the length of
    each multi-index (:func:`_label_block`)."""
    for name, sign in filter(None, reversed(SHAPES[label.flavor])):
        exponents = getattr(label, name)
        key = (key, sign)
        vec = _prefix_image(model, exponents, sign, vec, memo.setdefault(key, {}))
        key += (exponents,)
    return vec


def apply_label(model, label, vec):
    """A label's operator applied to a vector {word index: scalar},
    without building the operator, on the flat form of the vector.

    A label that has a 1_lam is b = b 1_src for its source weight src
    (:func:`_label_block`), so its input is first restricted to the
    words of weight src and its parts then act right to left.  A PBW
    label's generator powers, and a PLUS or MINUS label's parts, act on
    the whole vector."""
    scalars, size = model.scalars, model.num_words
    vec = scalars.to_flat(vec, size)
    shape = _shape(label.flavor)
    if shape is None:
        for gen, m in reversed(_pbw_powers(model, label)):
            for _ in range(m):
                vec = _apply_flat(_flat_columns(model, gen), vec, size)
    else:
        _, block = _label_block(label, model.root_data)
        if block is not None:
            _check_weight(model, label.lam)
            weights = model.weights
            vec = {k: c for k, c in vec.items() if weights[k % size] == block[0]}
        vec = _act(model, label, vec, {})
    return scalars.from_flat(vec, size)


def block_images(model, groups):
    """The flat images of u_src of labels grouped ``{src: {dst:
    [labels]}}`` as ``bases.enumerate_blocks`` and ``bases.block_index``
    give them, with every lam a weight: ((src, dst), images in label
    order) for each block, source weight by source weight.  This is the
    one walk that builds images.

    The certificate is checked once, when the walk starts, and u_src is
    built once per source weight (one with a negative entry has no word,
    and its images are empty).  Each label's parts act on u_src
    (:func:`_act`), sharing prefixes (f_C u_src serves every e_A of B1)
    through one memo per source weight, dropped when the next starts."""
    certify_hecke_commutation(model)
    for src, blocks in groups.items():
        memo = {}
        start = {model.word_index[ordered_word(src)]: 1} if min(src) >= 0 else {}
        for dst, labels in blocks.items():
            yield (src, dst), [_act(model, label, start, memo, src) for label in labels]


def label_image(model, label):
    """The image of the ordered word u_src under a label that pins the
    weight block (src, dst), as a vector {word index: scalar}.

    The label's operator is fixed by this one vector (see the module
    docstring).  It is :func:`block_images` for the one label, after its
    lam is checked to be a weight: the reference that tests check, as no
    command builds a one-label image.
    """
    _, block = _label_block(label, model.root_data)
    if block is None:
        raise ValueError(f"a {label.flavor} label pins no weight block")
    _check_weight(model, label.lam)
    src, dst = block
    [(_, [image])] = block_images(model, {src: {dst: [label]}})
    return model.scalars.from_flat(image, model.num_words)


def label_columns(model, label):
    """A label's nonzero columns at the ordered words, as {index of
    u_lam: image}, after the Hecke-commutation certificate: one path,
    :func:`apply_label` at u_lam.  They fix the operator (see the module
    docstring).  A PBW, PLUS or MINUS label is applied at every u_lam.
    A label that pins a block (src, dst) is restricted to src, so it is
    applied at u_src alone, and at no word when src is not a weight
    (its lam is checked all the same); a family of such labels is read
    from a :func:`block_images` walk instead."""
    certify_hecke_commutation(model)
    _, block = _label_block(label, model.root_data)
    if block is not None:
        _check_weight(model, label.lam)
    out = {}
    for lam in [w for w in model.weight_set if block is None or w == block[0]]:
        j = model.word_index[ordered_word(lam)]
        image = apply_label(model, label, {j: model.scalars.one})
        if image:
            out[j] = image
    return out


def _multi_index_to_json(roots, exponents):
    return {f"{i}-{j}": m for (i, j), m in zip(roots, exponents) if m}


def _multi_index_from_json(roots, mapping):
    lookup = {f"{i}-{j}": idx for idx, (i, j) in enumerate(roots)}
    out = [0] * len(roots)
    for key, m in (mapping or {}).items():
        if key not in lookup:
            raise ValueError(f"unknown root key {key!r}")
        out[lookup[key]] = int(m)
    return tuple(out)


def label_to_json(label, root_data):
    """JSON-ready dict form of a label, roots keyed as "i-j"."""
    out = {"flavor": label.flavor}
    shape = _shape(label.flavor)
    if shape is None:
        out["pbw"] = list(label.pbw)
        out["k0"] = label.k0
        return out
    for name, _ in filter(None, shape):
        out[name] = _multi_index_to_json(root_data.positive_roots, getattr(label, name))
    if None in shape:
        out["lambda"] = list(label.lam)
    return out


def label_from_json(data, root_data):
    roots = root_data.positive_roots
    flavor = data["flavor"]
    shape = _shape(flavor)
    if shape is None:
        return BasisLabel(flavor="PBW", pbw=tuple(data["pbw"]), k0=int(data["k0"]))
    fields = dict.fromkeys(("A", "C"), (0,) * len(roots))
    for name, _ in filter(None, shape):
        fields[name] = _multi_index_from_json(roots, data.get(name))
    lam = tuple(data["lambda"]) if None in shape else None
    return BasisLabel(flavor=flavor, lam=lam, **fields)


def _multi_index_str(roots, exponents):
    parts = [f"{i}-{j}:{m}" for (i, j), m in zip(roots, exponents) if m]
    return "{" + ",".join(parts) + "}"


def label_key(label, root_data):
    """Canonical compact name for a label, used as a table key."""
    shape = _shape(label.flavor)
    if shape is None:
        return f"pbw[k0={label.k0};" + ",".join(str(m) for m in label.pbw) + "]"
    lam = "(" + ",".join(str(x) for x in label.lam) + ")" if label.lam else ""
    return " ".join(
        f"1{lam}" if part is None
        else _LETTERS[part[1]]
        + _multi_index_str(root_data.positive_roots, getattr(label, part[0]))
        for part in shape
    )
