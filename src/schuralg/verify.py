"""Exact identity checks for the realized algebra.

Every check reports one entry per relation family: the defining
relations of the generator algebra, the extra degree-d relations, the
idempotent presentation, divided-power reduction formulas, the
two-generator presentation available when n = 2, structural facts
(nilpotency degrees, vanishing Cartan products, triangular
decompositions), and the agreement of quantum basis operators with
their classical counterparts at v = 1.

All comparisons are exact;  there are no tolerances anywhere.  A check
whose quantified range is empty is reported as *vacuous*, never as a
silent pass.

Every check compares certified images of the ordered words u_lam.  Once
the model's Hecke-commutation certificate holds, an element x built
from generators commutes with H_d, and the words of weight lam are the
T_w u_lam, so x is zero exactly when x u_lam is zero for every weight
lam (``tensormodel``); T_w is invertible, so this holds at each point
of v too, v = 1 included.  A relation is a sum of products of factors,
applied right to left to each u_lam as a flat vector (see ``ring``),
and it holds when every image vanishes (:class:`_Images`, which checks
the certificate first).

An instance in idempotent form is evaluated at the ordered word of its
source weight alone: the S2 instances, S3 split per lam, and the
idempotent reduction families.  Each of its terms is x 1_mu y, with y
moving weights by a fixed shift, so it is x 1_mu y 1_src for the one
source weight src with src + shift = mu, and it kills u_lam for every
other lam.  That the generators move a weight space by their root, so
that y does, holds by construction, the fact that ``rootvectors`` uses
to apply a label's 1_lam as a restriction of its input; and the S2
instances e_i 1_lam = 1_(lam + alpha_i) e_i and
f_i 1_lam = 1_(lam - alpha_i) f_i, checked at their sources lam, prove
it for each model, since with the certificate a generator's image of
u_lam fixes its image of the whole weight space: a generator that
moved u_lam elsewhere fails there.  So the other u_lam give 0, and an
instance whose source is not a weight (an entry below 0) holds at no
word.  Instances without an idempotent, the classical-H family,
S1, the resolution of identity and the enveloping, Schur, rank-one and
structural checks, are evaluated at every u_lam.

Generators, root vectors and Cartan products act through their flat
columns and divided powers by the recurrence of
``rootvectors``, so no operator product is formed; a product such as
prod_t (K - v^t) is applied one factor at a time.  A Cartan product of
degree above d acts on each weight space by a scalar, which is read
off the weights.  The triangular check ranks the weight blocks of the
bases B1 and B2 on these images (see :func:`_triangular_items`), and
the rank-one check its truncated monomials on their ordered-word rows.

Each check takes the models it reads: one model, or for the v = 1
comparison and the rank-one presentation a classical and a quantum
model of one (n, d).  :func:`suite_reports` is the one place that
builds models, one per mode that its suites need, with the word cap
and the spec points, and it checks each model's certificate before
any suite runs.  Each report times itself (:class:`CheckReport`).
"""

import time
from dataclasses import dataclass, field
from functools import partial
from itertools import permutations
from math import comb

from .bases import (
    _block_labels,
    _specialized_row,
    block_dimension,
    enumerate_block_parts,
    parts_ranks,
    rank_of_family,
)
from .errors import CertificateError, HypothesisError
from .ring import LaurentPoly
from .rootvectors import SHAPES, _Walker, parts_images, root_vector
from .tensormodel import (
    _apply_flat,
    _cartan_values,
    _flat_columns,
    build_model,
    cartan_binomial,
    certify_hecke_commutation,
    compositions,
    generator_action,
    ordered_word,
    ordered_word_row,
    weight_idempotent,
)

__all__ = [
    "CheckItem",
    "CheckReport",
    "SUITES",
    "check_enveloping_relations",
    "check_schur_relations",
    "check_idempotent_presentation",
    "check_reduction_formulas",
    "check_rank_one_presentation",
    "check_structural_facts",
    "check_specialization",
    "suite_reports",
]

SUITES = (
    "all",
    "relations",
    "idempotent",
    "reduction",
    "structural",
    "specialize",
    "rank1",
)

REDUCTION_FAMILIES = ("classical-H", "classical-idempotent", "quantum-idempotent")


@dataclass(frozen=True)
class CheckItem:
    """One verified identity family: id, outcome, and context."""

    id: str
    ok: bool
    vacuous: bool = False
    detail: str = ""


@dataclass
class CheckReport:
    """Outcome of one check: items, free-form notes, and wall time.

    The report passes exactly when every item passes.  ``seconds`` is
    the wall time from the report's creation to its last item, added by
    :meth:`add` or :meth:`append`: 0.0 before the first item, and not
    moved by notes.  A check creates its report before its work, so
    this times the check.  Wall time is shown in the text rendering
    only; the JSON form is fully deterministic.
    """

    name: str
    n: int
    d: int
    mode: str
    items: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    seconds: float = 0.0
    _start: float = field(default_factory=time.perf_counter, init=False, repr=False)

    @property
    def passed(self):
        return all(item.ok for item in self.items)

    def add(self, item_id, ok, vacuous=False, detail=""):
        self.items.append(CheckItem(item_id, bool(ok), vacuous, detail))
        self.seconds = time.perf_counter() - self._start

    def append(self, item):
        self.items.append(item)
        self.seconds = time.perf_counter() - self._start

    def failures(self):
        return [item for item in self.items if not item.ok]

    def to_json(self):
        return {
            "name": self.name,
            "n": self.n,
            "d": self.d,
            "mode": self.mode,
            "pass": self.passed,
            "items": [
                {
                    "id": item.id,
                    "ok": item.ok,
                    "vacuous": item.vacuous,
                    "detail": item.detail,
                }
                for item in self.items
            ],
            "notes": list(self.notes),
        }

    def render_text(self):
        lines = [
            f"check {self.name} (n={self.n}, d={self.d}, mode={self.mode}): "
            f"{'PASS' if self.passed else 'FAIL'} [{self.seconds:.3f}s]"
        ]
        for item in self.items:
            flag = "ok" if item.ok else "FAIL"
            if item.vacuous:
                flag += ", vacuous"
            line = f"  [{flag}] {item.id}"
            if item.detail:
                line += f" ({item.detail})"
            lines.append(line)
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)


class _Agg:
    """Aggregates many instances of one identity into a single item."""

    def __init__(self):
        self.count = 0
        self.first_failure = None

    def check(self, ok, where=""):
        self.count += 1
        if not ok and self.first_failure is None:
            self.first_failure = where

    def item(self, item_id, empty_detail="empty range"):
        if self.count == 0:
            return CheckItem(item_id, True, vacuous=True, detail=empty_detail)
        if self.first_failure is not None:
            return CheckItem(
                item_id, False, detail=f"failed at {self.first_failure}"
            )
        return CheckItem(item_id, True, detail=f"{self.count} instance(s)")


# v - v^-1: Q2 and the rank-one relation EF - FE = (K - K^-1)/(v - v^-1)
# are checked multiplied through by it, so that no fraction appears.
_V_MINUS_INVERSE = LaurentPoly({1: 1, -1: -1})


def _apply_sum(model, terms, vec):
    """The flat vector sum c x_1 ... x_k vec over the ``terms`` (c, x_1,
    ..., x_k), each x a map of flat vectors, applied right to left, and
    c an integer or a Laurent polynomial.  A term c_e v^e of c moves the
    keys of the image by N * e, N = n^d, and keys that meet add up."""
    size, out = model.num_words, {}
    for c, *factors in terms:
        image = vec
        for x in reversed(factors):
            if image:
                image = x(image)
        coeffs = c.coeffs if isinstance(c, LaurentPoly) else {0: c}
        for key, b in image.items():
            for e, a in coeffs.items():
                k = key + size * e
                out[k] = out.get(k, 0) + a * b
    return {k: b for k, b in out.items() if b}


class _Images:
    """The images of the ordered words u_lam of one model, one flat
    vector per weight in the order of ``weight_set``, under sums of
    products of maps of flat vectors (:func:`_apply_sum`).

    Creating one checks the model's Hecke-commutation certificate, so
    an element built from generators stands for its images (see the
    module docstring): it is zero exactly when they all are, and two
    such elements are equal exactly when their difference is.
    """

    def __init__(self, model):
        certify_hecke_commutation(model)
        self.model = model
        self.words = [model.word_index[ordered_word(lam)] for lam in model.weight_set]
        self._word = {lam: [j] for lam, j in zip(model.weight_set, self.words)}
        self._powers, self._walkers = {}, {}

    def acting(self, op):
        """``op`` as a map of flat vectors, through its flat columns."""
        return partial(_apply_flat, _flat_columns(self.model, op), size=self.model.num_words)

    def divided(self, root, sign, m):
        """The divided power x^(m) of the root vector x for (root, sign)
        as a map of flat vectors, by the recurrence of
        ``rootvectors._Walker``: x^(m) p = x x^(m-1) p / [m].  The
        images of each vector p are kept, by sign, for as long as this
        object lives, so the powers of one root vector at p share them,
        and so is the recurrence of each sign."""
        model, powers = self.model, self._powers
        parts = (tuple(m if r == root else 0 for r in model.root_data.positive_roots),)
        image = self._walkers.get(sign)
        if image is None:
            image = self._walkers[sign] = _Walker(model, (("A", sign),)).image

        def power(vec):
            return image(powers.setdefault((sign, frozenset(vec.items())), {(): vec}), parts)
        return power

    def sum(self, *terms):
        """The map sum c x_1 ... x_k of flat vectors (:func:`_apply_sum`)."""
        return partial(_apply_sum, self.model, terms)

    def of(self, *terms, at=None):
        """The images of sum c x_1 ... x_k, one per weight; for an instance
        with source weight ``at``, the image of u_at alone, and none when
        ``at`` is not a weight (see the module docstring)."""
        words = self.words if at is None else self._word.get(at, [])
        return [_apply_sum(self.model, terms, {j: 1}) for j in words]

    def vanish(self, *terms, at=None):
        """Whether sum c x_1 ... x_k is zero: all its images are, or, for an
        instance with source weight ``at``, its image of u_at is."""
        return not any(self.of(*terms, at=at))

    def row(self, images):
        """The ordered-word row (``tensormodel.ordered_word_row``) of an
        element with these images."""
        model = self.model
        from_flat, size = model.scalars.from_flat, model.num_words
        return ordered_word_row(model, {j: from_flat(image, size)
                                        for j, image in zip(self.words, images)})


def _shifted(lam, step, k):
    """The weight lam + k step, outside the weight set when an entry is
    negative (``step`` sums to 0)."""
    return tuple(x + k * y for x, y in zip(lam, step))


def _shifted_idempotent(u, lam, step, k):
    """The weight idempotent of lam + k step as a map of flat vectors,
    or the zero map, the empty sum, when that leaves the weight set."""
    lam = _shifted(lam, step, k)
    if min(lam) < 0:
        return u.sum()
    return u.acting(weight_idempotent(u.model, lam))


def _idempotent_products(idem, images):
    """{(lam, mu): whether 1_lam 1_mu = delta_(lam, mu) 1_lam}, for the
    maps ``idem`` {lam: 1_lam} and ``images`` {mu: the images of 1_mu}:
    1_lam acts on each nonzero image of 1_mu."""
    return {(lam, mu): all(x(image) == (image if lam == mu else {})
                           for image in images[mu] if image)
            for lam, x in idem.items() for mu in idem}


def check_enveloping_relations(model):
    """Defining relations of the generator algebra, evaluated exactly."""
    rep = CheckReport("enveloping-relations", model.n, model.d, model.mode)
    u = _Images(model)
    n = model.n
    rd = model.root_data
    rng = range(1, n)  # off-diagonal generator indices
    gen = partial(generator_action, model)
    e = {i: u.acting(gen(model.names.plus, i)) for i in rng}
    f = {i: u.acting(gen(model.names.minus, i)) for i in rng}
    if model.mode == "classical":
        H = {k: u.acting(gen("H", k)) for k in range(1, n + 1)}
        agg = _Agg()
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                agg.check(u.vanish((1, H[i], H[j]), (-1, H[j], H[i])), f"(i,j)=({i},{j})")
        rep.append(agg.item("R1"))
        agg = _Agg()
        for i in rng:
            for j in rng:
                rhs = ((-1, H[j]), (1, H[j + 1])) if i == j else ()
                agg.check(u.vanish((1, e[i], f[j]), (-1, f[j], e[i]), *rhs),
                          f"(i,j)=({i},{j})")
        rep.append(agg.item("R2"))
        agg = _Agg()
        for i in range(1, n + 1):
            for j in rng:
                c = rd.pairing(i, j)
                agg.check(u.vanish((1, H[i], e[j]), (-1, e[j], H[i]), (-c, e[j])),
                          f"H{i},e{j}")
                agg.check(u.vanish((1, H[i], f[j]), (-1, f[j], H[i]), (c, f[j])),
                          f"H{i},f{j}")
        rep.append(agg.item("R3"))
        serre_ids = ("R4", "R5")
    else:
        K = {k: u.acting(gen("K", k)) for k in range(1, n + 1)}
        Kinv = {k: u.acting(gen("K^-1", k)) for k in range(1, n + 1)}
        agg = _Agg()
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                agg.check(u.vanish((1, K[i], K[j]), (-1, K[j], K[i])), f"(i,j)=({i},{j})")
        for i in range(1, n + 1):
            agg.check(u.vanish((1, K[i], Kinv[i]), (-1,)), f"K{i}K{i}^-1")
            agg.check(u.vanish((1, Kinv[i], K[i]), (-1,)), f"K{i}^-1K{i}")
        rep.append(agg.item("Q1"))
        agg = _Agg()
        for i in rng:
            for j in rng:
                rhs = ((-1, K[i], Kinv[i + 1]), (1, Kinv[i], K[i + 1])) if i == j else ()
                agg.check(u.vanish((_V_MINUS_INVERSE, e[i], f[j]),
                                   (-_V_MINUS_INVERSE, f[j], e[i]), *rhs),
                          f"(i,j)=({i},{j})")
        rep.append(agg.item("Q2"))
        agg = _Agg()
        vpow = model.scalars.v_power
        for i in range(1, n + 1):
            for j in rng:
                c = rd.pairing(i, j)
                agg.check(u.vanish((1, K[i], e[j]), (-vpow(c), e[j], K[i])), f"K{i},E{j}")
                agg.check(u.vanish((1, K[i], f[j]), (-vpow(-c), f[j], K[i])), f"K{i},F{j}")
        rep.append(agg.item("Q3"))
        serre_ids = ("Q4", "Q5")
        rep.notes.append(
            "distant-index case of Q4/Q5 is the plain commutation of the two"
            " generators"
        )
    two = model.scalars.integer(2)  # [2] = v + v^-1 quantumly
    for item_id, x in zip(serre_ids, (e, f)):
        agg = _Agg()
        for i in rng:
            for j in rng:
                if i == j:
                    continue
                if abs(i - j) == 1:
                    terms = ((1, x[i], x[i], x[j]), (-two, x[i], x[j], x[i]),
                             (1, x[j], x[i], x[i]))
                else:
                    terms = ((1, x[i], x[j]), (-1, x[j], x[i]))
                agg.check(u.vanish(*terms), f"(i,j)=({i},{j})")
        rep.append(agg.item(item_id, "no generator pairs for n = 2"))
    return rep


def check_schur_relations(model):
    """The two extra relations that cut the algebra down to degree d."""
    rep = CheckReport("schur-relations", model.n, model.d, model.mode)
    u = _Images(model)
    n, d = model.n, model.d
    cartan = [u.acting(generator_action(model, model.names.cartan, k))
              for k in range(1, n + 1)]
    if model.mode == "classical":
        rep.add("R6", u.vanish(*((1, h) for h in cartan), (-d,)),
                detail="sum of H_k equals d")
        last_id = "R7"
    else:
        rep.add("Q6", u.vanish((1, *cartan), (-model.scalars.v_power(d),)),
                detail="product of K_k equals v^d")
        last_id = "Q7"
    # Each Cartan generator is killed by the product of C_k - c(t) over
    # its eigenvalues c(t) on t = 0..d letters k: t for H_k, v^t for K_k,
    # applied one factor at a time.
    agg = _Agg()
    for k, x in enumerate(cartan, 1):
        factors = (u.sum((1, x), (-model.scalars.cartan(t),)) for t in range(d + 1))
        agg.check(u.vanish((1, *factors)), f"k={k}")
    rep.append(agg.item(last_id))
    return rep


def check_idempotent_presentation(model):
    """Relations of the presentation by weight idempotents and simple
    raising/lowering generators, including every zero branch."""
    rep = CheckReport("idempotent-presentation", model.n, model.d, model.mode)
    u = _Images(model)
    n = model.n
    suffix = "'" if model.mode == "quantum" else ""
    esym, fsym = model.names.plus, model.names.minus
    weights, integer = model.weight_set, model.scalars.integer
    idem = {lam: u.acting(weight_idempotent(model, lam)) for lam in weights}
    e = {i: u.acting(generator_action(model, esym, i)) for i in range(1, n)}
    f = {i: u.acting(generator_action(model, fsym, i)) for i in range(1, n)}

    agg = _Agg()
    images = {lam: u.of((1, x)) for lam, x in idem.items()}
    for (lam, mu), ok in _idempotent_products(idem, images).items():
        agg.check(ok, f"({lam},{mu})")
    agg.check(u.vanish(*((1, x) for x in idem.values()), (-1,)), "resolution of identity")
    rep.append(agg.item(f"S1{suffix}"))

    agg = _Agg()
    for i in range(1, n):
        alpha = model.root_data.simple_root(i)
        for lam in weights:
            one = idem[lam]
            up, down = (_shifted(lam, alpha, k) for k in (1, -1))
            above, below = (_shifted_idempotent(u, lam, alpha, k) for k in (1, -1))
            agg.check(u.vanish((1, e[i], one), (-1, above, e[i]), at=lam), f"{esym}{i}.1_{lam}")
            agg.check(u.vanish((1, f[i], one), (-1, below, f[i]), at=lam), f"{fsym}{i}.1_{lam}")
            agg.check(u.vanish((1, one, e[i]), (-1, e[i], below), at=down), f"1_{lam}.{esym}{i}")
            agg.check(u.vanish((1, one, f[i]), (-1, f[i], above), at=up), f"1_{lam}.{fsym}{i}")
    rep.append(agg.item(f"S2{suffix}"))

    # S3, split per lam: e_i f_j 1_lam - f_j e_i 1_lam = delta_ij [lam_i - lam_i+1] 1_lam,
    # still one instance per (i, j).
    agg = _Agg()
    for i in range(1, n):
        for j in range(1, n):
            agg.check(all(u.vanish((1, e[i], f[j], idem[lam]), (-1, f[j], e[i], idem[lam]),
                                   (-(i == j) * integer(lam[i - 1] - lam[i]), idem[lam]), at=lam)
                          for lam in weights), f"(i,j)=({i},{j})")
    rep.append(agg.item(f"S3{suffix}"))
    rep.notes.append(
        "braid relations between the simple generators are covered by the"
        " enveloping-relations check"
    )
    return rep


def _straightening_item(u, item_id, left, right, cases, name, empty):
    """One reduction item: over the ``cases`` (a, b, c, M, at) with
    s = a + b + c - d >= 1, in order, x^(a) M(0) y^(c) equals the sum over
    k = s..min(a, c) of (-1)^(k-s) binom(k-1, s-1) binom(b+k, k)
    x^(a-k) M(k) y^(c-k), with x^(m) = ``left(m)``, y^(m) = ``right(m)``,
    M(k) maps of flat vectors, and the model's binomials (Gaussian
    quantumly); a zero M(k) adds a zero term.  ``at`` is the source
    weight of an instance in idempotent form, evaluated at u_at alone,
    or None (see :class:`_Images`).  ``name`` names b in a
    failure detail; ``empty`` is the detail when no case has s >= 1."""
    binomial = u.model.scalars.binomial
    agg = _Agg()
    for a, b, c, middle, at in cases:
        s = a + b + c - u.model.d
        if s < 1:
            continue
        terms = [(1, left(a), middle(0), right(c))]
        for k in range(s, min(a, c) + 1):
            coeff = binomial(k - 1, s - 1) * binomial(b + k, k)
            if not (k - s) % 2:
                coeff = -coeff
            terms.append((coeff, left(a - k), middle(k), right(c - k)))
        agg.check(u.vanish(*terms, at=at), f"(a,{name},c)=({a},{b},{c})")
    return agg.item(item_id, empty)


def check_reduction_formulas(model, family):
    """Divided-power reduction formulas, one item per root and shape:
    one identity (:func:`_straightening_item`) for the divided powers of
    alpha = (i, j), with M(k) = binom(H_m, b + k) for classical-H (m = j
    in f H e, i in e H f) and, for the idempotent families, with
    M(k) = 1_{lam + k alpha} in e 1 f (b = b1 = lam_i) and 1_{lam - k alpha}
    in f 1 e (b = b2 = lam_j), zero off the weight set, where
    lam = b1 eps_i + (d - b1) eps_j.  An idempotent instance is checked at
    its source weight lam + c alpha (lam - c alpha in f 1 e): y^(c - k)
    carries it to lam + k alpha (lam - k alpha), where M(k) keeps it."""
    if family not in REDUCTION_FAMILIES:
        raise ValueError(f"unknown reduction family {family!r}")
    wanted = "quantum" if family == "quantum-idempotent" else "classical"
    if model.mode != wanted:
        raise ValueError(f"family {family!r} needs a {wanted} model")
    rep = CheckReport(f"reduction[{family}]", model.n, model.d, model.mode)
    u = _Images(model)
    d, n, rng = model.d, model.n, range(model.d + 1)
    eletter, fletter = model.names.plus, model.names.minus
    for root in model.root_data.positive_roots:
        i, j = root
        E, F = (partial(u.divided, root, sign) for sign in ("plus", "minus"))
        if family == "classical-H":
            for item_id, left, right, m in ((f"fHe[{i}-{j}]", F, E, j),
                                            (f"eHf[{i}-{j}]", E, F, i)):
                cases = (
                    (a, b, c,
                     lambda k, b=b, m=m: u.acting(cartan_binomial(model, m, b + k)), None)
                    for a in rng
                    for b in rng
                    for c in rng
                )
                rep.append(_straightening_item(u, item_id, left, right, cases,
                                               "b", "no triples with s >= 1"))
            continue
        alpha = model.root_data.root_as_vector(root)
        for item_id, left, right, sign, pos, name in (
            (f"{eletter}1{fletter}[{i}-{j}]", E, F, 1, i, "b1"),
            (f"{fletter}1{eletter}[{i}-{j}]", F, E, -1, j, "b2"),
        ):
            cases = []
            for b1 in rng:
                lam = tuple(
                    b1 if k == i else (d - b1 if k == j else 0) for k in range(1, n + 1)
                )
                step = tuple(sign * y for y in alpha)
                middle = partial(_shifted_idempotent, u, lam, step)
                cases.extend((a, lam[pos - 1], c, middle, _shifted(lam, step, c))
                             for a in rng for c in rng)
            rep.append(_straightening_item(u, item_id, left, right, cases,
                                           name, "no s >= 1 cases"))
    if family != "classical-H":
        rep.notes.append(
            "terms whose shifted weight leaves the weight set contribute zero;"
            " empty right-hand sums assert that the left side vanishes"
        )
    return rep


def _minimal_polynomial_items(rep, u, x, exponents, shown):
    """Items asserting that the map ``x`` has the minimal polynomial
    prod_t (x - c(t)) over the distinct ``exponents`` t, where c is the
    Cartan eigenvalue (t classically, v^t quantumly): the product
    vanishes and no product skipping one factor does, each applied one
    factor at a time.  ``shown(t)`` names the skipped eigenvalue in a
    failure detail."""
    model = u.model
    factors = {t: u.sum((1, x), (-model.scalars.cartan(t),)) for t in exponents}
    rep.add(f"{model.mode}:minimal-polynomial", u.vanish((1, *factors.values())),
            detail=f"degree {len(exponents)}")
    agg = _Agg()
    for skip in exponents:
        others = (f for t, f in factors.items() if t != skip)
        agg.check(not u.vanish((1, *others)), f"factor for eigenvalue {shown(skip)}")
    rep.append(agg.item(f"{model.mode}:no-proper-subproduct-vanishes"))


def _truncated_monomial_item(rep, u, lower, cartan, upper):
    """The item asserting that the monomials lower^a cartan^b upper^c,
    a + b + c <= d, are binom(d + 3, 3) elements of rank binom(d + 3, 3),
    ranked exactly on their ordered-word rows."""
    model, d = u.model, u.model.d
    labels = [(a, b, c) for a in range(d + 1) for b in range(d + 1) for c in range(d + 1)
              if a + b + c <= d]
    rows = [u.row(u.of((1, *[lower] * a, *[cartan] * b, *[upper] * c)))
            for a, b, c in labels]
    expected = comb(d + 3, 3)
    rank = rank_of_family(model, rows)
    rep.add(
        f"{model.mode}:truncated-monomials",
        len(labels) == expected and rank == expected,
        detail=f"count {len(labels)}, rank {rank}, expected {expected}",
    )


_RANK_ONE_NEEDS = "the rank-one presentation check needs n = 2"


def _check_pair(classical, quantum):
    """Refuse models that are not a classical and then a quantum model
    of one (n, d)."""
    if ((classical.mode, quantum.mode) != ("classical", "quantum")
            or (classical.n, classical.d) != (quantum.n, quantum.d)):
        raise ValueError("expected a classical and then a quantum model of one (n, d)")


def check_rank_one_presentation(classical, quantum):
    """Two-generator presentation of the n = 2 algebra, both modes, on
    a classical and a quantum model of one (2, d): the relations, the
    minimal polynomial of h = H_1 - H_2 and of K = K_1 K_2^-1, and the
    rank of the truncated monomials f^a h^b e^c and F^a K^b E^c."""
    _check_pair(classical, quantum)
    if classical.n != 2:
        raise HypothesisError(_RANK_ONE_NEEDS)
    d = classical.d
    rep = CheckReport("rank-one-presentation", 2, d, "both")
    u = _Images(classical)
    e, f, h1, h2 = (u.acting(generator_action(classical, sym, k))
                    for sym, k in (("e", 1), ("f", 1), ("H", 1), ("H", 2)))
    h = u.sum((1, h1), (-1, h2))
    rep.add("classical:he-eh=2e", u.vanish((1, h, e), (-1, e, h), (-2, e)))
    rep.add("classical:ef-fe=h", u.vanish((1, e, f), (-1, f, e), (-1, h)))
    rep.add("classical:hf-fh=-2f", u.vanish((1, h, f), (-1, f, h), (2, f)))
    eigens = [d - 2 * k for k in range(d + 1)]
    _minimal_polynomial_items(rep, u, h, eigens, str)
    _truncated_monomial_item(rep, u, f, h, e)

    u = _Images(quantum)
    E, F, K1, K2, K1inv, K2inv = (
        u.acting(generator_action(quantum, sym, k))
        for sym, k in (("E", 1), ("F", 1), ("K", 1), ("K", 2), ("K^-1", 1), ("K^-1", 2)))
    K = u.sum((1, K1, K2inv))
    Kinv = u.sum((1, K1inv, K2))
    vpow = quantum.scalars.v_power
    rep.add("quantum:KK^-1=1", u.vanish((1, K, Kinv), (-1,)) and u.vanish((1, Kinv, K), (-1,)))
    rep.add("quantum:KEK^-1=v^2E", u.vanish((1, K, E, Kinv), (-vpow(2), E)))
    rep.add("quantum:KFK^-1=v^-2F", u.vanish((1, K, F, Kinv), (-vpow(-2), F)))
    rep.add(
        "quantum:EF-FE=(K-K^-1)/(v-v^-1)",
        u.vanish((_V_MINUS_INVERSE, E, F), (-_V_MINUS_INVERSE, F, E), (-1, K), (1, Kinv)),
    )
    _minimal_polynomial_items(rep, u, K, eigens, "v^{}".format)
    _truncated_monomial_item(rep, u, F, K, E)
    return rep


def _triangular_item(model, tag, ranks):
    """The item triangular[tag] for a map {(src, dst): rank} over all
    weight blocks: passes when the block ranks sum to dim S(n, d); a
    failing detail names the first block short of its dimension."""
    n, d = model.n, model.d
    dim = comb(n * n - 1 + d, d)
    rank = sum(ranks.values())
    detail = f"rank {rank} of {dim}"
    if rank < dim:
        (src, dst), short = next(
            (block, r) for block, r in ranks.items() if r < block_dimension(*block)
        )
        detail += f"; block {src}->{dst} rank {short} of {block_dimension(src, dst)}"
    return CheckItem(f"triangular[{tag}]", rank == dim, detail=detail)


def _triangular_items(model, rep):
    """One item per order of S+, S0, S-: the triple products of PLUS
    monomials, Cartan products and MINUS monomials span S(n, d).

    The three orders that put S+ left of S- read the block ranks of the
    basis B1, grouped as it is enumerated and read on its parts, with
    no label built (:func:`~schuralg.bases.enumerate_block_parts`,
    :func:`~schuralg.bases.parts_ranks`), the other three those of
    B2, with 0 for a block without labels.  A B1 label
    e_A 1_lam f_C of block (src, dst) is also e_A f_C 1_src and
    1_dst e_A f_C, because f_C maps M^src into M^lam and e_A maps M^lam
    into M^dst.  The weight idempotents 1_src, 1_lam and 1_dst are
    Cartan products of degree d (1_nu is the product of the
    binom(H_k, nu_k), quantumly of their Gaussian analogues), and
    |A|, |C| <= d, so B1 lies in each of the three triple families with
    S+ before S-; B2, f_A 1_lam e_C, lies in the other three for the
    same reason.  Labels of different blocks have disjoint supports, so
    the sum of a basis's block ranks is a lower bound on each family's
    rank, and dim S(n, d) is an upper bound: a PASS proves the family
    spans.  Each block rank is certified, so a short block is exact for
    the basis labels of that block, which may span less than the triple
    family does there.
    """
    weights = model.weight_set
    ranks = {}
    for kind in ("B1", "B2"):
        found = parts_ranks(model, kind, enumerate_block_parts(model.n, model.d, kind))
        ranks[kind] = {(src, dst): found.get((src, dst), 0)
                       for src in weights for dst in weights}
    for perm in permutations("+0-"):
        tag = "".join(perm)
        kind = "B1" if tag.index("+") < tag.index("-") else "B2"
        rep.append(_triangular_item(model, tag, ranks[kind]))


def check_structural_facts(model):
    """Nilpotency indexes, vanishing Cartan products, the idempotent
    family, and all six triangular decompositions.

    Each decomposition is certified by rank, weight block by weight
    block, on a basis that lies in its triple family: B1 for the three
    orders with S+ left of S-, B2 for the other three (see
    :func:`_triangular_items`)."""
    rep = CheckReport("structural-facts", model.n, model.d, model.mode)
    u = _Images(model)
    n, d = model.n, model.d

    agg = _Agg()
    for root in model.root_data.positive_roots:
        for sign in ("plus", "minus"):
            x = u.acting(root_vector(model, root, sign))
            i, j = root
            p = u.of((1, *[x] * d))
            agg.check(any(p) and not any(map(x, p)), f"{sign}[{i}-{j}]")
    rep.append(agg.item("nilpotency-index-d+1"))

    for total in (d + 1, d + 2):
        agg = _Agg()
        for B in compositions(n, total):
            agg.check(not any(_cartan_values(model, B).values()), f"B={B}")
        rep.append(agg.item(f"cartan-products-vanish[degree={total}]"))

    weights = model.weight_set
    idem = {lam: u.acting(weight_idempotent(model, lam)) for lam in weights}
    images = {lam: u.of((1, x)) for lam, x in idem.items()}
    ortho = all(ok for (lam, mu), ok in _idempotent_products(idem, images).items() if lam != mu)
    rep.add("idempotents-orthogonal", ortho, detail=f"{len(weights)} weights")
    rep.add("idempotents-resolve-identity", u.vanish(*((1, x) for x in idem.values()), (-1,)))
    rep.add(
        "idempotents-independent",
        rank_of_family(model, [u.row(by_weight) for by_weight in images.values()])
        == len(weights),
        detail=f"rank {len(weights)}",
    )

    _triangular_items(model, rep)
    return rep


def check_specialization(classical, quantum):
    """Agreement of each quantum basis operator at v = 1 with its
    classical counterpart, for both three-part basis families, compared
    on their images of u_src (see the module docstring), on a classical
    and a quantum model of one (n, d)."""
    _check_pair(classical, quantum)
    n, d = quantum.n, quantum.d
    rep = CheckReport("specialization", n, d, "both")
    size = quantum.num_words
    for kind in ("B1", "B2"):
        groups, shape = enumerate_block_parts(n, d, kind), SHAPES[kind]
        # The images of both modes come block by block, in step; a
        # quantum image is read at v = 1 by specializing its flat form.
        # Only a failing member is made a label, and the first failure
        # is reported in enumeration order: lam in the order of
        # ``compositions``, then the parts A, C ascending.
        agg, failed = _Agg(), []
        for ((src, dst), images), (_, expected) in zip(parts_images(quantum, shape, groups),
                                                      parts_images(classical, shape, groups)):
            members = groups[src][dst]
            agg.count += len(members)
            failed += _block_labels(n, kind, src, {dst: [
                parts for parts, image, want in zip(members, images, expected)
                if _specialized_row(image, 1, size) != want]})[dst]
        if failed:
            first = min(failed, key=lambda x: ([-m for m in x.lam], x.A, x.C))
            agg.first_failure = f"label {first}"
        rep.append(agg.item(f"{kind}[v=1]"))
    rep.notes.append(
        "ordered-monomial (PBW-style) labels are intentionally not compared:"
        " that family does not specialize to its classical counterpart"
    )
    return rep


def suite_reports(n, d, mode="classical", suite="all", word_cap=None,
                  spec_points=None):
    """Reports for one grid point.  This is the one place that builds
    models: one per mode that the suites need, with the configuration,
    shared by every check that reads it.  Each model's Hecke-commutation
    certificate is checked once, before any suite: when it fails, the
    one report returned is a single FAIL item that names the generator,
    and no suite runs."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}")
    if suite == "rank1" and n != 2:
        raise HypothesisError(_RANK_ONE_NEEDS)
    single = suite in ("relations", "idempotent", "reduction", "structural")
    models = {m: build_model(n, d, mode=m, word_cap=word_cap, spec_points=spec_points)
              for m in ((mode,) if single else ("classical", "quantum"))}
    for built in models.values():
        try:
            certify_hecke_commutation(built)
        except CertificateError as exc:
            rep = CheckReport("hecke-certificate", n, d, built.mode)
            rep.add("hecke-commutation", False, detail=str(exc))
            return [rep]
    model = models.get(mode)
    reports = []
    if suite in ("all", "relations"):
        reports.append(check_enveloping_relations(model))
        reports.append(check_schur_relations(model))
    if suite in ("all", "idempotent"):
        reports.append(check_idempotent_presentation(model))
    if suite in ("all", "reduction"):
        families = REDUCTION_FAMILIES[:2] if mode == "classical" else REDUCTION_FAMILIES[2:]
        reports.extend(check_reduction_formulas(model, family) for family in families)
    if suite in ("all", "structural"):
        reports.append(check_structural_facts(model))
    if suite in ("all", "specialize"):
        reports.append(check_specialization(models["classical"], models["quantum"]))
    if n == 2 and suite in ("all", "rank1"):
        reports.append(check_rank_one_presentation(models["classical"], models["quantum"]))
    return reports
