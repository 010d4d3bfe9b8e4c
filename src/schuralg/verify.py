"""Exact identity checks for the realized algebra.

Every check evaluates operator identities inside the tensor model and
reports one entry per relation family: the defining relations of the
generator algebra, the extra degree-d relations, the idempotent
presentation, divided-power reduction formulas, the two-generator
presentation available when n = 2, structural facts (nilpotency
degrees, vanishing Cartan products, triangular decompositions), and the
agreement of quantum basis operators with their classical counterparts
at v = 1.

All comparisons are exact;  there are no tolerances anywhere.  A check
whose quantified range is empty is reported as *vacuous*, never as a
silent pass.

Weight blocks are ranked and compared on vectors.  Once the model's
Hecke-commutation certificate holds, an operator x = x 1_src built from
generators stands for its column at the ordered word u_src
(``tensormodel``): the column at T_w u_src is T_w applied to it, and
T_w is invertible, so this holds at each point of v too, v = 1
included.  The triangular check ranks the weight blocks of the bases
B1 and B2 on these images (see :func:`_triangular_items`).

Each check takes the models it reads: one model, or for the v = 1
comparison and the rank-one presentation a classical and a quantum
model of one (n, d).  :func:`suite_reports` is the one place that
builds models, one per mode that its suites need, with the word cap
and the spec points.  Each report times itself (:class:`CheckReport`).
"""

import time
from dataclasses import dataclass, field
from functools import partial
from itertools import permutations
from math import comb

from .bases import (
    _specialized_row,
    block_dimension,
    enumerate_blocks,
    grouped_ranks,
    rank_of_family,
)
from .errors import HypothesisError
from .ring import LaurentPoly
from .rootvectors import block_images, root_divided_power, root_vector
from .tensormodel import (
    build_model,
    cartan_binomial,
    cartan_product,
    compose,
    compositions,
    generator_action,
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


def _shifted_idempotent(model, lam, step, k):
    """The weight idempotent of lam + k step, or the zero operator when
    that leaves the weight set (``step`` sums to 0)."""
    lam = tuple(x + k * y for x, y in zip(lam, step))
    if min(lam) < 0:
        return model.zero_op()
    return weight_idempotent(model, lam)


def check_enveloping_relations(model):
    """Defining relations of the generator algebra, evaluated exactly."""
    rep = CheckReport("enveloping-relations", model.n, model.d, model.mode)
    n = model.n
    rd = model.root_data
    rng = range(1, n)  # off-diagonal generator indices
    e = {i: generator_action(model, model.names.plus, i) for i in rng}
    f = {i: generator_action(model, model.names.minus, i) for i in rng}
    if model.mode == "classical":
        H = {k: generator_action(model, "H", k) for k in range(1, n + 1)}
        agg = _Agg()
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                agg.check(H[i] @ H[j] == H[j] @ H[i], f"(i,j)=({i},{j})")
        rep.append(agg.item("R1"))
        agg = _Agg()
        for i in rng:
            for j in rng:
                lhs = e[i] @ f[j] - f[j] @ e[i]
                rhs = H[j] - H[j + 1] if i == j else model.zero_op()
                agg.check(lhs == rhs, f"(i,j)=({i},{j})")
        rep.append(agg.item("R2"))
        agg = _Agg()
        for i in range(1, n + 1):
            for j in rng:
                c = rd.pairing(i, j)
                agg.check(
                    H[i] @ e[j] - e[j] @ H[i] == e[j].scale(c),
                    f"H{i},e{j}",
                )
                agg.check(
                    H[i] @ f[j] - f[j] @ H[i] == f[j].scale(-c),
                    f"H{i},f{j}",
                )
        rep.append(agg.item("R3"))
        serre_ids = ("R4", "R5")
    else:
        K = {k: generator_action(model, "K", k) for k in range(1, n + 1)}
        Kinv = {k: generator_action(model, "K^-1", k) for k in range(1, n + 1)}
        ident = model.identity()
        agg = _Agg()
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                agg.check(K[i] @ K[j] == K[j] @ K[i], f"(i,j)=({i},{j})")
        for i in range(1, n + 1):
            agg.check(K[i] @ Kinv[i] == ident, f"K{i}K{i}^-1")
            agg.check(Kinv[i] @ K[i] == ident, f"K{i}^-1K{i}")
        rep.append(agg.item("Q1"))
        agg = _Agg()
        for i in rng:
            for j in rng:
                lhs = (e[i] @ f[j] - f[j] @ e[i]).scale(_V_MINUS_INVERSE)
                if i == j:
                    rhs = K[i] @ Kinv[i + 1] - Kinv[i] @ K[i + 1]
                else:
                    rhs = model.zero_op()
                agg.check(lhs == rhs, f"(i,j)=({i},{j})")
        rep.append(agg.item("Q2"))
        agg = _Agg()
        for i in range(1, n + 1):
            for j in rng:
                c = rd.pairing(i, j)
                agg.check(
                    K[i] @ e[j] == (e[j] @ K[i]).scale(model.scalars.v_power(c)),
                    f"K{i},E{j}",
                )
                agg.check(
                    K[i] @ f[j] == (f[j] @ K[i]).scale(model.scalars.v_power(-c)),
                    f"K{i},F{j}",
                )
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
                    lhs = (
                        x[i] @ x[i] @ x[j]
                        - (x[i] @ x[j] @ x[i]).scale(two)
                        + x[j] @ x[i] @ x[i]
                    )
                else:
                    lhs = x[i] @ x[j] - x[j] @ x[i]
                agg.check(lhs.is_zero(), f"(i,j)=({i},{j})")
        rep.append(agg.item(item_id, "no generator pairs for n = 2"))
    return rep


def check_schur_relations(model):
    """The two extra relations that cut the algebra down to degree d."""
    rep = CheckReport("schur-relations", model.n, model.d, model.mode)
    n, d = model.n, model.d
    ident = model.identity()
    if model.mode == "classical":
        total = model.zero_op()
        for k in range(1, n + 1):
            total = total + generator_action(model, "H", k)
        rep.add("R6", total == ident.scale(d), detail="sum of H_k equals d")
        last_id = "R7"
    else:
        factors = (generator_action(model, "K", k) for k in range(1, n + 1))
        prod = compose(model, factors)
        rep.add(
            "Q6",
            prod == ident.scale(model.scalars.v_power(d)),
            detail="product of K_k equals v^d",
        )
        last_id = "Q7"
    # Each Cartan generator is killed by the product of C_k - c(t) over
    # its eigenvalues c(t) on t = 0..d letters k: t for H_k, v^t for K_k.
    agg = _Agg()
    for k in range(1, n + 1):
        cartan = generator_action(model, model.names.cartan, k)
        factors = (cartan - ident.scale(model.scalars.cartan(t)) for t in range(d + 1))
        agg.check(compose(model, factors).is_zero(), f"k={k}")
    rep.append(agg.item(last_id))
    return rep


def check_idempotent_presentation(model):
    """Relations of the presentation by weight idempotents and simple
    raising/lowering generators, including every zero branch."""
    rep = CheckReport("idempotent-presentation", model.n, model.d, model.mode)
    n, d = model.n, model.d
    suffix = "'" if model.mode == "quantum" else ""
    esym, fsym = model.names.plus, model.names.minus
    rd = model.root_data
    weights = model.weight_set
    idem = {lam: weight_idempotent(model, lam) for lam in weights}
    e = {i: generator_action(model, esym, i) for i in range(1, n)}
    f = {i: generator_action(model, fsym, i) for i in range(1, n)}

    agg = _Agg()
    for lam in weights:
        for mu in weights:
            expected = idem[lam] if lam == mu else model.zero_op()
            agg.check(idem[lam] @ idem[mu] == expected, f"({lam},{mu})")
    total = model.zero_op()
    for lam in weights:
        total = total + idem[lam]
    agg.check(total == model.identity(), "resolution of identity")
    rep.append(agg.item(f"S1{suffix}"))

    agg = _Agg()
    for i in range(1, n):
        alpha = rd.simple_root(i)
        for lam in weights:
            up = _shifted_idempotent(model, lam, alpha, 1)
            down = _shifted_idempotent(model, lam, alpha, -1)
            agg.check(e[i] @ idem[lam] == up @ e[i], f"{esym}{i}.1_{lam}")
            agg.check(f[i] @ idem[lam] == down @ f[i], f"{fsym}{i}.1_{lam}")
            agg.check(idem[lam] @ e[i] == e[i] @ down, f"1_{lam}.{esym}{i}")
            agg.check(idem[lam] @ f[i] == f[i] @ up, f"1_{lam}.{fsym}{i}")
    rep.append(agg.item(f"S2{suffix}"))

    agg = _Agg()
    for i in range(1, n):
        for j in range(1, n):
            lhs = e[i] @ f[j] - f[j] @ e[i]
            rhs = model.zero_op()
            if i == j:
                for lam in weights:
                    coeff = model.scalars.integer(lam[j - 1] - lam[j])
                    rhs = rhs + idem[lam].scale(coeff)
            agg.check(lhs == rhs, f"(i,j)=({i},{j})")
    rep.append(agg.item(f"S3{suffix}"))
    rep.notes.append(
        "braid relations between the simple generators are covered by the"
        " enveloping-relations check"
    )
    return rep


def _straightening_item(model, item_id, left, right, cases, name, empty):
    """One reduction item: over the ``cases`` (a, b, c, M) with
    s = a + b + c - d >= 1, in order, x^(a) M(0) y^(c) equals the sum over
    k = s..min(a, c) of (-1)^(k-s) binom(k-1, s-1) binom(b+k, k)
    x^(a-k) M(k) y^(c-k), with x^(m) = ``left(m)``, y^(m) = ``right(m)``
    and the model's binomials (Gaussian quantumly); a zero M(k) adds no
    term.  ``name`` names b in a failure detail; ``empty`` is the detail
    when no case has s >= 1."""
    binomial = model.scalars.binomial
    agg = _Agg()
    for a, b, c, middle in cases:
        s = a + b + c - model.d
        if s < 1:
            continue
        lhs = left(a) @ middle(0) @ right(c)
        rhs = model.zero_op()
        for k in range(s, min(a, c) + 1):
            mid = middle(k)
            if not mid.is_zero():
                coeff = binomial(k - 1, s - 1) * binomial(b + k, k)
                if (k - s) % 2:
                    coeff = -coeff
                term = left(a - k) @ mid @ right(c - k)
                rhs = rhs + term.scale(coeff)
        agg.check(lhs == rhs, f"(a,{name},c)=({a},{b},{c})")
    return agg.item(item_id, empty)


def check_reduction_formulas(model, family):
    """Divided-power reduction formulas, one item per root and shape:
    one identity (:func:`_straightening_item`) for the divided powers of
    alpha = (i, j), with M(k) = binom(H_m, b + k) for classical-H (m = j
    in f H e, i in e H f) and, for the idempotent families, with
    M(k) = 1_{lam + k alpha} in e 1 f (b = b1 = lam_i) and 1_{lam - k alpha}
    in f 1 e (b = b2 = lam_j), zero off the weight set, where
    lam = b1 eps_i + (d - b1) eps_j."""
    if family not in REDUCTION_FAMILIES:
        raise ValueError(f"unknown reduction family {family!r}")
    wanted = "quantum" if family == "quantum-idempotent" else "classical"
    if model.mode != wanted:
        raise ValueError(f"family {family!r} needs a {wanted} model")
    rep = CheckReport(f"reduction[{family}]", model.n, model.d, model.mode)
    d, n, rng = model.d, model.n, range(model.d + 1)
    eletter, fletter = model.names.plus, model.names.minus
    for root in model.root_data.positive_roots:
        i, j = root
        E, F = (
            partial(root_divided_power, model, root, sign) for sign in ("plus", "minus")
        )
        if family == "classical-H":
            for item_id, left, right, m in ((f"fHe[{i}-{j}]", F, E, j),
                                            (f"eHf[{i}-{j}]", E, F, i)):
                cases = (
                    (a, b, c, lambda k, b=b, m=m: cartan_binomial(model, m, b + k))
                    for a in rng
                    for b in rng
                    for c in rng
                )
                rep.append(_straightening_item(model, item_id, left, right, cases,
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
                middle = partial(_shifted_idempotent, model, lam, step)
                cases.extend((a, lam[pos - 1], c, middle) for a in rng for c in rng)
            rep.append(_straightening_item(model, item_id, left, right, cases,
                                           name, "no s >= 1 cases"))
    if family != "classical-H":
        rep.notes.append(
            "terms whose shifted weight leaves the weight set contribute zero;"
            " empty right-hand sums assert that the left side vanishes"
        )
    return rep


def _minimal_polynomial_items(rep, model, op, exponents, shown):
    """Items asserting that ``op`` has the minimal polynomial
    prod_t (op - c(t)) over the distinct ``exponents`` t, where c is the
    Cartan eigenvalue (t classically, v^t quantumly): the product
    vanishes and no product skipping one factor does.  ``shown(t)``
    names the skipped eigenvalue in a failure detail."""
    ident = model.identity()
    factors = {t: op - ident.scale(model.scalars.cartan(t)) for t in exponents}
    rep.add(f"{model.mode}:minimal-polynomial",
            compose(model, factors.values()).is_zero(),
            detail=f"degree {len(exponents)}")
    agg = _Agg()
    for skip in exponents:
        sub = compose(model, (f for t, f in factors.items() if t != skip))
        agg.check(not sub.is_zero(), f"factor for eigenvalue {shown(skip)}")
    rep.append(agg.item(f"{model.mode}:no-proper-subproduct-vanishes"))


_RANK_ONE_NEEDS = "the rank-one presentation check needs n = 2"


def _check_pair(classical, quantum):
    """Refuse models that are not a classical and then a quantum model
    of one (n, d)."""
    if ((classical.mode, quantum.mode) != ("classical", "quantum")
            or (classical.n, classical.d) != (quantum.n, quantum.d)):
        raise ValueError("expected a classical and then a quantum model of one (n, d)")


def check_rank_one_presentation(classical, quantum):
    """Two-generator presentation of the n = 2 algebra, both modes, on
    a classical and a quantum model of one (2, d)."""
    _check_pair(classical, quantum)
    if classical.n != 2:
        raise HypothesisError(_RANK_ONE_NEEDS)
    d = classical.d
    rep = CheckReport("rank-one-presentation", 2, d, "both")
    e = generator_action(classical, "e", 1)
    f = generator_action(classical, "f", 1)
    h = generator_action(classical, "H", 1) - generator_action(classical, "H", 2)
    rep.add("classical:he-eh=2e", h @ e - e @ h == e.scale(2))
    rep.add("classical:ef-fe=h", e @ f - f @ e == h)
    rep.add("classical:hf-fh=-2f", h @ f - f @ h == f.scale(-2))
    eigens = [d - 2 * k for k in range(d + 1)]
    _minimal_polynomial_items(rep, classical, h, eigens, str)
    labels = [
        (a, b, c)
        for a in range(d + 1)
        for b in range(d + 1)
        for c in range(d + 1)
        if a + b + c <= d
    ]
    rows = [ordered_word_row(classical, compose(classical, [f] * a + [h] * b + [e] * c).cols)
            for (a, b, c) in labels]
    expected = comb(d + 3, 3)
    rank = rank_of_family(classical, rows)
    rep.add(
        "classical:truncated-monomials",
        len(labels) == expected and rank == expected,
        detail=f"count {len(labels)}, rank {rank}, expected {expected}",
    )

    E = generator_action(quantum, "E", 1)
    F = generator_action(quantum, "F", 1)
    K = generator_action(quantum, "K", 1) @ generator_action(quantum, "K^-1", 2)
    Kinv = generator_action(quantum, "K^-1", 1) @ generator_action(quantum, "K", 2)
    qid = quantum.identity()
    vpow = quantum.scalars.v_power
    rep.add("quantum:KK^-1=1", K @ Kinv == qid and Kinv @ K == qid)
    rep.add("quantum:KEK^-1=v^2E", K @ E @ Kinv == E.scale(vpow(2)))
    rep.add("quantum:KFK^-1=v^-2F", K @ F @ Kinv == F.scale(vpow(-2)))
    rep.add(
        "quantum:EF-FE=(K-K^-1)/(v-v^-1)",
        (E @ F - F @ E).scale(_V_MINUS_INVERSE) == K - Kinv,
    )
    _minimal_polynomial_items(rep, quantum, K, eigens, "v^{}".format)
    rep.notes.append(
        "the truncated monomial family is certified in classical mode; the"
        " quantum presentation asserts the relations and minimal polynomial"
    )
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
    basis B1, grouped as it is enumerated
    (:func:`~schuralg.bases.enumerate_blocks`,
    :func:`~schuralg.bases.grouped_ranks`), the other three those of
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
        found = grouped_ranks(model, enumerate_blocks(model.n, model.d, kind))
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
    n, d = model.n, model.d

    agg = _Agg()
    for root in model.root_data.positive_roots:
        for sign in ("plus", "minus"):
            x = root_vector(model, root, sign)
            i, j = root
            where = f"{sign}[{i}-{j}]"
            p = x**d
            agg.check(
                (p @ x).is_zero() and not p.is_zero(), where
            )
    rep.append(agg.item("nilpotency-index-d+1"))

    for total in (d + 1, d + 2):
        agg = _Agg()
        for B in compositions(n, total):
            agg.check(cartan_product(model, B).is_zero(), f"B={B}")
        rep.append(agg.item(f"cartan-products-vanish[degree={total}]"))

    weights = model.weight_set
    idem = [weight_idempotent(model, lam) for lam in weights]
    ortho = all((x @ y).is_zero() for x, y in permutations(idem, 2))
    total_op = model.zero_op()
    for op in idem:
        total_op = total_op + op
    rep.add("idempotents-orthogonal", ortho, detail=f"{len(weights)} weights")
    rep.add("idempotents-resolve-identity", total_op == model.identity())
    rep.add(
        "idempotents-independent",
        rank_of_family(model, [ordered_word_row(model, op.cols) for op in idem])
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
        groups = enumerate_blocks(n, d, kind)
        # The images of both modes come block by block, in step; a
        # quantum image is read at v = 1 by specializing its flat form.
        # The first failure is reported in enumeration order: lam in the
        # order of ``compositions``, then the parts A, C ascending.
        agg, failed = _Agg(), []
        for ((src, dst), images), (_, expected) in zip(block_images(quantum, groups),
                                                      block_images(classical, groups)):
            labels = groups[src][dst]
            agg.count += len(labels)
            failed += [label for label, image, want in zip(labels, images, expected)
                       if _specialized_row(image, 1, size) != want]
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
    shared by every check that reads it."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}")
    if suite == "rank1" and n != 2:
        raise HypothesisError(_RANK_ONE_NEEDS)
    single = suite in ("relations", "idempotent", "reduction", "structural")
    models = {m: build_model(n, d, mode=m, word_cap=word_cap, spec_points=spec_points)
              for m in ((mode,) if single else ("classical", "quantum"))}
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
