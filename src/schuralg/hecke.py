"""Truncation by the idempotent of the all-ones weight.

With omega = (1, ..., 1, 0, ..., 0) (d ones, requiring n >= d), the
corner subalgebra 1_omega . S . 1_omega has dimension d! — it realizes
the group algebra of the symmetric group on d letters in classical mode
and its Hecke deformation in quantum mode.  This module computes the
truncated family from the three-part basis, certifies its rank, and
(for n = d) checks that either family of corner products of the simple
raising and lowering generators generates the whole truncation.

Each B1 label e_A 1_lam f_C maps one weight space to one other, so its
operator b equals 1_dst b 1_src for the block (src, dst) it pins, and
1_omega b 1_omega is b on the block (omega, omega) and 0 on every other
block.  The truncation therefore enumerates and evaluates only the
labels of that block: d! of them, against C(n^2 - 1 + d, d) in the
whole family.
"""

import time
from dataclasses import dataclass, field
from math import factorial

from .bases import RankAccumulator, enumerate_basis, rank_of_family
from .errors import HypothesisError
from .rootvectors import eval_label
from .tensormodel import (
    SparseOperator,
    certify_hecke_commutation,
    generator_action,
    ordered_word,
    weight_idempotent,
)
from .verify import CheckReport

__all__ = [
    "TruncationResult",
    "omega_weight",
    "omega_truncation",
    "check_hecke_generation",
    "hecke_summary",
    "CLOSURE_ROUND_CAP",
]

CLOSURE_ROUND_CAP = 10


@dataclass
class TruncationResult:
    """Nonzero corner images of the basis and their exact rank."""

    omega: tuple
    family: list = field(default_factory=list)
    dim: int = 0


def omega_weight(model):
    """The weight with d ones, padded by zeros; needs n >= d."""
    if model.n < model.d:
        raise HypothesisError(
            f"the truncation needs n >= d, got n={model.n}, d={model.d}"
        )
    return (1,) * model.d + (0,) * (model.n - model.d)


def omega_truncation(model):
    """Nonzero corner images 1_omega b 1_omega of the B1 family, with rank.

    Only the B1 labels of the block (omega, omega) are enumerated and
    evaluated: a label of any other block has corner image 0, and one of
    this block is its own corner image.  The family is the full scan's,
    in the same order.
    """
    omega = omega_weight(model)
    family = [
        eval_label(model, label)
        for label in enumerate_basis(model.n, model.d, "B1", block=(omega, omega))
    ]
    family = [op for op in family if not op.is_zero()]
    dim = rank_of_family(model, family)
    return TruncationResult(omega=omega, family=family, dim=dim)


def _closure_rank(model, generators, target):
    """Rank of the unital closure of ``generators`` under products.

    Representatives that grow the rank are kept and multiplied pairwise
    each round until the rank stabilizes, reaches ``target``, or the
    round cap is hit.  Returns (rank, rounds used).  Each element
    x = x 1_omega of the corner stands for its column at the ordered
    word u_omega (see ``verify``), which alone is ranked.  The rank is a
    certified lower bound (see :class:`RankAccumulator`) and the closure
    lies in the corner, whose dimension d! is ``target``, so a rank that
    reaches ``target`` proves generation.
    """
    certify_hecke_commutation(model)
    anchor = model.word_index[ordered_word(omega_weight(model))]
    acc = RankAccumulator(model)
    reps = []

    def feed(op):
        col = op.cols.get(anchor)
        if col and acc.add(SparseOperator({anchor: col})):
            reps.append(op)
            return True
        return False

    for op in generators:
        feed(op)
    rounds = 0
    while acc.rank < target and rounds < CLOSURE_ROUND_CAP:
        rounds += 1
        grew = False
        current = list(reps)
        for x in current:
            for y in current:
                if feed(x @ y):
                    grew = True
        if not grew:
            break
    return acc.rank, rounds


def check_hecke_generation(model):
    """For n = d: both corner generator families span the truncation."""
    if model.n != model.d:
        raise HypothesisError(
            f"the generation statement needs n = d, got n={model.n}, d={model.d}"
        )
    t0 = time.perf_counter()
    rep = CheckReport("hecke-generation", model.n, model.d, model.mode)
    proj = weight_idempotent(model, omega_weight(model))
    target = factorial(model.d)
    esym, fsym = model.names.plus, model.names.minus
    for item_id, first, second in (("EF", esym, fsym), ("FE", fsym, esym)):
        gens = [proj]
        for i in range(1, model.n):
            a = generator_action(model, first, i)
            b = generator_action(model, second, i)
            gens.append(proj @ a @ b @ proj)
        rank, rounds = _closure_rank(model, gens, target)
        rep.add(
            item_id,
            rank == target,
            detail=f"rank {rank} of {target} after {rounds} round(s)",
        )
    rep.seconds = time.perf_counter() - t0
    return rep


def hecke_summary(model):
    """Dimension and generation summary used by reports and the CLI.

    Products of corner elements stay in 1_omega S 1_omega, whose
    dimension is block_dimension(omega, omega) = d!, so a family of that
    rank is closed under products without forming any.  Otherwise
    closure is decided by the exact rank of the family with all its
    pairwise products.
    """
    result = omega_truncation(model)
    expected = factorial(model.d)
    family = result.family
    closed = result.dim == expected or result.dim == rank_of_family(
        model, family + [x @ y for x in family for y in family]
    )
    data = {
        "omega": list(result.omega),
        "dim": result.dim,
        "expected": expected,
        "closed_under_product": closed,
        "generation": None,
        "pass": result.dim == expected and closed,
    }
    if model.n == model.d:
        rep = check_hecke_generation(model)
        flags = {item.id: item.ok for item in rep.items}
        data["generation"] = {"EF": flags["EF"], "FE": flags["FE"]}
        data["pass"] = data["pass"] and rep.passed
    return data
