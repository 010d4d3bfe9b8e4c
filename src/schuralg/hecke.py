"""Truncation by the idempotent of the all-ones weight.

With omega = (1, ..., 1, 0, ..., 0) (d ones, requiring n >= d), the
corner subalgebra 1_omega . S . 1_omega has dimension d! — it realizes
the group algebra of the symmetric group on d letters in classical mode
and its Hecke deformation in quantum mode.  This module finds the B1
labels of the corner, certifies their rank, and (for n = d) checks that
either family of corner products of the simple raising and lowering
generators generates the whole truncation.

Each B1 label e_A 1_lam f_C maps one weight space to one other, so its
operator b equals 1_dst b 1_src for the block (src, dst) it pins, and
1_omega b 1_omega is b on the block (omega, omega) and 0 on every other
block.  The truncation therefore enumerates only the labels of that
block: d! of them, against C(n^2 - 1 + d, d) in the whole family.

No operator product is formed: once the model's Hecke-commutation
certificate holds, a corner element x = x 1_omega is fixed by its image
x u_omega (see ``rootvectors``), so labels are ranked and multiplied on
their images, and generation is a search of a cyclic module, whose flat
vectors go straight to the rank kernel and whose rank is exact.
"""

from dataclasses import dataclass, field
from math import factorial

from .bases import _IntEchelon, _points, _prepared, enumerate_basis, rank_of_family
from .errors import HypothesisError
from .rootvectors import _act, block_images
from .tensormodel import (
    _apply_flat,
    _flat_columns,
    certify_hecke_commutation,
    generator_action,
    ordered_word,
)
from .verify import CheckReport

__all__ = [
    "TruncationResult",
    "omega_weight",
    "omega_truncation",
    "check_hecke_generation",
    "hecke_summary",
]


@dataclass
class TruncationResult:
    """The B1 labels with a nonzero corner image, and their exact rank."""

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
    """The B1 labels b with 1_omega b 1_omega nonzero, and their rank.

    Only the block (omega, omega) is enumerated: a label of another
    block has corner image 0, and one of this block is its own corner
    image, zero exactly when its image of u_omega is.  The family is a
    full scan's, in its order, ranked on those images, each built once
    in one memo (``rootvectors.block_images``): they all lie in the one
    block (omega, omega), and reach the rank kernel flat.
    """
    omega = omega_weight(model)
    labels = enumerate_basis(model.n, model.d, "B1", block=(omega, omega))
    [(_, images)] = block_images(model, {omega: {omega: labels}})
    family = [label for label, image in zip(labels, images) if image]
    return TruncationResult(omega, family, rank_of_family(model, [x for x in images if x]))


def _closure_rank(model, pairs, target):
    """Exact rank and search depth of A u_omega, for A the unital algebra
    that the corner products 1_omega a b 1_omega of ``pairs`` generate.

    A breadth-first search from u_omega, which stands for 1_omega,
    applies each a b to every vector that grew the rank at a point of v,
    on flat vectors (``tensormodel._apply_flat``); a b keeps the weight
    omega, so nothing is projected.  ``depth`` counts the rounds that
    grew the rank.  As dim A u_omega <= dim A <= d! = ``target``, a rank
    that reaches ``target`` proves generation.  A shorter one is
    certified on all the vectors generated: if they have no larger rank,
    those that grew it span the rest, their span is stable under each
    a b and is A u_omega, of dimension dim A since the certificate
    holds.  If they have, the point was a root, and the next is tried.
    """
    certify_hecke_commutation(model)
    anchor = model.word_index[ordered_word(omega_weight(model))]
    size = model.num_words
    pairs = [(_flat_columns(model, a), _flat_columns(model, b)) for a, b in pairs]
    start = {anchor: 1}
    for point in _points(model):
        echelon, frontier, generated, depth = _IntEchelon(), [start], [start], 0
        echelon.add(_prepared(start, point, size))
        while frontier and echelon.rank < target:
            grown = []
            for x in frontier:
                for a, b in pairs:
                    y = _apply_flat(a, _apply_flat(b, x, size), size)
                    generated.append(y)
                    if echelon.add(_prepared(y, point, size)):
                        grown.append(y)
            frontier = grown
            depth += bool(grown)
        if echelon.rank == target or rank_of_family(model, generated) == echelon.rank:
            return echelon.rank, depth


def check_hecke_generation(model):
    """For n = d: both corner generator families span the truncation;
    each item reports its family's exact closure rank (:func:`_closure_rank`)."""
    if model.n != model.d:
        raise HypothesisError(
            f"the generation statement needs n = d, got n={model.n}, d={model.d}"
        )
    rep = CheckReport("hecke-generation", model.n, model.d, model.mode)
    target = factorial(model.d)
    esym, fsym = model.names.plus, model.names.minus
    for item_id, first, second in (("EF", esym, fsym), ("FE", fsym, esym)):
        pairs = [(generator_action(model, first, i), generator_action(model, second, i))
                 for i in range(1, model.n)]
        rank, depth = _closure_rank(model, pairs, target)
        rep.add(item_id, rank == target,
                detail=f"rank {rank} of {target} at depth {depth}")
    return rep


def hecke_summary(model):
    """Dimension and generation summary used by reports and the CLI.

    Products of corner elements stay in 1_omega S 1_omega, whose
    dimension is block_dimension(omega, omega) = d!, so a family of that
    rank is closed under products without forming any.  Otherwise
    closure is decided by the exact rank of the family's images of
    u_omega, from one ``rootvectors.block_images`` walk, with the flat
    images x (y u_omega) of its pairwise products (``rootvectors._act``).
    """
    result = omega_truncation(model)
    expected = factorial(model.d)
    family = result.family
    closed = result.dim == expected
    if not closed:
        [(_, images)] = block_images(model, {result.omega: {result.omega: family}})
        closed = result.dim == rank_of_family(
            model, images + [_act(model, x, y, {}) for x in family for y in images])
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
