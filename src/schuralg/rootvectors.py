"""Root vectors, divided powers, and basis-label evaluation.

A positive root of gl_n is a pair (i, j) with i < j.  The plus root
vector for (i, j) acts like the matrix unit E_{ij}, the minus one like
E_{ji}.  The simple ones are the generators and the rest are defined
by the commutator-style recursion

    E_{ij} = E_{i,j-1} E_{j-1,j} - v^{-1} E_{j-1,j} E_{i,j-1}
    F_{ij} = F_{j-1,j} F_{i,j-1} - v      F_{i,j-1} F_{j-1,j}

for j > i + 1, in both modes.  Classically v = 1 and this is the Lie
bracket [E_{i,j-1}, E_{j-1,j}] = E_{ij} of gl_n, so the root vectors
act by the Leibniz rule of the matrix units.  Divided powers divide
the m-th operator power by m! (classical) or [m]! (quantum); the
division must be exact entrywise and raises NotDivisible otherwise,
which is how a wrong sign or twist in the recursion would surface.

Basis labels bundle a flavor with multi-index exponents.  Multi-index
tuples are always aligned with RootData.positive_roots (lexicographic
(i, j) order).
"""

from dataclasses import dataclass

from .tensormodel import generator_action, weight_idempotent

__all__ = [
    "BasisLabel",
    "KINDS",
    "root_vector",
    "divided_power",
    "root_divided_power",
    "eval_label",
    "pbw_generator_list",
    "label_to_json",
    "label_from_json",
    "label_key",
]

KINDS = ("B1", "B2", "PBW", "PLUS", "MINUS", "BOREL_UP", "BOREL_DOWN", "ZERO")


@dataclass(frozen=True)
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
    """The root vector operator for a positive root (i, j) and a sign.

    sign is "plus" or "minus".
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
        v = model.scalars.v_power
        if sign == "plus":
            upper = root_vector(model, (i, j - 1), "plus")
            step = root_vector(model, (j - 1, j), "plus")
            out = (upper @ step) - (step @ upper).scale(v(-1))
        else:
            upper = root_vector(model, (i, j - 1), "minus")
            step = root_vector(model, (j - 1, j), "minus")
            out = (step @ upper) - (upper @ step).scale(v(1))
    model._op_cache[key] = out
    return out


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
    """Cached m-th divided power of the root vector for (root, sign)."""
    key = ("divided", root, sign, m)
    if key not in model._op_cache:
        model._op_cache[key] = divided_power(model, root_vector(model, root, sign), m)
    return model._op_cache[key]


def _kostant_monomial(model, exponents, sign):
    """Product of divided root-vector powers in lexicographic root order."""
    out = None
    for root, m in zip(model.root_data.positive_roots, exponents):
        if not m:
            continue
        factor = root_divided_power(model, root, sign, m)
        out = factor if out is None else out @ factor
    return model.identity() if out is None else out


def pbw_generator_list(model, k0):
    """The ordered generator list for truncated PBW monomials.

    Minus root vectors first (lexicographic), then the Cartan
    generators with index != k0 in ascending order, then plus root
    vectors (lexicographic).
    """
    if not (1 <= k0 <= model.n):
        raise ValueError(f"k0 must be in 1..{model.n}")
    gens = []
    for root in model.root_data.positive_roots:
        gens.append((f"minus{root[0]}-{root[1]}", root_vector(model, root, "minus")))
    cartan = model.names.cartan
    for k in range(1, model.n + 1):
        if k != k0:
            gens.append((f"{cartan}{k}", generator_action(model, cartan, k)))
    for root in model.root_data.positive_roots:
        gens.append((f"plus{root[0]}-{root[1]}", root_vector(model, root, "plus")))
    return gens


def eval_label(model, label):
    """Evaluate a basis label to its operator on the model."""
    cache_key = ("label", label)
    if cache_key in model._op_cache:
        return model._op_cache[cache_key]
    flavor = label.flavor
    if flavor not in KINDS:
        raise ValueError(f"unknown flavor {flavor!r}")
    nroots = len(model.root_data.positive_roots)
    if flavor == "PBW":
        if label.pbw is None or label.k0 is None:
            raise ValueError("PBW label needs exponents and k0")
        gens = pbw_generator_list(model, label.k0)
        if len(label.pbw) != len(gens):
            raise ValueError("PBW exponent tuple has the wrong length")
        out = model.identity()
        for (_, gen), m in zip(gens, label.pbw):
            if m:
                out = out @ gen**m
    elif flavor == "ZERO":
        out = weight_idempotent(model, label.lam)
    elif flavor == "PLUS":
        _expect_len(label.A, nroots)
        out = _kostant_monomial(model, label.A, "plus")
    elif flavor == "MINUS":
        _expect_len(label.A, nroots)
        out = _kostant_monomial(model, label.A, "minus")
    elif flavor == "BOREL_UP":
        _expect_len(label.A, nroots)
        out = _kostant_monomial(model, label.A, "plus") @ weight_idempotent(model, label.lam)
    elif flavor == "BOREL_DOWN":
        _expect_len(label.A, nroots)
        out = weight_idempotent(model, label.lam) @ _kostant_monomial(model, label.A, "minus")
    elif flavor == "B1":
        _expect_len(label.A, nroots)
        _expect_len(label.C, nroots)
        out = (
            _kostant_monomial(model, label.A, "plus")
            @ weight_idempotent(model, label.lam)
            @ _kostant_monomial(model, label.C, "minus")
        )
    else:  # B2
        _expect_len(label.A, nroots)
        _expect_len(label.C, nroots)
        out = (
            _kostant_monomial(model, label.A, "minus")
            @ weight_idempotent(model, label.lam)
            @ _kostant_monomial(model, label.C, "plus")
        )
    model._op_cache[cache_key] = out
    return out


def _expect_len(tup, n):
    if len(tup) != n:
        raise ValueError(f"multi-index {tup} should have length {n}")


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
    roots = root_data.positive_roots
    out = {"flavor": label.flavor}
    if label.flavor == "PBW":
        out["pbw"] = list(label.pbw)
        out["k0"] = label.k0
        return out
    if label.flavor in ("B1", "B2", "PLUS", "MINUS", "BOREL_UP", "BOREL_DOWN"):
        out["A"] = _multi_index_to_json(roots, label.A)
    if label.flavor in ("B1", "B2"):
        out["C"] = _multi_index_to_json(roots, label.C)
    if label.lam is not None:
        out["lambda"] = list(label.lam)
    return out


def label_from_json(data, root_data):
    roots = root_data.positive_roots
    flavor = data["flavor"]
    if flavor == "PBW":
        return BasisLabel(flavor="PBW", pbw=tuple(data["pbw"]), k0=int(data["k0"]))
    zero = (0,) * len(roots)
    lam = tuple(data["lambda"]) if "lambda" in data else None
    return BasisLabel(
        flavor=flavor,
        A=_multi_index_from_json(roots, data.get("A")) if flavor != "ZERO" else zero,
        lam=lam,
        C=_multi_index_from_json(roots, data.get("C")) if flavor in ("B1", "B2") else zero,
    )


def _multi_index_str(roots, exponents):
    parts = [f"{i}-{j}:{m}" for (i, j), m in zip(roots, exponents) if m]
    return "{" + ",".join(parts) + "}"


def label_key(label, root_data):
    """Canonical compact name for a label, used as a table key."""
    roots = root_data.positive_roots
    lam = "(" + ",".join(str(x) for x in label.lam) + ")" if label.lam else ""
    if label.flavor == "PBW":
        return f"pbw[k0={label.k0};" + ",".join(str(m) for m in label.pbw) + "]"
    if label.flavor == "ZERO":
        return f"1{lam}"
    if label.flavor == "PLUS":
        return "e" + _multi_index_str(roots, label.A)
    if label.flavor == "MINUS":
        return "f" + _multi_index_str(roots, label.A)
    if label.flavor == "BOREL_UP":
        return "e" + _multi_index_str(roots, label.A) + f" 1{lam}"
    if label.flavor == "BOREL_DOWN":
        return f"1{lam} f" + _multi_index_str(roots, label.A)
    if label.flavor == "B1":
        return ("e" + _multi_index_str(roots, label.A) + f" 1{lam} f"
                + _multi_index_str(roots, label.C))
    return ("f" + _multi_index_str(roots, label.A) + f" 1{lam} e"
            + _multi_index_str(roots, label.C))
