"""Exact Schur-algebra and q-Schur-algebra computations on tensor space.

The package realizes S(n, d) — and its quantum analogue over the
rational functions of v — as linear operators on the d-th tensor power
of an n-dimensional space, with exact scalar arithmetic throughout.
It enumerates several bases, certifies their ranks, computes structure
constants, and machine-verifies the defining relations, reduction
formulas, and corner-truncation facts.  The ``schuralg`` console
script exposes the same functionality from the command line.
"""

from .bases import (
    KINDS,
    RankAccumulator,
    coordinates,
    enumerate_basis,
    rank_of_family,
    rank_of_labels,
    structure_constants,
)
from .errors import (
    BadWeight,
    CertificateError,
    HypothesisError,
    NotDivisible,
    NotInSpan,
    SizeLimit,
)
from .hecke import check_hecke_generation, hecke_summary, omega_truncation
from .ring import (
    LaurentFraction,
    LaurentPoly,
    gaussian_binomial,
    quantum_factorial,
    quantum_integer,
)
from .rootvectors import (
    BasisLabel,
    divided_power,
    eval_label,
    label_columns,
    label_image,
    label_key,
    root_divided_power,
    root_vector,
)
from .tensormodel import (
    build_model,
    cartan_binomial,
    certify_hecke_commutation,
    generator_action,
    ordered_word_row,
    weight_idempotent,
)
from .verify import (
    REDUCTION_FAMILIES,
    SUITES,
    CheckItem,
    CheckReport,
    check_enveloping_relations,
    check_idempotent_presentation,
    check_rank_one_presentation,
    check_reduction_formulas,
    check_schur_relations,
    check_specialization,
    check_structural_facts,
    suite_reports,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "BadWeight",
    "BasisLabel",
    "CertificateError",
    "CheckItem",
    "CheckReport",
    "HypothesisError",
    "KINDS",
    "LaurentFraction",
    "LaurentPoly",
    "NotDivisible",
    "NotInSpan",
    "RankAccumulator",
    "REDUCTION_FAMILIES",
    "SUITES",
    "SizeLimit",
    "build_model",
    "cartan_binomial",
    "certify_hecke_commutation",
    "check_enveloping_relations",
    "check_hecke_generation",
    "check_idempotent_presentation",
    "check_rank_one_presentation",
    "check_reduction_formulas",
    "check_schur_relations",
    "check_specialization",
    "check_structural_facts",
    "coordinates",
    "divided_power",
    "enumerate_basis",
    "eval_label",
    "gaussian_binomial",
    "generator_action",
    "hecke_summary",
    "label_columns",
    "label_image",
    "label_key",
    "omega_truncation",
    "ordered_word_row",
    "quantum_factorial",
    "quantum_integer",
    "rank_of_family",
    "rank_of_labels",
    "root_divided_power",
    "root_vector",
    "structure_constants",
    "suite_reports",
    "weight_idempotent",
]
