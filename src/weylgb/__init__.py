"""weylgb: exact Groebner bases in Weyl algebras over the rationals.

The names below are the library API that README.md's "Library API"
section documents.  Helpers and the types a caller only receives as
return values stay importable from their modules.
"""

from .division import divide, leading_term
from .feasibility import Infeasible, certifies_infeasibility, solve_inequalities
from .groebner import GroebnerBasis, buchberger, ideal_member, is_groebner, reduce_basis
from .orderings import DistanceBound, Filtration, Ordering, agree_on, ordering_distance
from .parsing import (
    ParseError,
    format_element,
    format_monomial,
    format_ordering,
    parse_element,
    parse_ordering,
)
from .universal import (
    CounterexampleOrdering,
    SaturationLimitExceeded,
    SupportCapExceeded,
    UniversalCertificate,
    certificate_json,
    certificate_text,
    certify_universal,
    enumerate_restrictions,
    universal_groebner,
)
from .weyl import Monomial, WeylAlgebra, WeylElement

__version__ = "0.1.0"

__all__ = [
    "CounterexampleOrdering",
    "DistanceBound",
    "Filtration",
    "GroebnerBasis",
    "Infeasible",
    "Monomial",
    "Ordering",
    "ParseError",
    "SaturationLimitExceeded",
    "SupportCapExceeded",
    "UniversalCertificate",
    "WeylAlgebra",
    "WeylElement",
    "agree_on",
    "buchberger",
    "certifies_infeasibility",
    "certificate_json",
    "certificate_text",
    "certify_universal",
    "divide",
    "enumerate_restrictions",
    "format_element",
    "format_monomial",
    "format_ordering",
    "ideal_member",
    "is_groebner",
    "leading_term",
    "ordering_distance",
    "parse_element",
    "parse_ordering",
    "reduce_basis",
    "solve_inequalities",
    "universal_groebner",
]
