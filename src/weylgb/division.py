"""Leading terms and division with remainder in the Weyl algebra.

``divide`` realizes the reduction loop behind left-ideal membership: at each
step the currently greatest monomial of the working element is either
cancelled against the first divisor whose leading monomial divides it
(left-multiplying the divisor by the single-term cofactor), or moved into
the remainder.  On termination

    (a)  w == sum_i quotients[i] * divisors[i] + remainder      (exactly),
    (b)  no remainder monomial is divisible by any divisor's leading monomial,
    (c)  every nonzero quotients[i] * divisors[i] has leading monomial
         at most that of w.

The loop terminates because the working leading monomial strictly decreases
and every normal ordering is a well-order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .weyl import Monomial, WeylElement


class LeadingTerm(NamedTuple):
    monomial: Monomial
    coefficient: Fraction


def leading_term(w, ordering):
    """Greatest support monomial of w with its coefficient; w must be nonzero."""
    if not w:
        raise ValueError("the zero element has no leading term")
    mono = max(w.terms, key=ordering.sort_key)
    return LeadingTerm(mono, w.terms[mono])


def term_quotient(num: LeadingTerm, den: LeadingTerm) -> LeadingTerm:
    """Exponentwise quotient with coefficient division; den must divide num."""
    return LeadingTerm(num.monomial / den.monomial, num.coefficient / den.coefficient)


def monic(w, ordering):
    """Scale w so its leading coefficient is 1."""
    if not w:
        return w
    return w * (1 / leading_term(w, ordering).coefficient)


class DivisionInvariantError(RuntimeError):
    """A division step failed to lower the leading monomial: an engine bug, or
    an ordering that is not translation-compatible."""


@dataclass
class DivisionResult:
    quotients: list
    remainder: WeylElement


def divide(w, divisors, ordering, trace=None):
    """Divide w by an ordered list of divisors under the given ordering.

    Ties between usable divisors go to the first one in list order, which
    makes the result deterministic.  Zero divisors are skipped and receive
    zero quotients.  If ``trace`` is a list, the leading monomial of each
    successive working element is appended to it.
    """
    n = w.n
    for f in divisors:
        if f.n != n:
            raise ValueError(f"dimension mismatch: {n} vs {f.n}")
    quotients = [WeylElement.zero(n) for _ in divisors]
    remainder_terms = {}
    leads = [
        (i, leading_term(f, ordering)) for i, f in enumerate(divisors) if f
    ]
    p = w
    previous_key = None
    while p:
        lt_p = leading_term(p, ordering)
        key = ordering.sort_key(lt_p.monomial)
        if previous_key is not None and key >= previous_key:
            raise DivisionInvariantError(
                f"leading monomial {lt_p.monomial!r} did not drop below the "
                "previous one; the ordering is not a normal ordering"
            )
        previous_key = key
        if trace is not None:
            trace.append(lt_p.monomial)
        for i, lt_f in leads:
            if lt_f.monomial.divides(lt_p.monomial):
                cofactor = WeylElement.from_term(
                    n,
                    lt_p.monomial / lt_f.monomial,
                    lt_p.coefficient / lt_f.coefficient,
                )
                quotients[i] = quotients[i] + cofactor
                p = p - cofactor * divisors[i]
                break
        else:
            remainder_terms[lt_p.monomial] = lt_p.coefficient
            p = p - WeylElement.from_term(n, lt_p.monomial, lt_p.coefficient)
    return DivisionResult(quotients, WeylElement(n, remainder_terms))


@dataclass(frozen=True)
class ContractReport:
    """Outcome of the three division clauses, checked independently."""

    reconstruction: bool
    remainder_irreducible: bool
    quotient_bound: bool

    def all_ok(self):
        return self.reconstruction and self.remainder_irreducible and self.quotient_bound


def check_division_contract(w, divisors, ordering, result):
    """Re-verify clauses (a), (b), (c) for a computed DivisionResult."""
    combo = result.remainder
    for q, f in zip(result.quotients, divisors):
        combo = combo + q * f
    reconstruction = combo == w

    remainder_irreducible = True
    for f in divisors:
        if not f:
            continue
        lt_f = leading_term(f, ordering).monomial
        if any(lt_f.divides(s) for s in result.remainder.terms):
            remainder_irreducible = False
            break

    quotient_bound = True
    if w:
        lt_w = leading_term(w, ordering).monomial
        for q, f in zip(result.quotients, divisors):
            prod = q * f
            if prod and ordering.compare(leading_term(prod, ordering).monomial, lt_w) > 0:
                quotient_bound = False
                break

    return ContractReport(reconstruction, remainder_irreducible, quotient_bound)
