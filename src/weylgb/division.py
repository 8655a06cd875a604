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

The working element is one mutable dict from monomial to coefficient, and a
max-heap of the ordering's sort keys, one entry per monomial that entered the
dict, picks its leading term.  Cancelling subtracts cofactor * divisor
straight into the dict through ``weyl.add_product``, the kernel every Weyl
product shares, and pushes each monomial that enters it.
Deletion is lazy: an entry whose monomial has since cancelled out is skipped
when popped.  Quotients and remainder grow by one entry per step.  Every
leading monomial popped must lie strictly below the previous one, or
``DivisionInvariantError`` is raised; a leading term that a step failed to
cancel goes back on the heap, so the next pop raises.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from typing import NamedTuple

from .weyl import Monomial, WeylElement, add_product


class LeadingTerm(NamedTuple):
    monomial: Monomial
    coefficient: Fraction


def leading_term(w, ordering):
    """Greatest support monomial of w with its coefficient; w must be nonzero."""
    if not w:
        raise ValueError("the zero element has no leading term")
    mono = max(w.terms, key=ordering.sort_key)
    return LeadingTerm(mono, w.terms[mono])


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
    sort_key = ordering.sort_key
    leads = [
        (i, *leading_term(f, ordering), f.terms)
        for i, f in enumerate(divisors)
        if f
    ]
    quotients = [{} for _ in divisors]
    remainder = {}
    work = dict(w.terms)
    heap = [_Above(sort_key(m), m) for m in work]
    heapify(heap)
    previous_key = None
    while heap:
        top = heappop(heap)
        mono = top.mono
        coeff = work.get(mono)
        if coeff is None:
            continue  # cancelled since it was pushed
        if previous_key is not None and top.key >= previous_key:
            raise DivisionInvariantError(
                f"leading monomial {mono!r} did not drop below the "
                "previous one; the ordering is not a normal ordering"
            )
        previous_key = top.key
        if trace is not None:
            trace.append(mono)
        for i, lead_mono, lead_coeff, f_terms in leads:
            if lead_mono.divides(mono):
                cofactor = mono / lead_mono
                scale = coeff / lead_coeff
                quotients[i][cofactor] = scale
                for m in add_product(work, -scale, cofactor, f_terms):
                    heappush(heap, _Above(sort_key(m), m))
                if mono in work:
                    heappush(heap, top)  # not cancelled: the next pop fails the descent check
                break
        else:
            remainder[mono] = work.pop(mono)
    return DivisionResult(
        [WeylElement._raw(n, q) for q in quotients], WeylElement._raw(n, remainder)
    )


class _Above:
    """Heap entry ordered by descending key, so heapq pops the greatest first."""

    __slots__ = ("key", "mono")

    def __init__(self, key, mono):
        self.key = key
        self.mono = mono

    def __lt__(self, other):
        return other.key < self.key


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
