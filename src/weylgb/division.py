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

The working element is one mutable dict from monomial to int numerator over
one common int denominator, and a max-heap of the ordering's sort keys, one
entry per monomial that entered the dict, picks its leading term.  Each
divisor f is taken as (a / b) * F, with F of int coefficients, content 1
and leading coefficient L > 0.  Cancelling subtracts (N / L) * cofactor * F
from the numerators straight into the dict through ``weyl.add_product``, the
kernel every Weyl product shares, and pushes each monomial that enters it.
When L does not divide the leading numerator N, every numerator and the
denominator are first multiplied by L / gcd(N, L), and afterwards divided by
their common content.  Fractions are built only for quotient entries and
remainder terms.  Deletion is lazy: an entry whose monomial has since
cancelled out is skipped when popped.  Quotients and remainder grow by one
entry per step.  Every leading monomial popped must lie strictly below the
previous one, or ``DivisionInvariantError`` is raised; a leading term that a
step failed to cancel goes back on the heap, so the next pop raises.

``regular_remainder`` runs the same loop (``_reduce``) for the signature-based
completion in ``groebner``.  Each divisor comes with a limit, and is usable
only at a working monomial whose sort key lies below it, so that only
regular reductions happen; no quotients are kept.  ``divide`` passes no
limits.

An element's leading term under the ordering it was last asked about, and
its integer form F once it serves as a divisor, are kept in a private
one-entry memo on the element; a call under another ordering replaces the
entry.  The memo is freed with the element, does not keep the ordering
alive, and plays no part in ``==``, ``hash`` or ``repr``.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from operator import le, sub
from typing import NamedTuple

from .weyl import Monomial, WeylElement, _set_memo, add_product


class LeadingTerm(NamedTuple):
    monomial: Monomial
    coefficient: Fraction


def _prepared(w, ordering):
    """w's memo entry for the ordering: [weak reference to the ordering,
    leading term, None or the divisor form].

    An element keeps one entry, for the ordering it was last asked about; a
    call under another ordering replaces it.  The weak reference tells a
    live ordering from a dead one whose id was reused, and does not keep the
    ordering, or its key cache, alive.
    """
    if not w:
        raise ValueError("the zero element has no leading term")
    entry = w._memo
    if entry is None or entry[0]() is not ordering:
        mono = max(w.terms, key=ordering.sort_key)
        entry = [weakref.ref(ordering), LeadingTerm(mono, w.terms[mono]), None]
        _set_memo(w, entry)
    return entry


def leading_term(w, ordering):
    """Greatest support monomial of w with its coefficient; w must be nonzero."""
    return _prepared(w, ordering)[1]


def _divisor_form(f, ordering):
    """(exponent vector of the leading monomial, L, a, b, F) with
    f == (a / b) * F, where F maps monomials to ints with gcd 1 and L > 0 is
    its leading coefficient."""
    entry = _prepared(f, ordering)
    if entry[2] is None:
        lead = entry[1]
        coeffs = f.terms.values()
        b = math.lcm(*(c.denominator for c in coeffs))
        a = math.gcd(*(c.numerator for c in coeffs))
        if lead.coefficient < 0:
            a = -a
        ints = {m: c.numerator * (b // c.denominator) // a for m, c in f.terms.items()}
        entry[2] = (lead.monomial.vector, ints[lead.monomial], a, b, ints)
    return entry[2]


def monic(w, ordering):
    """Scale w so its leading coefficient is 1."""
    if not w:
        return w
    return w * (1 / leading_term(w, ordering).coefficient)


class DivisionInvariantError(RuntimeError):
    """A division step failed to lower the leading monomial: an engine bug, or
    an ordering that is not translation-compatible."""


@dataclass(frozen=True)
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
    leads = [(i, *_divisor_form(f, ordering), None) for i, f in enumerate(divisors) if f]
    quotients = [{} for _ in divisors]
    # w == (1 / den) * work, with int values in work
    den = math.lcm(*(c.denominator for c in w.terms.values()))
    work = {m: c.numerator * (den // c.denominator) for m, c in w.terms.items()}
    remainder = _reduce(work, den, leads, ordering.sort_key, trace, quotients)
    return DivisionResult(
        [WeylElement._raw(n, q) for q in quotients], WeylElement._raw(n, remainder)
    )


def regular_remainder(mono, f, divisors, limits, ordering, trace=None):
    """Remainder of mono * f under regular reduction by the divisors.

    divisors[j] is usable only at a working monomial whose sort key lies
    below ``limits[j]``; the signature-based completion in ``groebner`` sets
    the limits so that exactly the multiples with a signature below that of
    mono * f are subtracted.  The product is formed from f's integer form,
    so the remainder is a nonzero rational multiple of the true one.  All
    divisors must be nonzero; ``trace`` is as for ``divide``.
    """
    leads = [
        (i, *_divisor_form(g, ordering), limit)
        for i, (g, limit) in enumerate(zip(divisors, limits))
    ]
    work = {}
    add_product(work, 1, mono, _divisor_form(f, ordering)[4])
    return WeylElement._raw(f.n, _reduce(work, 1, leads, ordering.sort_key, trace, None))


def _reduce(work, den, leads, sort_key, trace, quotients):
    """The heap-reduction loop of ``divide`` and ``regular_remainder``.

    Reduces (1 / den) * work, an int dict it consumes, by the divisors in
    ``leads``, entries (index, lead vector, L, a, b, F, limit) with a limit
    of None where the divisor is usable everywhere.  Fills ``quotients``
    unless it is None, and returns the remainder as a dict of Fractions.
    """
    remainder = {}
    heap = [_Above(sort_key(m), m) for m in work]
    heapify(heap)
    previous_key = None
    while heap:
        top = heappop(heap)
        mono = top.mono
        coeff = work.get(mono)
        if coeff is None:
            continue  # cancelled since it was pushed
        key = top.key
        if previous_key is not None and key >= previous_key:
            raise DivisionInvariantError(
                f"leading monomial {mono!r} did not drop below the "
                "previous one; the ordering is not a normal ordering"
            )
        previous_key = key
        if trace is not None:
            trace.append(mono)
        vector = mono.vector
        for i, lead_vector, lead, a, b, f_ints, limit in leads:
            if all(map(le, lead_vector, vector)) and (limit is None or key < limit):
                cofactor = _cofactor(vector, lead_vector)
                if quotients is not None:
                    # (coeff / den) / ((a / b) * lead)
                    quotients[i][cofactor] = Fraction(coeff * b, den * a * lead)
                # work -= (coeff / lead) * cofactor * F, in ints: first scale
                # work and den by the part of lead that coeff lacks
                g = math.gcd(coeff, lead)
                scale = lead // g
                if scale > 1:
                    for m in work:
                        work[m] *= scale
                    den *= scale
                for m in add_product(work, -(coeff // g), cofactor, f_ints):
                    heappush(heap, _Above(sort_key(m), m))
                if scale > 1:
                    content = math.gcd(den, *work.values())
                    if content > 1:
                        for m in work:
                            work[m] //= content
                        den //= content
                if mono in work:
                    heappush(heap, top)  # not cancelled: the next pop fails the descent check
                break
        else:
            remainder[mono] = Fraction(work.pop(mono), den)
    return remainder


def _cofactor(vector, lead):
    """The monomial x^vector / lead for exponent vectors ``lead`` <= ``vector``."""
    return Monomial._raw(tuple(map(sub, vector, lead)))


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
    products = [q * f for q, f in zip(result.quotients, divisors)]
    combo = result.remainder
    for prod in products:
        combo = combo + prod
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
        for prod in products:
            if prod and ordering.compare(leading_term(prod, ordering).monomial, lt_w) > 0:
                quotient_bound = False
                break

    return ContractReport(reconstruction, remainder_irreducible, quotient_bound)
