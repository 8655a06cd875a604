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
their common content.  Deletion is lazy: an entry whose monomial has since
cancelled out is skipped when popped.  Quotients and remainder grow by one
entry per step.  Every leading monomial popped must lie strictly below the
previous one, or ``DivisionInvariantError`` is raised; a leading term that a
step failed to cancel goes back on the heap, so the next pop raises.

The remainder is kept the same way, as int numerators over the working
denominator: a rescale or content division covers ``work`` and the remainder
together, so Fractions are built only for quotient entries and, once at the
end of ``divide``, for the remainder terms.

``regular_remainder`` runs the same loop (``_reduce``) for the signature-based
completion in ``groebner``, which keeps one list of prepared divisor entries
(leading monomial, L, F, gap, index), appended once when an element joins its
basis, and passes it with the int form F of the element being reduced and
that element's signature (key, i).  A divisor whose leading monomial
divides the working monomial m is used only when its multiple there has the
smaller signature, that is when (sort_key(m) + gap, index) < (key, i); the
test runs only for such divisors, so only regular reductions happen.  No
quotients are kept, and the int remainder is returned as it is, leading
monomial first: a nonzero rational multiple of the true one.
``_monic_remainder`` turns it into the monic element with one Fraction per
term, and returns its int form with it, read off the ints at no extra cost.

Elements keep nothing from a call: a leading term or an int form is
computed in the call that needs it, and an algorithm that uses one many
times prepares it once and keeps it itself.  ``_entry`` is the one builder
of a prepared divisor entry, from an int form (``_int_form``) and the
leading monomial it is taken under.  ``divide`` builds one entry per
divisor per call, the completion one per element when it joins the basis,
and ``groebner._groebner_verdict`` one per element per verdict, from the
int forms and leading monomials it is given: ``is_groebner`` computes both
per call, and certification keeps the int forms for the whole call and
passes each marking as the leading monomials.  The verdict runs
``_reduce`` on int S-pairs for the remainder alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from operator import add, le, sub
from typing import NamedTuple

from .weyl import Monomial, WeylElement, _check_elements, add_product


class LeadingTerm(NamedTuple):
    monomial: Monomial
    coefficient: Fraction


def leading_term(w, ordering):
    """Greatest support monomial of w with its coefficient; w must be nonzero."""
    if not w:
        raise ValueError("the zero element has no leading term")
    mono = max(w.terms, key=ordering.sort_key)
    return LeadingTerm(mono, w.terms[mono])


def _int_form(f):
    """(a, b, F) with f == (a / b) * F, where F maps monomials to ints with
    gcd 1 and a > 0: the content-free int form of a nonzero f, whatever
    its leading term."""
    coeffs = f.terms.values()
    b = math.lcm(*(c.denominator for c in coeffs))
    a = math.gcd(*(c.numerator for c in coeffs))
    return a, b, {m: c.numerator * (b // c.denominator) // a for m, c in f.terms.items()}


def _entry(f_ints, lead, gap=None, index=0):
    """The prepared divisor entry (lead, L, F, gap, index) of an element with
    int form ``f_ints`` and leading monomial ``lead``: F is ``f_ints``,
    negated when it is negative at ``lead``, so that L = F[lead] > 0."""
    if f_ints[lead] < 0:
        f_ints = {m: -c for m, c in f_ints.items()}
    return (lead, f_ints[lead], f_ints, gap, index)


def monic(w, ordering):
    """Scale w so its leading coefficient is 1; w itself when it already is."""
    if not w:
        return w
    lc = leading_term(w, ordering).coefficient
    return w if lc == 1 else w * (1 / lc)


def _monic_remainder(n, ints):
    """(w, F) for the int remainder ``ints`` of ``regular_remainder``
    (leading monomial first): the monic element w it is a multiple of, and
    its content-free int form F, positive at the leading monomial, which
    stays F's first key."""
    lead = next(iter(ints))
    content = math.gcd(*ints.values())
    if ints[lead] < 0:
        content = -content
    f_ints = {m: c // content for m, c in ints.items()}
    lc = f_ints[lead]
    w = WeylElement._raw(n, {m: Fraction(c, lc) for m, c in f_ints.items()})
    return w, f_ints


class DivisionInvariantError(RuntimeError):
    """A division step failed to lower the leading monomial: an engine bug, or
    an ordering that is not translation-compatible."""


@dataclass(frozen=True)
class DivisionResult:
    """What ``divide`` returns: one quotient per divisor, in divisor order,
    and the remainder."""

    quotients: list
    remainder: WeylElement


def divide(w, divisors, ordering, trace=None):
    """Divide w by an ordered list of divisors under the given ordering.

    Ties between usable divisors go to the first one in list order, which
    makes the result deterministic.  Zero divisors are skipped and receive
    zero quotients.  If ``trace`` is a list, the leading monomial of each
    successive working element is appended to it.
    """
    w, *divisors = _check_elements([w, *divisors])
    n = w.n
    leads = []
    # (quotient terms, b, a * F[lead]) for f == (a / b) * F, per divisor; a
    # sign that _entry flips in F flips a too, so the product stays a * L
    quotients = []
    for i, f in enumerate(divisors):
        if f:
            a, b, f_ints = _int_form(f)
            lead = leading_term(f, ordering).monomial
            leads.append(_entry(f_ints, lead, None, i))
            quotients.append(({}, b, a * f_ints[lead]))
        else:
            quotients.append(({}, 1, 1))
    # w == (1 / den) * work, with int values in work
    den = math.lcm(*(c.denominator for c in w.terms.values()))
    work = {m: c.numerator * (den // c.denominator) for m, c in w.terms.items()}
    remainder, den = _reduce(work, den, leads, ordering.sort_key, trace, quotients, None)
    return DivisionResult(
        [WeylElement._raw(n, q) for q, _, _ in quotients],
        WeylElement._raw(n, {m: Fraction(c, den) for m, c in remainder.items()}),
    )


def regular_remainder(mono, f_ints, divisors, signature, ordering, trace=None):
    """Remainder of mono * F under regular reduction by the prepared divisors.

    ``f_ints`` is the int form F of the element f being reduced, as in its
    prepared entry, and ``divisors`` holds one entry (leading monomial, L, F,
    gap, index) per nonzero element, as the signature-based completion in
    ``groebner`` prepares them; ``signature`` is the Schreyer signature
    (key, i) of mono * f.  A divisor is used at a working monomial m only
    when (sort_key(m) + gap, index) < signature, so that exactly the
    multiples with a signature below that of mono * f are subtracted.  The
    remainder is returned as an int dict, leading monomial first, that is a
    nonzero rational multiple of the true one.  ``trace`` is as for
    ``divide``.
    """
    work = {}
    add_product(work, 1, mono, f_ints)
    return _reduce(work, 1, divisors, ordering.sort_key, trace, None, signature)[0]


def _reduce(work, den, leads, sort_key, trace, quotients, signature):
    """The heap-reduction loop of ``divide``, ``regular_remainder`` and the
    S-pair verdict that ``groebner.is_groebner`` and certification share.

    Reduces (1 / den) * work, an int dict it consumes, by the divisors in
    ``leads``, entries (lead monomial, L, F, gap, index) built by ``_entry``.
    With a signature (key, i), a divisor is usable at a working monomial only
    when its multiple there has a signature below it; with None, the gaps
    are not read and every divisor is usable everywhere.  Fills
    ``quotients[index]``, a triple (terms, b, a * L) for the divisor
    (a / b) * F, unless ``quotients`` is None.  Returns the remainder as int numerators over the
    final denominator, in the order its monomials were reached, and that
    denominator.
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
        for lead_mono, lead, f_ints, gap, index in leads:
            if all(map(le, lead_mono, mono)) and (
                signature is None or (tuple(map(add, key, gap)), index) < signature
            ):
                cofactor = _cofactor(mono, lead_mono)
                if quotients is not None:
                    # (coeff / den) / ((a / b) * lead)
                    q, b, a_lead = quotients[index]
                    q[cofactor] = Fraction(coeff * b, den * a_lead)
                # work -= (coeff / lead) * cofactor * F, in ints: first scale
                # work, the remainder and den by the part of lead that coeff
                # lacks
                g = math.gcd(coeff, lead)
                scale = lead // g
                if scale > 1:
                    for m in work:
                        work[m] *= scale
                    for m in remainder:
                        remainder[m] *= scale
                    den *= scale
                for m in add_product(work, -(coeff // g), cofactor, f_ints):
                    heappush(heap, _Above(sort_key(m), m))
                if scale > 1:
                    content = math.gcd(den, *work.values(), *remainder.values())
                    if content > 1:
                        for m in work:
                            work[m] //= content
                        for m in remainder:
                            remainder[m] //= content
                        den //= content
                if mono in work:
                    heappush(heap, top)  # not cancelled: the next pop fails the descent check
                break
        else:
            remainder[mono] = work.pop(mono)
    return remainder, den


def _cofactor(mono, lead):
    """The monomial mono / lead, for exponent tuples ``lead`` <= ``mono``."""
    return Monomial._raw(map(sub, mono, lead))


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
